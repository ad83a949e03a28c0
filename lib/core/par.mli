(** The one parallel map: [map_slots ~jobs n f] is [Array.init n f]
    computed on up to [jobs] domains (capped at
    [Domain.recommended_domain_count ()]).  Workers claim contiguous
    chunks of slots from a shared atomic cursor — no work stealing;
    chunks are small enough (≥ 8 per domain on average) that tail
    imbalance stays bounded — and each result lands in the slot of its
    index, so the array is independent of scheduling: any [jobs] gives
    the same result as [~jobs:1].  [f] must be safe to run concurrently
    on distinct slots.  If [f] raises, remaining chunks are abandoned,
    every spawned domain is joined, and then the first failure (in
    domain order, the calling domain first) is re-raised. *)
val map_slots : jobs:int -> int -> (int -> 'a) -> 'a array
