(** Deterministic pseudo-random numbers for the hardware simulator
    (splitmix64).  Reproducible across runs; seeded measurement noise is
    what lets tests assert bootstrap accuracy.  Not cryptographic. *)

type t

val create : seed:int -> t

(** Derive an independent stream (e.g. one per simulated core). *)
val split : t -> string -> t

val next_int64 : t -> int64

(** Uniform float in [0, 1). *)
val float : t -> float

(** Uniform float in [lo, hi). *)
val uniform : t -> lo:float -> hi:float -> float

(** Uniform int in [0, bound); raises [Invalid_argument] on bound <= 0. *)
val int : t -> int -> int

(** Standard normal via Box–Muller. *)
val gaussian : t -> float

(** Multiplicative measurement noise: [1 + sigma·N(0,1)], clamped
    positive. *)
val noise_factor : t -> sigma:float -> float

(** The one retry backoff formula: the delay before retry [k] (from 0)
    is [base·factor^k] scaled by a one-sided jitter factor drawn uniform
    in [\[1, 1+jitter)] from the stream, so a retry never waits less
    than the unjittered delay.  Draws exactly one value per call. *)
val backoff : t -> base:float -> factor:float -> jitter:float -> int -> float
