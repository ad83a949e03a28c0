(** The one payload checksum of every binary format (runtime model
    [.xrt] v3, repository index [.xpdlidx] v2, WAL records and
    checkpoints): a 63-bit FNV-1a variant that folds eight bytes at a
    time.  Every bit of the input is covered — bits 62 and 63 of each
    aligned word are folded into the low bits before the 63-bit mask —
    and the result is non-negative, so it round-trips a u64 slot. *)

(** [sub s pos len] sums the bytes [s.[pos] .. s.[pos+len-1]]. *)
val sub : string -> int -> int -> int

(** The checksum of a whole string. *)
val string : string -> int
