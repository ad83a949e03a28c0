(** Deterministic pseudo-random numbers for the hardware simulator.

    A splitmix64 generator: tiny, fast, reproducible across runs and OCaml
    versions, which the tests rely on (measurement noise must be seeded).
    Not cryptographic — strictly simulation-quality randomness. *)

type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

(** Derive an independent stream (e.g. one per simulated core). *)
let split t label =
  let h = Hashtbl.hash label in
  { state = Int64.add t.state (Int64.of_int ((h * 2654435761) lor 1)) }

let golden = 0x9E3779B97F4A7C15L

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Uniform float in [0, 1). *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1. /. 9007199254740992.)

(** Uniform float in [lo, hi). *)
let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

(** Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next_int64 t) 1) (Int64.of_int bound))

(** Standard normal via Box–Muller. *)
let gaussian t =
  let u1 = Float.max 1e-12 (float t) in
  let u2 = float t in
  Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)

(** Multiplicative measurement noise: [1 + sigma·N(0,1)], clamped positive. *)
let noise_factor t ~sigma = Float.max 0.01 (1. +. (sigma *. gaussian t))

(** Jittered exponential backoff (see the interface). *)
let backoff t ~base ~factor ~jitter k =
  base *. (factor ** float_of_int k) *. (1. +. (jitter *. float t))
