(* Seeded input generation.  Everything a workload feeds the program is
   built here from the benchmark seed; the program only ever sees the
   generated text and files. *)

module Rng = Xpdl_simhw.Rng

let rng ~seed salt = Rng.split (Rng.create ~seed) ("perfbench:" ^ salt)

(* [k] sorted values from [pool], one drawn from each of [k] contiguous
   strata: every seed gets a ladder spread over the whole range, so the
   work per input stays comparable across seeds. *)
let stratified r k pool =
  let n = Array.length pool in
  let k = min k n in
  List.init k (fun i ->
      let lo = i * n / k and hi = (i + 1) * n / k in
      pool.(lo + Rng.int r (hi - lo)))

(* ------------------------------------------------------------------ *)
(* a generated cluster system of about [elements] elements *)

(* Inline hardware only (no [type] references, no ["?"] energies), so
   its cost is composition, analysis and the runtime model, not the
   microbenchmark bootstrap.  Nodes are chained by interconnects with
   seeded bandwidths; core counts, frequencies and powers vary per node. *)
let synth_system ~seed ~elements ~id =
  let r = rng ~seed "synth-system" in
  let b = Buffer.create (elements * 120) in
  let add fmt = Fmt.kstr (Buffer.add_string b) fmt in
  add "<system id=%S>\n  <cluster>\n" id;
  let count = ref 2 and nodes = ref 0 in
  while !count < elements do
    let i = !nodes in
    let cores = 6 + Rng.int r 5 in
    let ghz = 1.2 +. (0.1 *. float_of_int (Rng.int r 16)) in
    add "    <node id=\"n%d\">\n      <cpu id=\"n%d_cpu\">\n" i i;
    for c = 0 to cores - 1 do
      add
        "        <core id=\"n%d_c%d\" frequency=\"%.1f\" frequency_unit=\"GHz\" static_power=\"%.2f\" static_power_unit=\"W\"><cache name=\"L1\" size=\"%d\" unit=\"KiB\" /></core>\n"
        i c ghz
        (0.5 +. (0.05 *. float_of_int (Rng.int r 20)))
        (32 * (1 + Rng.int r 2))
    done;
    add "      </cpu>\n      <memory id=\"n%d_mem\" size=\"%d\" unit=\"GiB\" static_power=\"%.1f\" static_power_unit=\"W\" />\n    </node>\n"
      i (4 * (1 + Rng.int r 8)) (1.0 +. (0.5 *. float_of_int (Rng.int r 6)));
    count := !count + 3 + (2 * cores);
    incr nodes
  done;
  add "    <interconnects>\n";
  for i = 0 to !nodes - 2 do
    add
      "      <interconnect id=\"link%d\" head=\"n%d\" tail=\"n%d\"><channel name=\"lanes\" max_bandwidth=\"%de9\" /></interconnect>\n"
      i i (i + 1) (1 + Rng.int r 16)
  done;
  add "    </interconnects>\n  </cluster>\n</system>\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* the repository fleet *)

let fleet_spec ~models =
  {
    Xpdl_gen.Gen.default_repo_spec with
    rs_models = models;
    rs_dirs = 16;
    rs_corrupt = 0.01;
    rs_shadow = 0.02;
    rs_systems = 4;
  }

(* ------------------------------------------------------------------ *)
(* the SpMV sweep template with seeded axis ladders *)

(* The bundled examples/spmv_sweep.xpdl with its three [range] ladders
   replaced by seeded ones.  The ladders stay inside the socket power
   budget ([ncores * freq <= 12.5 GHz]) for most combinations, so most
   points are evaluated rather than pruned. *)
let dse_template ~seed ~source ~ncores ~freqs ~bws =
  let r = rng ~seed "dse-axes" in
  let nc = stratified r ncores (Array.init 6 (fun i -> i + 1)) in
  let fq = stratified r freqs (Array.init 16 (fun i -> 10 + i)) in
  let bw = stratified r bws (Array.init 30 (fun i -> i + 1)) in
  let ladder f l = String.concat "," (List.map f l) in
  let replace ~sub ~by s =
    let n = String.length sub in
    let rec find i =
      if i + n > String.length s then failwith ("dse template: missing " ^ sub)
      else if String.sub s i n = sub then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  in
  source
  |> replace ~sub:"range=\"2,4,6\"" ~by:(Fmt.str "range=%S" (ladder string_of_int nc))
  |> replace ~sub:"range=\"1.8,2.4,3.0\""
       ~by:(Fmt.str "range=%S" (ladder (fun t -> Fmt.str "%d.%d" (t / 10) (t mod 10)) fq))
  |> replace ~sub:"range=\"4e9,8e9,16e9\"" ~by:(Fmt.str "range=%S" (ladder (Fmt.str "%de9") bw))
