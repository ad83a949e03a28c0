(* The repository benchmark: one command, four workloads.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--size full|small] [--server-cpu N]

   With --trace 0 it measures the end-to-end metrics; with --trace 1 it
   makes the separate traced run that gives the per-layer metrics.  The
   last line of standard output is the result object; the line before
   it is the record of host, inputs, named sub-metrics and gates.
   Run it from the repository root (see perfbench/README.md). *)

open Obs

let workloads = [ "serve-mixed"; "serve-reads"; "toolchain-fleet"; "dse-sweep" ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload (serve-mixed|serve-reads|toolchain-fleet|dse-sweep) --seed N \
     --seconds S --trace 0|1 [--size full|small] [--server-cpu N]";
  exit 2

let xpdltool = "_build/default/bin/xpdltool.exe"

(* [--server-cpu N] pins the spawned server to CPU N with taskset (run.py
   passes it on the end-to-end serve runs and pins the client to the same
   CPU), so the client-server placement is the same on every run. *)
let server_cmd = function Some cpu -> [ "taskset"; "-c"; cpu; xpdltool ] | None -> [ xpdltool ]

(* ------------------------------------------------------------------ *)
(* set-up of the offline workloads *)

(* What a fresh workload process does before its first timed operation:
   locate and load the bundled repository (toolchain-fleet) or parse and
   elaborate the sweep template (dse-sweep). *)
let setup_probe = function
  | "toolchain-fleet" -> ignore (Xpdl_repo.Repo.total_elements (Xpdl_repo.Repo.load_bundled ()))
  | "dse-sweep" -> ignore (Dse_wl.template ~seed:1 ~size:Dse_wl.small)
  | w -> Fmt.failwith "no set-up probe for %s" w

(* Launch-to-ready of a fresh process, the median of several spawns. *)
let offline_setup workload =
  let spawns =
    List.init 15 (fun _ ->
        let t0 = now_ns () in
        let pid =
          Unix.create_process Sys.executable_name
            [| Sys.executable_name; "--setup-probe"; workload |]
            Unix.stdin Unix.stdout Unix.stderr
        in
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith "set-up probe failed");
        s_of_ns (now_ns () - t0))
  in
  median_of spawns

(* ------------------------------------------------------------------ *)

let ticks_at_start = cpu_ticks ()

let host_json () =
  let steal = 100. *. steal_share ticks_at_start (cpu_ticks ()) in
  Fmt.str "{\"nproc\":%d,\"ocaml\":%s,\"os\":%s,\"word_size\":%d,\"steal_pct\":%.2f}" (nproc ())
    (json_string Sys.ocaml_version) (json_string Sys.os_type) Sys.word_size steal

let print_result ~workload ~seed ~seconds ~trace ~size (r : result) =
  let failed_gates = List.length (List.filter (fun g -> not g.g_ok) r.gates) in
  let failed = r.failed + failed_gates in
  let attempted = max 1 r.attempted in
  let gates_json =
    String.concat ","
      (List.map
         (fun g -> Fmt.str "{\"name\":%s,\"ok\":%b,\"detail\":%s}" (json_string g.g_name) g.g_ok (json_string g.g_detail))
         r.gates)
  in
  Fmt.pr
    "{\"perfbench\":{\"workload\":%s,\"seed\":%d,\"seconds\":%s,\"trace\":%d,\"size\":%s,\"host\":%s,\"inputs\":{%s},\"metrics\":{%s},\"gates\":[%s],\"error_rate\":%s}}@."
    (json_string workload) seed (json_float seconds) trace (json_string size) (host_json ())
    (String.concat "," (List.map (fun (k, v) -> Fmt.str "%s:%s" (json_string k) v) r.inputs))
    (metrics_json r.detail) gates_json
    (json_float (float_of_int failed /. float_of_int attempted));
  Fmt.pr "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}@." (failed = 0) attempted failed
    (metrics_json r.metrics);
  if failed > 0 then exit 1

(* ------------------------------------------------------------------ *)

let run_e2e ~workload ~seed ~seconds ~small ~server_cpu =
  match workload with
  | "serve-mixed" | "serve-reads" ->
      let kind = if workload = "serve-mixed" then Serve_wl.Mixed else Serve_wl.Reads in
      Serve_wl.run ~server:(server_cmd server_cpu) ~kind ~seed ~seconds
  | "toolchain-fleet" | "dse-sweep" ->
      let setup = offline_setup workload in
      let r =
        if workload = "toolchain-fleet" then
          Toolchain_wl.run ~seed ~seconds ~size:(if small then Toolchain_wl.small else Toolchain_wl.full)
        else Dse_wl.run ~seed ~seconds ~size:(if small then Dse_wl.small else Dse_wl.full)
      in
      { r with metrics = ("setup_s", setup, "s") :: r.metrics; detail = r.detail @ [ ("setup_s", setup, "s") ] }
  | _ -> usage ()

(* Every layer is measured on every traced run: on the workload's own
   inputs where it drives that layer, otherwise on a small calibration
   input, so each per-layer metric is a measurement. *)
let run_traced ~workload ~seed ~seconds ~small =
  let own w = workload = w in
  let spans = Filename.concat work_dir (Fmt.str "spans-%s-%d.tsv" workload seed) in
  (try Sys.remove spans with Sys_error _ -> ());
  Trace.out := Some spans;
  let serve_kind = if own "serve-reads" then Serve_wl.Reads else Serve_wl.Mixed in
  let serve_seconds = if own "serve-mixed" || own "serve-reads" then seconds else Float.min seconds 4. in
  let serve, s_cov, s_over, layers = Serve_wl.traced ~server:(server_cmd None) ~kind:serve_kind ~seed ~seconds:serve_seconds in
  let tsize = if own "toolchain-fleet" && not small then Toolchain_wl.full else Toolchain_wl.small in
  let tool, t_bad, t_cov, t_over = Toolchain_wl.traced ~seed ~size:tsize ~tag:"trace" in
  let dsize = if own "dse-sweep" && not small then Dse_wl.full else Dse_wl.small in
  let dse, d_bad, d_cov, d_over = Dse_wl.traced ~seed ~size:dsize in
  let coverage, overhead =
    if own "toolchain-fleet" then (t_cov, t_over)
    else if own "dse-sweep" then (d_cov, d_over)
    else (s_cov, s_over)
  in
  Trace.reset ();
  let metrics =
    serve @ tool @ dse @ [ ("trace.coverage", coverage, "ratio"); ("trace.overhead", overhead, "ratio") ]
  in
  {
    metrics;
    detail = layers;
    gates =
      [
        gate "traced_compile_matches_pipeline" (t_bad = []) "mismatched: %s" (String.concat "," t_bad);
        gate "traced_points_match_engine" (d_bad = 0) "%d points differ" d_bad;
      ];
    attempted = List.length metrics;
    failed = 0;
    inputs =
      [
        ("serve_stream", json_string (match serve_kind with Serve_wl.Mixed -> "mixed" | Serve_wl.Reads -> "reads"));
        ("toolchain_inputs", json_string (if own "toolchain-fleet" then "workload" else "calibration"));
        ("dse_inputs", json_string (if own "dse-sweep" then "workload" else "calibration"));
        ("spans_file", json_string spans);
      ];
  }

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "--setup-probe"; w ] -> setup_probe w
  | "--app" :: files -> Toolchain_wl.app_main files
  | _ ->
      let rec parse acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> parse ((k, v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let workload = get "--workload" in
      if not (List.mem workload workloads) then usage ();
      let seed = match int_of_string_opt (get "--seed") with Some s -> s | None -> usage () in
      let seconds = match float_of_string_opt (get "--seconds") with Some s when s > 0. -> s | _ -> usage () in
      let trace = match get "--trace" with "0" -> 0 | "1" -> 1 | _ -> usage () in
      let size = Option.value ~default:"full" (List.assoc_opt "--size" opts) in
      let small = match size with "small" -> true | "full" -> false | _ -> usage () in
      mkdir_p work_dir;
      let r =
        if trace = 0 then run_e2e ~workload ~seed ~seconds ~small ~server_cpu:(List.assoc_opt "--server-cpu" opts)
        else run_traced ~workload ~seed ~seconds ~small
      in
      print_result ~workload ~seed ~seconds ~trace ~size r
