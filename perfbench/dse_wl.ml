(* dse-sweep: [Dse.run] over a seeded axis grid on the SpMV sweep
   template at --jobs = nproc, plus the per-point latency of
   [Dse.eval_point]. *)

open Obs
module Dse = Xpdl_dse.Dse
module Analysis = Xpdl_toolchain.Analysis
module Machine = Xpdl_simhw.Machine
module Store = Xpdl_store.Store
module Query = Xpdl_query.Query
module Resilient = Xpdl_microbench.Resilient
module Spmv = Xpdl_compose.Spmv

type size = { ncores : int; freqs : int; bws : int; slice : int }

let full = { ncores = 6; freqs = 8; bws = 10; slice = 64 }
let small = { ncores = 3; freqs = 3; bws = 3; slice = 27 }

let template_path = "examples/spmv_sweep.xpdl"

let template ~seed ~size =
  let src =
    Inputs.dse_template ~seed ~source:(read_file template_path) ~ncores:size.ncores ~freqs:size.freqs
      ~bws:size.bws
  in
  fst (Xpdl_core.Elaborate.of_xml (Xpdl_xml.Parse.string_exn src))

let config ~seed jobs = { Dse.default_config with Dse.jobs; seed }

let sweep ~seed tmpl jobs =
  match Dse.run ~config:(config ~seed jobs) tmpl with
  | Ok r -> r
  | Error d -> Fmt.failwith "sweep: %s" d.Xpdl_core.Diagnostic.message

let evaluated (r : Dse.report) =
  Array.to_list r.Dse.rp_points
  |> List.filter_map (fun p -> match p.Dse.pt_status with Dse.Evaluated o -> Some (p.Dse.pt_index, o) | _ -> None)

(* The front by an all-pairs dominance check. *)
let naive_front pts =
  List.filter (fun (_, o) -> not (List.exists (fun (_, o') -> Dse.dominates o' o) pts)) pts
  |> List.map fst |> List.sort compare

let run ~seed ~seconds ~size =
  let tmpl = template ~seed ~size in
  let jobs = nproc () in
  let reference = sweep ~seed tmpl 1 in
  let ref_json = Dse.report_to_json reference in
  let axes = Dse.axes_of_template tmpl in
  let sp = match Dse.space axes with Ok sp -> sp | Error d -> failwith d.Xpdl_core.Diagnostic.message in
  let cfg = config ~seed 1 in
  (* parallel sweeps, each followed by a slice of sequential
     [Dse.eval_point] calls that walks the grid round-robin, so both
     figures sample the whole run *)
  let walls = Samples.create () and point = Samples.create () in
  let diverged = ref 0 and sweeps = ref 0 and cursor = ref 0 in
  let block = 1000 and block_ticks = ref [ cpu_ticks () ] in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  while !sweeps = 0 || now_ns () < deadline do
    let r, dt = time (fun () -> sweep ~seed tmpl jobs) in
    Samples.add walls (s_of_ns dt);
    if Dse.report_to_json r <> ref_json then incr diverged;
    incr sweeps;
    for _ = 1 to size.slice do
      let index = !cursor mod sp.Dse.sp_total in
      let bindings = Dse.decode sp index in
      let _, dt = time (fun () -> Dse.eval_point ~template:tmpl ~cfg ~index ~bindings) in
      Samples.add point (float_of_int dt /. 1e3);
      if Samples.count point mod block = 0 then block_ticks := cpu_ticks () :: !block_ticks;
      incr cursor
    done
  done;
  let pts = evaluated reference in
  let front_ok = naive_front pts = reference.Dse.rp_front in
  let gates =
    [
      gate "jobs_report_identical" (!diverged = 0) "%d of %d sweeps at jobs=%d differ from jobs=1" !diverged
        !sweeps jobs;
      gate "front_all_pairs" front_ok "front %d points, all-pairs %d" (List.length reference.Dse.rp_front)
        (List.length (naive_front pts));
      gate "points_not_failed" (reference.Dse.rp_failed = 0) "%d points failed" reference.Dse.rp_failed;
    ]
  in
  let space = reference.Dse.rp_space in
  let wall = Samples.median walls in
  (* point latency over blocks of 1000 consecutive points (a few seconds
     each), so ten lie beyond a block's p99 *)
  let steal =
    let t = Array.of_list (List.rev !block_ticks) in
    Array.init (Array.length t - 1) (fun b -> steal_share t.(b) t.(b + 1))
  in
  let p50 = median_over_blocks ~block ~steal point Samples.median
  and p99 = median_over_blocks ~block ~steal point (fun s -> Samples.percentile s 0.99) in
  let rss = peak_rss_mb None in
  {
    metrics =
      [
        ("peak_rss_mb", rss, "MB");
        ("throughput_ops_s", float_of_int space /. wall, "1/s");
        ("op_p50_us", p50, "us");
        ("op_p99_us", p99, "us");
        ("key_op_us", wall *. 1e6, "us");
      ];
    detail =
      [
        ("dse_points_s", float_of_int space /. wall, "1/s");
        ("sweep_s", wall, "s");
        ("point_p50_us", p50, "us");
        ("peak_rss_mb", rss, "MB");
      ];
    gates;
    attempted = (space * (!sweeps + 1)) + Samples.count point;
    failed = (reference.Dse.rp_failed * !sweeps) + !diverged;
    inputs =
      [
        ("template", json_string template_path);
        ("sweep_points", string_of_int space);
        ("evaluated", string_of_int reference.Dse.rp_evaluated);
        ("pruned", string_of_int reference.Dse.rp_pruned);
        ("axes", json_string (String.concat " x " (List.map (fun a -> Fmt.str "%s[%d]" a.Dse.ax_name (Array.length a.Dse.ax_values)) axes)));
        ("jobs", string_of_int jobs);
        ("sweeps", string_of_int !sweeps);
      ];
  }

(* ------------------------------------------------------------------ *)
(* traced run *)

(* [Dse.eval_point]'s steps called one by one from here, each in a
   span; the objectives must equal the engine's. *)
let traced_point tmpl (cfg : Dse.config) index bindings s =
  let open Trace in
  let sp name f = span ~into:(Hashtbl.find s name) name f in
  let env = List.map (fun (n, v) -> (n, Xpdl_expr.Expr.Num v)) bindings in
  let model, idiags = sp "core.instantiate" (fun () -> Xpdl_core.Instantiate.run ~env tmpl) in
  if List.exists (fun d -> Xpdl_core.Diagnostic.is_error d && List.mem d.Xpdl_core.Diagnostic.code Dse.prune_codes) idiags
  then None
  else
    let model, _ = span "analysis.bandwidth" (fun () -> Analysis.effective_bandwidths model) in
    let mseed = Dse.point_seed ~seed:cfg.Dse.seed index in
    let boot = sp "simhw.machine_create" (fun () -> Machine.create ~seed:mseed model) in
    let store = Store.of_model model in
    ignore (sp "microbench.resilient_bootstrap" (fun () -> Resilient.run_store ~policy:cfg.Dse.policy ~machine:boot store));
    let model = Store.model store in
    let machine = sp "simhw.machine_create" (fun () -> Machine.create ~seed:mseed model) in
    let query = span "query.of_model" (fun () -> Query.of_model model) in
    let w = cfg.Dse.workload in
    let ctx =
      Spmv.context ~iterations:w.Dse.wl_iterations ~query ~machine ~rows:w.Dse.wl_rows ~density:w.Dse.wl_density ()
    in
    let _, meas = sp "compose.dispatch" (fun () -> Xpdl_compose.Compose.dispatch Spmv.component ctx) in
    let static = sp "energy.static_power" (fun () -> Xpdl_energy.Aggregate.static_power model) in
    Some { Dse.o_energy = meas.Machine.total_energy; o_time = meas.Machine.elapsed; o_static_power = static }

let traced ~seed ~size =
  let tmpl = template ~seed ~size in
  let jobs = nproc () in
  let reference = sweep ~seed tmpl 1 in
  let axes = Dse.axes_of_template tmpl in
  let sp = match Dse.space axes with Ok sp -> sp | Error d -> failwith d.Xpdl_core.Diagnostic.message in
  let cfg = config ~seed 1 in
  let names =
    [ "core.instantiate"; "simhw.machine_create"; "microbench.resilient_bootstrap"; "compose.dispatch"; "energy.static_power" ]
  in
  let s = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace s n (Samples.create ())) names;
  let mismatched = ref 0 in
  let eval_all traced =
    Trace.enabled := traced;
    Trace.reset ~phase_name:"dse-points" ();
    let t0 = now_ns () in
    for index = 0 to sp.Dse.sp_total - 1 do
      let bindings = Dse.decode sp index in
      incr Trace.request;
      let o = Trace.span "point" (fun () -> traced_point tmpl cfg index bindings s) in
      let engine =
        match (Option.get (Dse.point_of_index reference index)).Dse.pt_status with
        | Dse.Evaluated o -> Some o
        | _ -> None
      in
      if traced && o <> engine then incr mismatched
    done;
    now_ns () - t0
  in
  ignore (eval_all false);
  let plain = eval_all false in
  let traced_ns = eval_all true in
  let coverage = Trace.covered_share ~root:"point" in
  Trace.enabled := false;
  let pts = evaluated reference in
  let pareto = median_ns ~reps:21 (fun () -> Dse.pareto_front pts) /. 1e6 in
  let timed jobs = median_of (List.init 3 (fun _ -> s_of_ns (snd (time (fun () -> sweep ~seed tmpl jobs))))) in
  let t1 = timed 1 and tn = timed jobs in
  let us n = Samples.median (Hashtbl.find s n) /. 1e3 in
  ( [
      ("core.instantiate_us", us "core.instantiate", "us");
      ("simhw.machine_create_us", us "simhw.machine_create", "us");
      ("microbench.resilient_bootstrap_us", us "microbench.resilient_bootstrap", "us");
      ("compose.dispatch_us", us "compose.dispatch", "us");
      ("energy.static_power_us", us "energy.static_power", "us");
      ("dse.pareto_ms", pareto, "ms");
      ("dse.evaluated_ratio", float_of_int reference.Dse.rp_evaluated /. float_of_int reference.Dse.rp_space, "ratio");
      ("dse.par_speedup", t1 /. tn, "x");
    ],
    !mismatched,
    coverage,
    float_of_int plain /. float_of_int traced_ns )
