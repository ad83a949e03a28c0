(* toolchain-fleet: one offline process over a seeded generated fleet and
   the bundled repository — repository open (cold, then warm), parallel
   validate-all, compilation of every bundled system plus a generated
   ~10k-element one, and the application side: load each runtime model
   and answer a fixed query set. *)

open Obs
module Repo = Xpdl_repo.Repo
module Repo_index = Xpdl_repo.Repo_index
module Pipeline = Xpdl_toolchain.Pipeline
module Analysis = Xpdl_toolchain.Analysis
module Ir = Xpdl_toolchain.Ir
module Query = Xpdl_query.Query
module Oracle = Xpdl_gen.Oracle
module Gen = Xpdl_gen.Gen
module M = Xpdl_core.Model

type size = { fleet_models : int; synth_elements : int; heavy_systems : bool }

let full = { fleet_models = 3000; synth_elements = 10_000; heavy_systems = true }
let small = { fleet_models = 150; synth_elements = 600; heavy_systems = false }

type inputs = {
  fleet : string;
  synth_dir : string;
  systems : string list;
  fleet_files : int;
  out : int -> string;  (** per-pass output directory *)
}

let synth_id = "fleet_synth"

(* Bundled systems ([models/systems]) — the biggest one only at full
   size — plus the generated one. *)
let bundled_systems size =
  let r = Repo.load_bundled () in
  List.filter
    (fun id ->
      match Repo.find r id with
      | Some e -> e.M.kind = Xpdl_core.Schema.System && (size.heavy_systems || id <> "XScluster")
      | None -> false)
    (Repo.identifiers r)
  |> List.sort compare

let prepare ~seed ~size ~tag =
  let base = Filename.concat work_dir (Fmt.str "toolchain-%s-%d" tag (Unix.getpid ())) in
  remove_tree base;
  let fleet = Filename.concat base "fleet" and synth_dir = Filename.concat base "synth" in
  mkdir_p fleet;
  mkdir_p synth_dir;
  let files = Gen.repo_files (Gen.create ~seed) (Inputs.fleet_spec ~models:size.fleet_models) in
  Gen.write_repo ~dir:fleet files;
  write_file (Filename.concat synth_dir "fleet_synth.xpdl")
    (Inputs.synth_system ~seed ~elements:size.synth_elements ~id:synth_id);
  let out i =
    let d = Filename.concat base (Fmt.str "xrt%d" (i mod 2)) in
    mkdir_p d;
    d
  in
  ( { fleet; synth_dir; systems = bundled_systems size @ [ synth_id ]; fleet_files = List.length files; out },
    base )

let config inp = { Pipeline.default_config with search_path = [ "models"; inp.synth_dir ] }

let render_validation rs =
  String.concat "\n"
    (List.map
       (fun (v : Repo.validation) ->
         Fmt.str "%s %s %s" v.Repo.va_ident v.Repo.va_kind
           (String.concat ";" (List.map (Fmt.str "%a" Xpdl_core.Diagnostic.pp) v.Repo.va_errors)))
       rs)

let validation_errors rs =
  List.length (List.filter (fun (v : Repo.validation) -> v.Repo.va_errors <> []) rs)

let validate inp ~jobs ~cache =
  let r = Repo.create ~cache_capacity:cache () in
  Repo.open_root r inp.fleet;
  time (fun () -> Repo.validate_all ~jobs r)

(* The fixed query set an adaptive application asks at run time. *)
let query_set q ids =
  [|
    (fun () -> ignore (Sys.opaque_identity (Query.count_cores q)));
    (fun () -> ignore (Sys.opaque_identity (Query.total_static_power q)));
    (fun () -> ignore (Sys.opaque_identity (Query.total_memory_bytes q)));
    (fun () -> ignore (Sys.opaque_identity (Query.count_cuda_devices q)));
    (fun () -> ignore (Sys.opaque_identity (Query.max_frequency q)));
    (fun () -> ignore (Sys.opaque_identity (Query.is_multi_node q)));
    (fun () -> ignore (Sys.opaque_identity (Query.select q "//core")));
    (fun () -> ignore (Sys.opaque_identity (Query.find_by_id q ids.(0))));
    (fun () -> ignore (Sys.opaque_identity (Query.find_by_id q ids.(1))));
    (fun () -> ignore (Sys.opaque_identity (Query.installed_software q)));
  |]

let idents_of q =
  let ids = ref [] in
  ignore (Query.fold q (Query.root q) (fun () e -> match Query.ident e with Some i -> ids := i :: !ids | None -> ()) ());
  match List.rev !ids with
  | a :: b :: _ -> [| a; b |]
  | [ a ] -> [| a; a |]
  | [] -> [| "none"; "none" |]

(* The application side, in a process of its own like a real adaptive
   program: load each runtime model and take its first answer (app
   start), then answer the fixed query set over every loaded model, each
   query timed on its own. *)
type app = { starts : float list;  (** us, one per runtime model *) queries : int; query_ns : int; q_p50_us : float; q_p99_us : float }

(* Several short application processes per pass rather than one long
   one, so the run's figures average measurements spread across it. *)
let app_batches = 150
let app_procs = 6

let app_main files =
  let loaded =
    List.map
      (fun f ->
        let t0 = now_ns () in
        let q = Query.init f in
        ignore (Sys.opaque_identity (Query.count_cores q));
        (float_of_int (now_ns () - t0) /. 1e3, q))
      files
  in
  let set = Array.concat (List.map (fun (_, q) -> query_set q (idents_of q)) loaded) in
  let nq = Array.length set in
  for _ = 1 to 20 do
    Array.iter (fun f -> f ()) set
  done;
  let samples = Samples.create () and total = ref 0 in
  for _ = 1 to app_batches do
    Array.iter
      (fun f ->
        let t0 = now_ns () in
        f ();
        let dt = now_ns () - t0 in
        total := !total + dt;
        Samples.add samples (float_of_int dt /. 1e3))
      set
  done;
  Fmt.pr "%s %d %d %.17g %.17g@."
    (String.concat " " (List.map (fun (s, _) -> Fmt.str "%.17g" s) loaded))
    (nq * app_batches) !total (Samples.median samples) (Samples.percentile samples 0.99)

let app_process files =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: "--app" :: files))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  (match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> () | _ -> failwith "application process failed");
  match List.map float_of_string (String.split_on_char ' ' line) with
  | fields when List.length fields = List.length files + 4 -> (
      let starts = List.filteri (fun i _ -> i < List.length files) fields in
      match List.filteri (fun i _ -> i >= List.length files) fields with
      | [ queries; ns; p50; p99 ] ->
          { starts; queries = int_of_float queries; query_ns = int_of_float ns; q_p50_us = p50; q_p99_us = p99 }
      | _ -> assert false)
  | _ -> Fmt.failwith "unexpected application output %S" line

type pass = {
  cold : float;
  warm : float;
  validate_s : float;
  compile_s : float;
  apps : app list;
  parsed_cold : int;
  parsed_warm : int;
  validation : string;
  errors : int;
  reports : (string * Pipeline.report) list;
}

let pass inp ~idx ~jobs ~cache =
  (try Sys.remove (Repo_index.path_for_root inp.fleet) with Sys_error _ -> ());
  let r, cold = time (fun () -> let r = Repo.create () in Repo.open_root r inp.fleet; r) in
  let parsed_cold = (Repo.stats r).Repo.parsed_files in
  let warm = Samples.create () and parsed_warm = ref 0 in
  for _ = 1 to 5 do
    let r, dt = time (fun () -> let r = Repo.create () in Repo.open_root r inp.fleet; r) in
    Samples.add warm (s_of_ns dt);
    parsed_warm := (Repo.stats r).Repo.parsed_files
  done;
  let rs, vdt = validate inp ~jobs ~cache in
  let out = inp.out idx in
  let reports, cdt =
    time (fun () ->
        List.map
          (fun system ->
            match
              Pipeline.run_to_file ~config:(config inp) ~system ~output:(Filename.concat out (system ^ ".xrt")) ()
            with
            | Ok rep -> (system, rep)
            | Error msg -> Fmt.failwith "compile %s: %s" system msg)
          inp.systems)
  in
  let files = List.map (fun s -> Filename.concat out (s ^ ".xrt")) inp.systems in
  let apps = List.init app_procs (fun _ -> app_process files) in
  {
    cold = s_of_ns cold;
    warm = Samples.median warm;
    validate_s = s_of_ns vdt;
    compile_s = s_of_ns cdt;
    apps;
    parsed_cold;
    parsed_warm = !parsed_warm;
    validation = render_validation rs;
    errors = validation_errors rs;
    reports;
  }

let pass_s p =
  p.cold +. p.warm +. p.validate_s +. p.compile_s +. (List.fold_left ( +. ) 0. (List.hd p.apps).starts /. 1e6)

let approx a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* Loaded answers against Gen's naive oracle over the compiled model. *)
let oracle_check system q (rep : Pipeline.report) =
  let m = rep.Pipeline.model in
  let bad = ref [] in
  let chk name ok = if not ok then bad := Fmt.str "%s:%s" system name :: !bad in
  chk "count_cores" (Query.count_cores q = Oracle.count_cores m);
  chk "count_cuda_devices" (Query.count_cuda_devices q = Oracle.count_cuda_devices m);
  chk "total_static_power" (approx (Query.total_static_power q) (Oracle.total_static_power m));
  chk "total_memory_bytes" (approx (Query.total_memory_bytes q) (Oracle.total_memory_bytes m));
  let checked = ref 0 in
  List.iter
    (fun (_, _, (e : M.element)) ->
      match M.identifier e with
      | Some id when !checked < 50 ->
          incr checked;
          let fast = Option.map (fun (n : Ir.node) -> n.Ir.n_index) (Query.find_by_id q id) in
          let naive = Option.map fst (Oracle.find_by_id m id) in
          chk ("find_by_id " ^ id) (fast = naive)
      | _ -> ())
    (Oracle.paths m);
  !bad

let run ~seed ~seconds ~size =
  let inp, base = prepare ~seed ~size ~tag:"run" in
  let jobs = nproc () and cache = size.fleet_models + 64 in
  (* outside the timed window: the sequential validate-all reference *)
  let seq, _ = validate inp ~jobs:1 ~cache in
  let reference = render_validation seq in
  let passes = ref [] in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let idx = ref 0 in
  while !passes = [] || now_ns () < deadline do
    let p = pass inp ~idx:!idx ~jobs ~cache in
    (* only the first pass's reports are checked; dropping the others
       keeps peak memory independent of how many passes fit the run *)
    passes := (if !idx = 0 then p else { p with reports = [] }) :: !passes;
    incr idx
  done;
  let passes = List.rev !passes in
  let first = List.hd passes in
  (* a second compile for the byte-identity gate when the run fit one pass *)
  let second_dir =
    if List.length passes >= 2 then inp.out 1
    else begin
      List.iter
        (fun system ->
          ignore (Pipeline.run_to_file ~config:(config inp) ~system ~output:(Filename.concat (inp.out 1) (system ^ ".xrt")) ()))
        inp.systems;
      inp.out 1
    end
  in
  let differing =
    List.filter
      (fun s ->
        read_file (Filename.concat (inp.out 0) (s ^ ".xrt")) <> read_file (Filename.concat second_dir (s ^ ".xrt")))
      inp.systems
  in
  let verify_bad, oracle_bad =
    List.fold_left
      (fun (vb, ob) (system, rep) ->
        let q = Query.init (Filename.concat (inp.out 0) (system ^ ".xrt")) in
        let vb = match Ir.verify (Query.runtime_ir q) with Ok () -> vb | Error _ -> system :: vb in
        (vb, ob @ oracle_check system q rep))
      ([], []) first.reports
  in
  let diverged = List.filter (fun p -> p.validation <> reference) passes in
  let gates =
    [
      gate "ir_verify" (verify_bad = []) "failing: %s" (String.concat "," verify_bad);
      gate "compile_byte_identical" (differing = []) "differing: %s" (String.concat "," differing);
      gate "validate_all_jobs_identical" (diverged = []) "%d of %d passes differ from jobs=1"
        (List.length diverged) (List.length passes);
      gate "validate_all_error_count_stable"
        (List.for_all (fun p -> p.errors = validation_errors seq) passes)
        "jobs=1 errors %d" (validation_errors seq);
      gate "query_matches_oracle" (oracle_bad = []) "mismatches: %s" (String.concat "," oracle_bad);
    ]
  in
  let med f = median_of (List.map f passes) in
  let apps = List.concat_map (fun p -> p.apps) passes in
  (* The query percentiles are means over the run's application
     processes: a process's percentiles sit in one of two modes (about
     130 against 190 us for the p99 on the 2-vCPU host, by process, not
     by pass), and the median over processes jumps between the modes
     with their mix while the mean follows it. *)
  let over_apps f = List.fold_left (fun acc a -> acc +. f a) 0. apps /. float_of_int (List.length apps) in
  let app_start = median_of (List.concat_map (fun a -> a.starts) apps) in
  let queries = List.fold_left (fun acc a -> acc + a.queries) 0 apps in
  let thr = float_of_int queries /. s_of_ns (List.fold_left (fun acc a -> acc + a.query_ns) 0 apps) in
  let q_p50 = over_apps (fun a -> a.q_p50_us) and q_p99 = over_apps (fun a -> a.q_p99_us) in
  let elements =
    List.fold_left (fun acc (_, rep) -> acc + Ir.size rep.Pipeline.runtime_model) 0 first.reports
  in
  let synth_elems =
    match List.assoc_opt synth_id first.reports with Some rep -> Ir.size rep.Pipeline.runtime_model | None -> 0
  in
  let rss = peak_rss_mb None in
  remove_tree base;
  {
    metrics =
      [
        ("peak_rss_mb", rss, "MB");
        ("throughput_ops_s", thr, "1/s");
        ("op_p50_us", q_p50, "us");
        ("op_p99_us", q_p99, "us");
        ("key_op_us", med pass_s *. 1e6, "us");
      ];
    detail =
      [
        ("compile_s", med (fun p -> p.compile_s), "s");
        ("repo_open_cold_s", med (fun p -> p.cold), "s");
        ("repo_open_warm_s", med (fun p -> p.warm), "s");
        ("validate_all_s", med (fun p -> p.validate_s), "s");
        ("app_start_us", app_start, "us");
        ("app_query_p50_ns", q_p50 *. 1e3, "ns");
        ("fleet_pass_s", med pass_s, "s");
        ("peak_rss_mb", rss, "MB");
      ];
    gates;
    attempted = queries + List.length passes + List.length gates;
    failed = 0;
    inputs =
      [
        ("fleet_models", string_of_int size.fleet_models);
        ("fleet_files", string_of_int inp.fleet_files);
        ("systems", "[" ^ String.concat "," (List.map json_string inp.systems) ^ "]");
        ("runtime_model_elements", string_of_int elements);
        ("synth_elements", string_of_int synth_elems);
        ("validate_jobs", string_of_int jobs);
        ("validate_descriptors", string_of_int (List.length seq));
        ("validate_errors", string_of_int (validation_errors seq));
        ("passes", string_of_int (List.length passes));
      ];
  }

(* ------------------------------------------------------------------ *)
(* traced run *)

(* The pipeline's stages called one by one, each in a span, over every
   system; returns per-layer totals.  The runtime models must equal the
   ones [Pipeline.run] writes (checked by the caller). *)
let traced_compile inp repo =
  let open Trace in
  let s_compose = Samples.create () and s_an = Samples.create () and s_boot = Samples.create ()
  and s_build = Samples.create () and s_enc = Samples.create () in
  let elements = ref 0 and bytes = ref 0 and mismatched = ref [] in
  let gc0 = Gc.quick_stat () in
  List.iter
    (fun system ->
      let c =
        match span ~into:s_compose "compose" (fun () -> Repo.compose_by_name repo system) with
        | Ok c -> c
        | Error msg -> failwith msg
      in
      let model = c.Repo.model in
      elements := !elements + M.size model;
      let model, _ = span ~into:s_an "analysis.bandwidth" (fun () -> Analysis.effective_bandwidths model) in
      let model =
        span ~into:s_boot "microbench.bootstrap" (fun () ->
            let machine = Xpdl_simhw.Machine.create ~seed:Pipeline.default_config.machine_seed model in
            fst (Xpdl_microbench.Bootstrap.run ~opts:Pipeline.default_config.bootstrap_opts ~machine model))
      in
      let filtered = Analysis.filter_attributes ~drop:Pipeline.default_config.filter_drop model in
      let ir = span ~into:s_build "ir.build" (fun () -> Ir.of_model filtered) in
      let image = Ir.to_bytes ir in
      (* a real encode: patch one attribute with its own value so the
         arena is re-encoded rather than its load-time image returned *)
      let rec first_attr i (e : M.element) =
        match e.M.attrs with
        | a :: _ -> Some (i, a)
        | [] ->
            let rec kids i = function
              | [] -> (None, i)
              | k :: rest -> (
                  match first_attr i k with
                  | Some x -> (Some x, i)
                  | None -> kids (i + M.size k) rest)
            in
            fst (kids (i + 1) e.M.children)
      in
      (match first_attr 0 filtered with
      | Some (i, a) ->
          let fresh = Ir.of_model filtered in
          Ir.patch_attrs fresh i [ a ];
          let encoded = span ~into:s_enc "ir.encode" (fun () -> Ir.to_bytes fresh) in
          if Ir.size (Ir.of_bytes encoded) <> Ir.size ir then mismatched := (system ^ ":encode") :: !mismatched
      | None -> ());
      bytes := !bytes + String.length image;
      let written = read_file (Filename.concat (inp.out 0) (system ^ ".xrt")) in
      if written <> image then mismatched := system :: !mismatched)
    inp.systems;
  let gc1 = Gc.quick_stat () in
  let ms s = Samples.sum s /. 1e6 in
  ( [
      ("compose.ms", ms s_compose, "ms");
      ("compose.elements", float_of_int !elements, "count");
      ("analysis.bandwidth_ms", ms s_an, "ms");
      ("microbench.bootstrap_ms", ms s_boot, "ms");
      ("ir.build_ms", ms s_build, "ms");
      ("ir.encode_ms", ms s_enc, "ms");
      ("ir.bytes", float_of_int !bytes, "B");
      ("gc.major_count", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections), "count");
      ("gc.promoted_mwords", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. 1e6, "Mwords");
    ],
    !mismatched )

(* Parse, elaborate and validate every fleet and bundled file, each
   stage summed over the files; the median of three rounds. *)
let front_end inp =
  let files = ref [] in
  let rec walk d =
    Array.iter
      (fun n ->
        let p = Filename.concat d n in
        if Sys.is_directory p then walk p
        else if Filename.check_suffix n ".xpdl" then files := (p, read_file p) :: !files)
      (Sys.readdir d)
  in
  walk inp.fleet;
  walk "models";
  let files = List.rev !files in
  let bytes = List.fold_left (fun acc (_, s) -> acc + String.length s) 0 files in
  let round () =
    let docs, t_parse =
      time (fun () ->
          List.filter_map (fun (file, s) -> Result.to_option (Xpdl_xml.Parse.string ~file s)) files)
    in
    let els, t_elab =
      time (fun () ->
          List.filter_map (fun d -> try Some (fst (Xpdl_core.Elaborate.of_xml d)) with _ -> None) docs)
    in
    let _, t_val = time (fun () -> List.iter (fun e -> ignore (Xpdl_core.Validate.run e)) els) in
    (t_parse, t_elab, t_val)
  in
  let rounds = List.init 3 (fun _ -> round ()) in
  let med f = median_of (List.map (fun r -> float_of_int (f r)) rounds) /. 1e6 in
  let parse_ms = med (fun (p, _, _) -> p) in
  [
    ("xml.parse_ms", parse_ms, "ms");
    ("xml.mb_per_s", float_of_int bytes /. 1e6 /. (parse_ms /. 1e3), "MB/s");
    ("core.elaborate_ms", med (fun (_, e, _) -> e), "ms");
    ("core.validate_ms", med (fun (_, _, v) -> v), "ms");
  ]

let traced ~seed ~size ~tag =
  let inp, base = prepare ~seed ~size ~tag in
  let jobs = nproc () and cache = size.fleet_models + 64 in
  let p = pass inp ~idx:0 ~jobs ~cache in
  (* the compile stages again, one span per layer call *)
  Trace.enabled := true;
  Trace.reset ~phase_name:"toolchain-compile" ();
  let repo = Repo.create () in
  List.iter (Repo.add_root repo) [ "models"; inp.synth_dir ];
  let compile_metrics, mismatched = Trace.span "pass" (fun () -> traced_compile inp repo) in
  let coverage = Trace.covered_share ~root:"pass" in
  let fe = front_end inp in
  let idx_load = median_ns ~reps:5 (fun () -> Repo_index.load ~root:inp.fleet) /. 1e6 in
  let idx =
    match Repo_index.load ~root:inp.fleet with Ok (Some i) -> i | _ -> failwith "no fleet index after open"
  in
  let idx_save = median_ns ~reps:5 (fun () -> Repo_index.save ~root:inp.fleet idx) /. 1e6 in
  let _, seq_t = validate inp ~jobs:1 ~cache in
  let _, par_t = validate inp ~jobs ~cache in
  let liu = read_file (Filename.concat (inp.out 0) "liu_gpu_server.xrt") in
  let of_bytes = median_ns ~reps:51 (fun () -> Ir.of_bytes liu) /. 1e3 in
  let loaded = Ir.of_bytes liu in
  let verify = median_ns ~reps:51 (fun () -> Ir.verify loaded) /. 1e3 in
  let q = Query.of_ir loaded in
  let ids = idents_of q in
  let per_call f = median_ns ~reps:51 (fun () -> for _ = 1 to 1000 do f () done) /. 1000. in
  let getter = per_call (fun () -> ignore (Sys.opaque_identity (Query.find_by_id q ids.(0)))) in
  let derived = per_call (fun () -> ignore (Sys.opaque_identity (Query.total_static_power q))) in
  let select = per_call (fun () -> ignore (Sys.opaque_identity (Query.select q "//core"))) in
  (* tracing overhead on the application query loop *)
  let handles = List.map (fun s -> Query.init (Filename.concat (inp.out 0) (s ^ ".xrt"))) inp.systems in
  let loop traced =
    Trace.enabled := traced;
    Trace.reset ~phase_name:"toolchain-app" ();
    let t0 = now_ns () in
    let sets = Array.of_list (List.map (fun q -> query_set q (idents_of q)) handles) in
    for b = 0 to 19_999 do
      Trace.span "app.query_set" (fun () -> Array.iter (fun f -> f ()) sets.(b mod Array.length sets))
    done;
    now_ns () - t0
  in
  ignore (loop false);
  let plain = loop false in
  let traced_ns = loop true in
  Trace.enabled := false;
  remove_tree base;
  ( [
      ("repo.files_parsed_cold", float_of_int p.parsed_cold, "count");
      ("repo.files_parsed_warm", float_of_int p.parsed_warm, "count");
      ("repo_index.save_ms", idx_save, "ms");
      ("repo_index.load_ms", idx_load, "ms");
      ("repo.validate_par_speedup", float_of_int seq_t /. float_of_int par_t, "x");
    ]
    @ fe @ compile_metrics
    @ [
        ("ir.of_bytes_us", of_bytes, "us");
        ("ir.verify_us", verify, "us");
        ("query.getter_ns", getter, "ns");
        ("query.derived_ns", derived, "ns");
        ("query.select_ns", select, "ns");
      ],
    mismatched,
    coverage,
    float_of_int plain /. float_of_int traced_ns )
