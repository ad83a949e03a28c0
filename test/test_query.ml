(* Tests for the runtime query API — the paper's four function categories
   (init, browsing, getters, derived-attribute analysis). *)

module Q = Xpdl_query.Query
module Ir = Xpdl_toolchain.Ir

let repo = lazy (Xpdl_repo.Repo.load_bundled ())

let model name =
  match Xpdl_repo.Repo.compose_by_name (Lazy.force repo) name with
  | Ok c -> c.Xpdl_repo.Repo.model
  | Error msg -> Alcotest.failf "compose %s: %s" name msg

(* liu server, through the full pipeline incl. bootstrap, as an app would
   see it at startup *)
let liu =
  lazy
    (match
       Xpdl_toolchain.Pipeline.run ~repo:(Lazy.force repo) ~system:"liu_gpu_server" ()
     with
    | Ok report ->
        let path = Filename.temp_file "xpdl_query" ".xrt" in
        Xpdl_toolchain.Ir.to_file path report.Xpdl_toolchain.Pipeline.runtime_model;
        let q = Q.init path in
        Sys.remove path;
        q
    | Error msg -> Alcotest.failf "pipeline: %s" msg)

let cluster = lazy (Q.of_model (model "XScluster"))
let myriad = lazy (Q.of_model (model "myriad_server"))

(* --- initialization --- *)

let test_init_bad_file () =
  let path = Filename.temp_file "bad" ".xrt" in
  let oc = open_out path in
  output_string oc "garbage";
  close_out oc;
  (match Q.init path with
  | exception Q.Query_error _ -> ()
  | _ -> Alcotest.fail "garbage file must be rejected");
  Sys.remove path

let test_init_missing_file () =
  match Q.init "/nonexistent/model.xrt" with
  | exception Q.Query_error _ -> ()
  | _ -> Alcotest.fail "missing file must be rejected"

(* --- browsing --- *)

let test_browse_root_children () =
  let q = Lazy.force liu in
  let root = Q.root q in
  Alcotest.(check (option string)) "root id" (Some "liu_gpu_server") (Q.ident root);
  let kids = Q.children q root in
  Alcotest.(check bool) "has children" true (List.length kids >= 5);
  List.iter
    (fun k -> Alcotest.(check bool) "parent link" true (Q.parent q k <> None))
    kids

let test_find_by_id () =
  let q = Lazy.force liu in
  Alcotest.(check bool) "gpu1" true (Q.find_by_id q "gpu1" <> None);
  Alcotest.(check bool) "missing" true (Q.find_by_id q "nothing_here" = None);
  match Q.find_by_id_exn q "ghost" with
  | exception Q.Query_error _ -> ()
  | _ -> Alcotest.fail "find_by_id_exn must raise"

let test_find_by_path () =
  let q = Lazy.force liu in
  match Q.find_by_path q "liu_gpu_server/gpu1/SMs/SM0" with
  | Some e -> Alcotest.(check (option string)) "SM0" (Some "SM0") (Q.ident e)
  | None -> Alcotest.fail "path lookup failed"

let test_all_of_kind () =
  let q = Lazy.force liu in
  Alcotest.(check int) "1 device" 1 (List.length (Q.all_of_kind q Xpdl_core.Schema.Device));
  Alcotest.(check bool) "many caches" true
    (List.length (Q.all_of_kind q Xpdl_core.Schema.Cache) > 10)

let test_subtree () =
  let q = Lazy.force liu in
  let gpu = Option.get (Q.find_by_id q "gpu1") in
  let sub = Q.subtree q gpu in
  Alcotest.(check bool) "gpu subtree large" true (List.length sub > 2000);
  Alcotest.(check bool) "contains itself" true (List.memq gpu sub)

(* --- getters --- *)

let test_typed_getters () =
  let q = Lazy.force liu in
  let gpu = Option.get (Q.find_by_id q "gpu1") in
  Alcotest.(check (option (float 1e-9))) "float" (Some 3.5) (Q.get_float gpu "compute_capability");
  Alcotest.(check (option string)) "string role" (Some "worker") (Q.get_string gpu "role");
  Alcotest.(check (option (float 1e-9))) "quantity W" (Some 16.)
    (Q.get_quantity gpu "static_power" ~dim:Xpdl_units.Units.Power);
  Alcotest.(check bool) "type_of" true (Q.type_of gpu = Some "Nvidia_K20c")

let test_quantity_dimension_guard () =
  let q = Lazy.force liu in
  let gpu = Option.get (Q.find_by_id q "gpu1") in
  match Q.get_quantity gpu "static_power" ~dim:Xpdl_units.Units.Time with
  | exception Q.Query_error _ -> ()
  | _ -> Alcotest.fail "wrong dimension must raise"

let test_absent_attribute () =
  let q = Lazy.force liu in
  let gpu = Option.get (Q.find_by_id q "gpu1") in
  Alcotest.(check (option string)) "absent" None (Q.get_string gpu "no_such_attr");
  Alcotest.(check bool) "not unknown" false (Q.is_unknown gpu "no_such_attr")

(* --- derived attributes --- *)

let test_count_cores () =
  let q = Lazy.force liu in
  Alcotest.(check int) "4 + 2496" 2500 (Q.count_cores q);
  let gpu = Option.get (Q.find_by_id q "gpu1") in
  Alcotest.(check int) "gpu cores" 2496 (Q.count_cores ~within:gpu q)

let test_count_cuda_devices () =
  Alcotest.(check int) "liu has 1" 1 (Q.count_cuda_devices (Lazy.force liu));
  Alcotest.(check int) "cluster has 8" 8 (Q.count_cuda_devices (Lazy.force cluster));
  Alcotest.(check int) "myriad has 0" 0 (Q.count_cuda_devices (Lazy.force myriad))

let test_total_static_power () =
  let q = Lazy.force liu in
  let p = Q.total_static_power q in
  (* Xeon 10 + DDR 4 + K20c 16 + gmem 8 + pcie 1.5 + 2496*0.01 = 64.46 *)
  Alcotest.(check (float 0.5)) "modeled sum" 64.46 p

let test_total_memory () =
  let q = Lazy.force liu in
  let gib = Q.total_memory_bytes q /. (1024. ** 3.) in
  (* 16 GB DDR + 5 GB gmem + 13 * 32 KB shm *)
  Alcotest.(check (float 0.01)) "21 GiB + shm" 21.0004 gib

let test_frequencies () =
  let q = Lazy.force liu in
  Alcotest.(check (option (float 1e3))) "min is GPU clock" (Some 7.06e8) (Q.min_frequency q);
  Alcotest.(check (option (float 1e3))) "max is host clock" (Some 2e9) (Q.max_frequency q)

let test_installed_software () =
  let q = Lazy.force liu in
  Alcotest.(check bool) "CUDA" true (Q.has_installed q "CUDA_6.0");
  Alcotest.(check bool) "CUSPARSE" true (Q.has_installed q "CUSPARSE_6.0");
  Alcotest.(check bool) "MKL" true (Q.has_installed q "MKL_11.0");
  Alcotest.(check bool) "not installed" false (Q.has_installed q "TensorFlow_2.0");
  Alcotest.(check (option string)) "path" (Some "/ext/local/cuda6.0/")
    (Q.installed_path q "CUDA_6.0")

let test_properties () =
  let q = Lazy.force liu in
  Alcotest.(check (option string)) "power meter" (Some "simulated")
    (Q.property q "ExternalPowerMeter");
  Alcotest.(check (option string)) "absent" None (Q.property q "NoSuchProperty")

let test_link_bandwidth () =
  let q = Lazy.force liu in
  match Q.link_bandwidth q "connection1" with
  | Some bw -> Alcotest.(check (float 1e6)) "PCIe 6 GiB/s" (6. *. (1024. ** 3.)) bw
  | None -> Alcotest.fail "link bandwidth"

let test_multi_node () =
  Alcotest.(check bool) "liu single-node" false (Q.is_multi_node (Lazy.force liu));
  Alcotest.(check bool) "cluster multi-node" true (Q.is_multi_node (Lazy.force cluster))

let test_hardware_of_kind_excludes_selectors () =
  let q = Lazy.force myriad in
  let all = Q.all_of_kind q Xpdl_core.Schema.Core in
  let hw = Q.hardware_of_kind q Xpdl_core.Schema.Core in
  (* 4 host + 9 myriad real cores; selectors in power domains excluded *)
  Alcotest.(check int) "physical cores" 13 (List.length hw);
  Alcotest.(check bool) "selectors exist in raw view" true (List.length all > List.length hw)

(* consistency: query results over the IR match aggregation over the model *)
let test_query_model_isomorphism () =
  let m = model "XScluster" in
  let q = Q.of_model m in
  Alcotest.(check int) "core counts agree" (Xpdl_energy.Aggregate.core_count m) (Q.count_cores q);
  Alcotest.(check (float 1e-6)) "static power agrees"
    (Xpdl_energy.Aggregate.static_power m)
    (Q.total_static_power q);
  Alcotest.(check (float 1.)) "memory agrees"
    (Xpdl_energy.Aggregate.memory_bytes m)
    (Q.total_memory_bytes q)

let test_all_by_ident () =
  let q = Lazy.force cluster in
  (* every node has a gpu1 instance: 4 matches *)
  let ir = (fun (x : Q.t) -> x) q in
  ignore ir;
  let gpu1s =
    List.filter
      (fun (e : Q.element) -> Q.ident e = Some "gpu1")
      (Q.all_of_kind q Xpdl_core.Schema.Device)
  in
  Alcotest.(check int) "4 gpu1 instances" 4 (List.length gpu1s);
  (* find_by_id returns the first in document order *)
  match Q.find_by_id q "gpu1" with
  | Some e ->
      Alcotest.(check bool) "first node's instance" true
        (String.length (Q.path e) >= 12 && String.sub (Q.path e) 0 12 = "XScluster/n0")
  | None -> Alcotest.fail "gpu1"

let test_children_of_kind_query () =
  let q = Lazy.force liu in
  let root = Q.root q in
  Alcotest.(check int) "one socket" 1
    (List.length (Q.children_of_kind q root Xpdl_core.Schema.Socket));
  Alcotest.(check int) "one device" 1
    (List.length (Q.children_of_kind q root Xpdl_core.Schema.Device))

(* --- fast paths: path index, memoized derived attributes, compiled
   selectors --- *)

let test_find_by_path_matches_scan () =
  let q = Lazy.force liu in
  (* the hash index must return what a document-order scan would: the
     first element with that path *)
  let first = Hashtbl.create 256 in
  ignore
    (Q.fold q (Q.root q)
       (fun () (e : Q.element) ->
         if not (Hashtbl.mem first (Q.path e)) then Hashtbl.add first (Q.path e) e)
       ());
  Hashtbl.iter
    (fun p (e : Q.element) ->
      match Q.find_by_path q p with
      | Some e' ->
          if not (e == e') then Alcotest.failf "path %s: index disagrees with scan" p
      | None -> Alcotest.failf "path %s not found via index" p)
    first;
  Alcotest.(check bool) "missing path" true (Q.find_by_path q "liu_gpu_server/ghost" = None)

let test_memoized_derived_attrs () =
  let q = Lazy.force liu in
  (* memoized results are stable across calls and across subtrees *)
  Alcotest.(check int) "count_cores stable" (Q.count_cores q) (Q.count_cores q);
  Alcotest.(check (float 1e-12)) "static power stable" (Q.total_static_power q)
    (Q.total_static_power q);
  let gpu = Option.get (Q.find_by_id q "gpu1") in
  let within_twice = (Q.count_cores ~within:gpu q, Q.count_cores ~within:gpu q) in
  Alcotest.(check int) "within stable" (fst within_twice) (snd within_twice);
  Alcotest.(check int) "gpu cores" 2496 (fst within_twice);
  (* the memoized value agrees with an unmemoized recount *)
  Alcotest.(check int) "memo = recount" (Q.count_cores ~within:gpu q)
    (Q.count ~within:gpu q (fun n ->
         Xpdl_core.Schema.equal_kind (Q.kind n) Xpdl_core.Schema.Core));
  Alcotest.(check (option (float 1e3))) "min frequency stable" (Q.min_frequency q)
    (Q.min_frequency q)

let test_select_kind_seeded () =
  let q = Lazy.force cluster in
  (* a //tag selector is seeded from the kind index; it must match
     exactly the document-order kind listing *)
  let selected = Q.select q "//cache" in
  let by_kind = Q.all_of_kind q Xpdl_core.Schema.Cache in
  Alcotest.(check int) "same cardinality" (List.length by_kind) (List.length selected);
  List.iter2
    (fun (a : Q.element) (b : Q.element) ->
      if not (a == b) then Alcotest.fail "seeded select out of document order")
    by_kind selected;
  (* predicates still apply after seeding *)
  let l3 = Q.select q "//cache[@level=3]" in
  Alcotest.(check bool) "some L3 caches" true (l3 <> []);
  List.iter
    (fun (e : Q.element) ->
      Alcotest.(check (option string)) "level is 3" (Some "3") (Q.get_string e "level"))
    l3;
  (* wildcard first steps still materialize everything *)
  match Q.select q "//*[@id=gpu1]" with
  | [] -> Alcotest.fail "wildcard descend must still work"
  | l -> Alcotest.(check int) "4 gpu1 instances" 4 (List.length l)

let test_select_compiled_reuse () =
  let q = Lazy.force liu in
  let c = Q.compile q "//cache[@level=3]" in
  Alcotest.(check bool) "compile cached" true (Q.compile q "//cache[@level=3]" == c);
  let a = Q.select_compiled q c and b = Q.select q "//cache[@level=3]" in
  Alcotest.(check int) "compiled = select" (List.length a) (List.length b);
  List.iter2 (fun (x : Q.element) y -> Alcotest.(check bool) "same" true (x == y)) a b

(* --- snapshots of a tracked handle --- *)

module Store = Xpdl_store.Store

(* Every derived family, a selector and the installed-software list,
   rendered so that equal strings mean bit-identical answers. *)
let answers q =
  let value = function
    | Ir.VQty (v, d) -> Fmt.str "%h%s" v (Xpdl_units.Units.dimension_name d)
    | Ir.VFloat f -> Fmt.str "%h" f
    | v -> Fmt.str "%a" Ir.pp_value v
  in
  let element (e : Q.element) =
    Fmt.str "%s{%s}" e.Ir.n_path
      (String.concat ","
         (Array.to_list
            (Array.map (fun (k, v) -> Ir.key_name k ^ "=" ^ value v) e.Ir.n_attrs)))
  in
  let freq = function None -> "-" | Some f -> Fmt.str "%h" f in
  let gpu = Q.find_by_id_exn q "gpu1" in
  String.concat "\n"
    ([
       string_of_int (Q.size q);
       string_of_int (Q.count_cores q);
       string_of_int (Q.count_cuda_devices q);
       Fmt.str "%h" (Q.total_static_power q);
       Fmt.str "%h" (Q.total_static_power ~within:gpu q);
       Fmt.str "%h" (Q.total_memory_bytes q);
       freq (Q.min_frequency q);
       freq (Q.max_frequency q);
     ]
    @ List.map element (Q.installed_software q)
    @ List.map element (Q.select q "//memory"))

(* A snapshot answers like a fresh handle over the model it captured,
   whatever the tracked handle it came from does afterwards. *)
let test_snapshot_isolation () =
  let watts w = Xpdl_core.Model.Quantity (Xpdl_units.Units.watts w, "W") in
  let m = model "liu_gpu_server" in
  let store = Store.of_model m in
  let head = Q.of_store store in
  let is kind (e : Xpdl_core.Model.element) = e.Xpdl_core.Model.kind = kind in
  let cores = Store.find_paths store (is Xpdl_core.Schema.Core) in
  let gpus = Store.find_paths store (is Xpdl_core.Schema.Device) in
  let mems = Store.find_paths store (is Xpdl_core.Schema.Memory) in
  (* memoize everything on the head, then patch its arena before the
     snapshot so the fork starts from a patched arena with memos *)
  ignore (answers head);
  Store.set_attr store (List.nth cores 3) "static_power" (watts 5.5);
  let captured = Store.model store in
  let snap = Q.snapshot head in
  let expect = answers (Q.of_model captured) in
  let bytes = Ir.to_bytes (Q.runtime_ir snap) in
  Alcotest.(check string) "snapshot = captured model" expect (answers snap);
  let still what =
    ignore (answers head);
    Alcotest.(check string) ("after " ^ what) expect (answers snap);
    Alcotest.(check bool) ("bytes after " ^ what) true (String.equal bytes (Ir.to_bytes (Q.runtime_ir snap)))
  in
  Store.set_attr store (List.nth cores 3) "static_power" (watts 9.25);
  Store.set_attr store (List.hd mems) "size"
    (Xpdl_core.Model.Quantity (Xpdl_units.Units.bytes 12345., "B"));
  Store.set_attr store (List.hd cores) "frequency"
    (Xpdl_core.Model.Quantity (Xpdl_units.Units.hertz 1e6, "Hz"));
  still "attribute edits";
  Store.remove_attr store (List.hd gpus) "static_power";
  still "remove_attr";
  Store.insert_child store [] (Xpdl_core.Model.make Xpdl_core.Schema.Core ~attrs:[ ("static_power", watts 3.) ]);
  still "a structural edit";
  (* the head did move *)
  Alcotest.(check bool) "head moved" false (String.equal expect (answers head));
  Alcotest.(check string) "head = current model" (answers (Q.of_model (Store.model store))) (answers head)

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "query"
    [
      ( "init",
        [ case "corrupt file" test_init_bad_file; case "missing file" test_init_missing_file ] );
      ( "browse",
        [
          case "root and children" test_browse_root_children;
          case "find by id" test_find_by_id;
          case "find by path" test_find_by_path;
          case "all of kind" test_all_of_kind;
          case "subtree" test_subtree;
        ] );
      ( "getters",
        [
          case "typed getters" test_typed_getters;
          case "dimension guard" test_quantity_dimension_guard;
          case "absent attribute" test_absent_attribute;
        ] );
      ( "analysis",
        [
          case "count_cores" test_count_cores;
          case "count_cuda_devices" test_count_cuda_devices;
          case "total_static_power" test_total_static_power;
          case "total_memory" test_total_memory;
          case "min/max frequency" test_frequencies;
          case "installed software" test_installed_software;
          case "properties" test_properties;
          case "link bandwidth" test_link_bandwidth;
          case "multi-node" test_multi_node;
          case "hardware vs selectors" test_hardware_of_kind_excludes_selectors;
          case "query/model isomorphism" test_query_model_isomorphism;
          case "duplicate identifiers across nodes" test_all_by_ident;
          case "children_of_kind" test_children_of_kind_query;
        ] );
      ( "fast paths",
        [
          case "path index = scan" test_find_by_path_matches_scan;
          case "memoized derived attributes" test_memoized_derived_attrs;
          case "kind-seeded select" test_select_kind_seeded;
          case "compiled selector reuse" test_select_compiled_reuse;
        ] );
      ("snapshot", [ case "isolated from the tracked handle" test_snapshot_isolation ]);
    ]
