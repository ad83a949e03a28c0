(* Tests for crash-safe durability: the WAL's deterministic model codec,
   atomic checkpoints, torn-tail detection on replay (including the
   checksum's sensitivity to high bits of aligned words), store recovery
   bit-identity, and the fsynced atomic repository-index save. *)

open Xpdl_core
module Store = Xpdl_store.Store
module Wal = Xpdl_store.Wal
module Repo_index = Xpdl_repo.Repo_index

let case name f = Alcotest.test_case name `Quick f
let watts w = Model.Quantity (Xpdl_units.Units.watts w, "W")

(* root -> two cpus -> one core each *)
let small_tree () =
  let core i p =
    Model.make Schema.Core ~id:(Fmt.str "core%d" i) ~attrs:[ ("static_power", watts p) ]
  in
  Model.make Schema.System ~id:"sys"
    ~children:
      [
        Model.make Schema.Cpu ~id:"cpu1" ~attrs:[ ("static_power", watts 10.) ]
          ~children:[ core 1 2. ];
        Model.make Schema.Cpu ~id:"cpu2" ~attrs:[ ("static_power", watts 20.) ]
          ~children:[ core 2 4. ];
      ]

let rec remove_tree p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> remove_tree (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

let with_temp_dir prefix f =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  Fun.protect ~finally:(fun () -> try remove_tree d with Sys_error _ | Unix.Unix_error _ -> ()) (fun () -> f d)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let ok = function
  | Ok v -> v
  | Error d -> Alcotest.failf "unexpected diagnostic: %a" Diagnostic.pp d

(* ------------------------------------------------------------------ *)
(* fsync-policy parsing *)

let test_policy_parse () =
  Alcotest.(check bool) "always" true (Wal.policy_of_string "always" = Ok Wal.Always);
  Alcotest.(check bool) "never" true (Wal.policy_of_string "NEVER" = Ok Wal.Never);
  Alcotest.(check bool) "interval" true (Wal.policy_of_string "interval" = Ok (Wal.Interval 0.05));
  Alcotest.(check bool)
    "interval:0.5" true
    (Wal.policy_of_string "interval:0.5" = Ok (Wal.Interval 0.5));
  Alcotest.(check bool)
    "negative interval rejected" true
    (Result.is_error (Wal.policy_of_string "interval:-1"));
  Alcotest.(check bool) "garbage rejected" true (Result.is_error (Wal.policy_of_string "sometimes"))

(* ------------------------------------------------------------------ *)
(* deterministic model codec *)

let test_model_codec () =
  let m = small_tree () in
  let enc = Wal.encode_model m in
  let m' = ok (Wal.decode_model enc) in
  Alcotest.(check string) "bit-stable through a roundtrip" enc (Wal.encode_model m');
  Alcotest.(check bool)
    "fingerprint follows the encoding" true
    (Wal.model_fingerprint m = Wal.model_fingerprint m');
  (* a one-float change moves the fingerprint *)
  let m2 = Model.update_at m [ 0; 0 ] (fun e -> Model.set_attr e "static_power" (watts 2.5)) in
  Alcotest.(check bool)
    "distinct trees, distinct bytes" false
    (String.equal enc (Wal.encode_model m2));
  Alcotest.(check bool) "garbage does not decode" true (Result.is_error (Wal.decode_model "junk"))

(* ------------------------------------------------------------------ *)
(* checkpoints *)

let test_checkpoint_roundtrip () =
  with_temp_dir "xpdl-ck" (fun dir ->
      Alcotest.(check bool) "no checkpoint yet" true (ok (Wal.load_checkpoint ~dir) = None);
      let m = small_tree () in
      ok (Wal.write_checkpoint ~dir ~rev:5 m);
      (match ok (Wal.load_checkpoint ~dir) with
      | Some (rev, m') ->
          Alcotest.(check int) "revision" 5 rev;
          Alcotest.(check string)
            "image bit-identical" (Wal.encode_model m) (Wal.encode_model m')
      | None -> Alcotest.fail "checkpoint not found after write");
      Alcotest.(check bool)
        "no tmp residue" false
        (Sys.file_exists (Wal.checkpoint_path dir ^ ".tmp"));
      (* flip one byte mid-image: the checkpoint must refuse to load *)
      let path = Wal.checkpoint_path dir in
      let s = read_file path in
      let i = String.length s / 2 in
      let s' =
        String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x01) else c) s
      in
      write_file path s';
      match Wal.load_checkpoint ~dir with
      | Error d -> Alcotest.(check string) "corrupt checkpoint code" "XPDL900" d.Diagnostic.code
      | Ok _ -> Alcotest.fail "corrupt checkpoint must not load")

(* ------------------------------------------------------------------ *)
(* journal replay and torn tails *)

let ops_script () =
  let leaf = Model.make Schema.Core ~id:"extra" ~attrs:[ ("static_power", watts 1.) ] in
  [
    Wal.Set_attr ([ 0; 0 ], "static_power", watts 3.5);
    Wal.Insert_child ([ 1 ], 1, leaf);
    Wal.Remove_attr ([ 1; 0 ], "static_power");
    Wal.Replace_subtree ([ 0 ], leaf);
    Wal.Remove_child ([ 1 ], 1);
  ]

let append_script dir =
  let w = ok (Wal.open_log ~dir ~policy:Wal.Never ()) in
  List.iteri (fun i op -> ok (Wal.append w ~rev:(i + 1) op)) (ops_script ());
  Alcotest.(check int) "appended counter" 5 (Wal.appended w);
  Wal.close w

let test_replay_roundtrip () =
  with_temp_dir "xpdl-wal" (fun dir ->
      let records, diags, _ = ok (Wal.replay ~dir) in
      Alcotest.(check int) "missing journal replays empty" 0 (List.length records);
      Alcotest.(check int) "and clean" 0 (List.length diags);
      append_script dir;
      let records, diags, clean = ok (Wal.replay ~dir) in
      Alcotest.(check int) "all records back" 5 (List.length records);
      Alcotest.(check int) "clean read" 0 (List.length diags);
      Alcotest.(check int)
        "clean prefix is the whole file" clean
        (String.length (read_file (Wal.log_path dir)));
      Alcotest.(check (list int)) "revisions in order" [ 1; 2; 3; 4; 5 ] (List.map fst records);
      List.iter2
        (fun (_, got) want ->
          Alcotest.(check string) "op bytes" (Fmt.str "%a" Wal.pp_op want)
            (Fmt.str "%a" Wal.pp_op got))
        records (ops_script ()))

let test_replay_torn_tail () =
  with_temp_dir "xpdl-torn" (fun dir ->
      append_script dir;
      let path = Wal.log_path dir in
      let s = read_file path in
      (* cut 3 bytes off the last record's body *)
      write_file path (String.sub s 0 (String.length s - 3));
      let records, diags, clean = ok (Wal.replay ~dir) in
      Alcotest.(check int) "intact prefix survives" 4 (List.length records);
      (match diags with
      | [ d ] -> Alcotest.(check string) "torn tail code" "XPDL901" d.Diagnostic.code
      | _ -> Alcotest.failf "expected one diagnostic, got %d" (List.length diags));
      Alcotest.(check bool)
        "clean prefix excludes the torn record" true
        (clean < String.length s - 3);
      (* a bad magic number is fatal, not a truncation *)
      write_file path ("XXXXXXXX" ^ String.sub s 8 (String.length s - 8));
      match Wal.replay ~dir with
      | Error d -> Alcotest.(check string) "bad magic code" "XPDL900" d.Diagnostic.code
      | Ok _ -> Alcotest.fail "bad magic must not replay")

(* walk the journal frames to find the last record's payload offset *)
let last_payload s =
  let pos = ref 8 and last = ref 0 in
  while !pos < String.length s do
    last := !pos;
    let len = Int32.to_int (String.get_int32_le s !pos) land 0xFFFFFFFF in
    pos := !pos + 12 + len
  done;
  !last + 12

(* Every bit of a record's payload must be covered by the checksum —
   including bits 62-63 of each aligned 8-byte word, which a 63-bit
   folding checksum is prone to masking out (regression: a 0x40 flip on
   byte 7 of a word used to slip through replay and decode as a
   different, valid op). *)
let test_replay_checksum_covers_high_bits () =
  with_temp_dir "xpdl-bits" (fun dir ->
      append_script dir;
      let path = Wal.log_path dir in
      let s = read_file path in
      let payload = last_payload s in
      (* byte 7 of the payload's first aligned word, top bit of 0x40 =
         bit 62 of the word *)
      let target = payload + 7 in
      let s' =
        String.mapi (fun j c -> if j = target then Char.chr (Char.code c lxor 0x40) else c) s
      in
      write_file path s';
      let records, diags, _ = ok (Wal.replay ~dir) in
      Alcotest.(check int) "flipped record rejected" 4 (List.length records);
      match diags with
      | [ d ] -> Alcotest.(check string) "torn tail code" "XPDL901" d.Diagnostic.code
      | _ -> Alcotest.failf "expected one diagnostic, got %d" (List.length diags))

(* ------------------------------------------------------------------ *)
(* store recovery *)

let test_store_recover () =
  with_temp_dir "xpdl-rec" (fun dir ->
      let init = small_tree () in
      (* fresh directory: durable from revision 0, with the fresh-dir note *)
      let st, diags = ok (Store.recover ~policy:Wal.Never ~checkpoint_every:3 ~dir init) in
      Alcotest.(check bool)
        "fresh-dir diagnostic" true
        (List.exists (fun d -> d.Diagnostic.code = "XPDL904") diags);
      Alcotest.(check bool) "durable" true (Store.durable st);
      Alcotest.(check int) "starts at revision 0" 0 (Store.revision st);
      for i = 1 to 7 do
        Store.set_attr st [ 0; 0 ] "static_power" (watts (float_of_int i))
      done;
      Alcotest.(check int) "seven edits" 7 (Store.revision st);
      (* checkpoint_every = 3: the floor advanced at revision 6 *)
      Alcotest.(check (option int)) "checkpoint floor" (Some 6) (Store.checkpoint_rev st);
      Alcotest.(check bool) "journaled" true (Store.wal_appended st > 0);
      let head = Wal.model_fingerprint (Store.model st) in
      Store.sync_wal st;
      Store.close_wal st;
      (* reopen: bit-identical head at the same revision, no torn tail *)
      let st2, diags2 = ok (Store.recover ~policy:Wal.Never ~checkpoint_every:3 ~dir init) in
      Alcotest.(check bool)
        "clean recovery" false
        (List.exists (fun d -> d.Diagnostic.code = "XPDL901") diags2);
      Alcotest.(check int) "revision recovered" 7 (Store.revision st2);
      Alcotest.(check bool)
        "head bit-identical" true
        (Wal.model_fingerprint (Store.model st2) = head);
      (* the recovered store keeps journaling *)
      Store.set_attr st2 [ 0; 0 ] "static_power" (watts 99.);
      Alcotest.(check int) "keeps accepting edits" 8 (Store.revision st2);
      Store.close_wal st2;
      (* read-only recovery sees the converged head and touches nothing *)
      let before = read_file (Wal.checkpoint_path dir) in
      let st3, _ = ok (Store.recover ~read_only:true ~dir init) in
      Alcotest.(check int) "read-only revision" 8 (Store.revision st3);
      Alcotest.(check bool) "read-only is not durable" false (Store.durable st3);
      Alcotest.(check string)
        "read-only leaves the checkpoint alone" before
        (read_file (Wal.checkpoint_path dir)))

let test_store_recover_torn_tail () =
  with_temp_dir "xpdl-rec-torn" (fun dir ->
      let init = small_tree () in
      let st, _ = ok (Store.recover ~policy:Wal.Never ~checkpoint_every:100 ~dir init) in
      for i = 1 to 5 do
        Store.set_attr st [ 0; 0 ] "static_power" (watts (float_of_int i))
      done;
      Store.close_wal st;
      (* crash mid-append: cut the last record short *)
      let path = Wal.log_path dir in
      let s = read_file path in
      write_file path (String.sub s 0 (String.length s - 2));
      let st2, diags = ok (Store.recover ~policy:Wal.Never ~checkpoint_every:100 ~dir init) in
      Alcotest.(check bool)
        "torn tail reported" true
        (List.exists (fun d -> d.Diagnostic.code = "XPDL901") diags);
      Alcotest.(check int) "acknowledged prefix survives" 4 (Store.revision st2);
      Alcotest.(check bool)
        "prefix head matches the oracle" true
        (Wal.model_fingerprint (Store.model st2)
        = Wal.model_fingerprint
            (Model.update_at init [ 0; 0 ] (fun e -> Model.set_attr e "static_power" (watts 4.))));
      Store.close_wal st2)

(* ------------------------------------------------------------------ *)
(* repository-index save: atomic, fsynced, no residue *)

let test_repo_index_save_durable () =
  with_temp_dir "xpdl-idx" (fun root ->
      let idx =
        {
          Repo_index.files =
            [|
              {
                Repo_index.fr_path = "cpu.xpdl";
                fr_mtime = 12345.5;
                fr_size = 512;
                fr_quarantined = false;
                fr_parse_diags = [];
                fr_descs =
                  [
                    {
                      Repo_index.d_ident = Some "cpu1";
                      d_kind = "cpu";
                      d_line = 1;
                      d_col = 1;
                      d_span_off = 0;
                      d_span_len = 512;
                      d_diags = [];
                    };
                  ];
              };
            |];
        }
      in
      (match Repo_index.save ~root idx with
      | Ok () -> ()
      | Error d -> Alcotest.failf "save failed: %a" Diagnostic.pp d);
      let path = Repo_index.path_for_root root in
      Alcotest.(check bool) "sidecar exists" true (Sys.file_exists path);
      Alcotest.(check bool) "no tmp residue" false (Sys.file_exists (path ^ ".tmp"));
      (match Repo_index.load ~root with
      | Ok (Some idx') ->
          Alcotest.(check string)
            "roundtrips bit-identically" (Repo_index.encode idx) (Repo_index.encode idx')
      | Ok None -> Alcotest.fail "sidecar not found after save"
      | Error d -> Alcotest.failf "load failed: %a" Diagnostic.pp d);
      (* a save into an unwritable root degrades to a diagnostic *)
      match Repo_index.save ~root:(Filename.concat root "missing/sub") idx with
      | Error d -> Alcotest.(check string) "write failure code" "XPDL313" d.Diagnostic.code
      | Ok () -> Alcotest.fail "save into a missing directory must fail")

(* ------------------------------------------------------------------ *)
(* every bit of an aligned payload word is covered, in every format *)

(* The bit positions [0..63] of the checksum-aligned 8-byte word at
   [off] whose single-bit flip [rejected] fails to notice. *)
let missed_bits s off rejected =
  List.filter
    (fun bit ->
      let b = Bytes.of_string s in
      let at = off + (bit / 8) in
      Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl (bit mod 8))));
      not (rejected (Bytes.to_string b)))
    (List.init 64 Fun.id)

let has_code code = function Error d -> d.Diagnostic.code = code | Ok _ -> false

let test_xrt_bit_flips () =
  let module Ir = Xpdl_toolchain.Ir in
  let s = Ir.to_bytes (Ir.of_model (small_tree ())) in
  (* first word of the checksum grid (94 + 8k) inside the string blob:
     strings decode lazily, so only the checksum can notice a flip there *)
  let h k = Int64.to_int (String.get_int64_le s (14 + (8 * k))) in
  let blob = 94 + (4 * (h 2 + 1)) + h 5 + (4 * (h 3 + 1)) + h 6 + (4 * (h 4 + 1)) in
  let off = 94 + ((blob - 94 + 7) / 8 * 8) in
  Alcotest.(check bool) "word inside the string blob" true (off + 8 <= blob + h 7);
  let rejected b =
    match Ir.of_bytes b with
    | ir -> has_code "XPDL604" (Ir.verify ir)
    | exception Ir.Corrupt _ -> false
  in
  Alcotest.(check (list int)) "every flip fails verify" [] (missed_bits s off rejected)

let test_xpdlidx_bit_flips () =
  with_temp_dir "xpdl-idx-bits" (fun root ->
      let idx =
        {
          Repo_index.files =
            [|
              {
                Repo_index.fr_path = "cpu.xpdl";
                fr_mtime = 1.;
                fr_size = 64;
                fr_quarantined = false;
                fr_parse_diags = [];
                fr_descs = [];
              };
            |];
        }
      in
      let s = Repo_index.encode idx in
      (* the string blob follows the (nstr+1)-entry offset table; with one
         string it starts on the checksum grid (70 + 8k), and its first
         word is the path "cpu.xpdl", which no structural check reads *)
      let off = 70 + (4 * (Int64.to_int (String.get_int64_le s 38) + 1)) in
      Alcotest.(check int) "word on the checksum grid" 0 ((off - 70) mod 8);
      let rejected b =
        write_file (Repo_index.path_for_root root) b;
        has_code "XPDL311" (Repo_index.load ~root)
      in
      Alcotest.(check (list int)) "every flip rejected" [] (missed_bits s off rejected))

let test_wal_bit_flips () =
  with_temp_dir "xpdl-wal-bits" (fun dir ->
      append_script dir;
      let path = Wal.log_path dir in
      let s = read_file path in
      let rejected b =
        write_file path b;
        match Wal.replay ~dir with
        | Ok (records, [ d ], _) -> List.length records = 4 && d.Diagnostic.code = "XPDL901"
        | _ -> false
      in
      Alcotest.(check (list int)) "every flip truncates" [] (missed_bits s (last_payload s) rejected))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "durable"
    [
      ("policy", [ case "fsync policy parsing" test_policy_parse ]);
      ("codec", [ case "deterministic model image" test_model_codec ]);
      ("checkpoint", [ case "atomic roundtrip and corruption" test_checkpoint_roundtrip ]);
      ( "journal",
        [
          case "replay roundtrip" test_replay_roundtrip;
          case "torn tail truncation" test_replay_torn_tail;
          case "checksum covers word high bits" test_replay_checksum_covers_high_bits;
        ] );
      ( "recover",
        [
          case "bit-identical reopen" test_store_recover;
          case "torn tail recovery" test_store_recover_torn_tail;
        ] );
      ("repo-index", [ case "fsynced atomic save" test_repo_index_save_durable ]);
      ( "bit-flips",
        [
          case ".xrt payload word, all 64 bits" test_xrt_bit_flips;
          case ".xpdlidx payload word, all 64 bits" test_xpdlidx_bit_flips;
          case "WAL record payload word, all 64 bits" test_wal_bit_flips;
        ] );
    ]
