(* serve-mixed and serve-reads: one closed-loop connection against a
   separately spawned [xpdltool serve] process; the traced run replays
   the same seeded request stream in-process with a span per layer. *)

open Obs
module P = Xpdl_serve.Protocol
module Client = Xpdl_serve.Client
module Server = Xpdl_serve.Server
module Frame = Xpdl_serve.Frame
module Hub = Xpdl_serve.Hub
module Store = Xpdl_store.Store
module Wal = Xpdl_store.Wal
module Query = Xpdl_query.Query
module Rng = Xpdl_simhw.Rng
module M = Xpdl_core.Model

type kind = Mixed | Reads

let system = "liu_gpu_server"

(* ------------------------------------------------------------------ *)
(* the seeded request stream *)

let getters = [| "size"; "multi-node"; "software"; "degraded" |]
let derived = [| "cores"; "static-power"; "memory"; "cuda-devices" |]
let edit_values = [| "1"; "2"; "3"; "5"; "7"; "11" |]

type op = Get of string | Derived of string | Edit of int list * string * int | Pinned of string

(* The default mix: 60% getters, 25% derived, 10% edits with request
   ids, 5% pin -> query@rev -> unpin; serve-reads keeps the first two. *)
let stream kind ~seed ~targets =
  let r = Inputs.rng ~seed "serve-stream" in
  let id_base = (1 + Rng.int r ((1 lsl 20) - 1)) lsl 24 in
  let seq = ref 0 in
  let total = match kind with Mixed -> 100 | Reads -> 85 in
  fun () ->
    let pick a = a.(Rng.int r (Array.length a)) in
    let x = Rng.int r total in
    if x < 60 then Get (pick getters)
    else if x < 85 then Derived (pick derived)
    else if x < 95 then begin
      incr seq;
      Edit (pick targets, pick edit_values, id_base + !seq)
    end
    else Pinned (pick derived)

let edit_request path value id =
  P.Edit { path; key = "static_power"; value; unit_spelling = Some "W"; req_id = Some id }

(* Index paths of a few seeded cores of the served system: the edit
   targets. *)
let edit_targets ~seed model =
  let cores = Array.of_list (Store.find_paths (Store.of_model model) (fun e -> e.M.kind = Xpdl_core.Schema.Core)) in
  let r = Inputs.rng ~seed "serve-targets" in
  Array.init 4 (fun _ -> cores.(Rng.int r (Array.length cores)))

let compose_served () =
  match Xpdl_repo.Repo.compose_by_name (Xpdl_repo.Repo.load_bundled ()) system with
  | Ok c -> c.Xpdl_repo.Repo.model
  | Error msg -> failwith msg

(* ------------------------------------------------------------------ *)
(* the server process *)

type server = { pid : int; addr : Server.addr; wal : string option; sock : string; log : string }

let live = ref []

let stop_server s =
  if List.mem s.pid !live then begin
    live := List.filter (( <> ) s.pid) !live;
    (try Unix.kill s.pid Sys.sigint with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.005;
          wait ()
      | 0, _ ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] s.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ();
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ s.sock; s.log ]
  end

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn_count = ref 0

(* Spawn [xpdltool serve] through the command prefix [server] (the
   binary, possibly behind [taskset]) and wait for its first Ping answer;
   returns the server and the spawn-to-Ping time in seconds. *)
let spawn ~server ~kind ~events =
  incr spawn_count;
  let tag = Fmt.str "%d-%d" (Unix.getpid ()) !spawn_count in
  let sock = Filename.concat work_dir ("s" ^ tag ^ ".sock") in
  let wal =
    match kind with
    | Mixed ->
        let d = Filename.concat work_dir ("wal-" ^ tag) in
        remove_tree d;
        Some d
    | Reads -> None
  in
  let args =
    server @ [ "serve"; system; "-m"; "models"; "--socket"; sock; "--deadline"; "600" ]
    @ match wal with Some d -> [ "--wal"; d ] | None -> []
  in
  let env =
    Array.append (Unix.environment ())
      (if events then [| "OCAML_RUNTIME_EVENTS_START=1"; "OCAML_RUNTIME_EVENTS_DIR=" ^ work_dir |]
       else [||])
  in
  let log = Filename.concat work_dir ("server-" ^ tag ^ ".log") in
  let log_fd = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let t0 = now_ns () in
  let pid = Unix.create_process_env (List.hd server) (Array.of_list args) env Unix.stdin log_fd log_fd in
  Unix.close log_fd;
  live := pid :: !live;
  let s = { pid; addr = Server.Unix_socket sock; wal; sock; log } in
  let give_up = Unix.gettimeofday () +. 120. in
  let rec ready () =
    match Client.connect s.addr with
    | cl -> (
        match Client.request ~timeout:10. cl P.Ping with
        | P.Ok P.Unit ->
            let dt = now_ns () - t0 in
            Client.close cl;
            dt
        | r -> Fmt.failwith "server answered Ping with %a" P.pp_response r)
    | exception Unix.Unix_error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (( <> ) pid) !live;
            failwith "the server exited before answering Ping");
        if Unix.gettimeofday () > give_up then failwith "the server did not come up";
        Unix.sleepf 0.001;
        ready ()
  in
  let dt = ready () in
  (s, s_of_ns dt)

(* ------------------------------------------------------------------ *)
(* server stats (outside the timed window only) *)

let scan_field json key =
  let pat = "\"" ^ key ^ "\":" in
  let pl = String.length pat and n = String.length json in
  let rec find i =
    if i + pl > n then None
    else if String.sub json i pl = pat then begin
      let j = ref (i + pl) in
      while !j < n && json.[!j] <> ',' && json.[!j] <> '}' do incr j done;
      Some (String.trim (String.sub json (i + pl) (!j - i - pl)))
    end
    else find (i + 1)
  in
  find 0

let stats cl =
  match Client.request ~timeout:30. cl P.Stats with
  | P.Ok (P.Str json) ->
      let int k = Option.bind (scan_field json k) int_of_string_opt |> Option.value ~default:(-1) in
      let fnv =
        match scan_field json "model_fnv" with
        | Some s when String.length s >= 2 -> String.sub s 1 (String.length s - 2)
        | _ -> ""
      in
      (int "revision", int "applied_edits", fnv)
  | r -> Fmt.failwith "Stats answered %a" P.pp_response r

(* ------------------------------------------------------------------ *)
(* the closed loop *)

type loop_result = {
  req : Samples.t;  (** every request, us *)
  done_at : Samples.t;  (** completion instants, s from the loop start *)
  cls : Samples.t;  (** request class: 0 getter, 1 derived, 2 edit, 3 pin, 4 pinned query, 5 unpin *)
  edit_ack : Samples.t;
  pinned : Samples.t;  (** pin -> query@rev -> unpin round trips, us *)
  pinned_at : Samples.t;  (** their completion instants, s from the loop start *)
  derived_rt : Samples.t;
  elapsed_s : float;
  requests : int;
  failures : int;
  acked : int;
  max_rev : int;
  pinned_checked : int;
  pinned_mismatch : int;
  win_steal : float array;  (** host steal share of each full one-second window *)
}

let same_answer a b =
  match (a, b) with
  | P.Ok (P.Float x), P.Ok (P.Float y) -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

(* One connection, each request sent when the previous answer arrived.
   [tick] runs every 64 requests, outside the timed calls. *)
let closed_loop ?(tick = ignore) cl next ~head_rev ~seconds =
  let req = Samples.create () and done_at = Samples.create () and cls = Samples.create ()
  and edit_ack = Samples.create ()
  and pinned = Samples.create () and pinned_at = Samples.create () and derived_rt = Samples.create () in
  let failures = ref 0 and acked = ref 0 and max_rev = ref head_rev and head = ref head_rev in
  let checked = ref 0 and mismatch = ref 0 and count = ref 0 in
  let head_answers = Hashtbl.create 8 in
  let t_start = now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let ticks = ref [ cpu_ticks () ] and boundary = ref (t_start + 1_000_000_000) in
  let send c r =
    Samples.add cls c;
    let t0 = now_ns () in
    let resp = try Client.request ~timeout:30. cl r with e -> P.Err { code = "transport"; msg = Printexc.to_string e } in
    let t1 = now_ns () in
    Samples.add req (float_of_int (t1 - t0) /. 1e3);
    Samples.add done_at (s_of_ns (t1 - t_start));
    incr count;
    (match resp with P.Ok _ -> () | _ -> incr failures);
    (resp, t1 - t0)
  in
  while now_ns () < deadline do
    (match next () with
    | Get q -> ignore (send 0. (P.Query { rev = -1; q }))
    | Derived q ->
        let resp, dt = send 1. (P.Query { rev = -1; q }) in
        Samples.add derived_rt (float_of_int dt /. 1e3);
        Hashtbl.replace head_answers q (!head, resp)
    | Edit (path, value, id) -> (
        let resp, dt = send 2. (edit_request path value id) in
        match resp with
        | P.Ok (P.Int rev) ->
            Samples.add edit_ack (float_of_int dt /. 1e3);
            incr acked;
            head := rev;
            if rev > !max_rev then max_rev := rev
        | _ -> ())
    | Pinned q -> (
        let t0 = now_ns () in
        match send 3. P.Pin with
        | P.Ok (P.Int rev), _ ->
            let answer, _ = send 4. (P.Query { rev; q }) in
            ignore (send 5. (P.Unpin rev));
            let t1 = now_ns () in
            Samples.add pinned (float_of_int (t1 - t0) /. 1e3);
            Samples.add pinned_at (s_of_ns (t1 - t_start));
            (* the only writer is this loop, so a head answer observed at
               the pinned revision must read back bit-identically *)
            (match Hashtbl.find_opt head_answers q with
            | Some (r, a) when r = rev ->
                incr checked;
                if not (same_answer a answer) then incr mismatch
            | _ -> ())
        | _ -> ()));
    if !count land 63 = 0 then tick ();
    if now_ns () >= !boundary then begin
      ticks := cpu_ticks () :: !ticks;
      boundary := !boundary + 1_000_000_000
    end
  done;
  {
    req;
    done_at;
    cls;
    edit_ack;
    pinned;
    pinned_at;
    derived_rt;
    elapsed_s = s_of_ns (now_ns () - t_start);
    requests = !count;
    failures = !failures;
    acked = !acked;
    max_rev = !max_rev;
    pinned_checked = !checked;
    pinned_mismatch = !mismatch;
    win_steal =
      (let t = Array.of_list (List.rev !ticks) in
       Array.init (max 0 (Array.length t - 1)) (fun w -> steal_share t.(w) t.(w + 1)));
  }

(* A statistic of the requests of the classes [keep], as the median of
   its values over the run's full one-second windows (those holding at
   least [min_count] such requests, and clean of host steal when enough
   are), so a burst of host noise moves one window rather than the run's
   figure; the whole run's value when fewer than three windows qualify.
   With [min_count] 1000 a p99 has ten samples beyond it in every
   window. *)
(* Windows beyond [Obs.steal_limit] are left out when enough remain. *)
let min_clean_windows = 5

let steal_limit (l : loop_result) = Obs.steal_limit (Array.to_list l.win_steal)

(* [windowed] over samples [lat] completed at instants [at] (seconds
   from the loop start) rather than over the loop's requests. *)
let windows (l : loop_result) ~lat ~at ~min_count stat =
  let full = int_of_float l.elapsed_s in
  let wins = Array.init (max 1 full) (fun _ -> Samples.create ()) in
  let all = Samples.create () in
  Array.iteri
    (fun i t ->
      Samples.add all lat.(i);
      let w = int_of_float t in
      if w < full then Samples.add wins.(w) lat.(i))
    at;
  let usable = List.filter (fun s -> Samples.count s >= min_count) (Array.to_list wins) in
  let limit = steal_limit l in
  let clean =
    List.filteri
      (fun w s -> w < Array.length l.win_steal && l.win_steal.(w) <= limit && Samples.count s >= min_count)
      (Array.to_list wins)
  in
  match (clean, usable) with
  | ws, _ when List.length ws >= min_clean_windows -> median_of (List.map stat ws)
  | _, ws when List.length ws >= 3 -> median_of (List.map stat ws)
  | _ -> stat all

let windowed (l : loop_result) ?(keep = fun _ -> true) ~min_count stat =
  let cls = Samples.to_array l.cls in
  let pick a = Array.of_list (List.filteri (fun i _ -> keep (int_of_float cls.(i))) (Array.to_list a)) in
  windows l ~lat:(pick (Samples.to_array l.req)) ~at:(pick (Samples.to_array l.done_at)) ~min_count stat

(* ------------------------------------------------------------------ *)
(* runtime events of the server process *)

module Gc_watch = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    minors : int array;  (** per ring *)
    cycles : int array;
    pauses : Samples.t array;
    open_at : (int * Runtime_events.runtime_phase, int64) Hashtbl.t;
  }

  let rings = 16

  let attach pid =
    let minors = Array.make rings 0 and cycles = Array.make rings 0 in
    let pauses = Array.init rings (fun _ -> Samples.create ()) in
    let open_at = Hashtbl.create 16 in
    let ring i = min (rings - 1) (max 0 i) in
    let paused = function
      | Runtime_events.EV_MINOR | EV_MAJOR_SLICE | EV_EXPLICIT_GC_FULL_MAJOR | EV_EXPLICIT_GC_COMPACT -> true
      | _ -> false
    in
    let runtime_begin r ts ph =
      (match ph with
      | Runtime_events.EV_MAJOR_GC_CYCLE_DOMAINS -> cycles.(ring r) <- cycles.(ring r) + 1
      | _ -> ());
      if paused ph then Hashtbl.replace open_at (ring r, ph) (Runtime_events.Timestamp.to_int64 ts)
    in
    let runtime_end r ts ph =
      if paused ph then begin
        (match ph with Runtime_events.EV_MINOR -> minors.(ring r) <- minors.(ring r) + 1 | _ -> ());
        match Hashtbl.find_opt open_at (ring r, ph) with
        | Some t0 ->
            Hashtbl.remove open_at (ring r, ph);
            Samples.add pauses.(ring r)
              (Int64.to_float (Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0) /. 1e3)
        | None -> ()
      end
    in
    let callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end () in
    let rec open_cursor tries =
      match Runtime_events.create_cursor (Some (work_dir, pid)) with
      | c -> Some c
      | exception Failure _ when tries > 0 ->
          Unix.sleepf 0.01;
          open_cursor (tries - 1)
      | exception Failure _ -> None
    in
    Option.map (fun cursor -> { cursor; callbacks; minors; cycles; pauses; open_at }) (open_cursor 200)

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

  (* Counts from the busiest ring (the event-loop domain); pauses are
     its minor collections and major slices. *)
  let summary t =
    let busiest = ref 0 in
    Array.iteri (fun i s -> if Samples.count s > Samples.count t.pauses.(!busiest) then busiest := i) t.pauses;
    let b = !busiest in
    let p = t.pauses.(b) in
    Runtime_events.free_cursor t.cursor;
    [
      ("gc.server_minor_count", float_of_int t.minors.(b), "count");
      ("gc.server_major_count", float_of_int (Array.fold_left max 0 t.cycles), "count");
      ("gc.server_pause_p99_us", Samples.percentile p 0.99, "us");
      ("gc.server_pause_total_ms", Samples.sum p /. 1e3, "ms");
    ]
end

(* ------------------------------------------------------------------ *)
(* end-to-end run *)

let setup_spawns = 9
let warmup_s = 1.0

let run ~server ~kind ~seed ~seconds =
  let model = compose_served () in
  let targets = edit_targets ~seed model in
  (* set-up: spawn to first Ping, median over several spawns; the last
     spawned server carries the run *)
  let setups = ref [] and carrier = ref None in
  for i = 1 to setup_spawns do
    let s, dt = spawn ~server ~kind ~events:false in
    setups := dt :: !setups;
    if i < setup_spawns then begin
      stop_server s;
      Option.iter remove_tree s.wal
    end
    else carrier := Some s
  done;
  let s = Option.get !carrier in
  let cl = Client.connect s.addr in
  let rev0, applied0, _ = stats cl in
  (* one untimed second first, so caches and the heap settle *)
  let next = stream kind ~seed ~targets in
  let w = closed_loop cl next ~head_rev:rev0 ~seconds:warmup_s in
  let l = closed_loop cl next ~head_rev:w.max_rev ~seconds in
  let failures = w.failures + l.failures and acked = w.acked + l.acked in
  let mismatch = w.pinned_mismatch + l.pinned_mismatch and checked = w.pinned_checked + l.pinned_checked in
  let rev1, applied1, fnv = stats cl in
  Client.close cl;
  let rss = peak_rss_mb (Some s.pid) in
  stop_server s;
  let applied = applied1 - applied0 in
  let gates =
    [
      gate "no_failed_requests" (failures = 0) "%d of %d requests failed" failures (w.requests + l.requests);
      gate "acknowledged_equals_applied" (applied = acked) "acked %d, applied %d" acked applied;
      gate "head_revision" (rev1 = l.max_rev) "server revision %d, highest acked %d" rev1 l.max_rev;
      gate "pinned_reads_bit_identical" (mismatch = 0) "%d of %d pinned reads differ" mismatch checked;
    ]
    @
    match s.wal with
    | None -> []
    | Some dir ->
        let g =
          match Store.recover ~read_only:true ~dir model with
          | Ok (st, _) ->
              let got_fnv = Fmt.str "%016x" (Wal.model_fingerprint (Store.model st)) in
              gate "wal_recovers_served_head"
                (Store.revision st = rev1 && String.equal got_fnv fnv)
                "recovered rev %d fnv %s, served rev %d fnv %s" (Store.revision st) got_fnv rev1 fnv
          | Error d -> gate "wal_recovers_served_head" false "recover failed: %s" d.Xpdl_core.Diagnostic.message
        in
        remove_tree dir;
        [ g ]
  in
  let p50 = windowed l ~min_count:100 Samples.median in
  let p99 = windowed l ~min_count:1000 (fun s -> Samples.percentile s 0.99) in
  (* requests per second: the median over full windows *)
  let thr =
    if l.elapsed_s >= 3. then windowed l ~min_count:1 (fun s -> float_of_int (Samples.count s))
    else float_of_int l.requests /. l.elapsed_s
  in
  (* the key operation: on serve-mixed the pin -> query@rev -> unpin
     round trip, whose snapshot build is the server's heaviest request
     (ROADMAP item 3); on serve-reads a derived query *)
  let edit_ack = windowed l ~keep:(( = ) 2) ~min_count:20 Samples.median in
  let pinned =
    windows l ~lat:(Samples.to_array l.pinned) ~at:(Samples.to_array l.pinned_at) ~min_count:20 Samples.median
  in
  let key, key_name =
    match kind with
    | Mixed -> (pinned, "pinned_p50_us")
    | Reads -> (windowed l ~keep:(( = ) 1) ~min_count:20 Samples.median, "derived_p50_us")
  in
  let setup = median_of !setups in
  {
    metrics =
      [
        ("setup_s", setup, "s");
        ("peak_rss_mb", rss, "MB");
        ("throughput_ops_s", thr, "1/s");
        ("op_p50_us", p50, "us");
        ("op_p99_us", p99, "us");
        ("key_op_us", key, "us");
      ];
    detail =
      [
        ("req_p50_us", p50, "us");
        ("req_p99_us", p99, "us");
        ("throughput_ops_s", thr, "1/s");
        (key_name, key, "us");
      ]
      @ (match kind with Mixed -> [ ("edit_ack_p50_us", edit_ack, "us") ] | Reads -> [])
      @ [ ("setup_s", setup, "s"); ("peak_rss_mb", rss, "MB") ];
    gates;
    attempted = w.requests + l.requests;
    failed = failures + mismatch;
    inputs =
      [
        ("system", json_string system);
        ("model_elements", string_of_int (Xpdl_core.Model.size model));
        ("connections", "1");
        ("loop", json_string "closed");
        ("fsync", json_string (match kind with Mixed -> "interval:0.05" | Reads -> "none (no WAL)"));
        ("mix", json_string (match kind with Mixed -> "60/25/10/5" | Reads -> "60/25/0/0"));
        ("requests", string_of_int l.requests);
        ("edits_acked", string_of_int acked);
        ("pinned_checked", string_of_int checked);
        ("checkpoints", string_of_int (acked / 1024));
        ("warmup_s", json_float warmup_s);
        ( "windows_clean_of_total",
          Fmt.str "[%d,%d]"
            (Array.fold_left (fun n s -> if s <= steal_limit l then n + 1 else n) 0 l.win_steal)
            (Array.length l.win_steal) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* traced run: in-process replay of the same stream *)

type replay = {
  r_requests : int;
  r_wall_ns : int;
  s_fenc : Samples.t;
  s_fdec : Samples.t;
  s_pdec : Samples.t;
  s_penc : Samples.t;
  s_getter : Samples.t;
  s_derived : Samples.t;
  s_edit : Samples.t;
  s_pin : Samples.t;
  s_unpin : Samples.t;
  s_pinned_q : Samples.t;
  s_set_attr : Samples.t;
  s_append : Samples.t;
  s_ckpt : Samples.t;
  s_store_pin : Samples.t;
  s_snap : Samples.t;
  mutable fsyncs : int;
  mutable wal_bytes : int;
  mutable appends : int;
}

let fresh_replay () =
  let s = Samples.create in
  {
    r_requests = 0;
    r_wall_ns = 0;
    s_fenc = s ();
    s_fdec = s ();
    s_pdec = s ();
    s_penc = s ();
    s_getter = s ();
    s_derived = s ();
    s_edit = s ();
    s_pin = s ();
    s_unpin = s ();
    s_pinned_q = s ();
    s_set_attr = s ();
    s_append = s ();
    s_ckpt = s ();
    s_store_pin = s ();
    s_snap = s ();
    fsyncs = 0;
    wal_bytes = 0;
    appends = 0;
  }

let fsync_interval_ns = 50_000_000

(* Requests per replay: enough for stable per-layer medians while the
   span buffer (about ten spans a request) stays a few megabytes. *)
let replay_cap = 30_000
let checkpoint_every = 1024

(* The hub under the same configuration as the served one (a durable
   store with the interval policy for serve-mixed), plus a shadow store
   and journal that take every edit through [Store.set_attr_raw] and
   [Wal.append] and every pin through [Store.pin] and [Query.of_model].
   The shadow journal applies the interval fsync policy from here, so
   each fsync is counted and timed at the call. *)
type env = {
  hub : Hub.t;
  session : Hub.session;
  shadow : Store.t;
  log : Wal.t;
  dir : string;
  mutable last_sync : int;
  sdec : Frame.decoder;
  cdec : Frame.decoder;
}

let make_env ~kind ~model ~tag =
  let dir = Filename.concat work_dir ("replay-" ^ tag) in
  remove_tree dir;
  mkdir_p (Filename.concat dir "shadow");
  let hub =
    match kind with
    | Mixed -> (
        match Store.recover ~policy:(Wal.Interval 0.05) ~dir:(Filename.concat dir "hub") model with
        | Ok (st, _) -> Hub.of_store st
        | Error d -> failwith d.Xpdl_core.Diagnostic.message)
    | Reads -> Hub.create model
  in
  let log =
    match Wal.open_log ~dir:(Filename.concat dir "shadow") ~policy:Wal.Never () with
    | Ok l -> l
    | Error d -> failwith d.Xpdl_core.Diagnostic.message
  in
  {
    hub;
    session = Hub.session hub;
    shadow = Store.of_model model;
    log;
    dir;
    last_sync = now_ns ();
    sdec = Frame.decoder ();
    cdec = Frame.decoder ();
  }

let log_bytes e = (Unix.stat (Wal.log_path (Filename.concat e.dir "shadow"))).Unix.st_size - 8

let shadow_edit e rp path value =
  let open Trace in
  ignore
    (span ~into:rp.s_set_attr "store.set_attr" (fun () ->
         Store.set_attr_raw e.shadow path ~unit_spelling:"W" "static_power" value));
  let v =
    match Option.bind (Store.element_at e.shadow path) (fun el -> M.attr el "static_power") with
    | Some v -> v
    | None -> failwith "shadow edit left no attribute"
  in
  (match
     span ~into:rp.s_append "wal.append" (fun () ->
         Wal.append e.log ~rev:(Store.revision e.shadow) (Wal.Set_attr (path, "static_power", v)))
   with
  | Ok () -> ()
  | Error d -> failwith d.Xpdl_core.Diagnostic.message);
  rp.appends <- rp.appends + 1;
  if now_ns () - e.last_sync >= fsync_interval_ns then begin
    span "wal.fsync" (fun () -> Wal.sync e.log);
    e.last_sync <- now_ns ();
    rp.fsyncs <- rp.fsyncs + 1
  end;
  if rp.appends mod checkpoint_every = 0 then begin
    rp.wal_bytes <- rp.wal_bytes + log_bytes e;
    span ~into:rp.s_ckpt "wal.checkpoint" (fun () ->
        ignore (Wal.write_checkpoint ~dir:(Filename.concat e.dir "shadow") ~rev:(Store.revision e.shadow) (Store.model e.shadow));
        ignore (Wal.reset e.log))
  end

(* One request through every layer of the server path, client framing
   included: encode, frame, reassemble, decode, dispatch, encode the
   answer, frame it, reassemble and decode it on the client side. *)
let one e rp req ~into =
  let open Trace in
  incr request;
  span "request" (fun () ->
      let payload = span "protocol.encode_request" (fun () -> P.encode_request req) in
      let f = span ~into:rp.s_fenc "frame.encode" (fun () -> Frame.encode payload) in
      let p' =
        span ~into:rp.s_fdec "frame.decode" (fun () ->
            Frame.feed e.sdec f;
            match Frame.next e.sdec with Ok (Some p) -> p | _ -> failwith "frame lost")
      in
      let req' =
        match span ~into:rp.s_pdec "protocol.decode_request" (fun () -> P.decode_request p') with
        | Ok r -> r
        | Error d -> failwith d.Xpdl_core.Diagnostic.message
      in
      let resp = span ~into "hub.handle" (fun () -> Hub.handle e.hub e.session req') in
      let rp' = span ~into:rp.s_penc "protocol.encode_response" (fun () -> P.encode_response resp) in
      let rf = span ~into:rp.s_fenc "frame.encode" (fun () -> Frame.encode rp') in
      let back =
        span ~into:rp.s_fdec "frame.decode" (fun () ->
            Frame.feed e.cdec rf;
            match Frame.next e.cdec with Ok (Some p) -> p | _ -> failwith "frame lost")
      in
      match span "protocol.decode_response" (fun () -> P.decode_response back) with
      | Ok r -> r
      | Error d -> failwith d.Xpdl_core.Diagnostic.message)

let replay_op e rp = function
  | Get q -> ignore (one e rp (P.Query { rev = -1; q }) ~into:rp.s_getter); 1
  | Derived q -> ignore (one e rp (P.Query { rev = -1; q }) ~into:rp.s_derived); 1
  | Edit (path, value, id) ->
      ignore (one e rp (edit_request path value id) ~into:rp.s_edit);
      shadow_edit e rp path value;
      1
  | Pinned q -> (
      match one e rp P.Pin ~into:rp.s_pin with
      | P.Ok (P.Int rev) ->
          let srev = Trace.span ~into:rp.s_store_pin "store.pin" (fun () -> Store.pin e.shadow) in
          ignore
            (Trace.span ~into:rp.s_snap "query.snapshot_build" (fun () ->
                 Query.of_model (Store.model e.shadow)));
          ignore (one e rp (P.Query { rev; q }) ~into:rp.s_pinned_q);
          ignore (one e rp (P.Unpin rev) ~into:rp.s_unpin);
          Store.unpin e.shadow srev;
          3
      | r -> Fmt.failwith "replay: Pin answered %a" P.pp_response r)

(* Replay the stream until [limit] requests or [budget_s] seconds,
   whichever comes first; returns the replay record. *)
let replay ~kind ~model ~next ~tag ~limit ?(budget_s = infinity) () =
  let e = make_env ~kind ~model ~tag in
  let rp = fresh_replay () in
  let t0 = now_ns () in
  let stop_at = if Float.is_finite budget_s then t0 + int_of_float (budget_s *. 1e9) else max_int in
  let n = ref 0 in
  let continue () = !n < limit && now_ns () < stop_at in
  while continue () do
    n := !n + replay_op e rp (next ())
  done;
  let wall = now_ns () - t0 in
  rp.wal_bytes <- rp.wal_bytes + log_bytes e;
  Wal.close e.log;
  (match kind with Mixed -> Store.close_wal (Hub.store e.hub) | Reads -> ());
  remove_tree e.dir;
  { rp with r_requests = !n; r_wall_ns = wall }

let us s = Samples.median s /. 1e3
let ns s = Samples.median s

(* Socket phase of the traced run: the workload's loop against a server
   that publishes runtime events, then Ping round trips. *)
let socket_phase ~server ~kind ~seed ~targets ~seconds =
  let s, _ = spawn ~server ~kind ~events:true in
  let watch = Gc_watch.attach s.pid in
  let tick () = Option.iter Gc_watch.poll watch in
  let cl = Client.connect s.addr in
  let l = closed_loop ~tick cl (stream kind ~seed ~targets) ~head_rev:0 ~seconds in
  let pings = Samples.create () in
  for i = 1 to 2000 do
    let t0 = now_ns () in
    (match Client.request cl P.Ping with P.Ok P.Unit -> () | _ -> failwith "Ping failed");
    Samples.add pings (float_of_int (now_ns () - t0) /. 1e3);
    if i land 63 = 0 then tick ()
  done;
  tick ();
  Client.close cl;
  let gc =
    match watch with
    | Some w -> Gc_watch.summary w
    | None -> failwith "cannot open the server's runtime events"
  in
  stop_server s;
  Option.iter remove_tree s.wal;
  (l, Samples.median pings, gc)

(* Query-layer probes on the served model and on a ~10k-element one. *)
let query_probes ~seed ~model ~targets =
  let st = Store.of_model model in
  let q = Query.of_store st in
  ignore (Query.total_static_power q);
  let after_edit = Samples.create () in
  for i = 0 to 199 do
    ignore (Store.set_attr_raw st targets.(i mod Array.length targets) ~unit_spelling:"W" "static_power" edit_values.(i mod Array.length edit_values));
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (Query.total_static_power q));
    Samples.add after_edit (float_of_int (now_ns () - t0) /. 1e3)
  done;
  let memo =
    median_ns ~reps:51 (fun () ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Query.total_static_power q))
        done)
    /. 1000.
  in
  let snap = median_ns ~reps:21 (fun () -> Query.of_model (Store.model st)) /. 1e3 in
  let big = Xpdl_core.Elaborate.of_string_exn ~lenient:true (Inputs.synth_system ~seed ~elements:10_000 ~id:"synth10k") in
  let snap10k = median_ns ~reps:11 (fun () -> Query.of_model big) /. 1e3 in
  [
    ("query.derived_after_edit_us", Samples.median after_edit, "us");
    ("query.derived_memo_ns", memo, "ns");
    ("query.snapshot_build_us", snap, "us");
    ("query.snapshot_build_10k_us", snap10k, "us");
  ]

(* Per-layer metrics of the serve path.  [kind] picks the replayed
   stream; request classes it never sends (edits and pins on
   serve-reads) are measured on a short calibration block of the mixed
   stream afterwards, so every metric is a measurement. *)
let traced ~server ~kind ~seed ~seconds =
  let model = compose_served () in
  let targets = edit_targets ~seed model in
  let socket_s = Float.max 1. (seconds /. 3.) in
  let l, ping_p50, gc = socket_phase ~server ~kind ~seed ~targets ~seconds:socket_s in
  let sock_p50 = Samples.median l.req in
  let budget_s = Float.max 0.5 (seconds /. 4.) in
  (* warm-up, then untraced and traced replays of the same requests *)
  ignore
    (replay ~kind ~model ~next:(stream kind ~seed ~targets) ~tag:"warm" ~limit:(replay_cap / 4)
       ~budget_s:(budget_s /. 4.) ());
  Trace.enabled := false;
  let plain = replay ~kind ~model ~next:(stream kind ~seed ~targets) ~tag:"plain" ~limit:replay_cap ~budget_s () in
  Trace.enabled := true;
  Trace.reset ~phase_name:"serve-replay" ();
  let rp = replay ~kind ~model ~next:(stream kind ~seed ~targets) ~tag:"traced" ~limit:plain.r_requests () in
  let layers = Trace.layer_self_per_request ~root:"request" in
  (* the socket transport's share is the Ping round trip (no dispatch
     work); the other layers' are their self-time p50s in the replay *)
  let covered = ping_p50 +. (List.fold_left (fun acc (_, s) -> acc +. Samples.median s) 0. layers /. 1e3) in
  let overhead =
    (float_of_int rp.r_requests /. float_of_int rp.r_wall_ns)
    /. (float_of_int plain.r_requests /. float_of_int plain.r_wall_ns)
  in
  (* calibration for the classes serve-reads never sends *)
  let rp =
    match kind with
    | Mixed -> rp
    | Reads ->
        let next = stream Mixed ~seed ~targets in
        let calib () =
          let rec go () = match next () with (Edit _ | Pinned _) as op -> op | _ -> go () in
          go ()
        in
        let cal = replay ~kind:Mixed ~model ~next:calib ~tag:"calib" ~limit:600 () in
        { rp with s_edit = cal.s_edit; s_pin = cal.s_pin; s_unpin = cal.s_unpin; s_pinned_q = cal.s_pinned_q;
          s_set_attr = cal.s_set_attr; s_append = cal.s_append; s_ckpt = cal.s_ckpt;
          s_store_pin = cal.s_store_pin; s_snap = cal.s_snap; fsyncs = cal.fsyncs; wal_bytes = cal.wal_bytes;
          appends = cal.appends }
  in
  (* checkpoints are rare at the default cadence: add direct samples *)
  let ck_dir = Filename.concat work_dir "ckpt-probe" in
  mkdir_p ck_dir;
  for _ = 1 to 5 do
    let _, dt = time (fun () -> Wal.write_checkpoint ~dir:ck_dir ~rev:1 model) in
    Samples.add rp.s_ckpt (float_of_int dt)
  done;
  remove_tree ck_dir;
  let layer_metrics =
    List.map (fun (l, s) -> (Fmt.str "self.%s_us" l, Samples.median s /. 1e3, "us")) layers
  in
  ( [
      ("serve.ping_p50_us", ping_p50, "us");
      ("frame.encode_ns", ns rp.s_fenc, "ns");
      ("frame.decode_ns", ns rp.s_fdec, "ns");
      ("protocol.decode_request_ns", ns rp.s_pdec, "ns");
      ("protocol.encode_response_ns", ns rp.s_penc, "ns");
      ("hub.getter_us", us rp.s_getter, "us");
      ("hub.derived_us", us rp.s_derived, "us");
      ("hub.edit_us", us rp.s_edit, "us");
      ("store.set_attr_us", us rp.s_set_attr, "us");
      ("wal.append_us", us rp.s_append, "us");
      ("wal.fsync_count", float_of_int rp.fsyncs, "count");
      ("wal.bytes_per_edit", float_of_int rp.wal_bytes /. float_of_int (max 1 rp.appends), "B");
      ("wal.checkpoint_ms", Samples.median rp.s_ckpt /. 1e6, "ms");
      ("hub.pin_us", us rp.s_pin, "us");
      ("hub.unpin_us", us rp.s_unpin, "us");
      ("hub.pinned_query_us", us rp.s_pinned_q, "us");
      ("store.pin_us", us rp.s_store_pin, "us");
    ]
    @ query_probes ~seed ~model ~targets
    @ gc,
    covered /. sock_p50,
    overhead,
    layer_metrics
    @ [ ("socket.req_p50_us", sock_p50, "us"); ("replay.requests", float_of_int rp.r_requests, "count") ] )
