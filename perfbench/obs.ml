(* Measurement primitives shared by the workloads: a monotonic clock,
   growable sample buffers with percentiles, the span recorder of the
   traced run, process-memory probes and the result record. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let s_of_ns ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------------ *)
(* samples *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n
  let to_array t = Array.sub t.a 0 t.n
  let sum t = Array.fold_left ( +. ) 0. (to_array t)

  (* Nearest-rank percentile; 0. on an empty buffer (callers only ask
     for percentiles of operations that ran). *)
  let percentile_of_sorted s p =
    let n = Array.length s in
    if n = 0 then 0. else s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

  let percentile t p =
    let s = to_array t in
    Array.sort compare s;
    percentile_of_sorted s p

  let median t = percentile t 0.5
end

let median_of l =
  let t = Samples.create () in
  List.iter (Samples.add t) l;
  Samples.median t


(* Time [f] [reps] times after [warmup] unrecorded calls; the median in
   nanoseconds.  Short layer metrics are medians of repeats, never a
   one-shot or trimmed-mean estimate. *)
let median_ns ?(warmup = 3) ~reps f =
  for _ = 1 to warmup do
    ignore (Sys.opaque_identity (f ()))
  done;
  let s = Samples.create () in
  for _ = 1 to reps do
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (f ()));
    Samples.add s (float_of_int (now_ns () - t0))
  done;
  Samples.median s

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* ------------------------------------------------------------------ *)
(* span recorder *)

(* Spans of the traced run: layer name, start, end, parent span and the
   request id shared by the spans of one request.  Kept in flat growable
   arrays and written out once the run ends. *)
module Trace = struct
  let enabled = ref false
  let names : string array ref = ref (Array.make 4096 "")
  let starts = ref (Array.make 4096 0)
  let stops = ref (Array.make 4096 0)
  let parents = ref (Array.make 4096 (-1))
  let reqs = ref (Array.make 4096 0)
  let n = ref 0
  let current = ref (-1)
  let request = ref 0

  (* Where spans go when the buffer is reset, tagged with the phase that
     recorded them. *)
  let out : string option ref = ref None
  let phase = ref ""

  let grow () =
    let g a d =
      let b = Array.make (2 * Array.length !a) d in
      Array.blit !a 0 b 0 !n;
      a := b
    in
    g names "";
    g starts 0;
    g stops 0;
    g parents (-1);
    g reqs 0

  let flush () =
    (match !out with
    | Some path when !n > 0 ->
        let fresh = not (Sys.file_exists path) in
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
        if fresh then output_string oc "phase\tid\tname\tstart_ns\tend_ns\tparent\trequest\n";
        for i = 0 to !n - 1 do
          Printf.fprintf oc "%s\t%d\t%s\t%d\t%d\t%d\t%d\n" !phase i !names.(i) !starts.(i) !stops.(i)
            !parents.(i) !reqs.(i)
        done;
        close_out oc
    | _ -> ())

  (* Start a new phase: the spans recorded so far are written out. *)
  let reset ?(phase_name = !phase) () =
    flush ();
    phase := phase_name;
    n := 0;
    current := -1

  (* Run [f] inside a span named after the layer it calls into; its
     duration also goes to [into] when given.  With tracing off the call
     is made bare. *)
  let span ?into name f =
    if not !enabled then f ()
    else begin
      if !n = Array.length !names then grow ();
      let id = !n in
      incr n;
      let parent = !current in
      !names.(id) <- name;
      !parents.(id) <- parent;
      !reqs.(id) <- !request;
      current := id;
      let t0 = now_ns () in
      !starts.(id) <- t0;
      let finish () =
        let t1 = now_ns () in
        !stops.(id) <- t1;
        current := parent;
        match into with Some s -> Samples.add s (float_of_int (t1 - t0)) | None -> ()
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end

  (* Self time of every span: its duration minus the part its direct
     children cover. *)
  let self_times () =
    let self = Array.init !n (fun i -> !stops.(i) - !starts.(i)) in
    for i = 0 to !n - 1 do
      let p = !parents.(i) in
      if p >= 0 then self.(p) <- self.(p) - (!stops.(i) - !starts.(i))
    done;
    self

  (* Per-request self time of each layer (the name prefix before the
     first '.'), for the spans whose root is named [root]: layer ->
     samples (one per request, 0 where the layer was not entered). *)
  let layer_self_per_request ~root =
    let self = self_times () in
    let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name in
    let per_req : (int, (string, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 1024 in
    let layers = Hashtbl.create 16 in
    for i = 0 to !n - 1 do
      if not (String.equal !names.(i) root) then begin
        let tbl =
          match Hashtbl.find_opt per_req !reqs.(i) with
          | Some t -> t
          | None ->
              let t = Hashtbl.create 8 in
              Hashtbl.replace per_req !reqs.(i) t;
              t
        in
        let l = layer !names.(i) in
        Hashtbl.replace layers l ();
        Hashtbl.replace tbl l (self.(i) + Option.value ~default:0 (Hashtbl.find_opt tbl l))
      end
    done;
    Hashtbl.fold
      (fun l () acc ->
        let s = Samples.create () in
        Hashtbl.iter
          (fun _ tbl -> Samples.add s (float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl l))))
          per_req;
        (l, s) :: acc)
      layers []
    |> List.sort compare

  (* Covered share of [root] spans: the time their child spans cover. *)
  let covered_share ~root =
    let total = ref 0 and covered = ref 0 in
    for i = 0 to !n - 1 do
      if String.equal !names.(i) root then total := !total + (!stops.(i) - !starts.(i))
      else begin
        let p = !parents.(i) in
        if p >= 0 && String.equal !names.(p) root then
          covered := !covered + (!stops.(i) - !starts.(i))
      end
    done;
    if !total = 0 then 0. else float_of_int !covered /. float_of_int !total
end

(* ------------------------------------------------------------------ *)
(* processes and files *)

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Fmt.str "/proc/%d/status" p in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Aggregate CPU ticks from /proc/stat: (total, steal); zeros where the
   file is missing.  The steal share over a run says how much of the
   host the hypervisor took away while it ran. *)
type ticks = int * int

let cpu_ticks () : ticks =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      let fields = List.filter_map int_of_string_opt (String.split_on_char ' ' line) in
      (List.fold_left ( + ) 0 fields, match List.nth_opt fields 7 with Some v -> v | None -> 0)

let steal_share ((t0, s0) : ticks) ((t1, s1) : ticks) =
  if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.

(* Stretches of a run in which the hypervisor took more of the host's
   CPUs than both this share and the run's median stretch are left out,
   so the figures describe the program rather than a neighbour's load
   while keeping at least half the stretches. *)
let max_steal = 0.02
let steal_limit steals = Float.max max_steal (median_of steals)

(* A statistic of samples in the order they were taken, as the median of
   its values over consecutive blocks of [block] samples, so a burst of
   host noise moves one block rather than the run's figure. [steal.(b)]
   is the host's steal share while block [b] was taken; blocks beyond
   [steal_limit] are left out when three others remain. The statistic
   of all the samples when fewer than three blocks fill. *)
let median_over_blocks ~block ~steal samples stat =
  let a = Samples.to_array samples in
  let n = min (Array.length a / block) (Array.length steal) in
  if n < 3 then stat samples
  else
    let stats =
      List.init n (fun b ->
          let s = Samples.create () in
          Array.iter (Samples.add s) (Array.sub a (b * block) block);
          (steal.(b), stat s))
    in
    let limit = steal_limit (List.map fst stats) in
    match List.filter (fun (st, _) -> st <= limit) stats with
    | clean when List.length clean >= 3 -> median_of (List.map snd clean)
    | _ -> median_of (List.map snd stats)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Scratch space for generated inputs, sockets, journals and traces,
   inside the working directory and ignored by git. *)
let work_dir = ".perfbench"

let nproc () = max 1 (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* results *)

type gate = { g_name : string; g_ok : bool; g_detail : string }

let gate name ok fmt = Fmt.kstr (fun g_detail -> { g_name = name; g_ok = ok; g_detail }) fmt

(* A workload's outcome: end-to-end metrics (or per-layer ones on the
   traced run) as (name, value, unit) in print order, the correctness
   gates, the operation accounting, and the input record. *)
type result = {
  metrics : (string * float * string) list;
  detail : (string * float * string) list;  (** named sub-metrics for the record *)
  gates : gate list;
  attempted : int;
  failed : int;
  inputs : (string * string) list;  (** JSON-encoded values *)
}

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Finite numbers with all their digits; JSON has no NaN/inf. *)
let json_float v = if Float.is_finite v then Fmt.str "%.17g" v else "0"

let metrics_json ms =
  String.concat ","
    (List.map
       (fun (n, v, u) -> Fmt.str "%s:{\"value\":%s,\"unit\":%s}" (json_string n) (json_float v) (json_string u))
       ms)
