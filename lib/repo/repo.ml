(** The distributed XPDL model repository (Sec. III).

    XPDL descriptors are ".xpdl" files — machine-readable data sheets —
    placed in a model repository.  Models are retrieved by unique [name]
    (meta-models) or [id] (concrete models) via a model search path; the
    paper envisions descriptors "even provided for download e.g. at
    hardware manufacturer web sites".  This module implements:

    - multiple repository roots (the search path), scanned recursively for
      [.xpdl] descriptor files;
    - a persistent per-root index ([.xpdlidx] sidecar, {!Repo_index}) so
      that {!open_root} reconstructs the name table and diagnostic stream
      without parsing anything, re-scanning only files whose
      (mtime, size) fingerprint changed;
    - lazy descriptor loading: an indexed entry is parsed and elaborated
      on first {!find}, kept in a bounded LRU cache, and transparently
      re-materialized after eviction — so cross-model [extends]/[type]
      resolution loads only the transitive closure instead of the world;
    - hyperlink resolution: [xpdl://authority/name] references map to
      registered roots, giving the distributed-library semantics without
      network access (see DESIGN.md substitutions);
    - an in-memory index name/id → descriptor, with duplicate detection;
    - recursive composition: resolving every meta-model reference
      reachable from a concrete model ({!compose}), the first stage of
      the toolchain pipeline (Sec. IV);
    - a parallel {!validate_all} sharded over OCaml 5 domains with
      deterministic, schedule-independent results.

    Thread-safety: one mutex guards all mutable state; descriptor files
    are parsed outside the lock so concurrent domains materialize
    different files in parallel.  See docs/REPOSITORY.md. *)

open Xpdl_core

type entry = {
  ent_ident : string;
  ent_element : Model.element;
  ent_file : string;  (** source descriptor file, or ["<memory>"] *)
}

(* Where an un-materialized descriptor lives: enough to re-parse its file
   and pick the right descriptor out of it.  The ordinal (position among
   the file's descriptor nodes) is the identity used when re-binding
   parsed elements to slots, so a file whose content changed since
   indexing can never silently satisfy a lookup with the wrong model. *)
type source = {
  src_file : string;
  src_ordinal : int;  (* index among the file's descriptor nodes *)
  src_kind : Schema.kind;
  src_span : int * int;  (* (offset, length) byte span, informational *)
}

type slot =
  | Loaded of entry  (* eagerly indexed via add_element/add_root: never evicted *)
  | Cached of entry * source  (* materialized on demand: evictable *)
  | On_disk of source  (* known from the index: parse on first touch *)

let slot_file = function Loaded e | Cached (e, _) -> e.ent_file | On_disk s -> s.src_file
let slot_kind = function
  | Loaded e | Cached (e, _) -> e.ent_element.Model.kind
  | On_disk s -> s.src_kind

(* Doubly-linked LRU over cached identifiers; O(1) touch/evict. *)
module Lru = struct
  type node = { n_ident : string; mutable prev : node option; mutable next : node option }

  type t = {
    nodes : (string, node) Hashtbl.t;
    mutable head : node option;  (* most recently used *)
    mutable tail : node option;  (* least recently used *)
  }

  let create () = { nodes = Hashtbl.create 64; head = None; tail = None }
  let length t = Hashtbl.length t.nodes

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.next <- t.head;
    n.prev <- None;
    (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
    t.head <- Some n

  let touch t ident =
    match Hashtbl.find_opt t.nodes ident with
    | Some n ->
        unlink t n;
        push_front t n
    | None ->
        let n = { n_ident = ident; prev = None; next = None } in
        Hashtbl.add t.nodes ident n;
        push_front t n

  let remove t ident =
    match Hashtbl.find_opt t.nodes ident with
    | Some n ->
        unlink t n;
        Hashtbl.remove t.nodes ident
    | None -> ()

  let pop_lru t =
    match t.tail with
    | None -> None
    | Some n ->
        unlink t n;
        Hashtbl.remove t.nodes n.n_ident;
        Some n.n_ident
end

type counters = {
  mutable c_parsed_files : int;
  mutable c_reused_files : int;
  mutable c_materialized : int;
  mutable c_evictions : int;
}

type stats = {
  descriptors : int;
  loaded : int;
  cached : int;
  pending : int;
  parsed_files : int;
  reused_files : int;
  materialized : int;
  evictions : int;
}

type t = {
  entries : (string, slot) Hashtbl.t;
  mutable remotes : (string * string) list;  (** authority → local root *)
  mutable diags : Diagnostic.t list;
  quarantine_set : (string, unit) Hashtbl.t;
  mutable quarantine_rev : string list;  (** reverse insertion order *)
  missing_refs : (string, unit) Hashtbl.t;  (** XPDL305 already emitted *)
  lock : Mutex.t;
  cache_capacity : int;
  lru : Lru.t;
  c : counters;
}

let default_cache_capacity = 8192

let create ?(cache_capacity = default_cache_capacity) () =
  {
    entries = Hashtbl.create 64;
    remotes = [];
    diags = [];
    quarantine_set = Hashtbl.create 16;
    quarantine_rev = [];
    missing_refs = Hashtbl.create 16;
    lock = Mutex.create ();
    cache_capacity = max 0 cache_capacity;
    lru = Lru.create ();
    c = { c_parsed_files = 0; c_reused_files = 0; c_materialized = 0; c_evictions = 0 };
  }

(* Single non-recursive lock: public entry points lock once, internal
   [_u] helpers assume the lock is held and never re-lock. *)
let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add_diag_u t d = t.diags <- d :: t.diags
let diagnostics t = locked t (fun () -> List.rev t.diags)

(* Hashtbl membership (not List.mem) so quarantining is O(1) even with
   thousands of corrupt files, while reporting keeps insertion order. *)
let quarantine_u t file =
  if not (Hashtbl.mem t.quarantine_set file) then begin
    Hashtbl.add t.quarantine_set file ();
    t.quarantine_rev <- file :: t.quarantine_rev
  end

(** Files that failed to contribute any descriptor at load time —
    unreadable, or so malformed that even the recovering parser got no
    tree out of them.  Indexing continued without them. *)
let quarantined_files t = locked t (fun () -> List.rev t.quarantine_rev)

(** Number of indexed descriptors (materialized or not). *)
let size t = locked t (fun () -> Hashtbl.length t.entries)

(** All indexed identifiers, sorted. *)
let identifiers t =
  locked t (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) t.entries [])
  |> List.sort String.compare

let stats t =
  locked t (fun () ->
      let loaded = ref 0 and cached = ref 0 and pending = ref 0 in
      Hashtbl.iter
        (fun _ -> function
          | Loaded _ -> incr loaded
          | Cached _ -> incr cached
          | On_disk _ -> incr pending)
        t.entries;
      {
        descriptors = Hashtbl.length t.entries;
        loaded = !loaded;
        cached = !cached;
        pending = !pending;
        parsed_files = t.c.c_parsed_files;
        reused_files = t.c.c_reused_files;
        materialized = t.c.c_materialized;
        evictions = t.c.c_evictions;
      })

(* ------------------------------------------------------------------ *)
(* Lazy materialization                                               *)

(* A descriptor file holds one model, or several under a <xpdl>/<repository>
   wrapper element. *)
let descriptor_nodes (x : Xpdl_xml.Dom.element) =
  match x.Xpdl_xml.Dom.tag with
  | "xpdl" | "repository" -> Xpdl_xml.Dom.child_elements x
  | _ -> [ x ]

(* Evict least-recently-used cached entries down to capacity; evicted
   slots fall back to On_disk and re-materialize on next touch. *)
let rec enforce_capacity_u t =
  if Lru.length t.lru > t.cache_capacity then (
    (match Lru.pop_lru t.lru with
    | None -> ()
    | Some ident -> (
        match Hashtbl.find_opt t.entries ident with
        | Some (Cached (_, src)) ->
            Hashtbl.replace t.entries ident (On_disk src);
            t.c.c_evictions <- t.c.c_evictions + 1
        | _ -> ()));
    enforce_capacity_u t)

let install_cached_u t ident entry src =
  Hashtbl.replace t.entries ident (Cached (entry, src));
  Lru.touch t.lru ident;
  enforce_capacity_u t

(* Parse + elaborate every descriptor of a file.  Diagnostics are
   dropped: they were already replayed from the index at open_root time,
   and materialization must not duplicate them.  Runs OUTSIDE the lock
   so concurrent domains parse different files in parallel. *)
let parse_descriptors file =
  match Xpdl_xml.Parse.file_recover ~lenient:true file with
  | Error _ | Ok (None, _) -> []
  | Ok (Some x, _) ->
      List.mapi (fun i node -> (i, fst (Elaborate.of_xml node))) (descriptor_nodes x)

(* Bind freshly parsed descriptors to their On_disk slots (file and
   ordinal must both match — a shadowed or moved descriptor stays cold).
   Returns the entry for [want] if this parse produced it. *)
let install_parsed_u t ~file ~want parsed =
  t.c.c_parsed_files <- t.c.c_parsed_files + 1;
  let found = ref None in
  List.iter
    (fun (ordinal, e) ->
      match Model.identifier e with
      | None -> ()
      | Some ident -> (
          match Hashtbl.find_opt t.entries ident with
          | Some (On_disk src)
            when String.equal src.src_file file && src.src_ordinal = ordinal ->
              let entry = { ent_ident = ident; ent_element = e; ent_file = file } in
              t.c.c_materialized <- t.c.c_materialized + 1;
              install_cached_u t ident entry src;
              if String.equal ident want then found := Some entry
          | Some (Cached (entry, src))
            when String.equal ident want
                 && String.equal src.src_file file
                 && src.src_ordinal = ordinal ->
              (* another domain materialized it while we were parsing *)
              Lru.touch t.lru ident;
              found := Some entry
          | _ -> ()))
    parsed;
  !found

let probe_u t ident =
  match Hashtbl.find_opt t.entries ident with
  | None -> `Miss
  | Some (Loaded e) -> `Hit e
  | Some (Cached (e, _)) ->
      Lru.touch t.lru ident;
      `Hit e
  | Some (On_disk src) -> `Materialize src

let find_entry t ident =
  match locked t (fun () -> probe_u t ident) with
  | `Hit e -> Some e
  | `Miss -> None
  | `Materialize src -> (
      let parsed = parse_descriptors src.src_file in
      locked t (fun () ->
          match install_parsed_u t ~file:src.src_file ~want:ident parsed with
          | Some e -> Some e
          | None -> (
              match probe_u t ident with
              | `Hit e -> Some e
              | `Miss -> None
              | `Materialize _ ->
                  (* the file changed on disk after indexing and no longer
                     declares this identifier at that position *)
                  add_diag_u t
                    (Diagnostic.warning ~code:"XPDL314"
                       "indexed descriptor %S no longer present in %s" ident src.src_file);
                  Hashtbl.remove t.entries ident;
                  Lru.remove t.lru ident;
                  None)))

let find t ident = Option.map (fun e -> e.ent_element) (find_entry t ident)

(* ------------------------------------------------------------------ *)
(* Eager indexing: behavior identical to the historical add_root path  *)

let add_element_u t ~file (e : Model.element) =
  match Model.identifier e with
  | None ->
      add_diag_u t
        (Diagnostic.error ~code:"XPDL301" ~pos:e.pos
           "descriptor in %s has neither name nor id; not indexed" file)
  | Some ident ->
      (match Hashtbl.find_opt t.entries ident with
      | Some prev when slot_file prev <> file ->
          add_diag_u t
            (Diagnostic.warning ~code:"XPDL302" ~pos:e.pos
               "identifier %S in %s shadows definition from %s" ident file (slot_file prev))
      | _ -> ());
      Lru.remove t.lru ident;
      Hashtbl.replace t.entries ident
        (Loaded { ent_ident = ident; ent_element = e; ent_file = file })

(** Register one elaborated element under its identifier. *)
let add_element t ?(file = "<memory>") e = locked t (fun () -> add_element_u t ~file e)

let add_xml_u t ~file (x : Xpdl_xml.Dom.element) =
  List.iter
    (fun node ->
      let e, diags = Elaborate.of_xml node in
      List.iter (add_diag_u t) diags;
      add_element_u t ~file e)
    (descriptor_nodes x)

(* Recovering parse front end shared by string and file indexing: every
   syntax error becomes a coded diagnostic, and whatever tree could be
   reconstructed is still indexed best-effort, so one malformed descriptor
   neither hides its other errors nor aborts a batch. *)
let add_recovered_u t ~file (root, errs) =
  List.iter (fun e -> add_diag_u t (Diagnostic.of_parse_error e)) errs;
  match root with
  | Some x -> add_xml_u t ~file x
  | None -> if file <> "<memory>" then quarantine_u t file

(** Parse and index a single descriptor string (used by tests and by the
    microbenchmark bootstrap to register generated descriptors). *)
let add_string t ?(file = "<memory>") s =
  locked t (fun () ->
      add_recovered_u t ~file (Xpdl_xml.Parse.string_recover ~file ~lenient:true s))

let add_file_u t path =
  t.c.c_parsed_files <- t.c.c_parsed_files + 1;
  match Xpdl_xml.Parse.file_recover ~lenient:true path with
  | Ok parsed -> add_recovered_u t ~file:path parsed
  | Error msg ->
      quarantine_u t path;
      add_diag_u t (Diagnostic.error ~code:"XPDL303" "cannot load %s: %s" path msg)

let add_file t path = locked t (fun () -> add_file_u t path)

let descriptor_file name =
  Filename.check_suffix name ".xpdl" || Filename.check_suffix name ".xml"

let rec scan_dir_u t dir =
  match Sys.readdir dir with
  | entries ->
      Array.sort String.compare entries;
      Array.iter
        (fun name ->
          let path = Filename.concat dir name in
          if Sys.is_directory path then scan_dir_u t path
          else if descriptor_file name then add_file_u t path)
        entries
  | exception Sys_error msg ->
      add_diag_u t (Diagnostic.error ~code:"XPDL304" "cannot scan %s: %s" dir msg)

(** Add a repository root (an element of the model search path); every
    [.xpdl] file beneath it is parsed and indexed immediately.  This is
    the eager reference path; {!open_root} is the indexed equivalent. *)
let add_root t dir = locked t (fun () -> scan_dir_u t dir)

(** Register a remote authority: hyperlinks [xpdl://authority/name] will
    resolve against descriptors indexed from [root].  In this offline
    reproduction the authority's content must already be local; the point
    is to preserve reference syntax and resolution semantics. *)
let add_remote t ~authority ~root =
  locked t (fun () ->
      t.remotes <- (authority, root) :: t.remotes;
      scan_dir_u t root)

(* "xpdl://authority/name" → name (content is pre-indexed from the
   authority's registered root).  An unknown authority is diagnosed once
   per reference string, not once per lookup: a composition touching a
   dangling reference thousands of times must not flood the diagnostic
   stream (nor consume a caller's error cap) with duplicates. *)
let resolve_hyperlink t ref_string =
  let prefix = "xpdl://" in
  let plen = String.length prefix in
  if String.length ref_string > plen && String.equal (String.sub ref_string 0 plen) prefix
  then begin
    let rest = String.sub ref_string plen (String.length ref_string - plen) in
    match String.index_opt rest '/' with
    | Some i ->
        let authority = String.sub rest 0 i in
        let name = String.sub rest (i + 1) (String.length rest - i - 1) in
        locked t (fun () ->
            if List.mem_assoc authority t.remotes then Some name
            else begin
              if not (Hashtbl.mem t.missing_refs ref_string) then begin
                Hashtbl.add t.missing_refs ref_string ();
                add_diag_u t
                  (Diagnostic.error ~code:"XPDL305" "unknown repository authority %S in %S"
                     authority ref_string)
              end;
              None
            end)
    | None -> None
  end
  else None

(** The name-resolution function handed to {!Xpdl_core.Inheritance}. *)
let lookup t : Inheritance.lookup =
 fun ident ->
  match resolve_hyperlink t ident with
  | Some name -> find t name
  | None -> find t ident

(* ------------------------------------------------------------------ *)
(* Indexed open: sidecar load, incremental revalidation, diag replay   *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Byte offset of the start of each line, for descriptor span records. *)
let line_starts content =
  let acc = ref [ 0 ] in
  String.iteri (fun i c -> if Char.equal c '\n' then acc := (i + 1) :: !acc) content;
  Array.of_list (List.rev !acc)

let offset_of_pos starts content (pos : Xpdl_xml.Dom.position) =
  if pos.line < 1 || pos.line > Array.length starts then 0
  else min (String.length content) (starts.(pos.line - 1) + max 0 (pos.column - 1))

(* Full scan of one file: fingerprint, parse, elaborate; returns the
   index record plus the elaborated elements (by ordinal) so a cold open
   can install them directly without a second parse. *)
let scan_file_u t ~root ~rel ?st () : Repo_index.file_record * (int * Model.element) list =
  let full = Filename.concat root rel in
  t.c.c_parsed_files <- t.c.c_parsed_files + 1;
  let fr_mtime, fr_size =
    match match st with Some st -> st | None -> Unix.stat full with
    | st -> (st.Unix.st_mtime, st.Unix.st_size)
    | exception _ -> (0., -1)  (* unstattable: always stale *)
  in
  let quarantined ~parse_diags =
    ( {
        Repo_index.fr_path = rel;
        fr_mtime;
        fr_size;
        fr_quarantined = true;
        fr_parse_diags = parse_diags;
        fr_descs = [];
      },
      [] )
  in
  match read_file full with
  | exception Sys_error msg ->
      let d = Diagnostic.error ~code:"XPDL303" "cannot load %s: %s" full msg in
      quarantined ~parse_diags:[ Repo_index.diag_of ~owner:full d ]
  | content -> (
      let root_elt, errs = Xpdl_xml.Parse.string_recover ~file:full ~lenient:true content in
      let parse_diags =
        List.map (fun e -> Repo_index.diag_of ~owner:full (Diagnostic.of_parse_error e)) errs
      in
      match root_elt with
      | None -> quarantined ~parse_diags
      | Some x ->
          let nodes = descriptor_nodes x in
          let starts = line_starts content in
          let offsets =
            List.map (fun (n : Xpdl_xml.Dom.element) -> offset_of_pos starts content n.pos) nodes
          in
          (* each span runs to the start of the next descriptor node *)
          let ends =
            match offsets with
            | [] -> []
            | _ :: rest -> rest @ [ String.length content ]
          in
          let descs, elems =
            List.map2
              (fun (node : Xpdl_xml.Dom.element) (off, stop) ->
                let e, ediags = Elaborate.of_xml node in
                let d =
                  {
                    Repo_index.d_ident = Model.identifier e;
                    d_kind = Schema.tag_of_kind e.Model.kind;
                    d_line = e.Model.pos.line;
                    d_col = e.Model.pos.column;
                    d_span_off = off;
                    d_span_len = max 0 (stop - off);
                    d_diags = List.map (Repo_index.diag_of ~owner:full) ediags;
                  }
                in
                (d, e))
              nodes
              (List.combine offsets ends)
            |> List.split
          in
          ( {
              Repo_index.fr_path = rel;
              fr_mtime;
              fr_size;
              fr_quarantined = false;
              fr_parse_diags = parse_diags;
              fr_descs = descs;
            },
            List.mapi (fun i e -> (i, e)) elems ))

(* Replay one file record into the repository, in exactly the order the
   eager path would have produced: parse diagnostics, then per
   descriptor its elaboration diagnostics and the XPDL301/302 indexing
   outcome (recomputed against the LIVE entries table, so shadowing
   across roots and sessions matches eager Hashtbl.replace semantics).
   [fresh] carries elaborated elements when the file was just scanned;
   otherwise slots are installed cold (On_disk). *)
let replay_file_u t ~root (fr : Repo_index.file_record) fresh =
  let file = Filename.concat root fr.Repo_index.fr_path in
  List.iter (fun dg -> add_diag_u t (Repo_index.to_diag ~owner:file dg)) fr.fr_parse_diags;
  if fr.fr_quarantined then quarantine_u t file;
  List.iteri
    (fun ordinal (d : Repo_index.desc) ->
      List.iter (fun dg -> add_diag_u t (Repo_index.to_diag ~owner:file dg)) d.d_diags;
      let pos = { Xpdl_xml.Dom.file; line = d.d_line; column = d.d_col } in
      match d.d_ident with
      | None ->
          add_diag_u t
            (Diagnostic.error ~code:"XPDL301" ~pos
               "descriptor in %s has neither name nor id; not indexed" file)
      | Some ident ->
          (match Hashtbl.find_opt t.entries ident with
          | Some prev when slot_file prev <> file ->
              add_diag_u t
                (Diagnostic.warning ~code:"XPDL302" ~pos
                   "identifier %S in %s shadows definition from %s" ident file (slot_file prev))
          | _ -> ());
          let src =
            {
              src_file = file;
              src_ordinal = ordinal;
              src_kind = Schema.kind_of_tag d.d_kind;
              src_span = (d.d_span_off, d.d_span_len);
            }
          in
          Lru.remove t.lru ident;
          (match List.assoc_opt ordinal fresh with
          | Some e ->
              install_cached_u t ident { ent_ident = ident; ent_element = e; ent_file = file } src
          | None -> Hashtbl.replace t.entries ident (On_disk src)))
    fr.fr_descs

(* Recursive walk mirroring scan_dir's order (per-directory sort, inline
   recursion), collecting root-relative descriptor paths.  One stat per
   entry does double duty as directory test and staleness fingerprint —
   on a warm open the walk IS the dominant cost, so syscalls matter. *)
let rec walk_u t ~root rel acc =
  let dir = if rel = "" then root else Filename.concat root rel in
  match Sys.readdir dir with
  | names ->
      Array.sort String.compare names;
      Array.fold_left
        (fun acc name ->
          let path = Filename.concat dir name in
          let rpath = if rel = "" then name else Filename.concat rel name in
          match Unix.stat path with
          | st when st.Unix.st_kind = Unix.S_DIR -> walk_u t ~root rpath acc
          | st -> if descriptor_file name then (rpath, st) :: acc else acc
          | exception _ -> acc)
        acc names
  | exception Sys_error msg ->
      add_diag_u t (Diagnostic.error ~code:"XPDL304" "cannot scan %s: %s" dir msg);
      acc

let open_root_u t dir =
  let prior = Hashtbl.create 64 in
  let had_index =
    match Repo_index.load ~root:dir with
    | Ok None -> false
    | Ok (Some idx) ->
        Array.iter (fun fr -> Hashtbl.replace prior fr.Repo_index.fr_path fr) idx.files;
        true
    | Error d ->
        (* corrupt sidecar: coded diagnostic, then a full rebuild *)
        add_diag_u t d;
        false
  in
  let rels = List.rev (walk_u t ~root:dir "" []) in
  let stale = ref 0 and fresh_files = ref 0 in
  let records =
    List.map
      (fun (rel, st) ->
        let reusable =
          match Hashtbl.find_opt prior rel with
          | None -> None
          | Some fr ->
              if Repo_index.fingerprint_matches fr ~mtime:st.Unix.st_mtime ~size:st.Unix.st_size
              then Some fr
              else None
        in
        match reusable with
        | Some fr ->
            t.c.c_reused_files <- t.c.c_reused_files + 1;
            Hashtbl.remove prior rel;
            (fr, [])
        | None ->
            if Hashtbl.mem prior rel then begin
              incr stale;
              Hashtbl.remove prior rel
            end
            else incr fresh_files;
            scan_file_u t ~root:dir ~rel ~st ())
      rels
  in
  let deleted = Hashtbl.length prior in
  List.iter (fun (fr, fresh) -> replay_file_u t ~root:dir fr fresh) records;
  let changed = !stale + !fresh_files + deleted in
  if had_index && changed > 0 then
    add_diag_u t
      (Diagnostic.info ~code:"XPDL312"
         "repository index for %s refreshed: %d stale, %d new, %d deleted file(s)" dir !stale
         !fresh_files deleted);
  if (not had_index) || changed > 0 then begin
    let idx = { Repo_index.files = Array.of_list (List.map fst records) } in
    match Repo_index.save ~root:dir idx with
    | Ok () -> ()
    | Error d -> add_diag_u t d  (* XPDL313: read-only root — index is best-effort *)
  end

(** Open a repository root through its persistent [.xpdlidx] index:
    descriptor names, kinds and load-time diagnostics are reconstructed
    from the sidecar without parsing; only files whose fingerprint
    changed (or that are new) are re-scanned, and the sidecar is
    refreshed.  Entries materialize lazily on first {!find}.  With no
    usable sidecar this degrades to a full scan that also writes one.
    Behaviorally identical to {!add_root} except for XPDL31x
    informational diagnostics. *)
let open_root t dir = locked t (fun () -> open_root_u t dir)

(** {1 Composition}

    [compose t root] is the toolchain's front half: starting from a
    concrete model, recursively resolve every referenced descriptor
    ([type]/[extends] hyperlinks), flatten inheritance, then instantiate
    (bind params, expand groups, check constraints).  [config] provides
    deployment-time parameter overrides. *)

type composed = {
  model : Model.element;  (** fully resolved and expanded instance tree *)
  comp_diags : Diagnostic.t list;
  descriptors_used : string list;  (** identifiers of all referenced descriptors *)
}

let transitive_references t (root : Model.element) =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit (e : Model.element) =
    List.iter
      (fun name ->
        let resolved = match resolve_hyperlink t name with Some n -> n | None -> name in
        if not (Hashtbl.mem visited resolved) then begin
          Hashtbl.add visited resolved ();
          match find t resolved with
          | Some def ->
              order := resolved :: !order;
              visit def
          | None -> ()
        end)
      (Model.referenced_types e)
  in
  visit root;
  List.rev !order

let compose ?(config = []) t (root : Model.element) : composed =
  let used = transitive_references t root in
  let resolved, res_diags = Inheritance.resolve_lenient (lookup t) root in
  let expanded, inst_diags = Instantiate.run ~env:config resolved in
  let val_diags = Validate.run ~lookup:(lookup t) expanded in
  { model = expanded; comp_diags = res_diags @ inst_diags @ val_diags; descriptors_used = used }

(** Compose the concrete model registered under [ident]. *)
let compose_by_name ?config t ident =
  match find t ident with
  | None -> Error (Fmt.str "no descriptor named %S in repository" ident)
  | Some root -> Ok (compose ?config t root)

(* ------------------------------------------------------------------ *)
(* Parallel validation                                                 *)

type validation = {
  va_ident : string;
  va_kind : string;  (** schema tag *)
  va_errors : Diagnostic.t list;
}

(* Validate every descriptor, sharded over [jobs] domains with
   {!Par.map_slots}.  Two phases, both sharded:

   Phase A materializes every pending descriptor with exactly one parse
   per file.  Each slot is one run of pending descriptors grouped by
   file, so no lock is held while parsing and no two domains duplicate
   a parse.  Results go into a side table rather than the repository's
   LRU cache: validate-all must not evict a caller's warm working set,
   and its snapshot must be complete even when [cache_capacity] is
   smaller than the repository.

   Phase B validates against that immutable snapshot.  Lookups are
   lock-free (the snapshot table is never mutated after phase A), so
   domains only contend on the repository mutex for the rare
   [xpdl://] hyperlink dedup path.

   Results land in slots indexed by sorted-identifier position, so the
   output is deterministic and independent of scheduling: [~jobs:4]
   equals [~jobs:1] exactly.  Per-descriptor outcomes depend only on
   repository content — the XPDL305 dedup table affects only the
   repository's own diagnostic stream, never a validation result. *)
let validate_all ?(jobs = 1) t =
  let targets, pend, warm =
    locked t (fun () ->
        Hashtbl.fold
          (fun ident slot (ts, p, w) ->
            let ts = (ident, slot_kind slot) :: ts in
            match slot with
            | On_disk src -> (ts, (ident, src) :: p, w)
            | Loaded e | Cached (e, _) -> (ts, p, (ident, e.ent_element) :: w))
          t.entries ([], [], []))
  in
  (* phase A: one parse per file, results into distinct slots *)
  let pend =
    List.sort
      (fun (_, a) (_, b) ->
        match String.compare a.src_file b.src_file with
        | 0 -> compare a.src_ordinal b.src_ordinal
        | c -> c)
      pend
    |> Array.of_list
  in
  let np = Array.length pend in
  let groups =
    (* contiguous runs of [pend] sharing a file: (file, lo, hi) *)
    let acc = ref [] and i = ref 0 in
    while !i < np do
      let file = (snd pend.(!i)).src_file in
      let j = ref !i in
      while !j < np && String.equal (snd pend.(!j)).src_file file do
        incr j
      done;
      acc := (file, !i, !j - 1) :: !acc;
      i := !j
    done;
    Array.of_list (List.rev !acc)
  in
  let fetched =
    Par.map_slots ~jobs (Array.length groups) (fun gi ->
        let file, lo, hi = groups.(gi) in
        let parsed = parse_descriptors file in
        List.init (hi - lo + 1) (fun j -> pend.(lo + j))
        |> List.filter_map (fun (ident, src) ->
               match List.assoc_opt src.src_ordinal parsed with
               | Some e when Model.identifier e = Some ident -> Some (ident, e)
               | _ -> None))
  in
  locked t (fun () -> t.c.c_parsed_files <- t.c.c_parsed_files + Array.length groups);
  (* immutable snapshot: safe for concurrent lock-free reads in phase B *)
  let snap = Hashtbl.create (max 16 (np + List.length warm)) in
  List.iter (fun (ident, e) -> Hashtbl.replace snap ident e) warm;
  Array.iter (List.iter (fun (ident, e) -> Hashtbl.replace snap ident e)) fetched;
  let snap_find ident = Hashtbl.find_opt snap ident in
  let snap_lookup ident =
    match resolve_hyperlink t ident with
    | Some name -> snap_find name
    | None -> snap_find ident
  in
  (* phase B: validate every descriptor against the snapshot *)
  let targets =
    List.sort (fun (a, _) (b, _) -> String.compare a b) targets |> Array.of_list
  in
  Par.map_slots ~jobs (Array.length targets) (fun i ->
      let ident, kind = targets.(i) in
      let errors =
        match snap_find ident with
        | None ->
            (* the file changed on disk after indexing and no longer
               declares this identifier at that position *)
            [
              Diagnostic.error ~code:"XPDL314"
                "indexed descriptor %S no longer present in the repository" ident;
            ]
        | Some e ->
            if Schema.equal_kind kind Schema.System then begin
              let resolved, res_diags = Inheritance.resolve_lenient snap_lookup e in
              let expanded, inst_diags = Instantiate.run ~env:[] resolved in
              let val_diags = Validate.run ~lookup:snap_lookup expanded in
              Diagnostic.errors (res_diags @ inst_diags @ val_diags)
            end
            else Diagnostic.errors (Validate.run ~lookup:snap_lookup e)
      in
      { va_ident = ident; va_kind = Schema.tag_of_kind kind; va_errors = errors })
  |> Array.to_list

(** Total parsed size of the repository in model elements, a proxy for
    the specification-bytes comparisons of experiment E9.  Forces
    materialization of every pending entry. *)
let total_elements t =
  List.fold_left
    (fun acc ident -> match find t ident with Some e -> acc + Model.size e | None -> acc)
    0 (identifiers t)

(** Locate the bundled model repository from wherever the process runs:
    honors [XPDL_MODELS], then probes [models], [../models], [../../models]
    relative to the working directory.  Tests, examples and benches share
    this so they work both from the workspace root and from dune's
    sandboxed test directories. *)
let locate_models () =
  let candidates =
    (match Sys.getenv_opt "XPDL_MODELS" with Some p -> [ p ] | None -> [])
    @ [ "models"; "../models"; "../../models"; "../../../models" ]
  in
  List.find_opt (fun d -> Sys.file_exists d && Sys.is_directory d) candidates

(** Create a repository pre-loaded with the bundled models; fails if they
    cannot be found. *)
let load_bundled () =
  match locate_models () with
  | None -> failwith "cannot locate the bundled models/ directory (set XPDL_MODELS)"
  | Some dir ->
      let t = create () in
      add_root t dir;
      t
