(** Persistent repository index: the [.xpdlidx] sidecar written next to
    a repository root.

    The index caches the result of one full scan of the root — which
    files exist, which descriptors they declare (name/id, kind, source
    position, byte span), what diagnostics the scan produced, and a
    (mtime, size) fingerprint per file — so that a later
    {!Xpdl_repo.Repo.open_root} can reconstruct the repository's name
    table and diagnostic stream without parsing anything, and re-scan
    only the files whose fingerprint no longer matches.

    The codec follows the runtime-model arena conventions
    (lib/toolchain/ir.ml): magic + version header, interned string table
    in first-appearance order, the shared {!Xpdl_core.Checksum} payload
    checksum, and a single deterministic writer — saving the same index
    twice yields identical bytes.  The format is version 2; an index of
    any other version is a stale cache, rejected like a corrupt one.  A corrupt or truncated index never crashes the loader: it
    decodes to a coded [XPDL311] diagnostic and the caller falls back to
    a full scan. *)

open Xpdl_core

(** One diagnostic recorded at scan time.  [dg_file] is empty when the
    position refers to the owning file itself (the common case), so the
    index stays valid when the root is reached through a different path
    spelling. *)
type diag = {
  dg_severity : Diagnostic.severity;
  dg_code : string;
  dg_file : string;  (** [""] = the owning file record's path *)
  dg_line : int;
  dg_col : int;
  dg_msg : string;
}

(** One descriptor declared by a file. *)
type desc = {
  d_ident : string option;  (** [None]: replayed as XPDL301 *)
  d_kind : string;  (** schema tag, e.g. ["cpu"] *)
  d_line : int;
  d_col : int;  (** source position within the file *)
  d_span_off : int;
  d_span_len : int;  (** byte span of the descriptor in the file *)
  d_diags : diag list;  (** elaboration diagnostics, in emission order *)
}

(** One scanned file, fingerprinted by (mtime, size). *)
type file_record = {
  fr_path : string;  (** relative to the indexed root, ['/']-separated *)
  fr_mtime : float;
  fr_size : int;
  fr_quarantined : bool;  (** no tree could be recovered *)
  fr_parse_diags : diag list;  (** parse-recovery diagnostics *)
  fr_descs : desc list;  (** document order *)
}

type t = { files : file_record array }  (** scan order *)

(** Basename of the sidecar file: [".xpdlidx"]. *)
val sidecar : string

(** Sidecar path for a root directory. *)
val path_for_root : string -> string

val encode : t -> string

(** Decode an index image; [Error] carries an [XPDL311] diagnostic
    (bad magic, version, truncation, checksum mismatch — never an
    exception). *)
val decode : string -> (t, Diagnostic.t) result

(** Round a float to the diag/file-record wire representation, so
    fingerprints compare equal after a save/load cycle. *)
val fingerprint_matches : file_record -> mtime:float -> size:int -> bool

(** Write the index next to [root]; [Error] carries an [XPDL313]
    diagnostic.  Saving is atomic and durable: the temp file is
    fsynced before the rename publishes it (plus a best-effort
    directory fsync), so a reader never sees a half-written sidecar
    and a crash right after the rename cannot surface a live index
    whose bytes never reached the disk. *)
val save : root:string -> t -> (unit, Diagnostic.t) result

(** Read the index of [root]: [Ok None] when no sidecar exists,
    [Error] ([XPDL311]) when it exists but cannot be decoded. *)
val load : root:string -> (t option, Diagnostic.t) result

(** Diagnostic ↔ index-record conversion. [to_diag ~file] substitutes
    [file] for the empty [dg_file] marker. *)
val diag_of : owner:string -> Diagnostic.t -> diag

val to_diag : owner:string -> diag -> Diagnostic.t
