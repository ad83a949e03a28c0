(** The model-query server's binary protocol: the payloads carried
    inside {!Frame} frames.

    A request is one opcode byte followed by op-specific fields; a
    response is one status byte followed by a tagged value.  Integers
    are signed 64-bit big-endian; floats travel as their IEEE-754 bit
    pattern (queries answer {e bit-identically} across the wire — the
    MVCC acceptance criterion); strings and byte blobs are a 32-bit
    length plus bytes; index paths are a 16-bit count of 32-bit steps.

    See docs/SERVING.md for the full frame layout and the op-code
    table. *)

open Xpdl_core

(** A journaled edit as seen on the wire: pushed to subscribers as an
    [Event] frame and returned in batches by [EditsSince].  [ev_kind] is
    the edited attribute name, or ["#structure"] for structural edits. *)
type event = { ev_rev : int; ev_path : int list; ev_kind : string }

type request =
  | Ping
  | Stats  (** server/hub introspection snapshot as JSON *)
  | Pin  (** pin the head revision; answers [Int rev] *)
  | Unpin of int
  | Query of { rev : int; q : string }
      (** evaluate query [q] against revision [rev] ([-1] = head; other
          revisions must be pinned by this session) *)
  | Edit of {
      path : int list;
      key : string;
      value : string;
      unit_spelling : string option;
      req_id : int option;
    }
      (** elaborate [value] (with an optional unit spelling) and set
          attribute [key] at index path [path]; answers the new [Int]
          revision.  [req_id] is a client-assigned identifier for
          idempotent replay: retransmitting the same id with the same
          payload answers the originally assigned revision without
          re-applying ([deduped] in the hub stats); the same id with a
          {e different} payload is rejected with [XPDL905].  An edit
          without an id travels as opcode [0x06] (byte-identical to the
          pre-req-id wire form); with an id, as [0x0b]. *)
  | Subscribe
  | Unsubscribe
  | Fetch of int
      (** the runtime-model image (format v3) of a revision ([-1] = head) *)
  | EditsSince of int  (** journal catch-up; [Compacted] if unreplayable *)

type value =
  | Unit
  | Int of int
  | Float of float  (** bit-exact: encoded as IEEE-754 bits *)
  | Str of string
  | Blob of string  (** opaque bytes (a runtime-model image) *)
  | Strs of string list
  | Edits of event list
  | Compacted of int
      (** journal compacted past the requested revision; the payload is
          the head revision to resync to ([XPDL707] semantics) *)

type response =
  | Ok of value
  | Err of { code : string; msg : string }  (** [code] is an [XPDL7xx] *)
  | Event of event  (** server-initiated push to a subscribed session *)

(** {1 Codec}

    Decoders return a coded diagnostic on malformed input: [XPDL702]
    for an unknown opcode/status/tag, [XPDL703] for a payload that does
    not parse (truncated fields, trailing bytes, bad counts). *)

val encode_request : request -> string
val decode_request : string -> (request, Diagnostic.t) result
val encode_response : response -> string
val decode_response : string -> (response, Diagnostic.t) result

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
