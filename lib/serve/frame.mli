(** Length-prefixed framing for the model-query server wire protocol.

    Every message travels as one frame: a 4-byte big-endian payload
    length followed by the payload bytes.  Frames up to {!max_frame}
    bytes are accepted (large enough for a whole runtime-model image
    on a [Fetch]); longer announced lengths are rejected with [XPDL701]
    before any payload is buffered.

    Two consumption styles:

    {ul
    {- {!read_frame}/{!write_frame} — blocking helpers that loop on
       short [Unix.read]/[Unix.write] transfers and retry [EINTR] and
       [EAGAIN]/[EWOULDBLOCK] (waiting for readiness), so a frame
       arriving one byte at a time, or a 300 KB frame pushed through a
       small socket buffer, is reassembled correctly;}
    {- {!decoder} — an incremental reassembly state machine for
       nonblocking event loops: feed whatever chunk arrived, pull zero
       or more complete frames out.}}

    A connection that closes in the middle of a frame is a protocol
    error ([XPDL700], from {!close} or {!read_frame}); closing exactly
    at a frame boundary is a clean shutdown. *)

open Xpdl_core

(** Maximum payload size (16 MiB). *)
val max_frame : int

(** [encode payload] is the wire form: 4-byte big-endian length +
    payload.  Raises [Invalid_argument] beyond {!max_frame}. *)
val encode : string -> string

(** {1 Incremental decoding} *)

type decoder

val decoder : unit -> decoder

(** Buffer [len] bytes of [s] starting at [off] (defaults: all of [s]).
    Feeding after an error is a no-op. *)
val feed : decoder -> ?off:int -> ?len:int -> string -> unit

(** Pull the next complete frame: [Ok (Some payload)], [Ok None] when
    more input is needed, or [Error] (sticky) when the announced length
    exceeds {!max_frame} ([XPDL701]). *)
val next : decoder -> (string option, Diagnostic.t) result

(** True while buffered bytes form an incomplete frame. *)
val mid_frame : decoder -> bool

(** Declare end-of-input: [Error] with [XPDL700] if the input ended
    mid-frame, [Ok ()] on a clean frame boundary. *)
val close : decoder -> (unit, Diagnostic.t) result

(** {1 Blocking transfers} *)

(** Raised by {!write_frame} when the peer closed or reset the
    connection mid-write ([EPIPE]/[ECONNRESET]).  The diagnostic
    carries [XPDL708]: a session-level close the caller handles by
    tearing down the one session (reclaiming its pins), never an
    uncaught [Unix.Unix_error] that kills the process. *)
exception Closed of Diagnostic.t

(** Write the whole encoded frame, looping on short writes, [EINTR] and
    [EAGAIN].  Raises {!Closed} ([XPDL708]) when the peer reset the
    connection, [Unix.Unix_error] on other transport failures. *)
val write_frame : Unix.file_descr -> string -> unit

(** Read one whole frame, looping on short reads, [EINTR] and [EAGAIN]:
    [Ok (Some payload)]; [Ok None] on a clean EOF between frames;
    [Error] on EOF mid-frame ([XPDL700]) or an oversized announced
    length ([XPDL701]). *)
val read_frame : Unix.file_descr -> (string option, Diagnostic.t) result
