(** Crash-safe whole-file replacement: write [path.tmp], fsync it,
    rename it over [path], then fsync the directory (best-effort).  The
    data reaches the disk before the rename publishes it, and the rename
    is durable once the directory entry is synced, so a crash leaves
    either the old file or the new one — never a torn mix.  Raises
    [Unix.Unix_error] on failure, after removing the temp file. *)
val write : path:string -> string -> unit
