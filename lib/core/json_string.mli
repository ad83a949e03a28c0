(** The one JSON string escaper of every JSON writer (diagnostics, model
    export, DSE and health reports, bench rows). *)

(** Escape for use between double quotes: quote, backslash and every
    control character; other bytes (UTF-8 included) pass through. *)
val escape : string -> string

(** [escape] wrapped in double quotes: a complete JSON string literal. *)
val quote : string -> string
