let write ~path data =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  (try
     (try
        let n = String.length data in
        let off = ref 0 in
        while !off < n do
          off := !off + Unix.write_substring fd data !off (n - !off)
        done;
        Unix.fsync fd
      with e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e);
     Unix.close fd;
     Unix.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (* directory fsync is best-effort: not every filesystem lets you open
     a directory for reading, and the rename is already atomic *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY; O_CLOEXEC ] 0 with
  | dfd ->
      (try Unix.fsync dfd with Unix.Unix_error _ -> ());
      (try Unix.close dfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()
