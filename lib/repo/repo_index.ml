(* Persistent repository index codec (.xpdlidx sidecars).

   Layout of a version-2 image, all integers little-endian:

     0   magic "XPDLIX"
     6   u64 format version = 2
     14  u64 x 6: file count, descriptor count, diagnostic count,
                  string count, string blob length, total length
     62  u64 payload checksum (Xpdl_core.Checksum over everything after
         the header, as in the runtime-model arena)
     70  string table  (nstr+1) x u32 offsets, then blob
         file records  nf x (path u32, mtime f64-bits, size u64,
                             flags u8, ndescs u32, ndiags u32)
         desc records  nd x (ident i32, kind u32, line u32, col u32,
                             span_off u32, span_len u32, ndiags u32)
         diag records  ng x (severity u8, code u32, file u32,
                             line u32, col u32, msg u32)

   Descriptor and diagnostic records are stored flat, in owner order:
   a file's parse diagnostics first, then its descriptors, each followed
   (in the diag stream) by its elaboration diagnostics.  The per-owner
   counts reconstruct the grouping.  Strings are interned in
   first-appearance order, so the writer is deterministic: encoding the
   same index twice yields identical bytes (the double-save CI drill
   relies on this). *)

open Xpdl_core

type diag = {
  dg_severity : Diagnostic.severity;
  dg_code : string;
  dg_file : string;
  dg_line : int;
  dg_col : int;
  dg_msg : string;
}

type desc = {
  d_ident : string option;
  d_kind : string;
  d_line : int;
  d_col : int;
  d_span_off : int;
  d_span_len : int;
  d_diags : diag list;
}

type file_record = {
  fr_path : string;
  fr_mtime : float;
  fr_size : int;
  fr_quarantined : bool;
  fr_parse_diags : diag list;
  fr_descs : desc list;
}

type t = { files : file_record array }

let sidecar = ".xpdlidx"
let path_for_root root = Filename.concat root sidecar

let magic = "XPDLIX"
let format_version = 2

(* magic (6) + version (8) + 6 length fields (48) + checksum (8) *)
let header_size = 70
let checksum_off = 62

(* --- severity codes --- *)

let sev_code = function Diagnostic.Error -> 0 | Diagnostic.Warning -> 1 | Diagnostic.Info -> 2
let sev_of_code = function 0 -> Some Diagnostic.Error | 1 -> Some Diagnostic.Warning
  | 2 -> Some Diagnostic.Info | _ -> None

(* --- diagnostic conversion --- *)

let diag_of ~owner (d : Diagnostic.t) : diag =
  {
    dg_severity = d.Diagnostic.severity;
    dg_code = d.Diagnostic.code;
    dg_file =
      (if String.equal d.Diagnostic.pos.Xpdl_xml.Dom.file owner then ""
       else d.Diagnostic.pos.Xpdl_xml.Dom.file);
    dg_line = d.Diagnostic.pos.Xpdl_xml.Dom.line;
    dg_col = d.Diagnostic.pos.Xpdl_xml.Dom.column;
    dg_msg = d.Diagnostic.message;
  }

let to_diag ~owner (g : diag) : Diagnostic.t =
  {
    Diagnostic.severity = g.dg_severity;
    code = g.dg_code;
    pos =
      {
        Xpdl_xml.Dom.file = (if String.equal g.dg_file "" then owner else g.dg_file);
        line = g.dg_line;
        column = g.dg_col;
      };
    message = g.dg_msg;
  }

(* --- interner (first-appearance order, as in Ir.encode) --- *)

type interner = {
  it_tbl : (string, int) Hashtbl.t;
  mutable it_rev : string list;
  mutable it_cnt : int;
  mutable it_blob : int;
}

let interner () = { it_tbl = Hashtbl.create 256; it_rev = []; it_cnt = 0; it_blob = 0 }

let intern_in it s =
  match Hashtbl.find_opt it.it_tbl s with
  | Some i -> i
  | None ->
      let i = it.it_cnt in
      Hashtbl.add it.it_tbl s i;
      it.it_rev <- s :: it.it_rev;
      it.it_cnt <- i + 1;
      it.it_blob <- it.it_blob + String.length s;
      i

let w32 b o v = Bytes.set_int32_le b o (Int32.of_int v)
let w64 b o v = Bytes.set_int64_le b o (Int64.of_int v)

let file_rec_size = 4 + 8 + 8 + 1 + 4 + 4
let desc_rec_size = 4 + 4 + 4 + 4 + 4 + 4 + 4
let diag_rec_size = 1 + 4 + 4 + 4 + 4 + 4

(* mtimes cross the wire as f64 bits, so fingerprint comparison after a
   round trip is exact *)
let fingerprint_matches fr ~mtime ~size = Float.equal fr.fr_mtime mtime && fr.fr_size = size

let encode (t : t) : string =
  let strs = interner () in
  let nf = Array.length t.files in
  let nd = ref 0 and ng = ref 0 in
  (* intern in record order for determinism *)
  let intern_diag g =
    ignore (intern_in strs g.dg_code);
    ignore (intern_in strs g.dg_file);
    ignore (intern_in strs g.dg_msg);
    incr ng
  in
  Array.iter
    (fun fr ->
      ignore (intern_in strs fr.fr_path);
      List.iter intern_diag fr.fr_parse_diags;
      List.iter
        (fun d ->
          ignore (intern_in strs (Option.value ~default:"" d.d_ident));
          ignore (intern_in strs d.d_kind);
          incr nd;
          List.iter intern_diag d.d_diags)
        fr.fr_descs)
    t.files;
  let nd = !nd and ng = !ng in
  let nstr = strs.it_cnt in
  let o_str_off = header_size in
  let o_str_blob = o_str_off + (4 * (nstr + 1)) in
  let o_files = o_str_blob + strs.it_blob in
  let o_descs = o_files + (file_rec_size * nf) in
  let o_diags = o_descs + (desc_rec_size * nd) in
  let total = o_diags + (diag_rec_size * ng) in
  let b = Bytes.create total in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  w64 b 6 format_version;
  w64 b 14 nf;
  w64 b 22 nd;
  w64 b 30 ng;
  w64 b 38 nstr;
  w64 b 46 strs.it_blob;
  w64 b 54 total;
  w64 b checksum_off 0;
  (* string table *)
  let items = Array.of_list (List.rev strs.it_rev) in
  let off = ref 0 in
  Array.iteri
    (fun i s ->
      w32 b (o_str_off + (4 * i)) !off;
      Bytes.blit_string s 0 b (o_str_blob + !off) (String.length s);
      off := !off + String.length s)
    items;
  w32 b (o_str_off + (4 * Array.length items)) !off;
  let sid s = match Hashtbl.find_opt strs.it_tbl s with Some i -> i | None -> assert false in
  (* records *)
  let di = ref 0 and gi = ref 0 in
  let put_diag g =
    let o = o_diags + (diag_rec_size * !gi) in
    incr gi;
    Bytes.set_uint8 b o (sev_code g.dg_severity);
    w32 b (o + 1) (sid g.dg_code);
    w32 b (o + 5) (sid g.dg_file);
    w32 b (o + 9) g.dg_line;
    w32 b (o + 13) g.dg_col;
    w32 b (o + 17) (sid g.dg_msg)
  in
  Array.iteri
    (fun i fr ->
      let o = o_files + (file_rec_size * i) in
      w32 b o (sid fr.fr_path);
      Bytes.set_int64_le b (o + 4) (Int64.bits_of_float fr.fr_mtime);
      w64 b (o + 12) fr.fr_size;
      Bytes.set_uint8 b (o + 20) (if fr.fr_quarantined then 1 else 0);
      w32 b (o + 21) (List.length fr.fr_descs);
      w32 b (o + 25) (List.length fr.fr_parse_diags);
      List.iter put_diag fr.fr_parse_diags;
      List.iter
        (fun d ->
          let o = o_descs + (desc_rec_size * !di) in
          incr di;
          w32 b o (match d.d_ident with None -> -1 | Some s -> sid s);
          w32 b (o + 4) (sid d.d_kind);
          w32 b (o + 8) d.d_line;
          w32 b (o + 12) d.d_col;
          w32 b (o + 16) d.d_span_off;
          w32 b (o + 20) d.d_span_len;
          w32 b (o + 24) (List.length d.d_diags);
          List.iter put_diag d.d_diags)
        fr.fr_descs)
    t.files;
  let s = Bytes.unsafe_to_string b in
  let ck = Checksum.sub s header_size (total - header_size) in
  w64 b checksum_off ck;
  Bytes.unsafe_to_string b

(* --- decoder: every malformation becomes an XPDL311 result --- *)

exception Bad of string

let bad fmt = Fmt.kstr (fun m -> raise (Bad m)) fmt

let u8 s o = Char.code (String.unsafe_get s o)
let i32 s o = Int32.to_int (String.get_int32_le s o)
let u32 s o = i32 s o land 0xFFFFFFFF

let decode (s : string) : (t, Diagnostic.t) result =
  try
    let len = String.length s in
    if len < header_size then bad "truncated header (%d bytes)" len;
    if not (String.equal (String.sub s 0 6) magic) then bad "bad magic";
    let ver = Int64.to_int (String.get_int64_le s 6) in
    if ver <> format_version then bad "unsupported index version %d" ver;
    let nf = Int64.to_int (String.get_int64_le s 14) in
    let nd = Int64.to_int (String.get_int64_le s 22) in
    let ng = Int64.to_int (String.get_int64_le s 30) in
    let nstr = Int64.to_int (String.get_int64_le s 38) in
    let blob = Int64.to_int (String.get_int64_le s 46) in
    let total = Int64.to_int (String.get_int64_le s 54) in
    if total <> len then bad "length mismatch (header %d, actual %d)" total len;
    if nf < 0 || nd < 0 || ng < 0 || nstr < 0 || blob < 0 then bad "negative count";
    let o_str_off = header_size in
    let o_str_blob = o_str_off + (4 * (nstr + 1)) in
    let o_files = o_str_blob + blob in
    let o_descs = o_files + (file_rec_size * nf) in
    let o_diags = o_descs + (desc_rec_size * nd) in
    let o_total = o_diags + (diag_rec_size * ng) in
    if o_total <> len then bad "section arithmetic does not cover the image";
    let actual = Int64.of_int (Checksum.sub s header_size (len - header_size)) in
    if not (Int64.equal (String.get_int64_le s checksum_off) actual) then bad "checksum mismatch";
    let str i =
      if i < 0 || i >= nstr then bad "string id %d out of range" i;
      let a = u32 s (o_str_off + (4 * i)) and z = u32 s (o_str_off + (4 * (i + 1))) in
      if a > z || z > blob then bad "string offsets corrupt";
      String.sub s (o_str_blob + a) (z - a)
    in
    let gi = ref 0 in
    let read_diag () =
      if !gi >= ng then bad "diagnostic records exhausted";
      let o = o_diags + (diag_rec_size * !gi) in
      incr gi;
      let sev =
        match sev_of_code (u8 s o) with Some v -> v | None -> bad "bad severity code"
      in
      {
        dg_severity = sev;
        dg_code = str (i32 s (o + 1));
        dg_file = str (i32 s (o + 5));
        dg_line = u32 s (o + 9);
        dg_col = u32 s (o + 13);
        dg_msg = str (i32 s (o + 17));
      }
    in
    let di = ref 0 in
    let read_desc () =
      if !di >= nd then bad "descriptor records exhausted";
      let o = o_descs + (desc_rec_size * !di) in
      incr di;
      let ident = match i32 s o with -1 -> None | i -> Some (str i) in
      let kind = str (i32 s (o + 4)) in
      let line = u32 s (o + 8) and col = u32 s (o + 12) in
      let span_off = u32 s (o + 16) and span_len = u32 s (o + 20) in
      let n_diags = u32 s (o + 24) in
      let diags = List.init n_diags (fun _ -> read_diag ()) in
      { d_ident = ident; d_kind = kind; d_line = line; d_col = col; d_span_off = span_off;
        d_span_len = span_len; d_diags = diags }
    in
    let files =
      Array.init nf (fun i ->
          let o = o_files + (file_rec_size * i) in
          let path = str (i32 s o) in
          let mtime = Int64.float_of_bits (String.get_int64_le s (o + 4)) in
          let size = Int64.to_int (String.get_int64_le s (o + 12)) in
          let flags = u8 s (o + 20) in
          let n_descs = u32 s (o + 21) and n_diags = u32 s (o + 25) in
          let parse_diags = List.init n_diags (fun _ -> read_diag ()) in
          let descs = List.init n_descs (fun _ -> read_desc ()) in
          {
            fr_path = path;
            fr_mtime = mtime;
            fr_size = size;
            fr_quarantined = flags land 1 = 1;
            fr_parse_diags = parse_diags;
            fr_descs = descs;
          })
    in
    if !di <> nd then bad "unconsumed descriptor records";
    if !gi <> ng then bad "unconsumed diagnostic records";
    Ok { files }
  with
  | Bad m -> Error (Diagnostic.warning ~code:"XPDL311" "repository index corrupt: %s" m)
  | Invalid_argument _ ->
      Error (Diagnostic.warning ~code:"XPDL311" "repository index corrupt: truncated record")

let save ~root (t : t) : (unit, Diagnostic.t) result =
  let path = path_for_root root in
  match Atomic_file.write ~path (encode t) with
  | () -> Ok ()
  | exception Unix.Unix_error (err, _, _) ->
      Error
        (Diagnostic.warning ~code:"XPDL313" "cannot write repository index %s: %s" path
           (Unix.error_message err))

let load ~root : (t option, Diagnostic.t) result =
  let path = path_for_root root in
  if not (Sys.file_exists path) then Ok None
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | s -> ( match decode s with Ok t -> Ok (Some t) | Error d -> Error d)
    | exception Sys_error m ->
        Error (Diagnostic.warning ~code:"XPDL311" "cannot read repository index %s: %s" path m)
    | exception End_of_file ->
        Error (Diagnostic.warning ~code:"XPDL311" "repository index %s truncated while reading" path)
