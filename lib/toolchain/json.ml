(** A JSON view of composed XPDL models.

    The paper's related work compares XPDL with HPP-DL, whose "syntax is
    based on JSON rather than XML" (Sec. V).  This emitter renders any
    composed model in that style — demonstrating that the XML syntax "is
    not the key point" of XPDL's applicability (Sec. I) — with typed
    attribute values: quantities become [{"value": v, "unit": "..."}]
    objects in SI units, unresolved ["?"] entries become [null]. *)

open Xpdl_core

let key_field buf key = Fmt.kstr (Buffer.add_string buf) "%s: " (Json_string.quote key)
let string_field buf key v =
  key_field buf key;
  Buffer.add_string buf (Json_string.quote v)

let add_value buf (v : Model.attr_value) =
  match v with
  | Model.Str s -> Buffer.add_string buf (Json_string.quote s)
  | Model.Int i -> Buffer.add_string buf (string_of_int i)
  | Model.Float f -> Fmt.kstr (Buffer.add_string buf) "%g" f
  | Model.Bool b -> Buffer.add_string buf (string_of_bool b)
  | Model.Quantity (q, _) ->
      Fmt.kstr (Buffer.add_string buf) {|{"value": %g, "unit": "%s"}|}
        (Xpdl_units.Units.value q)
        (Json_string.escape
           (match Xpdl_units.Units.dim q with
           | Xpdl_units.Units.Size -> "B"
           | Xpdl_units.Units.Frequency -> "Hz"
           | Xpdl_units.Units.Power -> "W"
           | Xpdl_units.Units.Energy -> "J"
           | Xpdl_units.Units.Time -> "s"
           | Xpdl_units.Units.Bandwidth -> "B/s"
           | Xpdl_units.Units.Voltage -> "V"
           | Xpdl_units.Units.Temperature -> "K"
           | Xpdl_units.Units.Scalar -> ""))
  | Model.Expr (_, src) -> Buffer.add_string buf (Json_string.quote src)
  | Model.Unknown -> Buffer.add_string buf "null"

let rec add_element buf ~indent depth (e : Model.element) =
  let pad = if indent then String.make (2 * depth) ' ' else "" in
  let pad1 = if indent then String.make (2 * (depth + 1)) ' ' else "" in
  let nl = if indent then "\n" else "" in
  Fmt.kstr (Buffer.add_string buf) "{%s" nl;
  let fields = ref [] in
  let add_field f = fields := f :: !fields in
  add_field (fun () -> string_field buf "kind" (Schema.tag_of_kind e.Model.kind));
  Option.iter (fun n -> add_field (fun () -> string_field buf "name" n)) e.Model.name;
  Option.iter (fun i -> add_field (fun () -> string_field buf "id" i)) e.Model.id;
  Option.iter (fun t -> add_field (fun () -> string_field buf "type" t)) e.Model.type_ref;
  List.iter
    (fun (k, v) ->
      add_field (fun () ->
          key_field buf k;
          add_value buf v))
    e.Model.attrs;
  if e.Model.children <> [] then
    add_field (fun () ->
        Fmt.kstr (Buffer.add_string buf) "\"children\": [%s" nl;
        List.iteri
          (fun i c ->
            if i > 0 then Fmt.kstr (Buffer.add_string buf) ",%s" nl;
            Buffer.add_string buf (if indent then String.make (2 * (depth + 2)) ' ' else "");
            add_element buf ~indent (depth + 2) c)
          e.Model.children;
        Fmt.kstr (Buffer.add_string buf) "%s%s]" nl pad1);
  let emit = List.rev !fields in
  List.iteri
    (fun i f ->
      if i > 0 then Fmt.kstr (Buffer.add_string buf) ",%s" nl;
      Buffer.add_string buf pad1;
      f ())
    emit;
  Fmt.kstr (Buffer.add_string buf) "%s%s}" nl pad

(** Render a model as JSON text ([indent] defaults to pretty). *)
let to_string ?(indent = true) (e : Model.element) : string =
  let buf = Buffer.create 4096 in
  add_element buf ~indent 0 e;
  if indent then Buffer.add_char buf '\n';
  Buffer.contents buf

(** {1 A minimal JSON well-formedness checker}

    Enough of a parser to assert in tests that the emitter's output is
    valid JSON without pulling in a JSON library. *)

exception Invalid_json of string

let check (s : string) : unit =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Invalid_json (Fmt.str "%s at offset %d" msg !pos)) in
  let peek () = if !pos >= n then '\255' else s.[!pos] in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c = if peek () = c then incr pos else fail (Fmt.str "expected %C" c) in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> string_lit ()
    | 't' -> literal "true"
    | 'f' -> literal "false"
    | 'n' -> literal "null"
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "expected a JSON value"
  and literal lit =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit then
      pos := !pos + String.length lit
    else fail ("expected " ^ lit)
  and number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    if float_of_string_opt (String.sub s start (!pos - start)) = None then fail "bad number"
  and string_lit () =
    expect '"';
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            pos := !pos + 2;
            loop ()
        | _ ->
            incr pos;
            loop ()
    in
    loop ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then incr pos
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        if peek () = ',' then begin
          incr pos;
          members ()
        end
        else expect '}'
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then incr pos
    else
      let rec items () =
        value ();
        skip_ws ();
        if peek () = ',' then begin
          incr pos;
          items ()
        end
        else expect ']'
      in
      items ()
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing content"
