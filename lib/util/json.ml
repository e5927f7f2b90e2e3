type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buffer = Buffer.create (String.length s + 2) in
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"';
  Buffer.contents buffer

let float_repr f =
  if Float.is_finite f then begin
    (* ensure the token is a valid JSON number (needs . or e for floats) *)
    let s = Printf.sprintf "%.17g" f in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'n' then s
    else s ^ ".0"
  end
  else escape (Printf.sprintf "%h" f)

let to_string ?(pretty = true) value =
  let buffer = Buffer.create 256 in
  let newline depth =
    if pretty then begin
      Buffer.add_char buffer '\n';
      Buffer.add_string buffer (String.make (2 * depth) ' ')
    end
  in
  let rec emit depth = function
    | Null -> Buffer.add_string buffer "null"
    | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
    | Int i -> Buffer.add_string buffer (string_of_int i)
    | Float f -> Buffer.add_string buffer (float_repr f)
    | String s -> Buffer.add_string buffer (escape s)
    | List [] -> Buffer.add_string buffer "[]"
    | List items ->
      Buffer.add_char buffer '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buffer ',';
          newline (depth + 1);
          emit (depth + 1) item)
        items;
      newline depth;
      Buffer.add_char buffer ']'
    | Obj [] -> Buffer.add_string buffer "{}"
    | Obj fields ->
      Buffer.add_char buffer '{';
      List.iteri
        (fun i (key, item) ->
          if i > 0 then Buffer.add_char buffer ',';
          newline (depth + 1);
          Buffer.add_string buffer (escape key);
          Buffer.add_string buffer (if pretty then ": " else ":");
          emit (depth + 1) item)
        fields;
      newline depth;
      Buffer.add_char buffer '}'
  in
  emit 0 value;
  Buffer.contents buffer

(* -- parsing --------------------------------------------------------------- *)

exception Parse_error of string

(* A recursive-descent reader for the subset of JSON the emitter above
   produces (which is all of RFC 8259 minus nothing: the verify harness reads
   back perfbench's result line and `--trace` reports).  Numbers without '.', 'e' or 'E' parse as [Int], everything else
   as [Float]; \u escapes decode to UTF-8 (surrogate pairs included).

   Nesting is capped at [max_depth]: the reader also sits on the serve
   daemon's request path, where an adversarial body like 100k unclosed '['
   must produce a Parse_error, not a stack overflow that kills the
   process. *)

let max_depth = 512

let parse text =
  let len = String.length text in
  let pos = ref 0 in
  let error fmt =
    Printf.ksprintf (fun msg -> raise (Parse_error (Printf.sprintf "at offset %d: %s" !pos msg))) fmt
  in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < len && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> error "expected %C, found %C" c got
    | None -> error "expected %C, found end of input" c
  in
  let literal word value =
    let n = String.length word in
    if !pos + n <= len && String.sub text !pos n = word then begin
      pos := !pos + n;
      value
    end
    else error "invalid literal (expected %s)" word
  in
  let add_utf8 buffer code =
    if code < 0x80 then Buffer.add_char buffer (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buffer (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buffer (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buffer (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > len then error "truncated \\u escape";
    let value = ref 0 in
    for _ = 1 to 4 do
      let digit =
        match text.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | c -> error "invalid hex digit %C in \\u escape" c
      in
      value := (!value lsl 4) lor digit;
      advance ()
    done;
    !value
  in
  let parse_string () =
    expect '"';
    let buffer = Buffer.create 16 in
    let rec scan () =
      if !pos >= len then error "unterminated string";
      match text.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= len then error "unterminated escape";
         match text.[!pos] with
         | '"' -> Buffer.add_char buffer '"'; advance ()
         | '\\' -> Buffer.add_char buffer '\\'; advance ()
         | '/' -> Buffer.add_char buffer '/'; advance ()
         | 'b' -> Buffer.add_char buffer '\b'; advance ()
         | 'f' -> Buffer.add_char buffer '\012'; advance ()
         | 'n' -> Buffer.add_char buffer '\n'; advance ()
         | 'r' -> Buffer.add_char buffer '\r'; advance ()
         | 't' -> Buffer.add_char buffer '\t'; advance ()
         | 'u' ->
           advance ();
           let code = hex4 () in
           let code =
             (* a high surrogate must combine with the following \uXXXX low
                surrogate into one scalar value *)
             if code >= 0xD800 && code <= 0xDBFF
                && !pos + 1 < len && text.[!pos] = '\\' && text.[!pos + 1] = 'u'
             then begin
               pos := !pos + 2;
               let low = hex4 () in
               if low >= 0xDC00 && low <= 0xDFFF then
                 0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
               else error "unpaired surrogate in \\u escape"
             end
             else code
           in
           add_utf8 buffer code
         | c -> error "invalid escape \\%C" c);
        scan ()
      | c ->
        Buffer.add_char buffer c;
        advance ();
        scan ()
    in
    scan ();
    Buffer.contents buffer
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < len && number_char text.[!pos] do
      advance ()
    done;
    let token = String.sub text start (!pos - start) in
    let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') token in
    if is_float then
      match float_of_string_opt token with
      | Some f -> Float f
      | None -> error "invalid number %S" token
    else
      match int_of_string_opt token with
      | Some i -> Int i
      | None -> (
        (* out-of-range integer literals still parse, as floats *)
        match float_of_string_opt token with
        | Some f -> Float f
        | None -> error "invalid number %S" token)
  in
  let rec parse_value depth =
    if depth > max_depth then
      error "nesting deeper than %d levels (adversarial input?)" max_depth;
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let item = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (item :: acc)
          | Some ']' ->
            advance ();
            List.rev (item :: acc)
          | Some c -> error "expected ',' or ']', found %C" c
          | None -> error "unterminated array"
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value (depth + 1) in
          (key, value)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (kv :: acc)
          | Some '}' ->
            advance ();
            List.rev (kv :: acc)
          | Some c -> error "expected ',' or '}', found %C" c
          | None -> error "unterminated object"
        in
        Obj (fields [])
      end
    | Some ('0' .. '9' | '-') -> parse_number ()
    | Some c -> error "unexpected character %C" c
  in
  let value = parse_value 0 in
  skip_ws ();
  if !pos <> len then error "trailing garbage after value";
  value

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
