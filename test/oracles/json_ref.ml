(* The serve JSON codec that [Serve.Json] replaced: the parser peeks
   an [option] per character through a cursor, and the printer joins
   [^] trees and escapes every string through a fresh buffer.  Kept as
   the specification the one-buffer printer and the index-scanning
   parser are checked against: the same bytes out, the same value or
   the same error text ("at N: ...") back.  The type is the library's,
   so values compare directly. *)

type t = Serve.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string

let error pos msg = raise (Bad (Printf.sprintf "at %d: %s" pos msg))

(* ---- parser ------------------------------------------------------- *)

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> error c.pos (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else error c.pos (Printf.sprintf "expected %s" word)

let hex_digit = function
  | '0' .. '9' as ch -> Char.code ch - Char.code '0'
  | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
  | _ -> -1

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error c.pos "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        (match peek c with
         | Some '"' -> Buffer.add_char b '"'
         | Some '\\' -> Buffer.add_char b '\\'
         | Some '/' -> Buffer.add_char b '/'
         | Some 'b' -> Buffer.add_char b '\b'
         | Some 'f' -> Buffer.add_char b '\012'
         | Some 'n' -> Buffer.add_char b '\n'
         | Some 'r' -> Buffer.add_char b '\r'
         | Some 't' -> Buffer.add_char b '\t'
         | Some 'u' ->
             let code = ref 0 in
             for _ = 1 to 4 do
               advance c;
               match peek c with
               | Some ch when hex_digit ch >= 0 ->
                   code := (!code * 16) + hex_digit ch
               | _ -> error c.pos "bad \\u escape"
             done;
             Buffer.add_char b (if !code < 128 then Char.chr !code else '?')
         | _ -> error c.pos "bad escape");
        advance c;
        go ())
    | Some ch when Char.code ch < 0x20 -> error c.pos "control char in string"
    | Some ch ->
        Buffer.add_char b ch;
        advance c;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let rec go () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+') ->
        advance c;
        go ()
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance c;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub c.src start (c.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> error start "bad number"
  else
    match int_of_string_opt s with
    | Some n -> Int n
    | None -> error start "bad number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c.pos "unexpected end of input"
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields ((key, v) :: acc)
          | Some '}' ->
              advance c;
              List.rev ((key, v) :: acc)
          | _ -> error c.pos "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let rec elems acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              elems (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> error c.pos "expected ',' or ']'"
        in
        List (elems [])
      end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> error c.pos (Printf.sprintf "unexpected %C" ch)

let parse src =
  let c = { src; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos = String.length src then Ok v
      else Error (Printf.sprintf "at %d: trailing garbage" c.pos)
  | exception Bad msg -> Error msg

(* ---- printer ------------------------------------------------------ *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
       match ch with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\r' -> Buffer.add_string b "\\r"
       | '\t' -> Buffer.add_string b "\\t"
       | ch when Char.code ch < 0x20 ->
           Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
       | ch -> Buffer.add_char b ch)
    s;
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int n -> string_of_int n
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
      else Printf.sprintf "%.6g" f
  | Str s -> "\"" ^ escape s ^ "\""
  | List xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Obj fields ->
      "{"
      ^ String.concat ", "
          (List.map
             (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v)
             fields)
      ^ "}"
