type t =
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

(* The cursor scans [src] by index; [c.pos = String.length src] is the
   end of input.  No option is allocated per character, and strings
   without escapes are one [String.sub]. *)
type cursor = { src : string; mutable pos : int }

let at_end c = c.pos >= String.length c.src

(* the current character; only valid when not [at_end] *)
let cur c = String.unsafe_get c.src c.pos

let rec skip_ws c =
  if not (at_end c) then
    match cur c with
    | ' ' | '\t' | '\n' | '\r' ->
        c.pos <- c.pos + 1;
        skip_ws c
    | _ -> ()

let expect c ch =
  if (not (at_end c)) && cur c = ch then c.pos <- c.pos + 1
  else error c.pos (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  let rec matches i = i = n || (c.src.[c.pos + i] = word.[i] && matches (i + 1)) in
  if c.pos + n <= String.length c.src && matches 0 then begin
    c.pos <- c.pos + n;
    value
  end
  else error c.pos (Printf.sprintf "expected %s" word)

let hex_digit = function
  | '0' .. '9' as ch -> Char.code ch - Char.code '0'
  | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
  | _ -> -1

(* the escape at [c.pos] (just past its backslash), appended to [b] *)
let parse_escape c b =
  if at_end c then error c.pos "bad escape";
  (match cur c with
   | '"' -> Buffer.add_char b '"'
   | '\\' -> Buffer.add_char b '\\'
   | '/' -> Buffer.add_char b '/'
   | 'b' -> Buffer.add_char b '\b'
   | 'f' -> Buffer.add_char b '\012'
   | 'n' -> Buffer.add_char b '\n'
   | 'r' -> Buffer.add_char b '\r'
   | 't' -> Buffer.add_char b '\t'
   | 'u' ->
       let code = ref 0 in
       for _ = 1 to 4 do
         c.pos <- c.pos + 1;
         let d = if at_end c then -1 else hex_digit (cur c) in
         if d < 0 then error c.pos "bad \\u escape";
         code := (!code * 16) + d
       done;
       Buffer.add_char b (if !code < 128 then Char.chr !code else '?')
   | _ -> error c.pos "bad escape");
  c.pos <- c.pos + 1

let parse_string c =
  expect c '"';
  let start = c.pos in
  (* the common case: no escape before the closing quote *)
  let rec plain () =
    if at_end c then error c.pos "unterminated string"
    else
      match cur c with
      | '"' ->
          c.pos <- c.pos + 1;
          String.sub c.src start (c.pos - 1 - start)
      | '\\' -> escaped ()
      | ch when Char.code ch < 0x20 -> error c.pos "control char in string"
      | _ ->
          c.pos <- c.pos + 1;
          plain ()
  and escaped () =
    let b = Buffer.create (2 * (c.pos - start) + 16) in
    Buffer.add_substring b c.src start (c.pos - start);
    let rec go () =
      if at_end c then error c.pos "unterminated string"
      else
        match cur c with
        | '"' -> c.pos <- c.pos + 1
        | '\\' ->
            c.pos <- c.pos + 1;
            parse_escape c b;
            go ()
        | ch when Char.code ch < 0x20 -> error c.pos "control char in string"
        | ch ->
            Buffer.add_char b ch;
            c.pos <- c.pos + 1;
            go ()
    in
    go ();
    Buffer.contents b
  in
  plain ()

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let continue = ref true in
  while !continue && not (at_end c) do
    match cur c with
    | '0' .. '9' | '-' | '+' -> c.pos <- c.pos + 1
    | '.' | 'e' | 'E' ->
        is_float := true;
        c.pos <- c.pos + 1
    | _ -> continue := false
  done;
  let s = String.sub c.src start (c.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> error start "bad number"
  else
    match int_of_string_opt s with
    | Some n -> Int n
    | None -> error start "bad number"

(* [close] ends the container; [item] parses one element *)
let parse_seq c ~close ~what item =
  skip_ws c;
  if (not (at_end c)) && cur c = close then begin
    c.pos <- c.pos + 1;
    []
  end
  else
    let rec items acc =
      let x = item () in
      skip_ws c;
      if at_end c then error c.pos what
      else
        match cur c with
        | ',' ->
            c.pos <- c.pos + 1;
            items (x :: acc)
        | ch when ch = close ->
            c.pos <- c.pos + 1;
            List.rev (x :: acc)
        | _ -> error c.pos what
    in
    items []

let rec parse_value c =
  skip_ws c;
  if at_end c then error c.pos "unexpected end of input";
  match cur c with
  | '{' ->
      c.pos <- c.pos + 1;
      Obj
        (parse_seq c ~close:'}' ~what:"expected ',' or '}'" (fun () ->
             skip_ws c;
             let key = parse_string c in
             skip_ws c;
             expect c ':';
             (key, parse_value c)))
  | '[' ->
      c.pos <- c.pos + 1;
      List (parse_seq c ~close:']' ~what:"expected ',' or ']'" (fun () -> parse_value c))
  | '"' -> Str (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> error c.pos (Printf.sprintf "unexpected %C" ch)

let parse src =
  let c = { src; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if at_end c then Ok v
      else Error (Printf.sprintf "at %d: trailing garbage" c.pos)
  | exception Bad msg -> Error msg

(* ---- printer ------------------------------------------------------ *)

let needs_escape s =
  let rec go i =
    i < String.length s
    && (match String.unsafe_get s i with
        | '"' | '\\' -> true
        | ch -> Char.code ch < 0x20 || go (i + 1))
  in
  go 0

(* the body of a string literal; a string that needs no escape is
   appended as is *)
let add_escaped b s =
  if not (needs_escape s) then Buffer.add_string b s
  else
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | ch when Char.code ch < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code ch)
        | ch -> Buffer.add_char b ch)
      s

let escape s =
  if not (needs_escape s) then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    add_escaped b s;
    Buffer.contents b
  end

let add_quoted b s =
  Buffer.add_char b '"';
  add_escaped b s;
  Buffer.add_char b '"'

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.bprintf b "%.1f" f
      else Printf.bprintf b "%.6g" f
  | Str s -> add_quoted b s
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ", ";
          write b x)
        xs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          add_quoted b k;
          Buffer.add_string b ": ";
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* ---- accessors ---------------------------------------------------- *)

let mem key = function Obj fields -> List.assoc_opt key fields | _ -> None

let str = function Str s -> Some s | _ -> None

let int = function Int n -> Some n | _ -> None

let bool = function Bool b -> Some b | _ -> None

let field_str key v = Option.bind (mem key v) str

let field_int key v = Option.bind (mem key v) int

let field_bool key v = Option.bind (mem key v) bool
