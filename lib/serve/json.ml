type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ----- printing ----- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      (* integral floats inside the 2^53 safe range keep the "x.0" form so
         readers can tell them from Int; everything else gets the shortest
         decimal that parses back to the same float — %.12g silently
         truncates (0.1 +. 0.2 would echo as 0.3) *)
      if Float.is_integer f && Float.abs f < 9007199254740992.0 then
        Buffer.add_string b (Printf.sprintf "%.1f" f)
      else
        let s15 = Printf.sprintf "%.15g" f in
        if float_of_string s15 = f then Buffer.add_string b s15
        else
          let s16 = Printf.sprintf "%.16g" f in
          if float_of_string s16 = f then Buffer.add_string b s16
          else Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Str s -> escape_string b s
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string b ", ";
          to_buffer b item)
        items;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          escape_string b k;
          Buffer.add_string b ": ";
          to_buffer b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* ----- parsing ----- *)

exception Fail of int * string

(* Requests and replies nest at most 3 levels deep.  The parser recurses
   once per level, so without a bound one frame of brackets could make it
   recurse and allocate millions of times before any check ran. *)
let max_depth = 64
let too_deep = Printf.sprintf "nesting deeper than %d levels" max_depth

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          let c = s.[!pos] in
          advance ();
          (match c with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              let cp = try hex4 () with Failure _ -> fail "bad \\u escape" in
              let cp =
                (* a high surrogate must be followed by \uXXXX low surrogate *)
                if cp >= 0xD800 && cp <= 0xDBFF && !pos + 6 <= n && s.[!pos] = '\\'
                   && s.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = try hex4 () with Failure _ -> fail "bad \\u escape" in
                  0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                end
                else cp
              in
              add_utf8 b cp
          | c -> fail (Printf.sprintf "bad escape \\%c" c));
          go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let is_digit () = match peek () with Some ('0' .. '9') -> true | _ -> false in
    if not (is_digit ()) then fail "expected a digit";
    while is_digit () do
      advance ()
    done;
    let fractional = ref false in
    if peek () = Some '.' then begin
      fractional := true;
      advance ();
      if not (is_digit ()) then fail "expected a digit after '.'";
      while is_digit () do
        advance ()
      done
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        fractional := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        if not (is_digit ()) then fail "expected an exponent digit";
        while is_digit () do
          advance ()
        done
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !fractional then Float (float_of_string text)
    else match int_of_string_opt text with Some i -> Int i | None -> Float (float_of_string text)
  in
  (* [depth] counts the arrays and objects the value sits inside.  The
     inner loops take it as an argument instead of capturing it, so the
     bound adds no allocation to a parse (clients parse every reply). *)
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        if depth >= max_depth then fail too_deep;
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let items = ref [] in
          let rec members inner =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value inner in
            items := (k, v) :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members inner
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members (depth + 1);
          Obj (List.rev !items)
        end
    | Some '[' ->
        if depth >= max_depth then fail too_deep;
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements inner =
            let v = parse_value inner in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements inner
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements (depth + 1);
          List (List.rev !items)
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos < n then fail "trailing content after the document";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "JSON error at byte %d: %s" at msg)

(* ----- accessors ----- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_str = function Str s -> Some s | _ -> None

type int_error = Not_an_integer | Unsafe_integer

(* Doubles lose integer precision from 2^53 up (9007199254740993 parses to
   the float 9007199254740992.), so accepting the old 1e15 bound silently
   corrupted large ids.  Only the safe range converts; integral floats
   beyond it are a distinct, reportable error. *)
let to_int_checked = function
  | Int i -> Ok i
  | Float f when Float.is_integer f && Float.abs f < 9007199254740992.0 -> Ok (int_of_float f)
  | Float f when Float.is_integer f -> Error Unsafe_integer
  | _ -> Error Not_an_integer

let to_int j = Result.to_option (to_int_checked j)

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
