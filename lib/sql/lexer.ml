(** Hand-rolled SQL lexer.

    Handles line comments ([--]), block comments ([/* ... */]),
    single-quoted strings with [''] escaping, numeric literals, and the
    multi-character operators [<=], [>=], [<>], [!=] and [||]. Every
    token carries its source position for error reporting.

    Reading a character allocates nothing: the end of input is a test
    on the position, never a boxed [char option], so a NUL byte in the
    source is an ordinary (unexpected) character. Keywords and symbols
    are shared tokens; a token allocates only its positioned record and,
    for identifiers, numbers and strings, its text. *)

type positioned = { tok : Token.t; pos : int; line : int; col : int }

exception Lex_error of string * int * int  (** message, line, column *)

let lex_error line col fmt =
  Format.kasprintf (fun s -> raise (Lex_error (s, line, col))) fmt

type state = {
  src : string;
  mutable i : int;
  mutable line : int;
  mutable col : int;
}

let eof st = st.i >= String.length st.src

(* The current character; only read when not [eof]. *)
let cur st = String.unsafe_get st.src st.i

(* Whether the character after the current one is [c]. *)
let next_is st c = st.i + 1 < String.length st.src && String.unsafe_get st.src (st.i + 1) = c

let advance st =
  if not (eof st) then
    if cur st = '\n' then begin
      st.line <- st.line + 1;
      st.col <- 1
    end
    else st.col <- st.col + 1;
  st.i <- st.i + 1

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let rec skip_trivia st =
  if not (eof st) then
    match cur st with
    | ' ' | '\t' | '\r' | '\n' ->
        advance st;
        skip_trivia st
    | '-' when next_is st '-' ->
        while not (eof st || cur st = '\n') do
          advance st
        done;
        skip_trivia st
    | '/' when next_is st '*' ->
        let start_line = st.line and start_col = st.col in
        advance st;
        advance st;
        let rec to_close () =
          if eof st then lex_error start_line start_col "unterminated block comment"
          else if cur st = '*' && next_is st '/' then begin
            advance st;
            advance st
          end
          else begin
            advance st;
            to_close ()
          end
        in
        to_close ();
        skip_trivia st
    | _ -> ()

let lex_string st =
  let line = st.line and col = st.col in
  advance st;
  (* opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    if eof st then lex_error line col "unterminated string literal"
    else
      match cur st with
      | '\'' when next_is st '\'' ->
          Buffer.add_char buf '\'';
          advance st;
          advance st;
          go ()
      | '\'' -> advance st
      | c ->
          Buffer.add_char buf c;
          advance st;
          go ()
  in
  go ();
  Token.STRING (Buffer.contents buf)

let skip_digits st =
  while (not (eof st)) && is_digit (cur st) do
    advance st
  done

let lex_number st =
  let line = st.line and col = st.col in
  let start = st.i in
  skip_digits st;
  let is_float = ref false in
  if (not (eof st)) && cur st = '.' && st.i + 1 < String.length st.src
     && is_digit (String.unsafe_get st.src (st.i + 1))
  then begin
    is_float := true;
    advance st;
    skip_digits st
  end;
  if (not (eof st)) && (cur st = 'e' || cur st = 'E') then begin
    is_float := true;
    advance st;
    if (not (eof st)) && (cur st = '+' || cur st = '-') then advance st;
    skip_digits st
  end;
  let text = String.sub st.src start (st.i - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Token.FLOAT f
    | None -> lex_error line col "invalid numeric literal %S" text
  else
    match int_of_string_opt text with
    | Some i -> Token.INT i
    | None -> lex_error line col "invalid integer literal %S" text

(* One shared [KW] token per keyword, found by comparing the source
   text in place, case-insensitively: a keyword allocates no string. *)
let keyword_names = Array.of_list Token.keywords
let keyword_tokens = Array.map (fun k -> Token.KW k) keyword_names

let rec same_upper src start k j =
  j = String.length k
  || Char.uppercase_ascii (String.unsafe_get src (start + j)) = String.unsafe_get k j
     && same_upper src start k (j + 1)

(* The index, from [i] on, of the keyword spelled by
   [src.[start .. start + len - 1]], or [-1]. *)
let rec keyword_index src start len i =
  if i = Array.length keyword_names then -1
  else
    let k = Array.unsafe_get keyword_names i in
    if String.length k = len && same_upper src start k 0 then i
    else keyword_index src start len (i + 1)

(* The lowercased text of an identifier, built in one string. *)
let lowercase_sub src start len =
  let b = Bytes.create len in
  for j = 0 to len - 1 do
    Bytes.unsafe_set b j (Char.lowercase_ascii (String.unsafe_get src (start + j)))
  done;
  Bytes.unsafe_to_string b

let lex_word st =
  let start = st.i in
  while (not (eof st)) && is_ident_char (cur st) do
    advance st
  done;
  let len = st.i - start in
  match keyword_index st.src start len 0 with
  | -1 -> Token.IDENT (lowercase_sub st.src start len)
  | k -> Array.unsafe_get keyword_tokens k

(* [tok] after consuming its [n] characters. *)
let take st n tok =
  for _ = 1 to n do
    advance st
  done;
  tok

let lex_symbol st =
  match cur st with
  | '<' when next_is st '=' -> take st 2 (Token.SYM "<=")
  | '>' when next_is st '=' -> take st 2 (Token.SYM ">=")
  | '<' when next_is st '>' -> take st 2 (Token.SYM "<>")
  | '!' when next_is st '=' -> take st 2 (Token.SYM "<>")
  | '|' when next_is st '|' -> take st 2 (Token.SYM "||")
  | '(' -> take st 1 (Token.SYM "(")
  | ')' -> take st 1 (Token.SYM ")")
  | ',' -> take st 1 (Token.SYM ",")
  | '.' -> take st 1 (Token.SYM ".")
  | ';' -> take st 1 (Token.SYM ";")
  | '*' -> take st 1 (Token.SYM "*")
  | '+' -> take st 1 (Token.SYM "+")
  | '-' -> take st 1 (Token.SYM "-")
  | '/' -> take st 1 (Token.SYM "/")
  | '%' -> take st 1 (Token.SYM "%")
  | '=' -> take st 1 (Token.SYM "=")
  | '<' -> take st 1 (Token.SYM "<")
  | '>' -> take st 1 (Token.SYM ">")
  | c -> lex_error st.line st.col "unexpected character %C" c

(** [tokenize src] is the token stream of [src], ending with [EOF]. *)
let tokenize (src : string) : positioned list =
  let st = { src; i = 0; line = 1; col = 1 } in
  let rec go acc =
    skip_trivia st;
    let pos = st.i and line = st.line and col = st.col in
    if eof st then List.rev ({ tok = Token.EOF; pos; line; col } :: acc)
    else
      let tok =
        match cur st with
        | '\'' -> lex_string st
        | c when is_digit c -> lex_number st
        | c when is_ident_start c -> lex_word st
        | _ -> lex_symbol st
      in
      go ({ tok; pos; line; col } :: acc)
  in
  go []
