(** Runtime SQL values with [NULL] and three-valued logic.

    The module provides the two equality notions the paper relies on:
    - SQL equality ([cmp_sql Eq]-style), where any comparison involving
      [Null] is unknown, and
    - the null-aware equality [=n] from Section 3.3 of the paper
      ([equal_null]), where [Null =n Null] is true. *)

type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

exception Type_clash of string

let type_clash fmt = Format.kasprintf (fun s -> raise (Type_clash s)) fmt

(** {1 Construction and inspection} *)

let of_int i = Int i
let of_float f = Float f
let of_string s = String s
let of_bool b = Bool b
let vtrue = Bool true
let vfalse = Bool false

let is_null = function Null -> true | Int _ | Float _ | String _ | Bool _ -> false

(** Dynamic type of a value; [None] for [Null] (which inhabits all types). *)
let vtype_of = function
  | Null -> None
  | Int _ -> Some Vtype.TInt
  | Float _ -> Some Vtype.TFloat
  | String _ -> Some Vtype.TString
  | Bool _ -> Some Vtype.TBool

(** [zero_of ty] is the neutral value used to seed numeric aggregates. *)
let zero_of = function
  | Vtype.TInt -> Int 0
  | Vtype.TFloat -> Float 0.
  | ty -> type_clash "no zero for type %s" (Vtype.to_string ty)

(** {1 Rendering}

    A value's text is written in place: {!text_length} says how many
    bytes it takes and {!write_text} writes them; {!to_string} is the
    two in one exact-size string. Served answers are written
    cell by cell through them, so they are the hot loop of every
    reply. They produce exactly the bytes of [string_of_int] and
    [Printf.sprintf "%.6g"] (plus the [".0"] rule), without the format
    interpreter. *)

(* Decimal digits of the non-positive [n], counted by comparison with
   growing powers of ten. The non-positive form, unlike the positive
   one, exists for [min_int]; 19 digits is the most an int has. *)
let rec neg_width n k p = if k = 19 || n > -p then k else neg_width n (k + 1) (p * 10)

let int_length i = (if i < 0 then 1 else 0) + neg_width (if i < 0 then i else -i) 1 10

(* [i]'s [len] = [int_length i] bytes, written at [pos]. *)
let write_int i len b pos =
  if i < 0 then Bytes.unsafe_set b pos '-';
  let n = ref (if i < 0 then i else -i) in
  for p = pos + len - 1 downto pos + if i < 0 then 1 else 0 do
    Bytes.unsafe_set b p (Char.unsafe_chr (48 - (!n mod 10)));
    n := !n / 10
  done

external format_float : string -> float -> string = "caml_format_float"

(* [%.6g] through the C formatter. The [".0"] rule is applied by the
   caller: [bare s] says [s] reads as an int ("3", which the SQL lexer
   would read back as one) and takes a [".0"] suffix. *)
let format_g f = format_float "%.6g" f

let bare s = not (String.contains s '.' || String.contains s 'e' || String.contains s 'n')

(* the powers of ten a double holds exactly: 10^0 .. 10^22 *)
let pow10 = Array.init 23 (fun k -> float_of_string ("1e" ^ string_of_int k))
let int_pow10 = [| 1; 10; 100; 1_000; 10_000; 100_000 |]

(* [a * 10^k], with one rounding; inlined, so that the float is not
   boxed *)
let[@inline] scale a k =
  if k >= 0 then a *. Array.unsafe_get pow10 k else a /. Array.unsafe_get pow10 (-k)

(* digit [j] of the six-digit [d], most significant first *)
let digit d j = d / Array.unsafe_get int_pow10 (5 - j) mod 10

(* The layout of [f]'s [%.6g] text, or -1 when the C formatter must
   decide. [m = |f| * 10^k] is scaled into [1e5, 1e6) by one exact
   power of ten, so with one rounding (error below 2^-53 relative, so
   below 2e-10), and its nearest integer [d] is the six significant
   digits; [x] is the decimal exponent. Within 1e-9 of a rounding tie
   the exact decimal expansion decides, so the C formatter is asked.
   [-1] too for NaN, the infinities, zero ([fallback_text] has it as
   a constant) and magnitudes outside [1e-16, 1e27), where no exact
   power of ten scales [f].

   [%.6g] is positional ("123.456", "0.00012") for -4 <= x <= 5 and
   in exponent form ("1.23457e+06") otherwise. The layout is packed
   into one int so that it costs no allocation: [d] in bits 0-19,
   [x + 32] in bits 20-25, the index [last] of the last digit kept in
   bits 26-28 and the sign in bit 29. *)
let float_layout f =
  let a = Float.abs f in
  if not (a >= 1e-16 && a < 1e27) then -1
  else begin
    (* [log10 a] from the binary exponent [e]: [e * log10 2], as
       [e * 78913 / 2^18], is within one of it; [m0] tells which way *)
    let e = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float a) 52) - 1023 in
    let k0 = 5 - ((e * 78_913) asr 18) in
    let m0 = scale a k0 in
    let k = if m0 < 1e5 then k0 + 1 else if m0 >= 1e6 then k0 - 1 else k0 in
    let m = if k = k0 then m0 else scale a k in
    let fl = Float.of_int (int_of_float m) in
    if m < 1e5 || m >= 1e6 || Float.abs (m -. fl -. 0.5) < 1e-9 then -1
    else begin
      let d = int_of_float m + if m -. fl > 0.5 then 1 else 0 in
      (* a carry into a seventh digit moves the decimal exponent [x] *)
      let carry = d >= 1_000_000 in
      let d = if carry then d / 10 else d in
      let x = (if carry then 6 else 5) - k in
      (* digits kept: trailing zeros dropped, but not, when positional,
         the integer part *)
      let keep = if x >= -4 && x <= 5 then Int.max x 0 else 0 in
      let last = ref 5 in
      while !last > keep && digit d !last = 0 do decr last done;
      d lor ((x + 32) lsl 20) lor (!last lsl 26) lor ((if f < 0. then 1 else 0) lsl 29)
    end
  end

let lay_x l = ((l lsr 20) land 0x3f) - 32
let lay_last l = (l lsr 26) land 0x7
let lay_sign l = (l lsr 29) land 1

(* "ddd.ddd" (at least one fraction digit, the [".0"] rule),
   "0.000ddd", or "d.ddde+xx" (|x| < 100, so two exponent digits) *)
let layout_length l =
  let x = lay_x l and last = lay_last l and sign = lay_sign l in
  if x < -4 || x > 5 then sign + (if last > 0 then last + 2 else 1) + 4
  else if x >= 0 then sign + x + 2 + Int.max 1 (last - x)
  else sign + 2 - x + last

let write_layout l len b pos =
  let d = l land 0xfffff and x = lay_x l and last = lay_last l and sign = lay_sign l in
  if x < -4 || x > 5 then begin
    let p = pos + sign in
    Bytes.unsafe_set b p (Char.unsafe_chr (48 + digit d 0));
    if last > 0 then Bytes.unsafe_set b (p + 1) '.';
    for j = 1 to last do
      Bytes.unsafe_set b (p + 1 + j) (Char.unsafe_chr (48 + digit d j))
    done;
    let e = pos + len - 4 and ax = Int.abs x in
    Bytes.unsafe_set b e 'e';
    Bytes.unsafe_set b (e + 1) (if x < 0 then '-' else '+');
    Bytes.unsafe_set b (e + 2) (Char.unsafe_chr (48 + (ax / 10)));
    Bytes.unsafe_set b (e + 3) (Char.unsafe_chr (48 + (ax mod 10)))
  end
  else begin
    Bytes.unsafe_fill b pos len '0';
    Bytes.unsafe_set b (if x >= 0 then pos + sign + x + 1 else pos + sign + 1) '.';
    for j = 0 to last do
      let p = if x < 0 then sign + 1 - x + j else if j <= x then sign + j else sign + j + 1 in
      Bytes.unsafe_set b (pos + p) (Char.unsafe_chr (48 + digit d j))
    done
  end;
  if sign = 1 then Bytes.unsafe_set b pos '-'

(* The text of a float without a layout; zeros, common in answers,
   without the C formatter. The rest (NaN, the infinities, ties and
   extreme magnitudes) are rare enough to be formatted in each of
   [text_length] and [write_text]. *)
let fallback_text f =
  if f = 0. then if Float.sign_bit f then "-0.0" else "0.0"
  else
    let s = format_g f in
    if bare s then s ^ ".0" else s

let text_length = function
  | Null -> 4
  | Int i -> int_length i
  | Float f ->
      let l = float_layout f in
      if l >= 0 then layout_length l else String.length (fallback_text f)
  | String s -> String.length s
  | Bool b -> if b then 4 else 5

(* [len] bytes fit in [b] at [pos] *)
let check b pos len =
  if pos < 0 || pos > Bytes.length b - len then invalid_arg "Value.write_text"

let blit s b pos =
  let n = String.length s in
  check b pos n;
  Bytes.unsafe_blit_string s 0 b pos n;
  n

let write_text v b pos =
  match v with
  | Null -> blit "NULL" b pos
  | Int i ->
      let len = int_length i in
      check b pos len;
      write_int i len b pos;
      len
  | Float f ->
      let l = float_layout f in
      if l >= 0 then begin
        let len = layout_length l in
        check b pos len;
        write_layout l len b pos;
        len
      end
      else blit (fallback_text f) b pos
  | String s -> blit s b pos
  | Bool b' -> blit (if b' then "true" else "false") b pos

let to_string = function
  | String s -> s
  | v ->
      let b = Bytes.create (text_length v) in
      ignore (write_text v b 0 : int);
      Bytes.unsafe_to_string b

(** SQL-literal rendering: strings are quoted and escaped. *)
let to_literal = function
  | String s ->
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '\'';
      String.iter
        (fun c ->
          if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
        s;
      Buffer.add_char buf '\'';
      Buffer.contents buf
  | v -> to_string v

let pp ppf v = Format.pp_print_string ppf (to_string v)

(** {1 Numeric coercion} *)

let as_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> type_clash "expected a number, got %s" (to_string v)

(** {1 Comparison} *)

(** SQL comparison: [None] when either operand is [Null], otherwise
    [Some c] with [c] the usual negative/zero/positive convention.
    Int/float operands are compared numerically. *)
let cmp_sql a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | Int x, Int y -> Some (compare x y)
  | (Int _ | Float _), (Int _ | Float _) -> Some (compare (as_float a) (as_float b))
  | String x, String y -> Some (compare x y)
  | Bool x, Bool y -> Some (compare x y)
  | _ -> type_clash "cannot compare %s with %s" (to_string a) (to_string b)

(** Total order used for ORDER BY and canonical sorting: [Null] sorts
    first, then values ordered within their type, types ordered
    bool < int/float < string. Never raises. *)
let compare_total a b =
  let rank = function
    | Null -> 0
    | Bool _ -> 1
    | Int _ | Float _ -> 2
    | String _ -> 3
  in
  match (a, b) with
  | Null, Null -> 0
  | (Int _ | Float _), (Int _ | Float _) -> compare (as_float a) (as_float b)
  | _ when rank a <> rank b -> compare (rank a) (rank b)
  | _ -> compare a b

(** Structural equality treating [Null] as equal to [Null] and [Int i]
    equal to [Float f] when numerically equal. This is the tuple-identity
    notion used for grouping, duplicate elimination and bag counting. *)
let equal_null a b =
  match (a, b) with
  | Null, Null -> true
  | Null, _ | _, Null -> false
  | _ -> cmp_sql a b = Some 0

(** {1 Three-valued logic}

    Truth values are encoded as [Bool true], [Bool false] and [Null]
    (unknown). *)

let is_true = function Bool true -> true | _ -> false
let is_false = function Bool false -> true | _ -> false

let and3 a b =
  match (a, b) with
  | Bool false, _ | _, Bool false -> Bool false
  | Bool true, Bool true -> Bool true
  | (Null | Bool true), (Null | Bool true) -> Null
  | _ -> type_clash "AND over non-boolean %s / %s" (to_string a) (to_string b)

let or3 a b =
  match (a, b) with
  | Bool true, _ | _, Bool true -> Bool true
  | Bool false, Bool false -> Bool false
  | (Null | Bool false), (Null | Bool false) -> Null
  | _ -> type_clash "OR over non-boolean %s / %s" (to_string a) (to_string b)

let not3 = function
  | Bool b -> Bool (not b)
  | Null -> Null
  | v -> type_clash "NOT over non-boolean %s" (to_string v)

(** {1 Arithmetic} *)

let arith op_name int_op float_op a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (int_op x y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (float_op (as_float a) (as_float b))
  | _ ->
      type_clash "%s over non-numeric %s / %s" op_name (to_string a) (to_string b)

let add = arith "+" ( + ) ( +. )
let sub = arith "-" ( - ) ( -. )
let mul = arith "*" ( * ) ( *. )

let div a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | _, Int 0 -> type_clash "division by zero"
  | _, Float 0. -> type_clash "division by zero"
  | Int x, Int y -> Int (x / y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (as_float a /. as_float b)
  | _ -> type_clash "/ over non-numeric %s / %s" (to_string a) (to_string b)

let modulo a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | _, Int 0 -> type_clash "modulo by zero"
  | Int x, Int y -> Int (x mod y)
  | _ -> type_clash "%% over non-integer %s / %s" (to_string a) (to_string b)

let concat a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | String x, String y -> String (x ^ y)
  | _ -> String (to_string a ^ to_string b)

(** {1 Hashing}

    Hash compatible with [equal_null]: numerically equal ints and floats
    hash alike, which lets hash joins mix the two numeric types. *)
let hash = function
  | Null -> 17
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash f
  | String s -> Hashtbl.hash s
  | Bool b -> Hashtbl.hash b
