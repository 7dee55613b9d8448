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

    Result rows are rendered value by value, so these two are the hot
    loop of every served answer. Both produce exactly the bytes of
    [string_of_int] and [Printf.sprintf "%.6g"] (plus the [".0"] rule),
    without the format interpreter. *)

(* Decimal digits written straight into one exact-length string. The
   digits are produced from the non-positive form of [i], which,
   unlike the positive one, exists for [min_int]. *)
let int_to_string i =
  let neg = if i < 0 then i else -i in
  let rec width n k = if n > -10 then k else width (n / 10) (k + 1) in
  let sign = if i < 0 then 1 else 0 in
  let len = sign + width neg 1 in
  let b = Bytes.create len in
  if sign = 1 then Bytes.unsafe_set b 0 '-';
  let n = ref neg in
  for p = len - 1 downto sign do
    Bytes.unsafe_set b p (Char.unsafe_chr (48 - (!n mod 10)));
    n := !n / 10
  done;
  Bytes.unsafe_to_string b

external format_float : string -> float -> string = "caml_format_float"

(* [%.6g] through the C formatter, with the [".0"] rule: avoid "3",
   which the SQL lexer would read back as an int. *)
let format_g f =
  let s = format_float "%.6g" f in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
  then s
  else s ^ ".0"

let pow10 = [| 1.; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]
let int_pow10 = [| 1; 10; 100; 1_000; 10_000; 100_000 |]

(* digit [j] of the six-digit [d], most significant first *)
let digit d j = d / Array.unsafe_get int_pow10 (5 - j) mod 10

(* [format_g f], written directly when [f] renders positionally, that
   is 1e-4 <= |f| < 1e6 after rounding to six significant digits.
   [m = |f| * 10^k] is scaled into [1e5, 1e6] with one rounding (error
   below 2^-53 relative, so below 2e-10), and its nearest integer [d]
   is the six significant digits. Within 1e-9 of a rounding tie the
   exact decimal expansion decides, so the C formatter is asked. *)
let float_to_string f =
  let a = Float.abs f in
  if not (a >= 1e-4 && a < 1e6) then format_g f
  else begin
    let k = ref 0 in
    while !k < 9 && a *. Array.unsafe_get pow10 !k < 1e5 do incr k done;
    let m = a *. Array.unsafe_get pow10 !k in
    let fl = Float.of_int (int_of_float m) in
    if m < 1e5 || Float.abs (m -. fl -. 0.5) < 1e-9 then format_g f
    else begin
      let d = int_of_float m + if m -. fl > 0.5 then 1 else 0 in
      (* a carry into a seventh digit moves the decimal exponent [x] *)
      let carry = d >= 1_000_000 in
      let d = if carry then d / 10 else d in
      let x = (if carry then 6 else 5) - !k in
      if x > 5 then format_g f
      else begin
        (* digits kept: trailing zeros dropped, but not the integer part *)
        let last = ref 5 in
        while !last > Int.max x 0 && digit d !last = 0 do decr last done;
        let sign = if f < 0. then 1 else 0 in
        (* "ddd.ddd" (at least one fraction digit, the [".0"] rule) or
           "0.000ddd" *)
        let len =
          if x >= 0 then sign + x + 2 + Int.max 1 (!last - x) else sign + 2 - x + !last
        in
        let b = Bytes.make len '0' in
        if sign = 1 then Bytes.unsafe_set b 0 '-';
        Bytes.unsafe_set b (if x >= 0 then sign + x + 1 else sign + 1) '.';
        for j = 0 to !last do
          let pos =
            if x < 0 then sign + 1 - x + j else if j <= x then sign + j else sign + j + 1
          in
          Bytes.unsafe_set b pos (Char.unsafe_chr (48 + digit d j))
        done;
        Bytes.unsafe_to_string b
      end
    end
  end

let to_string = function
  | Null -> "NULL"
  | Int i -> int_to_string i
  | Float f -> float_to_string f
  | String s -> s
  | Bool b -> if b then "true" else "false"

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
