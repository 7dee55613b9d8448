(** Static types of SQL values.

    Dates are represented as ISO-8601 strings ([TString]); lexicographic
    comparison coincides with chronological order, which is all the TPC-H
    workload needs (see DESIGN.md). *)

type t =
  | TInt
  | TFloat
  | TString
  | TBool

let equal (a : t) (b : t) = a = b

let some = function
  | TInt -> Some TInt
  | TFloat -> Some TFloat
  | TString -> Some TString
  | TBool -> Some TBool

let to_string = function
  | TInt -> "int"
  | TFloat -> "float"
  | TString -> "string"
  | TBool -> "bool"

let pp ppf t = Format.pp_print_string ppf (to_string t)

(** [is_numeric t] holds for types usable in arithmetic. *)
let is_numeric = function
  | TInt | TFloat -> true
  | TString | TBool -> false

(** Result type of an arithmetic operation over two numeric types
    (int/float promotion). Raises [Invalid_argument] on non-numeric input. *)
let promote a b =
  match (a, b) with
  | TInt, TInt -> TInt
  | (TInt | TFloat), (TInt | TFloat) -> TFloat
  | _ -> invalid_arg "Vtype.promote: non-numeric type"

(** [compatible a b] holds when values of the two types may be compared. *)
let compatible a b =
  match (a, b) with
  | TInt, TFloat | TFloat, TInt -> true
  | a, b -> equal a b
