(** Runtime SQL values with [NULL] and three-valued logic.

    Two equality notions coexist, both needed by the paper:
    - SQL comparison ({!cmp_sql}), where any comparison involving [Null]
      is unknown;
    - the null-aware [=n] of Section 3.3 ({!equal_null}), where
      [Null =n Null] holds. *)

type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

(** Raised on dynamically ill-typed operations (also division by zero). *)
exception Type_clash of string

(** [type_clash fmt ...] raises {!Type_clash} with a formatted message. *)
val type_clash : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** {1 Construction and inspection} *)

val of_int : int -> t
val of_float : float -> t
val of_string : string -> t
val of_bool : bool -> t

val vtrue : t
val vfalse : t

val is_null : t -> bool

(** Dynamic type; [None] for [Null], which inhabits every type. *)
val vtype_of : t -> Vtype.t option

(** [zero_of ty] is the numeric zero of [ty]; raises on non-numeric. *)
val zero_of : Vtype.t -> t

(** Display rendering, as result rows show it: ints in decimal, floats
    as [Printf.sprintf "%.6g"] with [".0"] appended when that reads as
    an integer (["3"] becomes ["3.0"]), strings unquoted, [NULL] and
    [true]/[false] as words. Defined as {!write_text} into a string of
    {!text_length} bytes: there is one text algorithm. *)
val to_string : t -> string

(** [text_length v] is the length of [to_string v], computed without
    building it. *)
val text_length : t -> int

(** [write_text v b pos] writes the bytes of [to_string v] into [b] at
    [pos] and returns their number, {!text_length}[ v]. Ints, NULL,
    booleans, strings and floats allocate nothing, except a float
    the C formatter must render (NaN, the infinities, six-digit
    rounding ties, magnitudes outside [1e-16, 1e27)), which allocates
    its text. Raises
    [Invalid_argument] when they do not fit in [b]. *)
val write_text : t -> bytes -> int -> int

(** SQL-literal rendering: strings quoted and escaped. *)
val to_literal : t -> string

val pp : Format.formatter -> t -> unit

(** Numeric coercion; raises {!Type_clash} on non-numbers. *)
val as_float : t -> float

(** {1 Comparison} *)

(** SQL comparison: [None] if either operand is [Null], otherwise the
    sign convention of [compare]. Int/float compare numerically. *)
val cmp_sql : t -> t -> int option

(** Total order for sorting: [Null] first, then by type, numerics
    compared numerically. Never raises. *)
val compare_total : t -> t -> int

(** Null-aware structural equality ([=n]): [Null] equals [Null],
    numerically equal ints and floats are equal. *)
val equal_null : t -> t -> bool

(** {1 Three-valued logic} — truth values are [Bool _] or [Null]. *)

val is_true : t -> bool
val is_false : t -> bool
val and3 : t -> t -> t
val or3 : t -> t -> t
val not3 : t -> t

(** {1 Arithmetic} — NULL-strict; int/float promotion. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val modulo : t -> t -> t
val concat : t -> t -> t

(** Hash compatible with {!equal_null}. *)
val hash : t -> int
