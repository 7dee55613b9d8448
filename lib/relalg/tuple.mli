(** Tuples: arrays of values, treated as immutable.

    Tuple identity ({!equal}, {!hash}) treats [Null] as equal to [Null]
    and numerically equal ints/floats as equal — the SQL notion used by
    DISTINCT, GROUP BY and bag counting. *)

type t = Value.t array

val of_list : Value.t list -> t
val to_list : t -> Value.t list
val arity : t -> int
val get : t -> int -> Value.t
val concat : t -> t -> t

(** [project t positions] keeps the values at [positions], in order. *)
val project : t -> int list -> t

(** [project_arr t positions] is {!project} over a precomputed
    positions array — the form hot per-row paths use, avoiding the
    per-call list-to-array conversion. *)
val project_arr : t -> int array -> t

(** All-NULL tuple of arity [n] — the [null(R)] padding tuple of the
    Gen strategy (Section 3.3). *)
val nulls : int -> t

val equal : t -> t -> bool

(** Total order (lexicographic over {!Value.compare_total}). *)
val compare : t -> t -> int

val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [render t] renders every value with {!Value.to_string}, in order:
    a result row as the CLI table shows it, and the cell texts a
    client decodes from the wire (where the server writes them
    straight from the values). *)
val render : t -> string list

(** Hashtbl key module over tuple identity. *)
module Key : Hashtbl.HashedType with type t = t

module Tbl : Hashtbl.S with type key = t
