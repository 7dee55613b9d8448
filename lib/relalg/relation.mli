(** Bag relations: a schema plus a multiset of tuples (a tuple's
    multiplicity is its number of occurrences), with the bag and
    duplicate-removing set operations of Figure 1. *)

type t

exception Relation_error of string

(** [make schema tuples] checks every tuple's arity against [schema]. *)
val make : Schema.t -> Tuple.t list -> t

(** [make_unchecked schema tuples] skips the per-tuple arity check —
    for operators (e.g. the vectorized engine) whose output arity is
    correct by construction. *)
val make_unchecked : Schema.t -> Tuple.t list -> t

(** [make_lazy ~cardinality schema produce] — late materialization: the
    rows are built by [produce ()] on first access and cached (the
    vectorized engine keeps results in columnar batches and only
    transposes to boxed rows if a consumer actually reads them).
    [cardinality] must equal the produced list's length; {!cardinality}
    and {!is_empty} are answered without forcing the rows. [produce]
    must be pure; forcing is domain-safe (same discipline as
    {!counts}). *)
val make_lazy : cardinality:int -> Schema.t -> (unit -> Tuple.t list) -> t

val empty : Schema.t -> t
val schema : t -> Schema.t
val tuples : t -> Tuple.t list
val cardinality : t -> int
val is_empty : t -> bool

(** [of_values schema rows] builds a relation from value-list rows. *)
val of_values : Schema.t -> Value.t list list -> t

(** [counts r] maps each distinct tuple to its multiplicity; computed
    on first use and cached in the relation, so repeated calls (and
    {!multiplicity} queries) are O(1) after the first. Initialization
    is domain-safe (atomic publication + mutex-serialized build), so
    parallel readers may call this concurrently. Callers must not
    mutate the result. *)
val counts : t -> int Tuple.Tbl.t

val multiplicity : t -> Tuple.t -> int
val mem : t -> Tuple.t -> bool

(** [nullable_columns r] flags, per column, whether any tuple holds a
    NULL there; computed on first use and cached in the relation
    (domain-safe, like {!counts}). Callers must not mutate the
    result. *)
val nullable_columns : t -> bool array

(** [column_nullable r i] is [(nullable_columns r).(i)]. *)
val column_nullable : t -> int -> bool

(** [distinct r] removes duplicates, keeping first occurrences. *)
val distinct : t -> t

(** {1 Bag operations} *)

val union_bag : t -> t -> t
val inter_bag : t -> t -> t
val diff_bag : t -> t -> t

(** {1 Set (duplicate-removing) operations} *)

val union_set : t -> t -> t
val inter_set : t -> t -> t
val diff_set : t -> t -> t

(** {1 Comparison} *)

(** Same types, same tuples with the same multiplicities. *)
val equal_bag : t -> t -> bool

(** Same distinct tuples, multiplicities ignored. *)
val equal_set : t -> t -> bool

(** Canonically sorted tuple list, for deterministic test output. *)
val sorted_tuples : t -> Tuple.t list

val pp : Format.formatter -> t -> unit
