(** Scope analysis: output names and free (correlated) references.

    A name is free in a sublink query when no scope created inside the
    sublink binds it — it is a correlation (Section 2.2). The evaluator
    uses the free-name set as the memoization key for sublink results. *)

(** Output attribute names of a query (no type information needed). *)
val out_names : Database.t -> Algebra.query -> string list

(** Free names per physical sublink body, filled as the functions
    below meet bodies. A caller creates one for one analysis (one
    optimizer call) and drops it after, so a body reached many times is
    walked once. *)
type memo

val memo : unit -> memo

(** Free attribute names of a query: sorted, duplicate-free. With
    [memo], the sublink bodies below the query are looked up there. *)
val free_of_query : ?memo:memo -> Database.t -> Algebra.query -> string list

(** [body_frees m db q]: the free names of sublink body [q], computed
    once per physical [q] and memo. *)
val body_frees : memo -> Database.t -> Algebra.query -> string list

(** Free names of an expression under an operator whose input provides
    [input_names]. *)
val free_of_expr : Database.t -> string list -> Algebra.expr -> string list

(** All names referenced by an expression with no local scope at all
    (used by the optimizer to decide pushdown). With [memo], sublink
    bodies are looked up there instead of walked. *)
val refs_of_expr : ?memo:memo -> Database.t -> Algebra.expr -> string list

(** Sets of names. *)
module S : Set.S with type elt = string

(** [add_refs ?memo db e acc] adds {!refs_of_expr}'s names to [acc]. *)
val add_refs : ?memo:memo -> Database.t -> Algebra.expr -> S.t -> S.t

(** [is_uncorrelated db s]: the applicability condition of the Left,
    Move and Unn strategies (Section 3.6). *)
val is_uncorrelated : Database.t -> Algebra.sublink -> bool

(** [split_equi ~left ~right cond] classifies each top-level
    conjunct of a join condition as a hashable equi-pair
    [(left_expr, right_expr, null_safe)] or as a residual condition.
    [left]/[right] are the schemas of the two join inputs.
    Shared by both execution engines; the vectorized engine runs it once
    per join operator instead of once per evaluation. *)
val split_equi :
  left:Schema.t ->
  right:Schema.t ->
  Algebra.expr ->
  (Algebra.expr * Algebra.expr * bool) list * Algebra.expr list
