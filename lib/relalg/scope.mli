(** Scope analysis: output names and free (correlated) references.

    A name is free in a sublink query when no scope created inside the
    sublink binds it — it is a correlation (Section 2.2). The evaluator
    uses the free-name set as the memoization key for sublink results. *)

(** Output attribute names of a query (no type information needed). *)
val out_names : Database.t -> Algebra.query -> string list

(** Free attribute names of a query: sorted, duplicate-free. *)
val free_of_query : Database.t -> Algebra.query -> string list

(** Free names of an expression under an operator whose input provides
    [input_names]. *)
val free_of_expr : Database.t -> string list -> Algebra.expr -> string list

(** All names referenced by an expression with no local scope at all
    (used by the optimizer to decide pushdown). *)
val refs_of_expr : Database.t -> Algebra.expr -> string list

(** [is_uncorrelated db s]: the applicability condition of the Left,
    Move and Unn strategies (Section 3.6). *)
val is_uncorrelated : Database.t -> Algebra.sublink -> bool

(** [split_equi db ~left ~right cond] classifies each top-level
    conjunct of a join condition as a hashable equi-pair
    [(left_expr, right_expr, null_safe)] or as a residual condition.
    [left]/[right] are the attribute names of the two join inputs.
    Shared by both execution engines; the vectorized engine runs it once
    per join operator instead of once per evaluation. *)
val split_equi :
  Database.t ->
  left:string list ->
  right:string list ->
  Algebra.expr ->
  (Algebra.expr * Algebra.expr * bool) list * Algebra.expr list
