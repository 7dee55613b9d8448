(** Query execution, the production engine: a type-checked
    {!Algebra.query} lowered once into batch-at-a-time kernels over
    {!Vector} batches, and every scalar expression into an
    offset-resolved closure. A query runs on the domain that called
    it; concurrent executions (server sessions) share only the
    relations' own published memos, never a cache of this module.

    Results are row-identical to the reference walker ({!Eval}):
    schema names, row order, error messages and the {!Sem.stats}
    counters (property-tested in the suite). Governor checkpoints run
    at batch granularity on Lint-style operator paths. Sublink bodies
    are lowered like any plan and run sequentially on the enclosing
    execution's context, memoized per correlation binding; inside a
    correlated body, a subtree that reads no outer frame and touches no
    counter runs once per execution and is replayed for later
    bindings. *)

(** Rows per batch (base-table split granularity, selection/probe
    kernel unit, and the governor's row-accounting granularity). *)
val batch_rows : int ref

(** [query db q] — execute vectorized; [env] pairs each outer frame's
    schema with its tuple, innermost first. *)
val query :
  ?env:(Schema.t * Tuple.t) list -> Database.t -> Algebra.query -> Relation.t

(** [query_stats db q] also reports the execution counters. *)
val query_stats :
  ?env:(Schema.t * Tuple.t) list ->
  Database.t ->
  Algebra.query ->
  Relation.t * Sem.stats

(** [expr db e] compiles and evaluates a scalar expression (sublinks
    allowed) on a fresh context; [env] as for {!query}. *)
val expr : ?env:(Schema.t * Tuple.t) list -> Database.t -> Algebra.expr -> Value.t
