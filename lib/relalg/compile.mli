(** Compiled query execution: lowers a type-checked {!Algebra.query}
    into a tree of offset-resolved OCaml closures, eliminating the
    per-tuple AST walking and by-name attribute lookup of the reference
    evaluator ({!Eval}).

    At compile time, every [Attr] is resolved once to a
    [(frame_depth, column_offset)] pair against the stack of operator
    schemas (innermost first — the correlation rules of Section 2.2
    decided statically); equi-join conjunct classification, sublink
    free-variable analysis and projection/aggregation output schemas
    are likewise computed once per operator. At run time the engine
    only moves values: array reads, hashing of pre-computed key
    closures, and the shared {!Sem} sublink summaries/memoization.

    Results are bag-identical to the reference evaluator (property
    -tested in the suite); row order, stats counters and error behavior
    match it operator by operator. Compiled plans snapshot catalog
    schemas; recompile after DDL. *)

(** Per-execution context (fresh memo tables + counters). *)
type ctx

(** A compiled scalar expression. *)
type cexpr = ctx -> Tuple.t list -> Value.t

(** A compiled plan. *)
type compiled

(** [compile ?env db q] lowers [q]; [env] supplies outer frame schemas
    (innermost first) for correlated compilation. Unresolvable
    attribute references raise {!Sem.Eval_error} here, at compile time. *)
val compile : ?env:Schema.t list -> Database.t -> Algebra.query -> compiled

(** Statically known output schema of a compiled plan. *)
val schema : compiled -> Schema.t

(** [run ?env c] executes with a fresh memoization context; [env] gives
    the outer frames' tuples, matching the schemas given to {!compile}. *)
val run : ?env:Tuple.t list -> compiled -> Relation.t

(** [run_stats ?env c] also reports the execution counters. *)
val run_stats : ?env:Tuple.t list -> compiled -> Relation.t * Sem.stats

(** [stream ?env c push] executes push-based: [push] receives each
    output row in order as it is produced. Used by the governor tests
    to observe the rows emitted before a {!Guard.Budget_exceeded}
    trip. *)
val stream : ?env:Tuple.t list -> compiled -> (Tuple.t -> unit) -> unit

(** [query db q] compiles and runs in one step; [env] pairs each outer
    frame's schema with its tuple, innermost first. *)
val query :
  ?env:(Schema.t * Tuple.t) list -> Database.t -> Algebra.query -> Relation.t

val query_stats :
  ?env:(Schema.t * Tuple.t) list ->
  Database.t ->
  Algebra.query ->
  Relation.t * Sem.stats

(** [expr db e] compiles and evaluates a scalar expression (sublinks
    allowed). *)
val expr :
  ?env:(Schema.t * Tuple.t) list -> Database.t -> Algebra.expr -> Value.t

(** {1 Engine-internal surface}

    Used by the vectorized engine ({!Vexec}) so both engines share one
    expression semantics and one per-execution sublink memo/summary
    cache. Not a stable API. *)

(** Fresh per-execution context (memo tables + counters). *)
val mk_ctx : Database.t -> ctx

(** The context's execution counters (mutable; shared with every
    closure run under this context). *)
val ctx_stats : ctx -> Sem.stats

val ctx_db : ctx -> Database.t

(** [compile_scalar ?path db cenv e] — compile a scalar expression
    against a schema stack (innermost first); [path] seeds the
    operator path sublink boundaries report under. *)
val compile_scalar :
  ?path:string list ->
  Database.t ->
  Schema.t list ->
  Algebra.expr ->
  cexpr

(** [compile_predicate ?path db cenv e] — compile a predicate to the
    unboxed three-valued form: 0 false, 1 true, 2 unknown. *)
val compile_predicate :
  ?path:string list ->
  Database.t ->
  Schema.t list ->
  Algebra.expr ->
  ctx ->
  Tuple.t list ->
  int

(** [eval_exprs ces ctx env] — evaluate compiled expressions into a
    fresh tuple. *)
val eval_exprs : cexpr array -> ctx -> Tuple.t list -> Tuple.t

(** Offsets of a projection list that only reads the input frame's own
    columns; [None] as soon as any item is not a bare in-frame
    [Attr]. *)
val offsets_of_projection :
  Schema.t -> (Algebra.expr * string) list -> int array option

(** [fused_join db cenv cols input] — the projection-into-join fusion
    both engines take: when [cols] are bare attributes of a join
    directly below ([Join], [LeftJoin], or a selection over a product or
    join), the join's [(outer, condition, left, right)] and the
    projection's output offsets into the joint schema with its output
    schema; [None] otherwise. *)
val fused_join :
  Database.t ->
  Schema.t list ->
  (Algebra.expr * string) list ->
  Algebra.query ->
  (bool * Algebra.expr * Algebra.query * Algebra.query * (int array * Schema.t))
  option

(** Whether re-evaluating an expression more or fewer times (binding
    unchanged) leaves the execution counters untouched. *)
val counter_silent : Algebra.expr -> bool

(** Attribute names an expression's evaluation can read (own [Attr]s
    plus sublink free variables). *)
val expr_deps : Database.t -> Algebra.expr -> string list

(** [sublink_summary ?path db cenv s] — per-execution ANY/ALL summary
    accessor for an {e uncorrelated} sublink, sharing the compiled
    engine's memo tables and counters; [None] when correlated. *)
val sublink_summary :
  ?path:string list ->
  Database.t ->
  Schema.t list ->
  Algebra.sublink ->
  (ctx -> Tuple.t list -> Sem.summary) option
