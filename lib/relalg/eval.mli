(** Evaluation entry points for the extended algebra of Figure 1.

    Two engines implement the same semantics: the {e vectorized}
    engine ({!Vexec}, the production engine) lowers the plan once into
    batch kernels and offset-resolved closures, and {!query},
    {!query_stats} and {!expr} run it; the {e reference} engine is the
    tree-walking interpreter kept in this module as the executable
    specification, reachable only through the [*_reference] entry
    points — the ones the oracle and the differential checks use.

    Performance features shared by the engines, mirroring what
    PostgreSQL gives the original Perm: hash execution of equi-join
    conjuncts (including the null-aware [=n]), per-correlation-binding
    memoization of sublink results, and constant-size summaries
    answering [ANY]/[ALL] sublinks. Cross products and non-equi joins
    are naive — which is exactly why the Gen strategy's CrossBase plans
    are expensive here, as in the paper. *)

exception Eval_error of string

(** {1 Environments} — a stack of frames, innermost first; correlated
    attribute references resolve against outer frames by name. *)

type frame = { f_schema : Schema.t; f_tuple : Tuple.t }
type env = frame list

val frame : Schema.t -> Tuple.t -> frame
val schemas_of_env : env -> Schema.t list

(** [lookup env name] resolves an attribute innermost-first; raises
    {!Eval_error} when unbound. *)
val lookup : env -> string -> Value.t

(** {1 Three-valued comparison} *)

(** [cmp3 op a b] is the truth value ([Bool _]/[Null]) of [a op b]. *)
val cmp3 : Algebra.cmpop -> Value.t -> Value.t -> Value.t

(** {1 ANY/ALL semantics}

    The naive folds are the reference semantics (Figure 1's existential
    and universal quantification under 3VL); the summary versions are
    the fast path. Their agreement is property-tested. *)

val naive_any : Algebra.cmpop -> Value.t -> Value.t list -> Value.t
val naive_all : Algebra.cmpop -> Value.t -> Value.t list -> Value.t

type summary = Sem.summary

val summarize : Value.t list -> summary
val any_of_summary : Algebra.cmpop -> Value.t -> summary -> Value.t
val all_of_summary : Algebra.cmpop -> Value.t -> summary -> Value.t

(** {1 Evaluation} *)

(** [query db q] evaluates [q] with the vectorized engine and a fresh
    memoization context, on the calling domain; [env] supplies outer
    frames for correlated evaluation. The batch size comes from
    {!Vexec.batch_rows}. *)
val query : ?env:env -> Database.t -> Algebra.query -> Relation.t

(** [query_reference db q] evaluates [q] with the reference tree walker. *)
val query_reference : ?env:env -> Database.t -> Algebra.query -> Relation.t

(** Execution counters, in the spirit of EXPLAIN ANALYZE (shared between
    the engines via {!Sem}). *)
type stats = Sem.stats = {
  mutable st_hash_joins : int;
  mutable st_nested_loop_joins : int;
  mutable st_nested_pairs : int;  (** tuple pairs examined by nested loops *)
  mutable st_sublink_evals : int;  (** sublink materializations (cache misses) *)
  mutable st_sublink_hits : int;  (** sublink memoization hits *)
  mutable st_rows_emitted : int;  (** rows produced by join operators *)
}

val stats_to_string : stats -> string

(** [query_stats db q] also reports how the plan actually executed. *)
val query_stats : ?env:env -> Database.t -> Algebra.query -> Relation.t * stats

val query_stats_reference :
  ?env:env -> Database.t -> Algebra.query -> Relation.t * stats

(** [expr db e] evaluates a scalar expression (sublinks allowed) with
    the vectorized engine's expression compiler. *)
val expr : ?env:env -> Database.t -> Algebra.expr -> Value.t

val expr_reference : ?env:env -> Database.t -> Algebra.expr -> Value.t
