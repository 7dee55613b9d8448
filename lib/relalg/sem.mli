(** Runtime semantics shared by both execution engines ({!Eval}, the
    reference tree-walker, and {!Vexec}, the vectorized engine): three-valued comparison, [ANY]/[ALL] quantifier semantics,
    and the execution counters both engines report. *)

exception Eval_error of string

(** [eval_error fmt ...] raises {!Eval_error} with a formatted message. *)
val eval_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** {1 Three-valued comparison} *)

(** [cmp3 op a b] is the truth value ([Bool _]/[Null]) of [a op b]. *)
val cmp3 : Algebra.cmpop -> Value.t -> Value.t -> Value.t

(** {1 ANY/ALL semantics}

    The naive folds are the reference semantics (Figure 1's existential
    and universal quantification under 3VL); the summary versions are
    the fast path. Their agreement is property-tested. *)

val naive_any : Algebra.cmpop -> Value.t -> Value.t list -> Value.t
val naive_all : Algebra.cmpop -> Value.t -> Value.t list -> Value.t

type summary

val summarize : Value.t list -> summary
val any_of_summary : Algebra.cmpop -> Value.t -> summary -> Value.t
val all_of_summary : Algebra.cmpop -> Value.t -> summary -> Value.t

(** Read-only summary accessors, used by the vectorized engine's probe
    kernels to build integer membership sets. *)
val summary_is_empty : summary -> bool

val summary_has_null : summary -> bool

(** Distinct non-null values of the summarized column (unordered). *)
val summary_distinct_values : summary -> Value.t list

(** {1 Joins} *)

(** A join as both engines run it: a [Join] or [LeftJoin], or a
    selection over a product or join fused into one operator. The
    fused operator keeps its own plan paths: its checkpoints report at
    the join node, its inputs under the join node's [[left]]/[[right]]
    prefixes, and each sublink of the fused condition under the
    operator whose expression holds it ({!join_owners}). *)
type join = {
  j_prefix : Algebra.Path.t;  (** the join node's path prefix *)
  j_node : Algebra.query;  (** the [Cross], [Join] or [LeftJoin] node *)
  j_filter : Algebra.expr option;
      (** the condition of the selection fused over the node, whose
          path is [j_prefix] *)
  j_outer : bool;
  j_cond : Algebra.expr;  (** the fused condition *)
  j_left : Algebra.query;
  j_right : Algebra.query;
}

(** [join_of prefix q]: [q], under [prefix], as one join — [None] when
    [q] is no join or selection over a product or join. No path is
    built. *)
val join_of : Algebra.Path.t -> Algebra.query -> join option

(** [join_owners j here]: for {!Algebra.Path.locate}, the operators
    whose root expressions [j.j_cond] is made of — the join node at
    [here], then the fused selection. *)
val join_owners :
  join -> Algebra.Path.t -> (Algebra.Path.t * Algebra.expr list) list

(** {1 Execution counters} — in the spirit of EXPLAIN ANALYZE. *)

type stats = {
  mutable st_hash_joins : int;
  mutable st_nested_loop_joins : int;
  mutable st_nested_pairs : int;  (** tuple pairs examined by nested loops *)
  mutable st_sublink_evals : int;  (** sublink materializations (cache misses) *)
  mutable st_sublink_hits : int;  (** sublink memoization hits *)
  mutable st_rows_emitted : int;  (** rows produced by join operators *)
}

val fresh_stats : unit -> stats
val stats_to_string : stats -> string
