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
    kernels to build unboxed membership sets. *)
val summary_is_empty : summary -> bool

val summary_has_null : summary -> bool

(** Distinct non-null values of the summarized column (unordered). *)
val summary_distinct_values : summary -> Value.t list

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
