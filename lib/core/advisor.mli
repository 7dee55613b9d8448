(** Cost-based strategy selection — the "provenance-aware cost model"
    that the paper's evaluation proposes as future work. The model is
    {!Relalg.Estimate}, the statistics-backed estimator; its only job
    here is to rank the strategies' rewritten plans, which differ by
    orders of magnitude. The ranking picks the strategy under [auto];
    it does not reorder the fallback ladder, which degrades in the
    static order of {!Resilience.strategy_ranking} in every program. *)

open Relalg

type estimate = {
  est_strategy : Strategy.t;
  est_cost : float;
      (** the {!Relalg.Estimate} cost of the strategy's optimized plan,
          corrected by observed feedback
          ({!Relalg.Estimate.corrected_cost}) *)
  est_safe : bool;
      (** [false] only for Unn on a query where the {!Dataflow}
          nullability analysis cannot prove every [= ANY] equality
          NULL-free — its de-correlated equi-join is then ranked after
          the strategies that keep the original sublink semantics. *)
}

(** [unn_equi_safe db q]: no NULL can reach any [= ANY] equality of
    [q]'s sublinks, so Unn's two-valued equi-join is exact — proved by
    the {!Dataflow} nullability lattice, or, where the lattice is too
    coarse, by a {!Symbolic} filter-implication proof that the
    sublink's own selection filters NULLs out ([cond ⟹ c IS NOT
    NULL]). Gates [est_safe] for Unn. *)
val unn_equi_safe : Database.t -> Algebra.query -> bool

(** [estimates db q]: every applicable strategy's optimized-plan
    cost; nullability-safe strategies first, cheapest within each
    group; equal costs keep {!Strategy.all} order. *)
val estimates : Database.t -> Algebra.query -> estimate list

(** [choose db q] is the estimated-cheapest applicable strategy
    whose rewrite is nullability-safe (falling back to unsafe ones when
    nothing else applies); raises {!Strategy.Unsupported} when no
    strategy applies. *)
val choose : Database.t -> Algebra.query -> Strategy.t

(** [run db ?certify ?lint ?werror ?budget ?fallback sql] is
    {!Perm.run} with an advisor-chosen strategy; returns the strategy
    that answered alongside the result (with [~fallback:true] that may
    be a later rung of the ladder, not the initial choice). [?lint] /
    [?werror] gate the plans as in {!Perm.run}; [?certify] translation-
    validates the optimizer's rewrites as in {!Perm.run}; [?budget] /
    [?fallback] govern the execution as in {!Perm.run}.

    Observed outcomes (result row counts, Guard budget trips) are
    recorded in the {!Relalg.Estimate} feedback table keyed by the
    chosen plan's fingerprint, so repeated queries re-rank with
    corrected costs — re-ranking only, never mid-query
    re-optimization. With [~fallback:true], the rungs after the chosen
    one follow {!Resilience.strategy_ranking}, which this module leaves
    as the static default. *)
val run :
  Database.t ->
  ?certify:bool ->
  ?lint:bool ->
  ?werror:bool ->
  ?budget:Guard.budget ->
  ?fallback:bool ->
  string ->
  Strategy.t * Perm.result
