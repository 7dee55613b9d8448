(** Cost-based strategy selection — the "provenance-aware cost model"
    the paper's Section 4.2.1 proposes as future work after observing
    that PostgreSQL's estimates for the rewritten plans were "extremely
    inaccurate".

    The model is {!Relalg.Estimate}: each strategy's optimized plan is
    costed from table statistics, with correlated sublinks charged per
    distinct binding like the evaluator. Its only job is to rank the
    four strategies' plans for one query — which it does reliably,
    because the plans differ by orders of magnitude. The ranking picks
    the first rung under [auto]; the fallback ladder keeps its static
    order ({!Resilience.strategy_ranking}). *)

open Relalg
open Algebra

type estimate = {
  est_strategy : Strategy.t;
  est_cost : float;  (** corrected {!Estimate} cost of the optimized plan *)
  est_safe : bool;  (** nullability proves the rewrite's fast paths safe *)
}

(* The {!Dataflow} nullability lattice is per-column and flows through
   operators, but it cannot see that a selection *filters* NULLs out:
   [SELECT c FROM t WHERE c > 0] yields a never-NULL column even when
   [t.c] is nullable, because a comparison is only TRUE on non-NULL
   operands. The 3VL solver proves exactly that: [cond ⟹ c IS NOT
   NULL] as filter implication. [Proved] is a theorem, so upgrading the
   lattice verdict here is sound; correlated conditions are fine too
   (outer attributes are free for the solver, so the implication holds
   under every binding). *)
let rec filtered_notnull c (q : query) : bool =
  match q with
  | Select (cond, input) ->
      ((not (has_sublink cond))
      && Symbolic.implies (Symbolic.ctx ()) cond (Not (IsNull (Attr c)))
         = Symbolic.Proved)
      || filtered_notnull c input
  | Project { cols; proj_input; _ } -> (
      match List.find_opt (fun (_, n) -> n = c) cols with
      | Some (Attr c', _) -> filtered_notnull c' proj_input
      | Some (Const v, _) -> not (Value.is_null v)
      | _ -> false)
  | Join (_, a, b) | Cross (a, b) ->
      (* names are disjoint across well-formed join sides, so whichever
         side binds [c] is the one a matching filter constrains *)
      filtered_notnull c a || filtered_notnull c b
  | Order (_, i) | Limit (_, i) -> filtered_notnull c i
  | _ -> false

(* Every output column of the sublink query proved non-NULL by the
   filter argument above. Only the [SELECT es FROM ...] (Project root)
   shape is attempted — that is what the SQL frontend builds. *)
let sublink_output_notnull (q : query) : bool =
  match q with
  | Project { cols; proj_input; _ } ->
      List.for_all
        (fun (e, _) ->
          match e with
          | Attr c -> filtered_notnull c proj_input
          | Const v -> not (Value.is_null v)
          | _ -> false)
        cols
  | _ -> false

(* Unn de-correlates an [= ANY] sublink into a plain equi-join. With a
   NULL on either side of the equality the original membership test is
   three-valued while the join's hash path is two-valued, so the
   rewrite's correctness rests on the subtle interplay of UNKNOWN
   filtering and duplicate handling. Prefer Unn only when no NULL can
   reach the comparison: the left-hand side and every sublink output
   column must be provably non-NULL (under the sublink's correlation
   scope) — by the {!Dataflow} lattice, or, where the lattice is too
   coarse, by a {!Symbolic} filter-implication proof. *)
let unn_equi_safe db (q : query) : bool =
  let dfa = Dataflow.create db in
  let exception Unsafe in
  let rec walk ~env q =
    let input_fact =
      List.fold_left
        (fun f i -> Dataflow.concat_null f (Dataflow.nullability dfa ~env i))
        { Dataflow.n_names = []; n_maybe = [] }
        (inputs q)
    in
    let env' = input_fact :: env in
    List.iter
      (fun e ->
        List.iter
          (fun s ->
            (match s.kind with
            | AnyOp (Eq, lhs) ->
                let col_maybe_null =
                  List.exists Fun.id
                    (Dataflow.nullability dfa ~env:env' s.query).Dataflow.n_maybe
                  && not (sublink_output_notnull s.query)
                in
                if Dataflow.expr_nullable dfa ~env:env' lhs || col_maybe_null
                then raise Unsafe
            | _ -> ());
            walk ~env:env' s.query)
          (sublinks_of_expr e))
      (root_exprs q);
    List.iter (walk ~env) (inputs q)
  in
  match walk ~env:[] q with () -> true | exception Unsafe -> false

(** [estimates db q] costs every applicable strategy's optimized plan
    by the statistics-backed {!Estimate} interpretation, adjusted by the
    feedback correction table ({!Estimate.corrected_cost}) so
    Guard-tripped plans sink to the back on repeat queries.
    Nullability-safe strategies come first (a hard gate, not a cost
    term), cheapest within each group; equal costs keep
    {!Strategy.all} order. *)
let estimates db (q : query) : estimate list =
  let est = Estimate.create db in
  List.filter_map
    (fun strategy ->
      match Rewrite.rewrite db ~strategy q with
      | q_plus, _ ->
          let plan = Optimizer.optimize db q_plus in
          let est_safe =
            match strategy with
            | Strategy.Unn -> unn_equi_safe db q
            | _ -> true
          in
          let est_cost =
            Estimate.corrected_cost
              ~fingerprint:(Estimate.fingerprint plan)
              (Estimate.cost est plan)
          in
          Some { est_strategy = strategy; est_cost; est_safe }
      | exception Strategy.Unsupported _ -> None)
    Strategy.all
  |> List.stable_sort (fun a b ->
         match compare b.est_safe a.est_safe with
         | 0 -> compare a.est_cost b.est_cost
         | c -> c)

(** [choose db q] is the estimated-cheapest applicable strategy.
    Raises {!Strategy.Unsupported} when none applies (e.g. LIMIT). *)
let choose db (q : query) : Strategy.t =
  match estimates db q with
  | { est_strategy; _ } :: _ -> est_strategy
  | [] -> Strategy.unsupported "no strategy can rewrite this query"

(* Record an observed outcome for the chosen strategy's optimized plan
   in the estimate-correction table — the re-ranking signal for repeat
   queries (never a mid-query re-optimization). *)
let note_outcome db q strategy ~obs_rows ~tripped =
  match Rewrite.rewrite db ~strategy q with
  | q_plus, _ ->
      let plan = Optimizer.optimize db q_plus in
      let est = Estimate.create db in
      Estimate.note_feedback
        ~fingerprint:(Estimate.fingerprint plan)
        ~est_rows:(Estimate.rows est plan) ~obs_rows ~tripped
  | exception Strategy.Unsupported _ -> ()

(** [run db ?certify ?lint ?werror ?budget ?fallback sql] is
    {!Perm.run} with the strategy chosen by the cost model. Returns the
    chosen strategy alongside the result. [?lint] / [?werror] gate the
    plans exactly as in {!Perm.run}; [?budget] / [?fallback] govern the
    execution as in {!Perm.run} (with fallback, later rungs follow the
    ladder's static order). *)
let run db ?(certify = false) ?(lint = false)
    ?(werror = false) ?budget ?(fallback = false) sql :
    Strategy.t * Perm.result =
  let analyzed =
    Resilience.enter Resilience.Analyze (fun () ->
        Sql_frontend.Analyzer.analyze_string db sql)
  in
  let q = analyzed.Sql_frontend.Analyzer.query in
  if analyzed.Sql_frontend.Analyzer.wants_provenance then begin
    let strategy =
      Resilience.enter Resilience.Rewrite (fun () -> choose db q)
    in
    let r =
      match
        Perm.run_query db ~strategy ~certify ~lint ~werror ?budget
          ~fallback ~provenance:true q
      with
      | r -> r
      | exception Guard.Budget_exceeded trip ->
          (* feed the trip back so repeat rankings demote this plan *)
          note_outcome db q strategy
            ~obs_rows:(float_of_int trip.Guard.t_counters.Guard.c_rows)
            ~tripped:true;
          raise (Guard.Budget_exceeded trip)
    in
    let strategy =
      match r.Perm.ladder with
      | Some l -> l.Resilience.lad_strategy
      | None -> strategy
    in
    note_outcome db q strategy
      ~obs_rows:(float_of_int (Relation.cardinality r.Perm.relation))
      ~tripped:false;
    (strategy, r)
  end
  else
    ( Strategy.Gen,
      Perm.run_query db ~certify ~lint ~werror ?budget ~fallback
        ~provenance:false q )
