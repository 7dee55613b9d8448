(** Public API of the Perm reproduction: parse SQL (with the
    [SELECT PROVENANCE] extension), rewrite with a chosen sublink
    strategy, and evaluate.

    Typical use:
    {[
      let result =
        Perm.run db "SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s)"
      in
      Relalg.Table_pp.print result.Perm.relation
    ]} *)

open Relalg

type result = {
  relation : Relation.t;  (** the evaluated result *)
  provenance : Pschema.prov_rel list;
      (** provenance attribute descriptions; empty when no provenance was
          requested *)
  plan : Algebra.query;  (** the plan that was executed *)
  ladder : Resilience.ladder option;
      (** how the strategy-fallback ladder concluded; [None] unless the
          run was made with [~fallback:true] and provenance *)
  certificate : Certify.report option;
      (** the translation-validation certificate for the optimizer run;
          [None] unless the run was made with [~certify:true] *)
}

(** [rewrite db ?strategy q] is the provenance-propagating plan [q+] and
    its provenance schema. Raises {!Strategy.Unsupported} when the
    strategy cannot handle [q]. *)
let rewrite db ?(strategy = Strategy.Gen) q = Rewrite.rewrite db ~strategy q

(* The lint gate shared by every evaluation entry point. With
   [~lint:true], the source query is linted ([~werror] escalating
   warnings), and for provenance runs the rewrite result is verified
   against the provenance contract and the final plan re-linted with
   the plan rules; any error raises {!Lint.Lint_error} before
   evaluation. *)
let gate_source db ~lint ~werror q =
  if lint then Lint.fail_on ~werror (Lint.lint db q)

let gate_rewrite db ~lint ~strategy ~original ?optimized (q_plus, provs) =
  if lint then begin
    Lint.fail_on (Provcheck.check db ~strategy ?optimized ~original (q_plus, provs));
    let final = Option.value ~default:q_plus optimized in
    Lint.fail_on (Lint.lint ~rules:Lint.plan_rules db final)
  end

let gate_plain db ~lint ~original plan =
  if lint && plan != original then
    Lint.fail_on (Provcheck.optimizer_guard db ~before:original plan)

(* The provenance pipeline for one strategy, each phase reporting
   through the {!Resilience} taxonomy. *)
(* The optimizer step shared by both pipelines: with [~certify:true]
   the pass runs under the {!Certify} translation validator and a
   failed certificate aborts the run (phase [Optimize]). *)
let optimize_step db ~certify q =
  Resilience.enter Resilience.Optimize (fun () ->
      if certify then begin
        let plan, report = Certify.optimize db q in
        Certify.fail_on report;
        (plan, Some report)
      end
      else (Optimizer.optimize db q, None))

let prov_pipeline db ~strategy ~certify ~lint q : result =
  let q_plus, provs =
    Resilience.enter Resilience.Rewrite (fun () ->
        Rewrite.rewrite db ~strategy q)
  in
  Resilience.enter Resilience.Typecheck (fun () -> Typecheck.check db q_plus);
  let plan, certificate = optimize_step db ~certify q_plus in
  Resilience.enter Resilience.Rewrite (fun () ->
      gate_rewrite db ~lint ~strategy ~original:q ~optimized:plan
        (q_plus, provs));
  if certify then
    (* bounded ground truth: the provenance plan must agree with the
       enumeration oracle on the witness databases *)
    Resilience.enter Resilience.Rewrite (fun () ->
        Lint.fail_on (Provcheck.oracle_check db ~original:q plan));
  let relation =
    Resilience.enter Resilience.Eval (fun () -> Eval.query db plan)
  in
  { relation; provenance = provs; plan; ladder = None; certificate }

let plain_pipeline db ~certify ~lint q : result =
  let plan, certificate = optimize_step db ~certify q in
  Resilience.enter Resilience.Optimize (fun () ->
      gate_plain db ~lint ~original:q plan);
  let relation =
    Resilience.enter Resilience.Eval (fun () -> Eval.query db plan)
  in
  { relation; provenance = []; plan; ladder = None; certificate }

(* Evaluation of an analyzed query under the optional budget, with the
   strategy-fallback ladder when [fallback] is set on a provenance
   run. *)
let run_analyzed db ~strategy ~certify ~lint ~budget ~fallback ~wants q :
    result =
  if wants then
    if fallback then begin
      let r, lad =
        Resilience.run_ladder db ~strategy ~budget q (fun s ->
            prov_pipeline db ~strategy:s ~certify ~lint q)
      in
      { r with ladder = Some lad }
    end
    else
      Guard.with_budget budget (fun () ->
          prov_pipeline db ~strategy ~certify ~lint q)
  else
    Guard.with_budget budget (fun () ->
        plain_pipeline db ~certify ~lint q)

(** [provenance db ?strategy ?lint ?werror ?budget ?fallback q]
    evaluates the provenance of an algebra query directly. *)
let provenance db ?(strategy = Strategy.Gen) ?(certify = false)
    ?(lint = false) ?(werror = false) ?budget ?(fallback = false) q =
  Resilience.enter Resilience.Analyze (fun () ->
      gate_source db ~lint ~werror q);
  let r =
    run_analyzed db ~strategy ~certify ~lint ~budget ~fallback
      ~wants:true q
  in
  (r.relation, r.provenance)

(** [run_query db ?strategy ?lint ?werror ?budget ?fallback
    ~provenance q] is {!run} for an already-analyzed algebra query. *)
let run_query db ?(strategy = Strategy.Gen) ?(certify = false)
    ?(lint = false) ?(werror = false) ?budget ?(fallback = false)
    ~provenance:wants q : result =
  Resilience.enter Resilience.Analyze (fun () ->
      gate_source db ~lint ~werror q);
  run_analyzed db ~strategy ~certify ~lint ~budget ~fallback ~wants q

(** [run db ?strategy ?lint ?werror ?budget ?fallback sql]
    parses, analyzes and evaluates [sql]. If the statement carries the
    [PROVENANCE] marker, the provenance rewrite with [strategy] is
    applied first; with [~fallback:true] a strategy that is
    inapplicable or blows [budget] degrades to the next-ranked one.
    Failures raise {!Resilience.Perm_error}. *)
let run db ?(strategy = Strategy.Gen) ?(certify = false)
    ?(lint = false) ?(werror = false) ?budget ?(fallback = false) sql : result =
  let analyzed =
    Resilience.enter Resilience.Analyze (fun () ->
        Sql_frontend.Analyzer.analyze_string db sql)
  in
  let q = analyzed.Sql_frontend.Analyzer.query in
  run_query db ~strategy ~certify ~lint ~werror ?budget ~fallback
    ~provenance:analyzed.Sql_frontend.Analyzer.wants_provenance q

(** {1 Statements} *)

type exec_result =
  | Rows of result  (** a SELECT's result *)
  | Created_view of string
  | Created_table of string * int  (** name and materialized row count *)
  | Dropped of string

(* Execute one already-parsed statement. *)
let exec_parsed db ~strategy ~certify ~lint ~werror ~budget ~fallback stmt :
    exec_result =
  let analyze sel =
    Resilience.enter Resilience.Analyze (fun () ->
        let analyzed = Sql_frontend.Analyzer.analyze db sel in
        let q = analyzed.Sql_frontend.Analyzer.query in
        gate_source db ~lint ~werror q;
        (q, analyzed.Sql_frontend.Analyzer.wants_provenance))
  in
  match stmt with
  | Sql_frontend.Ast.Stmt_select sel ->
      let q, wants = analyze sel in
      Rows
        (run_analyzed db ~strategy ~certify ~lint ~budget ~fallback ~wants q)
  | Sql_frontend.Ast.Stmt_create_view (name, sel) ->
      let q, wants = analyze sel in
      let stored =
        if wants then begin
          (* A provenance view stores the *rewritten* (unoptimized)
             query, so querying it later sees the provenance columns. *)
          let q_plus, provs =
            Resilience.enter Resilience.Rewrite (fun () ->
                Rewrite.rewrite db ~strategy q)
          in
          Resilience.enter Resilience.Typecheck (fun () ->
              Typecheck.check db q_plus);
          Resilience.enter Resilience.Rewrite (fun () ->
              gate_rewrite db ~lint ~strategy ~original:q (q_plus, provs));
          q_plus
        end
        else q
      in
      Database.add_view db name stored;
      Created_view name
  | Sql_frontend.Ast.Stmt_create_table_as (name, sel) ->
      let q, wants = analyze sel in
      let r =
        run_analyzed db ~strategy ~certify ~lint ~budget ~fallback ~wants q
      in
      Database.add db name r.relation;
      Created_table (name, Relation.cardinality r.relation)
  | Sql_frontend.Ast.Stmt_drop name ->
      if Database.drop db name then Dropped name
      else
        raise
          (Resilience.Perm_error
             {
               Resilience.e_phase = Resilience.Analyze;
               e_detail = Resilience.Message ("unknown table or view " ^ name);
             })

(** [exec db ?strategy ?lint ?werror ?budget ?fallback sql]
    executes one statement. SELECTs behave like {!run}. [CREATE VIEW v
    AS SELECT PROVENANCE ...] stores the *rewritten* query, so querying
    [v] later sees the provenance columns — Perm's "provenance as a
    view". [CREATE TABLE t AS ...] materializes the result. *)
let exec db ?(strategy = Strategy.Gen) ?(certify = false)
    ?(lint = false) ?(werror = false) ?budget ?(fallback = false) sql :
    exec_result =
  exec_parsed db ~strategy ~certify ~lint ~werror ~budget ~fallback
    (Resilience.enter Resilience.Parse (fun () ->
         Sql_frontend.Parser.parse_statement sql))

(** [exec_script db ?strategy ?lint ?werror ?budget ?fallback
    sql] runs a [;]-separated statement sequence, returning each
    statement's result in order. Execution stops at the first error
    (exception propagates). *)
let exec_script db ?(strategy = Strategy.Gen) ?(certify = false)
    ?(lint = false) ?(werror = false) ?budget ?(fallback = false) sql :
    exec_result list =
  List.map
    (exec_parsed db ~strategy ~certify ~lint ~werror ~budget ~fallback)
    (Resilience.enter Resilience.Parse (fun () ->
         Sql_frontend.Parser.parse_script sql))

(** {1 Alternative views of the provenance} *)

(** Witnesses of one result tuple, grouped per base relation access —
    the tuple-of-relations representation of Cui & Widom that Section
    3.1 contrasts with Perm's single-relation representation. Derived
    from the relational result, so the association between witnesses of
    different relations (Perm's advantage) is intentionally forgotten. *)
type witness_sets = {
  ws_tuple : Relation.t;  (** the result tuple, as a 1-row relation *)
  ws_witnesses : (string * Relation.t) list;
      (** per base relation access: the contributing tuples (NULL
          padding rows removed, duplicates eliminated) *)
}

(** [witness_sets db q rel provs] regroups a provenance relation
    (produced by {!run} or {!provenance} for query [q]) into
    Cui–Widom-style witness sets, one entry per distinct result tuple. *)
let witness_sets db q (rel : Relation.t) (provs : Pschema.prov_rel list) :
    witness_sets list =
  let schema = Relation.schema rel in
  let orig_names = Scope.out_names db q in
  let n_orig = List.length orig_names in
  let orig_positions = Array.init n_orig (fun i -> i) in
  let groups : Tuple.t list Tuple.Tbl.t = Tuple.Tbl.create 16 in
  let order = ref [] in
  List.iter
    (fun t ->
      let key = Tuple.project_arr t orig_positions in
      match Tuple.Tbl.find_opt groups key with
      | Some rows -> Tuple.Tbl.replace groups key (t :: rows)
      | None ->
          Tuple.Tbl.add groups key [ t ];
          order := key :: !order)
    (Relation.tuples rel);
  let offsets =
    (* starting column of each prov_rel in the provenance result *)
    let _, offs =
      List.fold_left
        (fun (pos, acc) (pr : Pschema.prov_rel) ->
          (pos + List.length pr.Pschema.pr_cols, acc @ [ (pr, pos) ]))
        (n_orig, []) provs
    in
    offs
  in
  List.rev_map
    (fun key ->
      let rows = List.rev (Tuple.Tbl.find groups key) in
      let ws_tuple =
        Relation.make
          (Schema.of_list
             (List.filteri (fun i _ -> i < n_orig) (Schema.to_list schema)))
          [ key ]
      in
      let ws_witnesses =
        List.map
          (fun ((pr : Pschema.prov_rel), pos) ->
            let base_schema =
              Relation.schema (Database.find db pr.Pschema.pr_rel)
            in
            let width = List.length pr.Pschema.pr_cols in
            let positions = Array.init width (fun i -> pos + i) in
            let tuples =
              List.filter_map
                (fun t ->
                  let w = Tuple.project_arr t positions in
                  if Array.for_all Value.is_null (w : Tuple.t :> Value.t array)
                  then None
                  else Some w)
                rows
            in
            (pr.Pschema.pr_rel, Relation.distinct (Relation.make base_schema tuples)))
          offsets
      in
      { ws_tuple; ws_witnesses })
    !order

(** [explain db ?strategy q] is a printable rendering of the rewritten,
    optimized plan for [q]. *)
let explain db ?(strategy = Strategy.Gen) q =
  let q_plus, _ = Rewrite.rewrite db ~strategy q in
  Pp.query_to_string (Optimizer.optimize db q_plus)

(** Strategies whose applicability conditions [q] satisfies, by actually
    attempting the rewrite (cheap — rewriting is syntactic). *)
let applicable_strategies db q =
  List.filter (fun s -> Rewrite.applies db s q) Strategy.all
