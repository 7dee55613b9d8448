(** Public API of the Perm reproduction: parse SQL (with the
    [SELECT PROVENANCE] extension), rewrite with a chosen sublink
    strategy, and evaluate. *)

open Relalg

type result = {
  relation : Relation.t;  (** the evaluated result *)
  provenance : Pschema.prov_rel list;
      (** provenance attribute descriptions; empty when no provenance
          was requested *)
  plan : Algebra.query;  (** the plan that was executed *)
  ladder : Resilience.ladder option;
      (** how the strategy-fallback ladder concluded; [None] unless the
          run was made with [~fallback:true] and provenance *)
  certificate : Certify.report option;
      (** the translation-validation certificate for the optimizer run;
          [None] unless the run was made with [~certify:true] *)
}

(** [rewrite db ?strategy q] is the provenance-propagating plan [q+] and
    its provenance schema (default strategy: Gen, the generally
    applicable one). Raises {!Strategy.Unsupported}. *)
val rewrite :
  Database.t ->
  ?strategy:Strategy.t ->
  Algebra.query ->
  Algebra.query * Pschema.prov_rel list

(** [provenance db ?strategy ?lint ?werror ?budget ?fallback q]
    rewrites, typechecks, optimizes and evaluates the
    provenance of [q]. With [~lint:true], [q] must pass the {!Lint}
    rules ([~werror:true] escalating warnings) and the rewrite must pass
    the {!Provcheck} contract rules. Failures of any phase raise
    {!Resilience.Perm_error}. With [?budget] the evaluation runs under
    the {!Relalg.Guard} execution governor; with [~fallback:true] a
    strategy that is inapplicable or blows its budget degrades to the
    next strategy of {!Resilience.strategy_ranking}, the static order
    Unn → Move → Left → Gen (see {!Resilience.run_ladder}). *)
val provenance :
  Database.t ->
  ?strategy:Strategy.t ->
  ?certify:bool ->
  ?lint:bool ->
  ?werror:bool ->
  ?budget:Guard.budget ->
  ?fallback:bool ->
  Algebra.query ->
  Relation.t * Pschema.prov_rel list

(** [run db ?strategy ?lint ?werror ?budget ?fallback sql]
    parses, analyzes and evaluates [sql]; the [PROVENANCE] marker
    triggers the rewrite. [?lint] / [?werror] / [?budget] / [?fallback]
    behave as in {!provenance}; failures raise
    {!Resilience.Perm_error}. *)
val run :
  Database.t ->
  ?strategy:Strategy.t ->
  ?certify:bool ->
  ?lint:bool ->
  ?werror:bool ->
  ?budget:Guard.budget ->
  ?fallback:bool ->
  string ->
  result

(** [run_query db ~provenance q] is {!run} for an already-analyzed
    algebra query. *)
val run_query :
  Database.t ->
  ?strategy:Strategy.t ->
  ?certify:bool ->
  ?lint:bool ->
  ?werror:bool ->
  ?budget:Guard.budget ->
  ?fallback:bool ->
  provenance:bool ->
  Algebra.query ->
  result

(** {1 Statements} *)

type exec_result =
  | Rows of result  (** a SELECT's result *)
  | Created_view of string
  | Created_table of string * int  (** name and materialized row count *)
  | Dropped of string

(** [exec db sql] executes one statement: SELECT (like {!run}),
    [CREATE VIEW v AS SELECT [PROVENANCE] ...] (a provenance view stores
    the rewritten query), [CREATE TABLE t AS ...] (materializes), or
    [DROP name]. Failures raise {!Resilience.Perm_error}. *)
val exec :
  Database.t ->
  ?strategy:Strategy.t ->
  ?certify:bool ->
  ?lint:bool ->
  ?werror:bool ->
  ?budget:Guard.budget ->
  ?fallback:bool ->
  string ->
  exec_result

(** [exec_script db sql] runs a [;]-separated statement sequence,
    returning each statement's result in order; the first error aborts
    the script ({!Resilience.Perm_error} propagates). *)
val exec_script :
  Database.t ->
  ?strategy:Strategy.t ->
  ?certify:bool ->
  ?lint:bool ->
  ?werror:bool ->
  ?budget:Guard.budget ->
  ?fallback:bool ->
  string ->
  exec_result list

(** {1 Alternative views} *)

(** Witnesses of one result tuple grouped per base relation access —
    the tuple-of-relations representation of Cui & Widom contrasted in
    Section 3.1. *)
type witness_sets = {
  ws_tuple : Relation.t;  (** the result tuple, as a 1-row relation *)
  ws_witnesses : (string * Relation.t) list;
      (** per base relation access: contributing tuples, NULL padding
          removed, duplicates eliminated *)
}

(** [witness_sets db q rel provs] regroups a provenance relation
    produced for query [q] into Cui–Widom-style witness sets, one entry
    per distinct result tuple. *)
val witness_sets :
  Database.t ->
  Algebra.query ->
  Relation.t ->
  Pschema.prov_rel list ->
  witness_sets list

(** [explain db ?strategy q] renders the rewritten, optimized plan. *)
val explain : Database.t -> ?strategy:Strategy.t -> Algebra.query -> string

(** Strategies whose applicability conditions [q] satisfies. *)
val applicable_strategies : Database.t -> Algebra.query -> Strategy.t list
