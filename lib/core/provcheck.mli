(** Provenance-contract verification for rewritten queries.

    [Rewrite.rewrite db ~strategy q] promises a pair [(q+, provs)]
    where [q+]'s schema is [q]'s schema followed by the provenance
    attributes of [provs] in traversal order ({!Algebra.base_relations}
    order), with the original attributes passed through untouched by a
    root identity projection. This module checks those promises
    statically — on every rewrite if wired through [Perm.run ~lint], and
    against injected defects in the mutation test harness — reporting
    violations through {!Lint.diagnostic} so they carry an operator
    path instead of surfacing as wrong answers.

    Rules (registry names):
    - [strategy-precondition]: Left/Move demand uncorrelated sublinks;
      Unn demands unnestable sublink forms (at the offending sublink's
      path in the {e original} plan).
    - [prov-schema]: schema of [q+] = schema of [q] ++
      {!Pschema.schema_attrs}[ provs].
    - [prov-order]: [provs] names base relations in
      {!Algebra.base_relations} order of the original.
    - [prov-prefix]: the root of [q+] is an identity projection passing
      the original attributes, then the provenance attributes, through
      unchanged.
    - [prov-lineage]: each provenance attribute's {!Dataflow.lineage}
      reaches the base column it claims to copy (empty lineage is
      tolerated: the rewrites legitimately NULL-pad provenance columns
      in set-operation arms and empty-sublink cases).
    - [gen-crossbase]: under Gen, every base-relation access inside a
      sublink is covered by a NULL-extended CrossBase scan in [q+].
    - [optimizer-schema] / [optimizer-diagnostics]: an optimized plan
      keeps the typed schema and never gains error diagnostics. *)

open Relalg

(** [precondition db ~strategy q] checks [strategy]'s applicability
    conditions on the {e original} query [q], one diagnostic per
    violating sublink. Empty for Gen. A successful
    [Rewrite.rewrite] implies an empty result; the converse direction
    is what the mutation harness exercises. *)
val precondition :
  Database.t -> strategy:Strategy.t -> Algebra.query -> Lint.diagnostic list

(** [contract db ~original rewritten provs] checks [prov-schema],
    [prov-order], [prov-prefix] and [prov-lineage] on an (unoptimized)
    rewrite result. *)
val contract :
  Database.t ->
  original:Algebra.query ->
  Algebra.query ->
  Pschema.prov_rel list ->
  Lint.diagnostic list

(** [gen_crossbase ~original rewritten] checks that the Gen
    strategy's NULL-extended CrossBase scans are present: for every
    base-relation access at sublink nesting depth [d] in [original],
    [rewritten] must contain [d] scans of the form
    [Project (_, Union (Bag, Base r, TableExpr all-NULL-row))]. *)
val gen_crossbase :
  original:Algebra.query -> Algebra.query -> Lint.diagnostic list

(** [oracle_check db ~original rewritten] is the bounded ground-truth
    check ([prov-oracle]): the rewritten provenance plan is evaluated
    on the small witness databases {!Relalg.Certify.witness_databases}
    derives from [original] and compared — set-level, since the
    rewrite may duplicate provenance rows the oracle dedups — against
    {!Oracle.provenance}. Witnesses the oracle cannot handle (its
    {!Oracle.Unsupported} forms, budget trips, runtime errors) are
    skipped, so an empty result means "no witness refutes the
    rewrite", not a proof. Stops at the first refuting witness. *)
val oracle_check :
  Database.t ->
  original:Algebra.query ->
  Algebra.query ->
  Lint.diagnostic list

(** [optimizer_guard db ~before after] checks that an optimization or
    simplification pass preserved the typed schema and did not increase
    the number of error-severity plan diagnostics of any rule. *)
val optimizer_guard :
  Database.t -> before:Algebra.query -> Algebra.query -> Lint.diagnostic list

(** [check db ~strategy ?optimized ~original (q+, provs)] runs every
    applicable rule: {!precondition} on [original], {!contract} on
    [q+], {!gen_crossbase} when [strategy] is Gen, and
    {!optimizer_guard} between [q+] and [optimized] when given. *)
val check :
  Database.t ->
  strategy:Strategy.t ->
  ?optimized:Algebra.query ->
  original:Algebra.query ->
  Algebra.query * Pschema.prov_rel list ->
  Lint.diagnostic list
