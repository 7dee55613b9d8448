(** The Perm provenance rewriter: rules R1–R5 of Figure 4 (plus
    set-operation rules) for standard operators, and the Gen / Left /
    Move / Unn strategies of Figure 5 for operators with sublinks.
    Nested sublinks are rewritten recursively (Section 2.7). *)

open Relalg

(** [rewrite db ~strategy q] is [(q+, provs)]: the provenance-propagating
    query — whose schema is [q]'s output attributes followed by the
    provenance attributes of each base relation access, in traversal
    order — and the description of those provenance attributes.
    Raises {!Strategy.Unsupported} when [strategy] cannot handle [q]
    (correlated sublinks for Left/Move, non-unnestable sublinks for Unn,
    or a construct with no provenance rewrite such as LIMIT). *)
val rewrite :
  Database.t ->
  strategy:Strategy.t ->
  Algebra.query ->
  Algebra.query * Pschema.prov_rel list

(** [applies db strategy q] holds when {!rewrite} with [strategy]
    accepts [q] (it does the rewrite to find out). *)
val applies : Database.t -> Strategy.t -> Algebra.query -> bool

(** [unnestable_exists db sub] holds when the Unn+ de-correlation
    applies to the query of a correlated [EXISTS] sublink: its
    correlation consists of top-level equality conjuncts whose removal
    leaves a closed residual query. Shared with [Provcheck]'s strategy
    precondition rule. *)
val unnestable_exists : Database.t -> Algebra.query -> bool
