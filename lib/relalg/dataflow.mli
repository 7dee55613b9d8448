(** Plan dataflow: bottom-up per-operator fact analyses over
    {!Algebra.query} — nullability, attribute lineage and cardinality
    bounds — memoized per physical subplan and sublink-aware (facts flow
    into sublink queries through an environment of enclosing-scope
    facts, so correlated references resolve like the evaluator's).

    All analyses are total on broken plans: unknown relations or
    attributes yield top elements (maybe-null, empty lineage, unbounded
    cardinality) instead of raising. *)

(** Sets of [(relation, column)] base-column sources. *)
module Deps : Set.S with type elt = string * string

(** {1 Facts} *)

type null_fact = {
  n_names : string list;  (** output attribute names, in schema order *)
  n_maybe : bool list;  (** pointwise: may this attribute be NULL? *)
}

type lin_fact = {
  l_names : string list;
  l_deps : Deps.t list;  (** pointwise base-column dependency sets *)
}

type bound = Fin of int | Inf

type card = { c_lo : int; c_hi : bound }
(** Row-count interval; [c_lo] is clamped to {0, 1} (zero/one/many). *)

val pp_card : Format.formatter -> card -> unit

(** {1 The generic engine}

    New analyses (e.g. {!Estimate}'s cardinality/cost interpretation)
    are written as domains and instantiated through {!Engine}, sharing
    the framework's memoization and sublink-aware environment
    propagation. *)

(** A client analysis: one lattice of per-subplan facts plus a transfer
    function. [transfer] receives the already-computed facts of the
    operator's direct input queries, a [recurse] callback for
    analysing sublink queries under an extended environment, and the
    engine's free-name memo for sublink bodies. *)
module type DOMAIN = sig
  type fact

  (** What a transfer reads of the environment for one name. *)
  type col

  (** [lookup env name]: [name]'s fact in the innermost scope of [env]
      that binds it. [transfer] must read [env] only this way. *)
  val lookup : fact list -> string -> col

  val same_col : col -> col -> bool

  (** Widen two facts for the same physical subplan reached under
      different correlation environments. *)
  val join : fact -> fact -> fact

  val transfer :
    Database.t ->
    frees:Scope.memo ->
    recurse:(env:fact list -> Algebra.query -> fact) ->
    env:fact list ->
    inputs:fact list ->
    Algebra.query ->
    fact
end

module Engine (D : DOMAIN) : sig
  type t

  (** [create ?frees db]: an engine with an empty fact memo. [frees]
      lets a caller share one free-name memo between its own scope
      queries and the engine's (default: a fresh one). *)
  val create : ?frees:Scope.memo -> Database.t -> t

  (** [query t ?env q]: [q]'s fact under [env]. A subplan reached
      again under another environment keeps its memoized fact when
      every free name of the subplan ({!Scope.body_frees}) reads
      [same_col] in both; otherwise it is re-analysed and the two facts
      are widened by [join]. *)
  val query : t -> ?env:D.fact list -> Algebra.query -> D.fact

  (** Transfers run so far by the engines of this analysis on the
      calling domain: the work the memo did not save. *)
  val transfers : unit -> int
end

(** Operator label used by the fact dump: {!Algebra.Path.label}, with
    [Project distinct], [TableExpr[n]] and [Limit(n)] spelled out. *)
val op_name : Algebra.query -> string

(** [column name names cols]: the entry of [cols] at the position of
    [name] in [names] (as [List.nth cols] would read it); raises
    [Not_found] when [name] is absent. *)
val column : string -> string list -> 'a list -> 'a

(** [map2_padded f top a b]: pointwise combination tolerating arity
    mismatches of broken plans — missing positions default to [top]. *)
val map2_padded : ('a -> 'a -> 'a) -> 'a -> 'a list -> 'a list -> 'a list

(** {1 Analysis handle}

    One handle shares the three per-subplan memo tables, so repeated
    queries against the same plan (e.g. one per lint rule) reuse the
    first pass's facts. *)

type t

val create : Database.t -> t

(** [nullability t ?env q] is the maybe-null fact of [q]'s output.
    [env] supplies facts for enclosing correlation scopes, innermost
    first (as when [q] is a sublink query). *)
val nullability : t -> ?env:null_fact list -> Algebra.query -> null_fact

(** [lineage t ?env q]: which base columns each output attribute of [q]
    transitively depends on. *)
val lineage : t -> ?env:lin_fact list -> Algebra.query -> lin_fact

(** [cardinality t q]: a zero/one/many row-count interval for [q]. *)
val cardinality : t -> Algebra.query -> card

(** [expr_nullable t ~env e]: may [e] evaluate to NULL when its
    attribute references resolve against [env] (innermost first)? *)
val expr_nullable : t -> env:null_fact list -> Algebra.expr -> bool

(** [expr_lineage t ~env e]: base columns the value of [e] depends on. *)
val expr_lineage : t -> env:lin_fact list -> Algebra.expr -> Deps.t

(** {1 Fact accessors and combinators} *)

(** [attr_nullable f name]; unknown attributes are maybe-null. *)
val attr_nullable : null_fact -> string -> bool

(** [attr_deps f name]; unknown attributes have empty lineage. *)
val attr_deps : lin_fact -> string -> Deps.t

(** Juxtapose facts of two join inputs into one scope-shaped fact. *)
val concat_null : null_fact -> null_fact -> null_fact

val concat_lin : lin_fact -> lin_fact -> lin_fact

(** {1 Diagnostics} *)

(** [dump t q] renders every operator of [q] (sublink queries included)
    with its cardinality interval and, per output attribute, the
    maybe-null flag and base-column lineage — the [\analyze] output. *)
val dump : t -> Algebra.query -> string
