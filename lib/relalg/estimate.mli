(** Cardinality and cost estimation: a {!Dataflow} domain interpreting
    plans over {!Stats} statistics.

    Selectivity routes predicates through the {!Symbolic} solver first
    (proved-unsat ⇒ 0 rows, proved-taut ⇒ input rows) and falls back
    to histogram lookups, NDV containment for joins, null fractions
    and fixed guesses. Sublink evaluation is charged per distinct
    binding of the sublink's free attributes, mirroring the
    evaluator's memoization. Total on every plan: broken plans get
    defaults, never exceptions. *)

type colinfo = {
  ci_ndv : float;  (** estimated distinct values of this attribute *)
  ci_null : float;  (** estimated null fraction *)
  ci_stats : Stats.column option;
      (** histogram-bearing base statistics, where still traceable *)
}

type fact = {
  e_names : string list;
  e_cols : colinfo list;
  e_rows : float;  (** estimated output rows *)
  e_cost : float;  (** cumulative tuples-touched cost of the subtree *)
}

(** {1 Analysis handle} — memoized per physical subplan, like every
    {!Dataflow} engine. *)

type t

(** [create ?frees db]; [frees] shares a caller's free-name memo (see
    {!Dataflow.Engine.create}). *)
val create : ?frees:Scope.memo -> Database.t -> t

(** [query t ?env q]: the estimate fact of [q]; [env] supplies facts
    of enclosing correlation scopes, innermost first. *)
val query : t -> ?env:fact list -> Algebra.query -> fact

(** Transfers run so far by the estimators on the calling domain
    ({!Dataflow.Engine.transfers}). *)
val transfers : unit -> int

(** Root-level conveniences. *)
val rows : t -> Algebra.query -> float

val cost : t -> Algebra.query -> float

(** {1 Per-operator annotation} — [\explain] and the estimate lint
    rules. *)

(** The facts of an operator's inputs, concatenated: the innermost
    scope of its expressions and sublink bodies. *)
val concat_facts : fact list -> fact

type annot = {
  a_path : string list;  (** plan path ({!Algebra.Path}), root first *)
  a_query : Algebra.query;  (** the operator this annotation describes *)
  a_rows : float;
  a_cost : float;  (** cumulative cost of the subtree *)
}

(** [annotate t q]: every operator of [q] (sublink queries included),
    root first, on its plan path ({!Algebra.Path}) — the path Lint
    diagnostics, Guard trips and fault points give the same operator. *)
val annotate : t -> Algebra.query -> annot list

(** Rendered annotation table. *)
val report : t -> Algebra.query -> string

(** {1 Feedback} — observed outcomes keyed by plan fingerprint; the
    Advisor's estimate-correction table (re-ranking only, no mid-query
    re-optimization). *)

(** Stable plan identity across re-parses (sublink ids not included). *)
val fingerprint : Algebra.query -> string

type feedback = {
  fb_est_rows : float;  (** what the estimator predicted *)
  fb_obs_rows : float;  (** rows observed (at trip time if tripped) *)
  fb_tripped : bool;  (** the Guard budget tripped on this plan *)
}

val note_feedback :
  fingerprint:string -> est_rows:float -> obs_rows:float -> tripped:bool -> unit

val feedback : fingerprint:string -> feedback option
val reset_feedback : unit -> unit

(** [corrected_cost ~fingerprint cost]: [cost] adjusted by recorded
    feedback — tripped plans are pushed to the back of any ranking,
    completed plans scale by the observed/estimated row ratio (clamped
    to [0.1 .. 100]). *)
val corrected_cost : fingerprint:string -> float -> float
