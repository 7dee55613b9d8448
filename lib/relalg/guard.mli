(** Execution governor: resource budgets with cooperative checkpoints,
    and a deterministic fault-injection harness.

    Both engines ({!Eval}'s reference walker and {!Vexec}) call the
    checkpoint functions at operator boundaries. When
    no budget is installed and no fault is armed, a checkpoint is a
    single flag load — the hot path stays within noise of an unguarded
    run. With a budget installed, counters are maintained per
    {!with_budget} scope and a structured {!Budget_exceeded} is raised
    at the first operator that exceeds a ceiling, carrying the operator
    path ({!Algebra.Path}, the path Lint and [Estimate.annotate] give
    the same operator) and
    the counter values at trip time.

    Budgets are installed dynamically ({!with_budget}) rather than
    threaded through every evaluator signature, so one scope governs a
    whole pipeline — rewrite products, sublink re-evaluations and both
    engines included. Scopes nest lexically, but only the innermost is
    enforced: an inner scope suspends the outer one (its counters and
    deadline are neither advanced nor checked until the inner exits).
    The fallback ladder in [Core] runs each strategy attempt under its
    own sub-budget on this contract, re-splitting the remaining
    wall-clock allowance itself; row/pair/allocation ceilings are fresh
    per attempt.

    One scope per domain: a scope belongs to the domain that entered
    it, and the registry is [Domain.DLS]-backed, so server sessions
    each own theirs and run them concurrently without sharing
    counters. Every query runs on the domain that called it. *)

(** {1 Budgets} *)

type budget = {
  g_timeout : float option;  (** wall-clock seconds for the whole scope *)
  g_max_rows : int option;
      (** ceiling on rows produced across {e all} operators (output and
          intermediate rows both count) *)
  g_max_pairs : int option;
      (** ceiling on tuple pairs examined by nested-loop joins and cross
          products; also preflights cross products whose width is known *)
  g_max_alloc_mb : float option;
      (** ceiling on major+minor words allocated in the scope, in MB —
          a coarse stand-in for peak memory *)
}

val budget :
  ?timeout:float ->
  ?max_rows:int ->
  ?max_pairs:int ->
  ?max_alloc_mb:float ->
  unit ->
  budget

val unlimited : budget

(** [is_unlimited b] is true when no ceiling is set. *)
val is_unlimited : budget -> bool

val budget_to_string : budget -> string

(** Words the calling domain has allocated so far, in the minor and the
    major heap alike: the meter behind the allocation ceiling. *)
val allocated_words : unit -> float

(** Counter values at trip time. *)
type counters = {
  c_rows : int;
  c_pairs : int;
  c_elapsed : float;  (** seconds since the scope was entered *)
  c_alloc_mb : float;
}

type reason =
  | Timed_out of float  (** the limit, seconds *)
  | Rows_exceeded of int  (** the limit *)
  | Pairs_exceeded of int  (** the limit *)
  | Alloc_exceeded of float  (** the limit, MB *)

type trip = {
  t_path : string list;
      (** plan path ({!Algebra.Path}) of the operator whose checkpoint
          tripped: a fused operator reports at its own node, so the
          path is one of [Lint.sites] of the executed plan *)
  t_reason : reason;
  t_counters : counters;
}

exception Budget_exceeded of trip

val trip_to_string : trip -> string

(** [with_budget b f] runs [f] with [b] installed; any previously
    installed budget is saved and restored on exit, but while [b] is
    active the outer scope is {e suspended} — its counters and deadline
    are neither advanced nor checked. Callers wanting a shared ceiling
    across nested runs must split it into the sub-budgets themselves.
    [None] leaves the current scope untouched. The scope's elapsed time
    and allocation baselines start at entry. *)
val with_budget : budget option -> (unit -> 'a) -> 'a

(** Counters of the innermost active scope (all zero when none). *)
val observed : unit -> counters

(** Rows charged so far to the innermost active scope (0 when none).
    Cheaper than {!observed}: no clock read.
    {!Vexec} reads it around a sublink subtree's first run to charge
    the same rows again when it replays the subtree. *)
val charged_rows : unit -> int

(** Whether a budget scope is active — callers use this to skip
    checkpoint-argument computation (e.g. a cardinality walk) on the
    unguarded path. *)
val is_active : unit -> bool

(** Whether the active scope enforces a row ceiling. Bulk row counting
    costs an O(n) cardinality walk per operator exit, so the engines
    only perform it when this is true; timeout-only budgets skip it
    (their [c_rows] counter then reflects streaming pushes only). *)
val counts_rows : unit -> bool

(** {1 Checkpoints} — called by the engines. *)

(** [count_rows path n] records [n] produced rows at once (bulk
    results) and performs a time/allocation check. *)
val count_rows : string list -> int -> unit

(** [count_pairs path n] records [n] nested-loop or cross-product pairs
    examined. *)
val count_pairs : string list -> int -> unit

(** [cross_guard path ~left ~right] preflights a cross product of known
    input cardinalities against the pair ceiling before any pair is
    enumerated. *)
val cross_guard : string list -> left:int -> right:int -> unit

(** [tick path] is a cheap checkpoint — amortized time/allocation
    check, no counter updates. Called at operator entry by both
    engines, and per tuple in the reference walker's hot loops so
    timeout/allocation budgets trip even on plans with few operators. *)
val tick : string list -> unit

(** {1 Budget pool} *)

module Pool : sig
  (** A server-wide allowance from which concurrent requests lease
      per-request budgets. Sized for [slots] concurrent requests at the
      template budget; when oversubscribed, leased wall-clock allowances
      shrink proportionally ([timeout × slots / active], floored at
      50 ms) so total in-flight wall-clock stays bounded by
      [slots × timeout]. Row/pair/allocation ceilings are per-request
      invariants and lease out unchanged. Thread- and domain-safe. *)

  type t

  (** [create ?slots template] (default [slots = 1]). *)
  val create : ?slots:int -> budget -> t

  (** [lease t] registers one outstanding request and derives its
      budget from the template at the current load. Pair with
      {!release} (or use {!with_lease}). *)
  val lease : t -> budget

  val release : t -> unit

  (** [with_lease t f] runs [f budget] under a lease, releasing on any
      exit. *)
  val with_lease : t -> (budget -> 'a) -> 'a

  (** Outstanding leases. *)
  val active : t -> int

  (** Total leases ever granted. *)
  val leased : t -> int

  val slots : t -> int
end

(** {1 Fault injection} *)

module Faults : sig
  (** Deterministic fault injection at engine boundaries, for testing
      the error paths: a trigger armed here makes the next matching
      boundary crossing raise {!Injected} instead of producing data. *)

  type site = Scan | Join | Sublink

  type trigger =
    | Countdown of int
        (** fire at the [n]-th matching boundary (1 = first) *)
    | At_path of string
        (** fire at the first boundary whose rendered path equals or
            extends this prefix *)
    | Seeded of int
        (** deterministic PRNG seeded here decides at each boundary
            (~10% firing rate); same seed, same run → same fault *)

  exception Injected of { i_site : site; i_path : string list }

  val site_to_string : site -> string

  (** [arm ?sites trigger] arms one fault; [sites] restricts the
      boundary kinds that can fire (default: all). Re-arming replaces
      the previous configuration and resets counters. *)
  val arm : ?sites:site list -> trigger -> unit

  val disarm : unit -> unit
  val armed : unit -> bool

  (** Boundary crossings matched (site filter applied) since {!arm}. *)
  val events : unit -> int

  (** Faults raised since {!arm}. *)
  val fired : unit -> int

  (** [fire_point site path] is called by the engines at scan, join and
      sublink boundaries. [path] is a plan path ({!Algebra.Path}): the
      scanned or joining operator's, or for a sublink the prefix
      [op/sublink[k]] of its body — the same on both engines, and the
      same on every run of one plan. *)
  val fire_point : site -> string list -> unit
end
