(** Typed error taxonomy and graceful degradation for the {!Perm}
    pipeline.

    Every {!Perm} execution entry point reports failures as
    {!Perm_error}: a pipeline phase plus a structured detail. Callers
    (the REPL, the bench harness, scripts) can react per class — keep
    the session alive, record a censored cell, pick another strategy —
    instead of pattern-matching on a zoo of library exceptions.

    The {e fallback ladder} ({!run_ladder}) implements graceful
    degradation: when a provenance strategy is inapplicable
    ({!Strategy.Unsupported}) or blows its budget
    ({!Relalg.Guard.Budget_exceeded}), the next strategy of the
    {!strategy_ranking} is retried under a sub-budget, and the final
    answer reports which strategy delivered and why its predecessors
    were abandoned. *)

open Relalg

(** Pipeline phase in which an error occurred. [Load] covers catalog
    population (e.g. CSV import); [Protocol] covers the wire protocol
    of the provenance server. *)
type phase =
  | Parse
  | Analyze
  | Typecheck
  | Rewrite
  | Optimize
  | Eval
  | Load
  | Protocol

val phase_to_string : phase -> string

type detail =
  | Message of string  (** classified library error *)
  | Budget of Guard.trip  (** execution budget exceeded *)
  | Fault of { f_site : string; f_path : string list }
      (** injected fault (testing only) *)
  | Lint of Lint.diagnostic list  (** lint / provenance-contract gate *)
  | Unsupported of string  (** strategy applicability *)
  | Overloaded of { retry_after : float }
      (** server admission control shed the request; retry after the
          hinted number of seconds *)
  | Violation of string
      (** wire-protocol violation (malformed, oversized or truncated
          frame, unknown tag/version) *)

type error = { e_phase : phase; e_detail : detail }

exception Perm_error of error

val error_to_string : error -> string

(** [classify ~default exn] maps a known library exception to a
    phase-attributed {!error}. Exceptions that identify their phase
    (parse, analyze, typecheck, strategy, budget, …) override
    [default]; anything unrecognized raises [Not_found]. *)
val classify : default:phase -> exn -> error

(** [enter phase f] runs [f], converting classifiable exceptions into
    {!Perm_error} attributed to [phase] (or to the exception's own
    phase when it names one). A {!Perm_error} from an inner [enter]
    passes through untouched, as do asynchronous/system exceptions. *)
val enter : phase -> (unit -> 'a) -> 'a

(** {1 Phase meter}

    Armed, every {!enter} adds the words its phase allocated
    ({!Relalg.Guard.allocated_words}) and its wall time to the calling
    domain's totals; a phase entered inside another counts only in the
    inner one, so a statement's totals sum to what it cost inside its
    phases. Disarmed (the default), {!enter} pays one [Atomic.get]. *)

val arm_meter : unit -> unit
val disarm_meter : unit -> unit

(** The calling domain's totals since its last reset: each phase
    entered, with its words and seconds. *)
val phase_totals : unit -> (phase * float * float) list

val reset_phase_totals : unit -> unit

(** {1 Fallback ladder} *)

(** Ranking consulted by the ladder after the requested strategy fails:
    the static order Unn → Move → Left → Gen, kept to the strategies
    that can rewrite the query. No library code reassigns it, so the
    ladder degrades in the same order in every program; tests may
    substitute an instrumented ranking. *)
val strategy_ranking : (Database.t -> Algebra.query -> Strategy.t list) ref

(** One abandoned attempt: the strategy and why it was given up. *)
type attempt = { att_strategy : Strategy.t; att_error : error }

(** How a fallback run concluded: the strategy that answered and the
    attempts abandoned before it (in trial order). *)
type ladder = { lad_strategy : Strategy.t; lad_abandoned : attempt list }

val ladder_to_string : ladder -> string

(** [retryable e] is true when the ladder may try the next strategy
    after [e]: strategy inapplicability and budget trips are
    retryable; semantic errors (type, lint, evaluation) are not — a
    different strategy would fail the same way or, worse, mask a bug. *)
val retryable : error -> bool

(** [run_ladder db ~strategy ~budget q f] runs [f strategy'] for
    [strategy], then — on a retryable {!Perm_error} — for each untried
    strategy of {!strategy_ranking} in order. Each attempt runs under a
    sub-budget: the remaining wall-clock allowance is split evenly
    across the remaining attempts, each floored at 50 ms (row/pair/
    allocation ceilings apply per attempt unchanged). Any other error,
    and the last attempt's error, propagates from that attempt.
    {!strategy_ranking} is consulted only once a rung is abandoned, so a
    first rung that answers costs no ranking — except under a [budget],
    whose re-split needs the rung count before the first attempt. *)
val run_ladder :
  Database.t ->
  strategy:Strategy.t ->
  budget:Guard.budget option ->
  Algebra.query ->
  (Strategy.t -> 'a) ->
  'a * ladder
