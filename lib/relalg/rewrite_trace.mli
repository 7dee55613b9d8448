(** Instrumentation channel between the rewrite passes ({!Simplify},
    {!Optimizer}) and the translation validator ({!Certify}).

    Each applied rule instance is announced as an {!entry}; with no
    tracer installed, emission is a single flag load. Also hosts the
    test-only rule-mutation hook used by the validator's mutation
    harness. *)

type entry = {
  e_rule : string;  (** rule identifier, e.g. ["pushdown-into-join"] *)
  e_path : string list;
      (** operator path of the rewritten node, root first — same syntax
          as {!Lint} diagnostics and {!Guard} trip reports
          ({!Algebra.Path}) *)
  e_before : Algebra.query;  (** the subplan before the rule fired *)
  e_after : Algebra.query;  (** the replacement subplan *)
}

(** The closed registry of rule identifiers the passes may emit, with
    one-line documentation. The names are stable machine-readable keys:
    certificates, traces, [permcli --lint-json] output and the mutation
    harness all reference them. *)
val rules : (string * string) list

(** [known_rule name]: membership in {!rules}. *)
val known_rule : string -> bool

(** Whether a tracer is installed. *)
val active : unit -> bool

(** [emit ~rule ~path ~before ~after] reports one rule application to
    the installed tracer, if any; no-op applications (before equals
    after) are filtered out. With a tracer installed, an unregistered
    rule name raises [Invalid_argument] — a typo'd name would otherwise
    silently dodge its certificate. *)
val emit :
  rule:string ->
  path:string list ->
  before:Algebra.query ->
  after:Algebra.query ->
  unit

(** [with_tracer f body] runs [body] with [f] installed as the tracer;
    the previous tracer is restored on exit (scopes nest). *)
val with_tracer : (entry -> unit) -> (unit -> 'a) -> 'a

(** {1 Operator paths}

    Path builders for the passes. Each extends its prefix only while a
    tracer is installed ({!active}); otherwise it returns the prefix
    unchanged, so the stock pipeline builds no paths. *)

(** [node prefix q]: the path of operator [q] under [prefix]. *)
val node : string list -> Algebra.query -> string list

(** [child prefix q side]: the path prefix of [q]'s input on [side]. *)
val child : string list -> Algebra.query -> Algebra.Path.side -> string list

(** [sublink here k]: the path prefix of the [k]-th sublink (from 1)
    of the operator at [here]. *)
val sublink : string list -> int -> string list

(** {1 Shared sublink bodies} *)

(** One pass's results per physical sublink body. A table is created
    by one pass invocation and dropped when it returns. *)
module Shared : sig
  type 'a t

  val create : unit -> 'a t

  (** [visit t body ~path run] is [run ()] on the first visit of
      [body] (physical identity). A later visit returns the first
      result without running the pass again and, under a tracer,
      re-emits the entries the first visit emitted, re-rooted from the
      first visit's [path] to this one's. [run] must depend on [body]
      only, and its entry paths must extend [path]. *)
  val visit : 'a t -> Algebra.query -> path:string list -> (unit -> 'a) -> 'a
end

(** {1 Test-only mutation hook} *)

(** The armed rule mutant, if any. Production code never sets this;
    [test/test_certify.ml] does. *)
val mutation : string option ref

(** [mutant name] is true when mutant [name] is armed — called by the
    rewrite rules at the points they deliberately break. *)
val mutant : string -> bool

(** [with_mutation name body] arms mutant [name] for the duration of
    [body] (exception-safe). *)
val with_mutation : string -> (unit -> 'a) -> 'a
