(** Static plan diagnostics: a rule registry over {!Algebra.query}.

    The linter walks a plan once, building the same innermost-first
    scope stack the type checker and the vectorized engine use
    ({!Typecheck.env}), and runs every registered rule against each
    operator {e site}. Diagnostics carry a severity, the rule name, an
    operator path such as [Project/Join[left]/Select] and a message, so
    a rewrite or optimizer defect is reported at the operator that
    exhibits it instead of as a wrong answer deep in a test run.

    The provenance-contract rules over rewritten plans live in
    [Core.Provcheck] and reuse this module's site walker and
    diagnostic type. *)

type severity = Info | Warning | Error

type diagnostic = {
  severity : severity;
  rule : string;  (** registry name of the rule that fired *)
  path : string list;  (** plan path ({!Algebra.Path}), root first *)
  message : string;
}

val severity_to_string : severity -> string

(** ["error[rule] at Project/Select: message"]. *)
val diagnostic_to_string : diagnostic -> string

(** Build a diagnostic (used by [Core.Provcheck] to report through the
    same channel). *)
val diag : severity -> rule:string -> path:string list -> string -> diagnostic

(** {1 Sites} — the shared plan walk *)

(** One operator of the plan, with everything a rule needs: its path,
    the scope stack of the enclosing sublinks ([s_outer]), the schemas
    of its direct inputs ([s_inputs]), the environment its expressions
    are checked under ([s_env] = concatenated input schemas ::
    [s_outer]) and its labelled root expressions. [None] environments
    mean schema inference failed somewhere below or in an enclosing
    scope; rules needing names/types skip such sites (the root cause is
    reported where inference still succeeds). *)
type site = {
  s_path : string list;
  s_outer : Schema.t list option;
  s_inputs : Schema.t list option;
  s_env : Typecheck.env option;
  s_query : Algebra.query;
  s_exprs : (string * Algebra.expr) list;
}

(** Every operator of [q], in {!Algebra.Path.walk} order, including
    operators inside sublink queries. *)
val sites : Database.t -> Algebra.query -> site list

(** {1 The registry} *)

(** [(name, doc)] of every registered rule, in report order. *)
val rules : (string * string) list

(** Rule names that make sense on provenance-rewritten plans: the
    rewrite-support rules are excluded, since a rewritten plan
    legitimately contains constructs (sublinks in outer-join
    conditions) that the rewriter could not process {e again}. *)
val plan_rules : string list

(** {1 Running} *)

(** [lint ?rules db q] runs the registered rules (restricted to
    [rules] when given) over every site of [q], severest first. *)
val lint : ?rules:string list -> Database.t -> Algebra.query -> diagnostic list

(** Error-severity diagnostics only. *)
val errors : diagnostic list -> diagnostic list

exception Lint_error of diagnostic list

(** [fail_on ?werror diags] raises {!Lint_error} with the offending
    subset when [diags] contains an error — or, with [~werror:true], a
    warning. *)
val fail_on : ?werror:bool -> diagnostic list -> unit

(** [report diags] renders one diagnostic per line. *)
val report : diagnostic list -> string
