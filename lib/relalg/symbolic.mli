(** A small symbolic constraint solver for {!Algebra} predicates under
    SQL's three-valued logic.

    The solver decides questions about the {e truth value} a predicate
    can take over any row — TRUE, FALSE or NULL — by a DPLL-style case
    split over the boolean structure, backed by a conjunction theory of

    - one interval domain per column (comparisons against constants,
      with integer bound tightening when the column's type is known),
    - an equality congruence closure (union-find) over the columns
      joined by [=] / [=n] conjuncts, sharing each class's interval,
    - explicit null / not-null facts per column — comparisons assert
      their operands non-null, [IS NULL] pins them, and externally
      known never-null columns (from the {!Dataflow} nullability
      lattice) seed the state.

    Sub-expressions outside this theory (arithmetic over columns,
    [LIKE], [CASE], function calls, sublinks) are treated as {e opaque
    atoms}: free three-valued variables keyed by structural equality,
    so purely propositional facts about them still hold
    ([P AND x < 1 AND x > 2] is unsatisfiable whatever [P] means).

    {b Soundness asymmetry.} The abstraction over-approximates
    satisfiability: a "satisfying assignment" may be spurious (opaque
    atoms are freer than the expressions they stand for), but a
    reported {e contradiction} is genuine. Consequently only one
    direction of each verdict is a theorem:

    - {!satisfiable} / {!falsifiable}: [Refuted] is a theorem ("no row
      makes this TRUE/FALSE"); [Proved] merely reports a consistent
      abstract assignment.
    - {!implies} / {!equiv} / {!always_true} / {!never_true}: [Proved]
      is a theorem; [Refuted] merely reports an abstract countermodel.

    Every query is bounded by a fuel budget; overbudget or
    out-of-theory goals (e.g. incomparably typed bounds) return
    [Unknown], never a wrong answer. *)

type verdict = Proved | Refuted | Unknown

val verdict_to_string : verdict -> string

(** Solver context: fuel plus the external facts the state is seeded
    with. *)
type ctx

(** [ctx ?fuel ?types ?notnull ()]:
    - [fuel] bounds the total number of case-split steps and literal
      assertions per query (default [4096]);
    - [types] gives the static type of a column where known — enables
      integer bound tightening ([x > 1 AND x < 2] is unsatisfiable for
      an [TInt] column, satisfiable for a float);
    - [notnull] lists columns proved never-null (e.g. by the
      {!Dataflow} nullability analysis); [IS NULL] on them refutes. *)
val ctx :
  ?fuel:int ->
  ?types:(string -> Vtype.t option) ->
  ?notnull:string list ->
  unit ->
  ctx

(** Can the predicate evaluate to TRUE on some row? [Refuted] means it
    never does — a selection with this condition keeps no rows. *)
val satisfiable : ctx -> Algebra.expr -> verdict

(** Can the predicate evaluate to FALSE on some row? [Refuted] together
    with [satisfiable = Refuted] means the predicate is always NULL. *)
val falsifiable : ctx -> Algebra.expr -> verdict

(** [implies ctx a b]: on every row where [a] is TRUE, is [b] TRUE?
    This is implication between {e filters} (NULL on the right refutes
    it), so [Proved] licenses dropping [b] from a conjunction
    containing [a]. *)
val implies : ctx -> Algebra.expr -> Algebra.expr -> verdict

(** Filter equivalence: [implies a b] and [implies b a] — the two
    predicates select exactly the same rows. *)
val equiv : ctx -> Algebra.expr -> Algebra.expr -> verdict

(** Is the predicate TRUE on every row? ([Proved] licenses dropping the
    enclosing selection.) *)
val always_true : ctx -> Algebra.expr -> verdict

(** Is the predicate never TRUE on any row? (= [satisfiable] refuted;
    [Proved] licenses folding the enclosing selection to the empty
    relation.) *)
val never_true : ctx -> Algebra.expr -> verdict

(** [simplify ctx e] is a filter-equivalent simplification of [e]:
    [Const false] when unsatisfiable, [Const true] when tautological,
    otherwise [e] with conjuncts implied by the remaining ones dropped.
    Only valid where [e] is used as a filter (selection / join
    condition) — TRUE-equivalence, not value equivalence. *)
val simplify : ctx -> Algebra.expr -> Algebra.expr

(** {1 Work counters} *)

(** Questions asked on the calling domain so far: one per search, so
    {!equiv} counts two and {!simplify} one per conjunct it tries. A
    domain-local count, like {!Estimate.transfers}. *)
val questions : unit -> int

(** Fuel those questions burned on the calling domain: translation
    size plus search steps, at most each question's [fuel]. *)
val fuel_burned : unit -> int
