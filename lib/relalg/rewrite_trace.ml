(** Shared instrumentation channel between the rewrite passes
    ({!Simplify}, {!Optimizer}) and the translation validator
    ({!Certify}).

    The passes cannot depend on the validator (the validator drives the
    passes), so they report through this tiny module instead: each
    applied rule instance is announced as an {!entry} — the rule name,
    the Lint-style operator path of the node it fired at, and the
    before/after subplans. With no tracer installed ({!active} false)
    emission is a single flag load, so the stock optimizer pipeline
    pays nothing.

    The module also hosts the test-only mutation hook used by the
    validator's mutation harness: naming a mutant in {!mutation} makes
    the corresponding rewrite rule deliberately misbehave, so the tests
    can assert that {!Certify} catches it with the right rule name and
    path. *)

type entry = {
  e_rule : string;  (** rule identifier, e.g. ["pushdown-into-join"] *)
  e_path : string list;
      (** operator path of the rewritten node, root first — same syntax
          as {!Lint} diagnostics and {!Guard} trip reports *)
  e_before : Algebra.query;  (** the subplan before the rule fired *)
  e_after : Algebra.query;  (** the replacement subplan *)
}

(* The closed registry of rule identifiers the passes may emit. These
   are stable, machine-readable names: certificates, traces, JSON lint
   output and the mutation harness all key on them, so renaming one is
   a breaking change. [emit] enforces membership in test/tracer builds
   (a typo'd rule name would silently dodge its certificate). *)
let rules =
  [
    (* Simplify *)
    ("fold-exprs", "constant-fold every expression of one operator");
    ("select-true", "drop a selection whose condition folded to TRUE");
    ("join-true-to-cross", "turn a join on TRUE into a cross product");
    (* Optimizer: symbolic passes *)
    ("unsat-fold", "fold a provably never-TRUE selection to the empty relation");
    ("taut-fold", "drop a selection whose condition is provably always TRUE");
    ("drop-implied", "drop conjuncts implied by the remaining conjuncts");
    ( "implied-predicate",
      "derive a comparison for a column through join equalities" );
    (* Optimizer: cost-based join reorder *)
    ( "join-reorder",
      "reorder a join cluster greedily by estimated cardinality" );
    (* Optimizer: selection pushdown *)
    ("pushdown-into-cross", "distribute conjuncts over a cross product");
    ("pushdown-into-join", "merge conjuncts into / distribute over a join");
    ("pushdown-into-leftjoin", "push left-side-only conjuncts below a left join");
    ("pushdown-through-project", "push substituted conjuncts below a projection");
    ("pushdown-residual", "re-emit conjuncts that could not be pushed");
    (* Optimizer: projections and pruning *)
    ("merge-projects", "fuse adjacent projections by substitution");
    ("prune", "project dead columns out below an operator");
  ]

let known_rule name = List.mem_assoc name rules

let hook : (entry -> unit) option ref = ref None
let active () = Option.is_some !hook

(** [emit ~rule ~path ~before ~after] reports one rule application to
    the installed tracer, if any. Applications that left the subplan
    unchanged (physically or structurally) are filtered out here so the
    passes can emit unconditionally. *)
let emit ~rule ~path ~before ~after =
  match !hook with
  | None -> ()
  | Some f ->
      if not (known_rule rule) then
        invalid_arg
          (Printf.sprintf "Rewrite_trace.emit: unregistered rule %S" rule);
      if not (before == after || before = after) then
        f { e_rule = rule; e_path = path; e_before = before; e_after = after }

(** [with_tracer f body] installs [f] as the tracer for the duration of
    [body], restoring the previous tracer on exit (scopes nest). *)
let with_tracer f body =
  let saved = !hook in
  hook := Some f;
  Fun.protect ~finally:(fun () -> hook := saved) body

(** {1 Operator paths}

    Entry paths are built only while a tracer is installed: without
    one, every helper returns its prefix unchanged (the empty path the
    passes start from), so the stock pipeline allocates no path. *)

let node prefix q = if active () then Algebra.Path.here prefix q else prefix

let child prefix q side =
  if active () then Algebra.Path.child prefix q side else prefix

let sublink here k = if active () then Algebra.Path.sublink here k else here

(** {1 Shared sublink bodies}

    A table of one pass's results per physical sublink body, local to
    one pass invocation. The first visit of a body runs the pass and,
    under a tracer, records the entries it emitted with paths relative
    to the body; a later visit of the same object returns the first
    result (so the output stays shared) and re-emits those entries
    under its own path, so the tracer sees the same entry list as a
    walk that rewrote every copy. *)
module Shared = struct
  type 'a t = ('a * entry list) Algebra.Qtbl.t

  let create () : 'a t = Algebra.Qtbl.create 8

  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l)

  let visit (t : 'a t) body ~path run =
    match Algebra.Qtbl.find_opt t body with
    | Some (r, entries) ->
        (match !hook with
        | Some f ->
            List.iter (fun e -> f { e with e_path = path @ e.e_path }) entries
        | None -> ());
        r
    | None ->
        let r, entries =
          match !hook with
          | None -> (run (), [])
          | Some outer ->
              let depth = List.length path and acc = ref [] in
              let r =
                with_tracer
                  (fun e ->
                    acc := { e with e_path = drop depth e.e_path } :: !acc;
                    outer e)
                  run
              in
              (r, List.rev !acc)
        in
        Algebra.Qtbl.add t body (r, entries);
        r
end

(** {1 Test-only mutation hook}

    [mutation := Some name] arms one deliberately broken variant of a
    rewrite rule (see the [Rewrite_trace.mutant] call sites in
    {!Simplify} and {!Optimizer} for the catalogue). Production code
    never sets this; the harness in [test/test_certify.ml] does, to
    prove the validator catches each breakage. *)
let mutation : string option ref = ref None

let mutant name = match !mutation with Some m -> String.equal m name | None -> false

(** [with_mutation name body] arms mutant [name] for the duration of
    [body] (exception-safe). *)
let with_mutation name body =
  let saved = !mutation in
  mutation := Some name;
  Fun.protect ~finally:(fun () -> mutation := saved) body
