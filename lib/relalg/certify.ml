(** Translation validation for the rewrite pipeline.

    Rather than proving the {!Simplify}/{!Optimizer} rules correct once
    and for all, this module validates every {e applied} rule instance:
    the passes announce each application through {!Rewrite_trace}
    (before/after subplan, rule name, Lint-style operator path), and
    each announcement becomes a proof obligation discharged here by

    - {b static checks}: output schema preservation (exact for
      equivalence rules; an order-preserving narrowing for the [prune]
      rule), after-plan typability whenever the before plan types, and
      {!Dataflow} fact preservation — cardinality intervals of the two
      sides must intersect, attribute lineage must not grow, and
      nullability must not strengthen without witness support; and
    - {b bounded equivalence}: both sides are evaluated on small
      witness databases derived from the subplans' own constants and
      predicate boundary values (each constant [c] contributes [c-1],
      [c], [c+1] to the value pool), with NULL-rich and empty variants,
      and compared as bags. Correlated subplans are closed by guessing
      a uniform type for the free references and enumerating a few
      outer bindings; when no guess typechecks, the dynamic check is
      skipped (recorded in the report) and only the static checks
      apply.

    The check is {e bounded, not a proof}: agreement on the witness
    databases is small-scope evidence in the spirit of the
    Cosette-style bounded equivalence checkers, not a certificate of
    equivalence on all databases. Failures, however, are definite: a
    failed obligation carries the rule, path, witness database and the
    differing rows — a concrete counterexample to the rewrite. *)

open Algebra

(* ------------------------------------------------------------------ *)
(* Obligations, failures, reports                                      *)
(* ------------------------------------------------------------------ *)

type obligation = {
  ob_rule : string;
  ob_path : string list;
  ob_before : Algebra.query;
  ob_after : Algebra.query;
}

type failure = {
  f_rule : string;
  f_path : string list;
  f_stage : string;  (** ["schema"], ["typecheck"], ["dataflow"] or ["witness"] *)
  f_message : string;
  f_witness : (string * Relation.t) list;
      (** the witness database refuting the obligation; empty for
          static failures *)
  f_only_before : Tuple.t list;  (** rows only the before plan produced *)
  f_only_after : Tuple.t list;  (** rows only the after plan produced *)
}

type report = {
  r_total : int;  (** proof obligations checked *)
  r_predicates : int;
      (** the subset that are predicate obligations — applications of
          rules that only fold, move or derive selection/join
          conditions over an unchanged operator tree (see
          {!predicate_rules}); the denominator for the symbolic
          discharge rate *)
  r_compared : int;  (** (obligation, witness database, binding) evaluations *)
  r_proved : (string * string) list;
      (** obligations discharged symbolically (rule, rendered path) —
          actual proofs, not bounded evidence *)
  r_skips : (string * string) list;
      (** dynamic checks skipped: rendered path, reason *)
  r_failures : failure list;  (** deepest path first *)
}

(* The rules whose correctness argument is purely about
   filter-equivalence of conditions: the operator tree below is
   untouched (up to Select/Cross/Join reassociation), only predicates
   fold, move or appear. These are the obligations the symbolic stage
   is expected to discharge; rules that rewrite projections or narrow
   schemas ([pushdown-through-project], [merge-projects], [prune],
   [fold-exprs]) are out of its scope by design. *)
let predicate_rules =
  [
    "select-true";
    "join-true-to-cross";
    "unsat-fold";
    "taut-fold";
    "drop-implied";
    "implied-predicate";
    "pushdown-into-cross";
    "pushdown-into-join";
    "pushdown-into-leftjoin";
    "pushdown-residual";
  ]

let is_predicate_rule rule = List.mem rule predicate_rules

let empty_report =
  {
    r_total = 0;
    r_predicates = 0;
    r_compared = 0;
    r_proved = [];
    r_skips = [];
    r_failures = [];
  }

let merge a b =
  {
    r_total = a.r_total + b.r_total;
    r_predicates = a.r_predicates + b.r_predicates;
    r_compared = a.r_compared + b.r_compared;
    r_proved = a.r_proved @ b.r_proved;
    r_skips = a.r_skips @ b.r_skips;
    r_failures = a.r_failures @ b.r_failures;
  }

let ok r = r.r_failures = []

exception Certify_error of report

let fail_on r = if not (ok r) then raise (Certify_error r)

(* ------------------------------------------------------------------ *)
(* Witness databases                                                   *)
(* ------------------------------------------------------------------ *)

(* Constants appearing anywhere in a plan (sublink queries included). *)
let rec constants (q : query) acc =
  let acc =
    List.fold_left
      (fun acc e ->
        fold_expr
          (fun acc e -> match e with Const v -> v :: acc | _ -> acc)
          acc e)
      acc (root_exprs q)
  in
  let acc = ref acc in
  ignore
    (map_queries
       (fun c ->
         acc := constants c !acc;
         c)
       q);
  !acc

(* Per-type value pools: every constant contributes itself and (for
   ordered types) its two boundary neighbours, so pushed predicates
   like [a < 10] see rows on both sides of the boundary. *)
type pools = {
  p_ints : int list;
  p_floats : float list;
  p_strings : string list;
}

let dedup_keep xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let cap n xs = List.filteri (fun i _ -> i < n) xs

let pools_of qs =
  let vals = List.fold_left (fun acc q -> constants q acc) [] qs in
  let ints =
    List.concat_map
      (function Value.Int n -> [ n - 1; n; n + 1 ] | _ -> [])
      vals
  in
  let floats =
    List.concat_map
      (function Value.Float f -> [ f -. 1.0; f; f +. 1.0 ] | _ -> [])
      vals
  in
  let strings =
    List.concat_map (function Value.String s -> [ s ] | _ -> []) vals
  in
  {
    p_ints = cap 8 (dedup_keep (ints @ [ 0; 1; 2 ]));
    p_floats = cap 6 (dedup_keep (floats @ [ 0.0; 1.5 ]));
    p_strings = cap 6 (dedup_keep (strings @ [ ""; "a"; "b" ]));
  }

let pick pools (ty : Vtype.t) idx : Value.t =
  let nth xs i = List.nth xs (i mod List.length xs) in
  match ty with
  | Vtype.TInt -> Value.Int (nth pools.p_ints idx)
  | Vtype.TFloat -> Value.Float (nth pools.p_floats idx)
  | Vtype.TString -> Value.String (nth pools.p_strings idx)
  | Vtype.TBool -> Value.Bool (idx mod 2 = 0)

(* One witness relation: a few data rows with column-dependent strides
   — column [j] cycles with period [j + 2], so rows agree on early
   columns while differing on later ones, the shape that catches
   DISTINCT/GROUP BY narrowing bugs — plus an all-NULL row and a
   duplicated row for bag sensitivity. [salt] varies per table so the
   arms of a set operation are overlapping but not identical; variants
   >= 1 are NULL-rich. *)
let witness_relation pools ~salt ~variant schema =
  let types = Schema.types schema in
  let arity = Schema.arity schema in
  let data_rows =
    List.init 4 (fun r ->
        List.mapi
          (fun j ty ->
            if variant >= 1 && (r + j + variant) mod 3 = 0 then Value.Null
            else pick pools ty ((r mod (j + 2)) + (variant * 2) + j + salt))
          types)
  in
  let all_null = List.init arity (fun _ -> Value.Null) in
  let rows =
    match data_rows with
    | first :: _ -> data_rows @ [ all_null; first ]
    | [] -> [ all_null ]
  in
  Relation.of_values schema rows

(* The base relations a witness database must provide. [None] when a
   referenced name is not a stored relation (e.g. a view). *)
let witness_names db qs =
  let names = dedup_keep (List.concat_map base_relations qs) in
  if List.for_all (fun n -> Database.find_opt db n <> None) names then
    Some names
  else None

let witness_variants = [ 0; 1; 2 ]

let witness_databases_for db qs : (string * Relation.t) list list option =
  match witness_names db qs with
  | None -> None
  | Some names ->
      let pools = pools_of qs in
      let schema_of n = Relation.schema (Database.find db n) in
      let populated =
        List.map
          (fun variant ->
            List.mapi
              (fun salt n ->
                (n, witness_relation pools ~salt ~variant (schema_of n)))
              names)
          witness_variants
      in
      let empty =
        List.map (fun n -> (n, Relation.empty (schema_of n))) names
      in
      Some (populated @ [ empty ])

(** [witness_databases db q] is the list of small witness databases the
    validator would use for [q] — exposed so the provenance-level
    oracle check in [Core] can reuse the derivation. *)
let witness_databases db q =
  Option.value ~default:[] (witness_databases_for db [ q ])

(* ------------------------------------------------------------------ *)
(* Closing correlated subplans                                         *)
(* ------------------------------------------------------------------ *)

(* Free (correlated) references of an obligation's subplans. The
   dynamic check needs an outer frame binding them; we guess a uniform
   type (trying each base type in turn) and keep the first guess under
   which both sides typecheck. *)
let free_names db qs =
  dedup_keep (List.concat_map (fun q -> Scope.free_of_query db q) qs)

let typecheck_under db outer q =
  match Typecheck.infer_query_env db outer q with
  | s -> Some s
  | exception
      ( Typecheck.Type_error _ | Schema.Schema_error _
      | Database.Unknown_relation _ | Builtin.Unknown_function _
      | Invalid_argument _ | Not_found ) ->
      None

let guess_outer db frees qs : Schema.t option =
  if frees = [] then Some (Schema.of_list [])
  else
    List.find_map
      (fun ty ->
        let schema =
          Schema.of_list (List.map (fun n -> Schema.attr n ty) frees)
        in
        if List.for_all (fun q -> typecheck_under db [ schema ] q <> None) qs
        then Some schema
        else None)
      [ Vtype.TInt; Vtype.TFloat; Vtype.TString; Vtype.TBool ]

(* Outer bindings for a guessed frame schema: two pool values plus an
   all-NULL binding (every free reference gets the same value). *)
let outer_bindings pools schema : Eval.env list =
  if Schema.arity schema = 0 then [ [] ]
  else
    let mk v =
      [ Eval.frame schema (Tuple.of_list (List.map (fun _ -> v) (Schema.names schema))) ]
    in
    let vals =
      match Schema.types schema with
      | ty :: _ -> [ pick pools ty 0; pick pools ty 1; Value.Null ]
      | [] -> []
    in
    List.map mk (dedup_keep vals)

(* ------------------------------------------------------------------ *)
(* Static checks                                                       *)
(* ------------------------------------------------------------------ *)

(* For the narrowing [prune] rule: positions of [sub] within [full] as
   an order-preserving subsequence (by name), or [None]. *)
let subsequence_positions ~full ~sub =
  let rec go i full sub acc =
    match (full, sub) with
    | _, [] -> Some (List.rev acc)
    | [], _ :: _ -> None
    | f :: frest, s :: srest ->
        if String.equal f s then go (i + 1) frest srest (i :: acc)
        else go (i + 1) frest sub acc
  in
  go 0 full sub []

let is_narrowing_rule rule = String.equal rule "prune"

let bound_le a b =
  match (a, b) with
  | Dataflow.Fin x, Dataflow.Fin y -> x <= y
  | Dataflow.Fin _, Dataflow.Inf -> true
  | Dataflow.Inf, Dataflow.Fin _ -> false
  | Dataflow.Inf, Dataflow.Inf -> true

let intervals_intersect (a : Dataflow.card) (b : Dataflow.card) =
  bound_le (Dataflow.Fin a.Dataflow.c_lo) b.Dataflow.c_hi
  && bound_le (Dataflow.Fin b.Dataflow.c_lo) a.Dataflow.c_hi

(* ------------------------------------------------------------------ *)
(* Symbolic discharge                                                  *)
(* ------------------------------------------------------------------ *)

(* Flatten a tree of Select / Cross / Join nodes into the conjuncts of
   all its conditions plus the in-order leaf subplans below them. When
   the leaf output names are pairwise distinct (so every predicate
   reference binds to the same column at every level), any such tree
   is bag-equivalent to [Select (conj cs, Cross leaves)]; two trees
   over identical leaf sequences are therefore equivalent whenever
   their conjunct sets are filter-equivalent — a question {!Symbolic}
   can settle outright. *)
let rec flatten (q : query) : expr list * query list =
  match q with
  | Select (c, q1) ->
      let cs, ls = flatten q1 in
      (conjuncts c @ cs, ls)
  | Cross (a, b) ->
      let ca, la = flatten a and cb, lb = flatten b in
      (ca @ cb, la @ lb)
  | Join (c, a, b) ->
      let ca, la = flatten a and cb, lb = flatten b in
      (conjuncts c @ ca @ cb, la @ lb)
  | _ -> ([], [ q ])

(* Structural equality robust to closures inside [TableExpr] leaves. *)
let struct_equal (a : query list) (b : query list) =
  try a = b with Invalid_argument _ -> false

(* Bag equality of two conjunct lists under structural equality
   (guarded: sublink conditions can reach [TableExpr] closures). Over
   identical flat leaves, equal conjunct bags mean both trees are
   [Select (conj cs, Cross leaves)] up to AND/Cross reassociation —
   proved without consulting the solver, so conjuncts the solver
   treats as opaque (sublinks, LIKE, arithmetic) cannot block the
   discharge of a pure predicate-motion rule. *)
let conjunct_bags_equal (a : expr list) (b : expr list) =
  let remove_one x ys =
    let rec go acc = function
      | [] -> None
      | y :: rest ->
          if try x = y with Invalid_argument _ -> false then
            Some (List.rev_append acc rest)
          else go (y :: acc) rest
    in
    go [] ys
  in
  List.length a = List.length b
  && Option.is_some
       (List.fold_left (fun acc x -> Option.bind acc (remove_one x)) (Some b) a)

(* The flattening argument needs every column reference to bind
   identically at every level of both trees: leaf output names must be
   pairwise distinct and disjoint from the obligation's correlated
   (free) names. *)
let flat_namespace db frees leaves =
  match List.concat_map (fun l -> Scope.out_names db l) leaves with
  | names ->
      List.length (dedup_keep names) = List.length names
      && List.for_all (fun f -> not (List.mem f names)) frees
  | exception _ -> false

(* Column types for the solver's integer bound tightening — static
   facts only (no witness-data nullability), so proofs hold on every
   database. Only available when the leaves are closed and type. *)
let solver_ctx db ~closed leaves =
  let types =
    if not closed then fun _ -> None
    else
      let schemas = List.map (typecheck_under db []) leaves in
      if List.for_all Option.is_some schemas then begin
        let assoc =
          List.concat_map
            (fun s ->
              let s = Option.get s in
              List.map2 (fun n t -> (n, t)) (Schema.names s) (Schema.types s))
            schemas
        in
        fun n -> List.assoc_opt n assoc
      end
      else fun _ -> None
  in
  Symbolic.ctx ~types ()

(* [true] iff the obligation is proved — not merely tested — correct:
   either both sides flatten to the same leaves with filter-equivalent
   conjunctions, or the rewrite folds a selection/join whose condition
   provably never holds to the empty relation. Schema and typing
   preservation have already been checked by the static stages. *)
let symbolic_discharge db (ob : obligation) : bool =
  (not (is_narrowing_rule ob.ob_rule))
  &&
  let frees = free_names db [ ob.ob_before; ob.ob_after ] in
  let closed = frees = [] in
  let cs_b, ls_b = flatten ob.ob_before in
  match ob.ob_after with
  | TableExpr rel when Relation.cardinality rel = 0 ->
      cs_b <> []
      && flat_namespace db frees ls_b
      && Symbolic.never_true (solver_ctx db ~closed ls_b) (conj cs_b)
         = Symbolic.Proved
  | after ->
      let cs_a, ls_a = flatten after in
      struct_equal ls_b ls_a
      && flat_namespace db frees ls_b
      && (conjunct_bags_equal cs_b cs_a
         || Symbolic.equiv (solver_ctx db ~closed ls_b) (conj cs_b)
              (conj cs_a)
            = Symbolic.Proved)

(* ------------------------------------------------------------------ *)
(* Dynamic (witness) checks                                            *)
(* ------------------------------------------------------------------ *)

let sorted_rows rel = List.sort Tuple.compare (Relation.tuples rel)

(* Multiset difference of two sorted tuple lists: rows only in [a],
   rows only in [b]. *)
let bag_diff a b =
  let rec go a b only_a only_b =
    match (a, b) with
    | [], [] -> (List.rev only_a, List.rev only_b)
    | x :: a', [] -> go a' [] (x :: only_a) only_b
    | [], y :: b' -> go [] b' only_a (y :: only_b)
    | x :: a', y :: b' ->
        let c = Tuple.compare x y in
        if c = 0 then go a' b' only_a only_b
        else if c < 0 then go a' b (x :: only_a) only_b
        else go a b' only_a (y :: only_b)
  in
  go a b [] []

type run_outcome =
  | Rows of Tuple.t list  (** sorted *)
  | Errored of string
  | Tripped of string

let run_side wdb env plan =
  match Eval.query_reference ~env wdb plan with
  | rel -> Rows (sorted_rows rel)
  | exception Guard.Budget_exceeded trip ->
      Tripped (Guard.trip_to_string trip)
  | exception
      (( Eval.Eval_error _ | Value.Type_clash _ | Schema.Schema_error _
       | Relation.Relation_error _ | Typecheck.Type_error _
       | Database.Unknown_relation _ | Builtin.Unknown_function _
       | Invalid_argument _ | Not_found | Division_by_zero | Failure _ ) as e)
    ->
      Errored (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Checking one obligation                                             *)
(* ------------------------------------------------------------------ *)

type acc = {
  mutable a_compared : int;
  mutable a_proved : (string * string) list;
  mutable a_skips : (string * string) list;
  mutable a_failures : failure list;
}

let check_obligation db flow ~budget acc (ob : obligation) =
  let fail ?(witness = []) ?(only_before = []) ?(only_after = []) stage msg =
    acc.a_failures <-
      {
        f_rule = ob.ob_rule;
        f_path = ob.ob_path;
        f_stage = stage;
        f_message = msg;
        f_witness = witness;
        f_only_before = only_before;
        f_only_after = only_after;
      }
      :: acc.a_failures
  in
  let skip reason =
    acc.a_skips <- (Path.to_string ob.ob_path, reason) :: acc.a_skips
  in
  let failures_at_entry = List.length acc.a_failures in
  let before = ob.ob_before and after = ob.ob_after in
  (* --- schema: name preservation / order-preserving narrowing ------ *)
  let outs_before = Scope.out_names db before in
  let outs_after = Scope.out_names db after in
  let narrowing = is_narrowing_rule ob.ob_rule in
  let positions =
    if narrowing then subsequence_positions ~full:outs_before ~sub:outs_after
    else if outs_before = outs_after then
      Some (List.mapi (fun i _ -> i) outs_before)
    else None
  in
  match positions with
  | None ->
      fail "schema"
        (Printf.sprintf "output schema not preserved: [%s] vs [%s]"
           (String.concat "; " outs_before)
           (String.concat "; " outs_after))
  | Some positions -> (
      let positions = Array.of_list positions in
      (* --- typecheck: after must type whenever before does --------- *)
      let frees = free_names db [ before; after ] in
      let closed = frees = [] in
      let outer = guess_outer db frees [ before ] in
      (match outer with
      | None -> ()
      | Some schema -> (
          let env = if closed then [] else [ schema ] in
          match typecheck_under db env before with
          | None -> () (* before side untypable: nothing to preserve *)
          | Some sb -> (
              match typecheck_under db env after with
              | None ->
                  fail "typecheck"
                    "rewritten plan no longer typechecks against its \
                     input schemas"
              | Some sa ->
                  if not narrowing then
                    if not (Schema.equal_types sb sa) then
                      fail "typecheck"
                        (Printf.sprintf
                           "output types changed: %s vs %s"
                           (Schema.to_string sb) (Schema.to_string sa)))));
      (* --- dataflow facts (closed plans only) ---------------------- *)
      let strengthened =
        if not closed then []
        else begin
          let cb = Dataflow.cardinality flow before in
          let ca = Dataflow.cardinality flow after in
          if not (intervals_intersect cb ca) then
            fail "dataflow"
              (Format.asprintf
                 "cardinality intervals are disjoint: %a vs %a"
                 Dataflow.pp_card cb Dataflow.pp_card ca);
          let lb = Dataflow.lineage flow before in
          let la = Dataflow.lineage flow after in
          List.iter
            (fun n ->
              let db_ = Dataflow.attr_deps lb n in
              let da = Dataflow.attr_deps la n in
              if not (Dataflow.Deps.subset da db_) then
                fail "dataflow"
                  (Printf.sprintf
                     "lineage of %s grew: the rewrite reads base columns \
                      the original did not"
                     n))
            outs_after;
          (* nullability may not strengthen (maybe-null -> never-null)
             without witness support: remember the strengthened columns
             and refute them if a witness run produces a NULL there *)
          let nb = Dataflow.nullability flow before in
          let na = Dataflow.nullability flow after in
          List.filteri
            (fun i n ->
              ignore i;
              Dataflow.attr_nullable nb n && not (Dataflow.attr_nullable na n))
            outs_after
        end
      in
      (* --- symbolic discharge: a proof beats bounded testing ------- *)
      if
        strengthened = []
        && List.length acc.a_failures = failures_at_entry
        && symbolic_discharge db ob
      then
        acc.a_proved <-
          (ob.ob_rule, Path.to_string ob.ob_path) :: acc.a_proved
      else
      (* --- bounded equivalence on witness databases ---------------- *)
      match witness_databases_for db [ before; after ] with
      | None -> skip "references a non-stored relation (view?)"
      | Some wdbs -> (
          match outer with
          | None ->
              skip
                (Printf.sprintf
                   "cannot type the correlated references [%s] under any \
                    uniform type guess"
                   (String.concat "; " frees))
          | Some outer_schema ->
              let pools = pools_of [ before; after ] in
              let envs = outer_bindings pools outer_schema in
              let strengthened_pos =
                List.concat
                  (List.mapi
                     (fun i n ->
                       if List.exists (String.equal n) strengthened then [ i ]
                       else [])
                     outs_after)
              in
              let check_one wdb_assoc env =
                let wdb = Database.of_list wdb_assoc in
                let rb =
                  Guard.with_budget (Some budget) (fun () ->
                      run_side wdb env before)
                in
                let ra =
                  Guard.with_budget (Some budget) (fun () ->
                      run_side wdb env after)
                in
                match (rb, ra) with
                | Tripped t, _ | _, Tripped t ->
                    skip ("witness run exceeded its budget: " ^ t)
                | Errored _, Errored _ -> ()
                | Errored e, Rows _ | Rows _, Errored e ->
                    (* rewrites may legitimately change which rows reach a
                       failing expression; asymmetric errors are recorded
                       but not failed *)
                    skip ("one side raised during a witness run: " ^ e)
                | Rows rows_b, Rows rows_a ->
                    acc.a_compared <- acc.a_compared + 1;
                    let projected =
                      List.sort Tuple.compare
                        (List.map (fun t -> Tuple.project_arr t positions) rows_b)
                    in
                    let only_b, only_a = bag_diff projected rows_a in
                    if only_b <> [] || only_a <> [] then
                      fail "witness" ~witness:wdb_assoc
                        ~only_before:(cap 5 only_b) ~only_after:(cap 5 only_a)
                        (Printf.sprintf
                           "plans disagree on a witness database (%d rows \
                            only before, %d only after)"
                           (List.length only_b) (List.length only_a))
                    else
                      List.iter
                        (fun pos ->
                          if
                            pos >= 0
                            && List.exists
                                 (fun t -> Value.is_null (Tuple.get t pos))
                                 rows_a
                          then
                            fail "dataflow" ~witness:wdb_assoc
                              (Printf.sprintf
                                 "nullability strengthening refuted: %s is \
                                  NULL in a witness run but the rewritten \
                                  plan's analysis claims it never is"
                                 (List.nth outs_after pos)))
                        strengthened_pos
              in
              (* stop at the first failing witness for this obligation *)
              let failures_before = List.length acc.a_failures in
              List.iter
                (fun wdb ->
                  if List.length acc.a_failures = failures_before then
                    List.iter
                      (fun env ->
                        if List.length acc.a_failures = failures_before then
                          check_one wdb env)
                      envs)
                wdbs))

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let default_budget = Guard.budget ~timeout:1.0 ~max_rows:200_000 ()

let dedup_entries (entries : Rewrite_trace.entry list) =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (e : Rewrite_trace.entry) ->
      let key = Hashtbl.hash (e.e_rule, e.e_path, e.e_before, e.e_after) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    entries

let check_entries ?(budget = default_budget) db entries : report =
  let entries = dedup_entries entries in
  let flow = Dataflow.create db in
  let acc = { a_compared = 0; a_proved = []; a_skips = []; a_failures = [] } in
  List.iter
    (fun (e : Rewrite_trace.entry) ->
      let ob =
        {
          ob_rule = e.e_rule;
          ob_path = e.e_path;
          ob_before = e.e_before;
          ob_after = e.e_after;
        }
      in
      try check_obligation db flow ~budget acc ob
      with exn ->
        (* an analysis crash must not take down the whole certificate
           run; record the obligation as skipped *)
        acc.a_skips <-
          ( Path.to_string ob.ob_path,
            "internal error while checking: " ^ Printexc.to_string exn )
          :: acc.a_skips)
    entries;
  {
    r_total = List.length entries;
    r_predicates =
      List.length
        (List.filter
           (fun (e : Rewrite_trace.entry) -> is_predicate_rule e.e_rule)
           entries);
    r_compared = acc.a_compared;
    r_proved = List.rev acc.a_proved;
    r_skips = List.rev acc.a_skips;
    r_failures =
      (* deepest failing obligation first: the most precise attribution *)
      List.stable_sort
        (fun a b -> compare (List.length b.f_path) (List.length a.f_path))
        (List.rev acc.a_failures);
  }

(** [optimize ?prune ?budget db q] runs the stock optimizer pipeline
    ({!Simplify} + pushdown + dead-column pruning) under a tracer and
    discharges one proof obligation per applied rule. Returns the
    optimized plan and the certificate report. *)
let optimize ?prune ?budget db q =
  let entries = ref [] in
  let q' =
    Rewrite_trace.with_tracer
      (fun e -> entries := e :: !entries)
      (fun () -> Optimizer.optimize ?prune db q)
  in
  (q', check_entries ?budget db (List.rev !entries))

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let failure_to_string ?(verbose = true) f =
  let b = Buffer.create 256 in
  Printf.bprintf b "FAILED [%s] at %s (%s): %s\n" f.f_rule
    (Path.to_string f.f_path)
    f.f_stage f.f_message;
  if verbose then begin
    List.iter
      (fun (name, rel) ->
        Printf.bprintf b "  witness %s:\n" name;
        String.split_on_char '\n' (Csv.to_string rel)
        |> List.iter (fun line ->
               if line <> "" then Printf.bprintf b "    %s\n" line))
      f.f_witness;
    if f.f_only_before <> [] then
      Printf.bprintf b "  rows only in the original plan:\n%s"
        (String.concat ""
           (List.map
              (fun t -> "    " ^ Tuple.to_string t ^ "\n")
              f.f_only_before));
    if f.f_only_after <> [] then
      Printf.bprintf b "  rows only in the rewritten plan:\n%s"
        (String.concat ""
           (List.map
              (fun t -> "    " ^ Tuple.to_string t ^ "\n")
              f.f_only_after))
  end;
  Buffer.contents b

let report_to_string ?(verbose = false) r =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "certify: %d obligation%s (%d on predicates), %d proved symbolically, \
     %d witness comparison%s, %d skipped, %d failed\n"
    r.r_total
    (if r.r_total = 1 then "" else "s")
    r.r_predicates
    (List.length r.r_proved)
    r.r_compared
    (if r.r_compared = 1 then "" else "s")
    (List.length r.r_skips)
    (List.length r.r_failures);
  List.iter (fun f -> Buffer.add_string b (failure_to_string ~verbose f)) r.r_failures;
  if verbose then begin
    List.iter
      (fun (rule, path) -> Printf.bprintf b "proved [%s] at %s\n" rule path)
      r.r_proved;
    List.iter
      (fun (path, reason) ->
        Printf.bprintf b "skipped %s: %s\n" path reason)
      r.r_skips
  end;
  Buffer.contents b
