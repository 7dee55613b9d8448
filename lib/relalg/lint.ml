(** Static plan diagnostics — see lint.mli for the architecture.

    Design notes:
    - The walker mirrors [Typecheck.infer_query_env]'s scoping exactly:
      an operator's expressions resolve against the concatenation of its
      input schemas, then the scopes of enclosing sublinks, innermost
      first. A sublink query is walked with the environment of the
      expression it is embedded in as its outer scope stack.
    - Schema inference is tolerant: where it fails (the very defects the
      linter exists to catch), the affected environments are [None] and
      name/type rules skip those sites; the defect itself is reported at
      the deepest site where inference still succeeds.
    - All rules run in one pass and tag their diagnostics with a
      registry name; [lint ?rules] filters afterwards, which keeps rule
      selection trivial without threading state through the walk. *)

open Algebra

type severity = Info | Warning | Error

type diagnostic = {
  severity : severity;
  rule : string;
  path : string list;
  message : string;
}

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let diagnostic_to_string d =
  Printf.sprintf "%s[%s] at %s: %s"
    (severity_to_string d.severity)
    d.rule (Path.to_string d.path) d.message

let diag severity ~rule ~path message = { severity; rule; path; message }

(* ------------------------------------------------------------------ *)
(* Sites                                                                *)
(* ------------------------------------------------------------------ *)

type site = {
  s_path : string list;
  s_outer : Schema.t list option;
  s_inputs : Schema.t list option;
  s_env : Typecheck.env option;
  s_query : query;
  s_exprs : (string * expr) list;
}

(* Tolerant schema inference: [None] where the plan is too broken to
   type — the rules report the root cause at a deeper site. *)
let schema_of db (outer : Typecheck.env) q =
  match Typecheck.infer_query_env db outer q with
  | s -> Some s
  | exception
      ( Typecheck.Type_error _ | Schema.Schema_error _
      | Database.Unknown_relation _ | Builtin.Unknown_function _
      | Invalid_argument _ ) ->
      None

let sites db q : site list =
  let acc = ref [] in
  Path.walk
    (fun here outer q ->
      let s_inputs =
        (* input schemas are inferable even under an unknown outer scope
           as long as the inputs are self-contained *)
        let base = Option.value ~default:[] outer in
        let schemas = List.map (schema_of db base) (inputs q) in
        if List.for_all Option.is_some schemas then
          Some (List.map Option.get schemas)
        else None
      in
      let s_env =
        match (outer, s_inputs) with
        | Some out, Some schemas -> (
            match Schema.of_list (List.concat_map Schema.to_list schemas) with
            | s -> Some (s :: out)
            | exception Schema.Schema_error _ -> None)
        | _ -> None
      in
      acc :=
        {
          s_path = here;
          s_outer = outer;
          s_inputs;
          s_env;
          s_query = q;
          s_exprs = labelled_exprs q;
        }
        :: !acc;
      s_env)
    (Some []) q;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Expression helpers                                                   *)
(* ------------------------------------------------------------------ *)

(* [fold_expr] stays out of sublink queries (they get their own sites)
   but does visit ANY/ALL left-hand sides, which live in this scope. *)
let subexprs e = List.rev (fold_expr (fun acc x -> x :: acc) [] e)

let is_condition_label label =
  label = "the selection condition"
  || label = "the join condition"
  || label = "the outer-join condition"

let const_zero = function
  | Const (Value.Int 0) -> true
  | Const (Value.Float f) -> f = 0.0
  | _ -> false

let is_null_literal = function
  | Const Value.Null | TypedNull _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Rules                                                                *)
(* ------------------------------------------------------------------ *)

let rules =
  [
    ( "unknown-relation",
      "a Base operator names a relation absent from the catalog" );
    ( "unresolved-attribute",
      "an attribute reference resolves against no scope, with did-you-mean \
       candidates" );
    ( "shadowed-attribute",
      "an attribute of a sublink scope hides a same-named attribute of an \
       enclosing scope" );
    ( "incomparable-types",
      "a comparison or IN list mixes types that can never be compared" );
    ("type-error", "an expression fails static typing (catch-all)");
    ("unknown-function", "a call to a function the engine does not provide");
    ( "null-comparison",
      "a three-valued comparison with a literal NULL — always UNKNOWN; use IS \
       NULL or =n" );
    ( "constant-condition",
      "a selection or join condition that is statically always FALSE or \
       always NULL" );
    ( "contradictory-condition",
      "a selection or join condition the 3VL solver proves can never be \
       TRUE — the operator keeps no rows" );
    ( "tautological-condition",
      "a selection or join condition the 3VL solver proves TRUE on every \
       row — the filter is redundant" );
    ( "condition-always-null",
      "a selection or join condition the 3VL solver proves evaluates to \
       NULL on every row — it silently selects nothing" );
    ("div-by-zero", "division or modulo by a constant zero");
    ( "suspicious-like",
      "a LIKE pattern with no wildcard, a redundant '%%', or a backslash \
       (LIKE has no escape sequences)" );
    ( "duplicate-output",
      "duplicate output attribute names in a projection, aggregation, or \
       across join sides" );
    ("set-op-schema", "set-operation arms with incompatible schemas");
    ( "aggregate-misuse",
      "an aggregate call outside an aggregation operator, in a group-by \
       expression, or nested in an aggregate argument" );
    ( "rewrite-unsupported",
      "a construct the provenance rewriter cannot handle: LIMIT, or sublinks \
       in ORDER BY / outer-join conditions / GROUP BY / aggregate arguments" );
    ( "sublink-null-trap",
      "NOT IN / <> ALL where the left-hand side or the sublink column may be \
       NULL — a single NULL makes the membership test UNKNOWN and silently \
       rejects every row" );
    ( "scalar-cardinality",
      "a scalar sublink whose query may return more than one row — evaluation \
       raises as soon as it does" );
    ( "estimate-cross-blowup",
      "a cross product or non-equi join whose estimated candidate pairs — or \
       estimated enumeration work including per-pair sublink evaluation — \
       exceed the blowup threshold; a Guard pair budget would trip at run \
       time" );
    ( "estimate-empty-result",
      "the estimator predicts zero result rows over nonempty inputs — a \
       predicate is unsatisfiable or outside the data's value range" );
    ( "estimate-scalar-sublink-fanout",
      "a scalar sublink the estimator expects to return more than one row — \
       evaluation raises as soon as it does" );
  ]

(* The semantic sublink rules target source queries: a rewritten plan
   contains sublinks the rewriter placed deliberately (and, under Gen,
   CrossBase columns that are maybe-NULL by construction), so re-warning
   about them there is noise — same reasoning as rewrite-unsupported.
   Tautological conditions are likewise deliberate in rewritten plans
   (Gen builds [(x =n v) OR NOT (x =n v)]-shaped guards). *)
let plan_rules =
  List.filter
    (fun n ->
      n <> "rewrite-unsupported" && n <> "shadowed-attribute"
      && n <> "sublink-null-trap" && n <> "scalar-cardinality"
      && n <> "tautological-condition"
      && n <> "estimate-scalar-sublink-fanout")
    (List.map fst rules)

(* --- name resolution -------------------------------------------------- *)

let check_names db (s : site) : diagnostic list =
  ignore db;
  match s.s_env with
  | None -> []
  | Some env ->
      let scope_names = List.concat_map Schema.names env in
      let check_attr label acc name =
        let rec depth i = function
          | [] -> None
          | schema :: rest ->
              if Schema.mem schema name then Some i else depth (i + 1) rest
        in
        match depth 0 env with
        | None ->
            let hint =
              match Typecheck.did_you_mean name scope_names with
              | [] -> ""
              | cands ->
                  Printf.sprintf "; did you mean %s?"
                    (String.concat " or "
                       (List.map (Printf.sprintf "%S") cands))
            in
            diag Error ~rule:"unresolved-attribute" ~path:s.s_path
              (Printf.sprintf "unresolved attribute %S in %s%s" name label hint)
            :: acc
        | Some d ->
            if
              d = 0 && List.length env > 1
              && List.exists (fun sc -> Schema.mem sc name) (List.tl env)
            then
              diag Info ~rule:"shadowed-attribute" ~path:s.s_path
                (Printf.sprintf
                   "%S in %s resolves locally but also names an attribute of \
                    an enclosing scope (shadowed correlation)"
                   name label)
              :: acc
            else acc
      in
      List.concat_map
        (fun (label, e) ->
          List.rev
            (fold_expr
               (fun acc x ->
                 match x with
                 | Attr name -> check_attr label acc name
                 | _ -> acc)
               [] e))
        s.s_exprs

(* --- types and 3VL ---------------------------------------------------- *)

let check_types db (s : site) : diagnostic list =
  match s.s_env with
  | None -> []
  | Some env ->
      let infer e =
        match Typecheck.infer_expr db env e with
        | t -> Ok t
        | exception Typecheck.Type_error m -> Error ("type-error", m)
        | exception Builtin.Unknown_function f ->
            Error ("unknown-function", Printf.sprintf "unknown function %S" f)
        | exception Schema.Schema_error m -> Error ("type-error", m)
        | exception Database.Unknown_relation r ->
            Error ("type-error", Printf.sprintf "unknown relation %S" r)
      in
      let check_one (label, e) =
        (* specific sub-expression rules first; the catch-all only fires
           when no specific rule explained the failure *)
        let specifics =
          List.concat_map
            (fun x ->
              match x with
              | Cmp (op, a, b) when op <> EqNull
                                    && (is_null_literal a || is_null_literal b)
                ->
                  [
                    diag Warning ~rule:"null-comparison" ~path:s.s_path
                      (Printf.sprintf
                         "comparison with a literal NULL in %s is always \
                          UNKNOWN; use IS NULL (or the null-aware =n)"
                         label);
                  ]
              | Cmp (_, a, b) -> (
                  match (infer a, infer b) with
                  | Ok (Some ta), Ok (Some tb) when not (Vtype.compatible ta tb)
                    ->
                      [
                        diag Error ~rule:"incomparable-types" ~path:s.s_path
                          (Printf.sprintf
                             "comparison between incomparable types %s and %s \
                              in %s"
                             (Vtype.to_string ta) (Vtype.to_string tb) label);
                      ]
                  | _ -> [])
              | InList (a, es) -> (
                  match infer a with
                  | Ok (Some ta) ->
                      List.filter_map
                        (fun el ->
                          match infer el with
                          | Ok (Some te) when not (Vtype.compatible ta te) ->
                              Some
                                (diag Error ~rule:"incomparable-types"
                                   ~path:s.s_path
                                   (Printf.sprintf
                                      "IN-list element of type %s is \
                                       incomparable with the %s left-hand \
                                       side in %s"
                                      (Vtype.to_string te) (Vtype.to_string ta)
                                      label))
                          | _ -> None)
                        es
                  | _ -> [])
              | Binop (((Div | Mod) as op), _, rhs)
                when const_zero (Simplify.expr rhs) ->
                  [
                    diag Warning ~rule:"div-by-zero" ~path:s.s_path
                      (Printf.sprintf
                         "%s by constant zero in %s raises at runtime for \
                          every row that reaches it"
                         (match op with Div -> "division" | _ -> "modulo")
                         label);
                  ]
              | Like (_, pattern) ->
                  let has_wildcard =
                    String.exists (fun c -> c = '%' || c = '_') pattern
                  in
                  let has_backslash = String.contains pattern '\\' in
                  let doubled =
                    let n = String.length pattern in
                    let rec go i =
                      i + 1 < n && ((pattern.[i] = '%' && pattern.[i + 1] = '%') || go (i + 1))
                    in
                    go 0
                  in
                  (if has_backslash then
                     [
                       diag Warning ~rule:"suspicious-like" ~path:s.s_path
                         (Printf.sprintf
                            "LIKE pattern %S contains a backslash, but LIKE \
                             has no escape sequences — it matches literally"
                            pattern);
                     ]
                   else [])
                  @ (if not has_wildcard then
                       [
                         diag Info ~rule:"suspicious-like" ~path:s.s_path
                           (Printf.sprintf
                              "LIKE pattern %S has no wildcard — equivalent \
                               to plain equality"
                              pattern);
                       ]
                     else [])
                  @
                  if doubled then
                    [
                      diag Info ~rule:"suspicious-like" ~path:s.s_path
                        (Printf.sprintf "LIKE pattern %S has a redundant '%%%%'"
                           pattern);
                    ]
                  else []
              | _ -> [])
            (subexprs e)
        in
        let condition =
          if is_condition_label label && not (has_sublink e) then
            match Simplify.expr e with
            | Const (Value.Bool false) ->
                [
                  diag Warning ~rule:"constant-condition" ~path:s.s_path
                    (Printf.sprintf "%s is statically always FALSE" label);
                ]
            | Const Value.Null | TypedNull _ ->
                [
                  diag Warning ~rule:"constant-condition" ~path:s.s_path
                    (Printf.sprintf
                       "%s is statically always NULL (selects no rows)" label);
                ]
            | Const _ -> []
            | folded ->
                (* Beyond constant folding: ask the 3VL solver. The
                   scope stack supplies column types (innermost wins),
                   enabling integer bound tightening. Only [Proved] /
                   theorem-direction verdicts report; [Unknown] stays
                   silent (see DESIGN.md §12 on the asymmetry). *)
                let types n =
                  List.find_map
                    (fun sc ->
                      if Schema.mem sc n then Some (Schema.type_of_exn sc n)
                      else None)
                    env
                in
                let sctx = Symbolic.ctx ~types () in
                let consequence =
                  if label = "the outer-join condition" then
                    "every left row is null-extended"
                  else "the operator keeps no rows"
                in
                if Symbolic.satisfiable sctx folded = Symbolic.Refuted then
                  if Symbolic.falsifiable sctx folded = Symbolic.Refuted then
                    [
                      diag Warning ~rule:"condition-always-null" ~path:s.s_path
                        (Printf.sprintf
                           "%s evaluates to NULL on every row — %s" label
                           consequence);
                    ]
                  else
                    [
                      diag Warning ~rule:"contradictory-condition"
                        ~path:s.s_path
                        (Printf.sprintf
                           "%s can never be TRUE (proved contradictory) — %s"
                           label consequence);
                    ]
                else if Symbolic.always_true sctx folded = Symbolic.Proved then
                  [
                    diag Info ~rule:"tautological-condition" ~path:s.s_path
                      (Printf.sprintf
                         "%s is TRUE on every row — the filter is redundant"
                         label);
                  ]
                else []
          else []
        in
        let catch_all =
          if List.exists (fun d -> d.severity = Error) specifics then []
          else
            match infer e with
            | Ok _ -> []
            | Error (_, m)
              when String.length m >= 17
                   && String.sub m 0 17 = "unknown attribute" ->
                [] (* reported with candidates by check_names *)
            | Error (rule, m) ->
                [
                  diag Error ~rule ~path:s.s_path
                    (Printf.sprintf "%s (in %s)" m label);
                ]
        in
        specifics @ condition @ catch_all
      in
      List.concat_map check_one s.s_exprs

(* --- structure -------------------------------------------------------- *)

let duplicates names =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then true
      else begin
        Hashtbl.add seen n ();
        false
      end)
    names
  |> List.sort_uniq compare

let check_structure db (s : site) : diagnostic list =
  match s.s_query with
  | Base name when not (Database.mem db name) ->
      let hint =
        if Database.mem_view db name then
          " (it is a view — views are inlined by the analyzer, not evaluable \
           as Base)"
        else
          match Typecheck.did_you_mean name (Database.names db) with
          | [] -> ""
          | cands ->
              Printf.sprintf "; did you mean %s?"
                (String.concat " or " (List.map (Printf.sprintf "%S") cands))
      in
      [
        diag Error ~rule:"unknown-relation" ~path:s.s_path
          (Printf.sprintf "unknown base relation %S%s" name hint);
      ]
  | Project { cols; _ } -> (
      match duplicates (List.map snd cols) with
      | [] -> []
      | dups ->
          [
            diag Error ~rule:"duplicate-output" ~path:s.s_path
              (Printf.sprintf "duplicate output attribute name%s %s"
                 (if List.length dups > 1 then "s" else "")
                 (String.concat ", " (List.map (Printf.sprintf "%S") dups)));
          ])
  | Agg { group_by; aggs; _ } -> (
      match
        duplicates (List.map snd group_by @ List.map (fun c -> c.agg_name) aggs)
      with
      | [] -> []
      | dups ->
          [
            diag Error ~rule:"duplicate-output" ~path:s.s_path
              (Printf.sprintf "duplicate aggregation output name%s %s"
                 (if List.length dups > 1 then "s" else "")
                 (String.concat ", " (List.map (Printf.sprintf "%S") dups)));
          ])
  | Cross _ | Join _ | LeftJoin _ -> (
      match s.s_inputs with
      | Some [ sa; sb ] -> (
          let clash =
            List.filter (fun n -> Schema.mem sb n) (Schema.names sa)
          in
          match clash with
          | [] -> []
          | dups ->
              [
                diag Error ~rule:"duplicate-output" ~path:s.s_path
                  (Printf.sprintf
                     "join sides both produce attribute%s %s — the combined \
                      schema is ambiguous"
                     (if List.length dups > 1 then "s" else "")
                     (String.concat ", " (List.map (Printf.sprintf "%S") dups)));
              ])
      | _ -> [])
  | Union (_, _, _) | Inter (_, _, _) | Diff (_, _, _) -> (
      match s.s_inputs with
      | Some [ sa; sb ] when not (Schema.equal_types sa sb) ->
          [
            diag Error ~rule:"set-op-schema" ~path:s.s_path
              (Printf.sprintf
                 "set operation over incompatible schemas %s vs %s"
                 (Schema.to_string sa) (Schema.to_string sb));
          ]
      | _ -> [])
  | _ -> []

(* --- aggregates ------------------------------------------------------- *)

let aggregate_calls e =
  List.filter_map
    (function
      | FunCall (name, args) when Builtin.is_aggregate name -> Some (name, args)
      | _ -> None)
    (subexprs e)

let check_aggregates db (s : site) : diagnostic list =
  ignore db;
  let misuse context e =
    List.map
      (fun (name, _) ->
        diag Error ~rule:"aggregate-misuse" ~path:s.s_path
          (Printf.sprintf "aggregate function %s is not allowed in %s" name
             context))
      (aggregate_calls e)
  in
  match s.s_query with
  | Select (c, _) -> misuse "a selection condition" c
  | Join (c, _, _) | LeftJoin (c, _, _) -> misuse "a join condition" c
  | Project { cols; _ } ->
      List.concat_map
        (fun (e, n) -> misuse (Printf.sprintf "projection column %s" n) e)
        cols
  | Order (keys, _) ->
      List.concat_map (fun (e, _) -> misuse "an ORDER BY key" e) keys
  | Agg { group_by; aggs; _ } ->
      List.concat_map
        (fun (e, n) ->
          misuse (Printf.sprintf "group-by expression %s" n) e)
        group_by
      @ List.concat_map
          (fun c ->
            match c.agg_arg with
            | None -> []
            | Some arg ->
                List.concat_map
                  (fun (name, _) ->
                    [
                      diag Error ~rule:"aggregate-misuse" ~path:s.s_path
                        (Printf.sprintf
                           "aggregate %s nested inside the argument of \
                            aggregate %s"
                           name c.agg_name);
                    ])
                  (List.concat_map
                     (fun e -> aggregate_calls e)
                     [ arg ]))
          aggs
  | _ -> []

(* --- provenance-rewrite support --------------------------------------- *)

let check_rewrite_support db (s : site) : diagnostic list =
  ignore db;
  let sublinked label e =
    if has_sublink e then
      [
        diag Warning ~rule:"rewrite-unsupported" ~path:s.s_path
          (Printf.sprintf
             "sublinks in %s have no provenance rewrite — every strategy \
              rejects this plan"
             label);
      ]
    else []
  in
  match s.s_query with
  | Limit _ ->
      [
        diag Warning ~rule:"rewrite-unsupported" ~path:s.s_path
          "LIMIT has no provenance rewrite — every strategy rejects this plan";
      ]
  | Order (keys, _) ->
      List.concat_map (fun (e, _) -> sublinked "ORDER BY keys" e) keys
  | LeftJoin (c, _, _) -> sublinked "outer-join conditions" c
  | Agg { group_by; aggs; _ } ->
      List.concat_map (fun (e, _) -> sublinked "GROUP BY expressions" e) group_by
      @ List.concat_map
          (fun call ->
            match call.agg_arg with
            | Some e -> sublinked "aggregate arguments" e
            | None -> [])
          aggs
  | _ -> []

(* --- dataflow-backed semantic rules ------------------------------------ *)

(* These rules need facts that flow across operators (nullability of a
   sublink's column under its correlation scope, cardinality of a
   sublink query), so they run as one dedicated walk sharing a single
   {!Dataflow} handle instead of as per-site checks. Like [sites], it
   is a visitor of {!Algebra.Path.walk}, so diagnostics land on the same
   operator paths as every other rule. *)

let may_exceed_one = function
  | Dataflow.Fin n -> n > 1
  | Dataflow.Inf -> true

let check_semantics db q : diagnostic list =
  let dfa = Dataflow.create db in
  let acc = ref [] in
  Path.walk
    (fun here env q ->
      let input_fact =
        List.fold_left
          (fun f i -> Dataflow.concat_null f (Dataflow.nullability dfa ~env i))
          { Dataflow.n_names = []; n_maybe = [] }
          (inputs q)
      in
      let env' = input_fact :: env in
      let sub_column_nullable s =
        List.exists Fun.id
          (Dataflow.nullability dfa ~env:env' s.query).Dataflow.n_maybe
      in
      let null_trap form s lhs =
        let lhs_null = Dataflow.expr_nullable dfa ~env:env' lhs in
        let col_null = sub_column_nullable s in
        if lhs_null || col_null then begin
          let side =
            match (lhs_null, col_null) with
            | true, true -> "both the left-hand side and the sublink column"
            | true, false -> "the left-hand side"
            | _ -> "the sublink column"
          in
          acc :=
            diag Warning ~rule:"sublink-null-trap" ~path:here
              (Printf.sprintf
                 "%s where %s may be NULL: a single NULL makes the membership \
                  test UNKNOWN and silently rejects every row — filter with IS \
                  NOT NULL or use NOT EXISTS"
                 form side)
            :: !acc
        end
      in
      let check_expr e =
        List.iter
          (fun x ->
            match x with
            | Not (Sublink ({ kind = AnyOp (Eq, lhs); _ } as s)) ->
                null_trap "NOT IN" s lhs
            | Sublink ({ kind = AllOp (Neq, lhs); _ } as s) ->
                null_trap "<> ALL" s lhs
            | Sublink { kind = Scalar; query = sq; _ } ->
                let c = Dataflow.cardinality dfa sq in
                if may_exceed_one c.Dataflow.c_hi then
                  acc :=
                    diag Warning ~rule:"scalar-cardinality" ~path:here
                      (Format.asprintf
                         "scalar sublink may return %a rows — evaluation \
                          raises as soon as it returns more than one \
                          (aggregate the sublink or add LIMIT-like \
                          uniqueness)"
                         Dataflow.pp_card c)
                    :: !acc
            | _ -> ())
          (subexprs e)
      in
      List.iter check_expr (root_exprs q);
      env')
    [] q;
  List.rev !acc

(* --- statistics-backed estimate rules ---------------------------------- *)

(* These rules predict run-time blowups before execution from {!Stats}
   statistics, so a plan the Guard would kill can be flagged (and a
   cheaper strategy chosen) without paying for the failed run. One
   {!Estimate} handle serves the whole walk, another visitor of
   {!Algebra.Path.walk}. *)

let blowup_pairs = 1.0e6

let estimate_rules =
  [
    "estimate-cross-blowup"; "estimate-empty-result";
    "estimate-scalar-sublink-fanout";
  ]

let check_estimates db q : diagnostic list =
  let est = Estimate.create db in
  let acc = ref [] in
  let hashable c =
    List.exists
      (fun cj ->
        match cj with
        | Cmp ((Eq | EqNull), x, y) ->
            (not (has_sublink x)) && not (has_sublink y)
        | _ -> false)
      (conjuncts c)
  in
  Path.walk
    (fun here env q ->
      let input_facts = List.map (fun i -> Estimate.query est ~env i) (inputs q) in
      (match (q, input_facts) with
      | (Cross _ | Join _ | LeftJoin _), [ la; ra ] ->
          let enumerated =
            match q with
            | Join (c, _, _) | LeftJoin (c, _, _) -> not (hashable c)
            | _ -> true
          in
          let pairs = la.Estimate.e_rows *. ra.Estimate.e_rows in
          (* the operator's own estimated work: its cumulative cost minus
             its inputs' — candidate pairs plus per-pair sublink
             evaluation, which dwarfs the raw pair count when the join
             condition carries sublinks *)
          let own_work =
            (Estimate.query est ~env q).Estimate.e_cost
            -. la.Estimate.e_cost -. ra.Estimate.e_cost
          in
          if enumerated && (pairs > blowup_pairs || own_work > blowup_pairs)
          then
            acc :=
              diag Warning ~rule:"estimate-cross-blowup" ~path:here
                (Printf.sprintf
                   "estimated %.3g candidate pairs (%.3g tuples of work) with \
                    no hashable equality — this operator enumerates them all \
                    and a Guard pair budget would trip; prefer a cheaper \
                    strategy or add a join predicate"
                   pairs (Float.max pairs own_work))
              :: !acc
      | _ -> ());
      let env' = Estimate.concat_facts input_facts :: env in
      List.iter
        (fun e ->
          List.iter
            (fun x ->
              match x with
              | Sublink { kind = Scalar; query = sq; _ } ->
                  let r = (Estimate.query est ~env:env' sq).Estimate.e_rows in
                  if r > 1.0 +. 1e-9 then
                    acc :=
                      diag Warning ~rule:"estimate-scalar-sublink-fanout"
                        ~path:here
                        (Printf.sprintf
                           "scalar sublink estimated to return ~%.3g rows — \
                            evaluation raises as soon as it returns more than \
                            one (aggregate the sublink or make its filter a \
                            key lookup)"
                           r)
                      :: !acc
              | _ -> ())
            (subexprs e))
        (root_exprs q);
      env')
    [] q;
  (* root emptiness: only meaningful over nonempty stored inputs —
     otherwise an empty base table would warn on every plan over it *)
  let bases = base_relations q in
  let nonempty_inputs =
    bases <> []
    && List.for_all
         (fun n ->
           match Database.find_opt db n with
           | Some r -> Relation.cardinality r > 0
           | None -> false)
         bases
  in
  if nonempty_inputs && (Estimate.query est q).Estimate.e_rows = 0.0 then
    acc :=
      diag Warning ~rule:"estimate-empty-result" ~path:(Path.here [] q)
        "the estimator predicts zero result rows: a predicate is \
         unsatisfiable or outside the stored data's value range"
      :: !acc;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let all_checks =
  [ check_structure; check_names; check_types; check_aggregates; check_rewrite_support ]

let compare_diag a b =
  match compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 -> compare (a.path, a.rule, a.message) (b.path, b.rule, b.message)
  | c -> c

let lint ?rules:(enabled = List.map fst rules) db q : diagnostic list =
  let ss = sites db q in
  let semantic =
    (* only pay for the dataflow pass when a semantic rule is enabled *)
    if
      List.mem "sublink-null-trap" enabled
      || List.mem "scalar-cardinality" enabled
    then check_semantics db q
    else []
  in
  let estimated =
    (* likewise, the statistics pass only when an estimate rule is on *)
    if List.exists (fun r -> List.mem r enabled) estimate_rules then
      check_estimates db q
    else []
  in
  List.concat_map (fun check -> List.concat_map (check db) ss) all_checks
  @ semantic @ estimated
  |> List.filter (fun d -> List.mem d.rule enabled)
  |> List.sort_uniq compare_diag

let errors diags = List.filter (fun d -> d.severity = Error) diags

exception Lint_error of diagnostic list

let report diags = String.concat "\n" (List.map diagnostic_to_string diags)

let fail_on ?(werror = false) diags =
  let offending =
    List.filter
      (fun d -> d.severity = Error || (werror && d.severity = Warning))
      diags
  in
  if offending <> [] then raise (Lint_error offending)

let () =
  Printexc.register_printer (function
    | Lint_error diags ->
        Some (Printf.sprintf "Lint_error:\n%s" (report diags))
    | _ -> None)
