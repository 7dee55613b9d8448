(* Plan-linter and provenance-contract tests.

   The core of this file is a mutation harness: known-good plans and
   rewrite results get one defect injected each — a dropped provenance
   column, a reordered prefix, a strategy applied outside its
   preconditions, a CrossBase scan replaced by a plain scan, ... — and
   the harness asserts that the lint / provcheck rules flag exactly
   that defect, at the operator path where it was injected.

   The second half is workload coverage: every TPC-H and synthetic
   workload query must produce zero error-severity diagnostics, and
   every applicable strategy's rewrite must satisfy the provenance
   contract. *)

open Relalg
open Core
open Algebra

let i n = Value.Int n

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* r(a,b int), s(c,d int), t(u string, v int) *)
let db () =
  let r_schema =
    Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt ]
  in
  let s_schema =
    Schema.of_list [ Schema.attr "c" Vtype.TInt; Schema.attr "d" Vtype.TInt ]
  in
  let t_schema =
    Schema.of_list [ Schema.attr "u" Vtype.TString; Schema.attr "v" Vtype.TInt ]
  in
  Database.of_list
    [
      ("r", Relation.of_values r_schema [ [ i 1; i 1 ]; [ i 2; i 1 ]; [ i 3; i 2 ] ]);
      ("s", Relation.of_values s_schema [ [ i 1; i 3 ]; [ i 2; i 4 ]; [ i 4; i 5 ] ]);
      ("t", Relation.of_values t_schema [ [ Value.String "x"; i 1 ] ]);
    ]

(* The reference query for the provenance-contract mutations. *)
let q0 =
  Select (any_op Eq (attr "a") (project [ (attr "c", "c") ] (Base "s")), Base "r")

(* ------------------------------------------------------------------ *)
(* Assertion helpers                                                    *)
(* ------------------------------------------------------------------ *)

let flagged name ~rule ~path diags =
  let hit =
    List.exists
      (fun d -> d.Lint.rule = rule && d.Lint.path = path)
      diags
  in
  if not hit then
    Alcotest.failf "%s: expected %s at %s, got:\n%s" name rule
      (Algebra.Path.to_string path)
      (if diags = [] then "(no diagnostics)" else Lint.report diags)

let no_errors name diags =
  match Lint.errors diags with
  | [] -> ()
  | errs -> Alcotest.failf "%s: unexpected errors:\n%s" name (Lint.report errs)

(* ------------------------------------------------------------------ *)
(* Mutations caught by the lint rules                                   *)
(* ------------------------------------------------------------------ *)

let test_unresolved_in_sublink () =
  (* misspelled correlated attribute inside a sublink: flagged at the
     sublink's Select, with a did-you-mean hint *)
  let q =
    Select
      (exists (Select (Cmp (Eq, attr "c", attr "aa"), Base "s")), Base "r")
  in
  let diags = Lint.lint (db ()) q in
  flagged "unresolved" ~rule:"unresolved-attribute"
    ~path:[ "Select"; "sublink[1]"; "Select" ]
    diags;
  let d =
    List.find (fun d -> d.Lint.rule = "unresolved-attribute") diags
  in
  Alcotest.(check bool)
    "has did-you-mean" true
    (contains_substring ~sub:"did you mean" d.Lint.message)

let test_duplicate_output () =
  let q = project [ (attr "a", "x"); (attr "b", "x") ] (Base "r") in
  flagged "duplicate" ~rule:"duplicate-output" ~path:[ "Project" ]
    (Lint.lint (db ()) q)

let test_join_side_clash () =
  let q = Cross (Base "r", Base "r") in
  flagged "join clash" ~rule:"duplicate-output" ~path:[ "Cross" ]
    (Lint.lint (db ()) q)

let test_incomparable_types () =
  let q = Select (Cmp (Eq, attr "u", Algebra.int 1), Base "t") in
  flagged "incomparable" ~rule:"incomparable-types" ~path:[ "Select" ]
    (Lint.lint (db ()) q)

let test_aggregate_misuse () =
  let q =
    Select (Cmp (Gt, FunCall ("sum", [ attr "a" ]), Algebra.int 1), Base "r")
  in
  flagged "aggregate in WHERE" ~rule:"aggregate-misuse" ~path:[ "Select" ]
    (Lint.lint (db ()) q)

let test_div_by_zero () =
  let q =
    project [ (Binop (Div, attr "a", Algebra.int 0), "x") ] (Base "r")
  in
  flagged "div by zero" ~rule:"div-by-zero" ~path:[ "Project" ]
    (Lint.lint (db ()) q)

let test_null_comparison () =
  let q = Select (Cmp (Eq, attr "a", Const Value.Null), Base "r") in
  flagged "null comparison" ~rule:"null-comparison" ~path:[ "Select" ]
    (Lint.lint (db ()) q);
  (* the null-aware =n of the rewrites must NOT be flagged *)
  let ok = Select (Cmp (EqNull, attr "a", Const Value.Null), Base "r") in
  Alcotest.(check bool)
    "=n not flagged" false
    (List.exists
       (fun d -> d.Lint.rule = "null-comparison")
       (Lint.lint (db ()) ok))

let test_constant_condition () =
  let q = Select (Cmp (Lt, Algebra.int 2, Algebra.int 1), Base "r") in
  flagged "always false" ~rule:"constant-condition" ~path:[ "Select" ]
    (Lint.lint (db ()) q)

let test_contradictory_condition () =
  (* beyond constant folding: needs the solver's interval domain *)
  let q =
    Select
      ( And
          (Cmp (Lt, attr "a", Algebra.int 1), Cmp (Gt, attr "a", Algebra.int 5)),
        Base "r" )
  in
  flagged "interval contradiction" ~rule:"contradictory-condition"
    ~path:[ "Select" ]
    (Lint.lint (db ()) q);
  (* integer bound tightening via the scope's column type: no integer
     lies strictly between 1 and 2 *)
  let q2 =
    Select
      ( And
          (Cmp (Gt, attr "a", Algebra.int 1), Cmp (Lt, attr "a", Algebra.int 2)),
        Base "r" )
  in
  flagged "integer gap" ~rule:"contradictory-condition" ~path:[ "Select" ]
    (Lint.lint (db ()) q2)

let test_tautological_condition () =
  (* =n is two-valued, so excluded middle over it really is a tautology *)
  let p = Cmp (EqNull, attr "a", Algebra.int 1) in
  let q = Select (Or (p, Not p), Base "r") in
  flagged "two-valued excluded middle" ~rule:"tautological-condition"
    ~path:[ "Select" ]
    (Lint.lint (db ()) q);
  (* ... but over a three-valued comparison it is NULL on NULL rows,
     hence NOT tautological — the solver must not over-claim *)
  let p3 = Cmp (Gt, attr "a", Algebra.int 1) in
  let q3 = Select (Or (p3, Not p3), Base "r") in
  Alcotest.(check bool)
    "3VL excluded middle not flagged" false
    (List.exists
       (fun d -> d.Lint.rule = "tautological-condition")
       (Lint.lint (db ()) q3))

let test_condition_always_null () =
  (* a = NULL is UNKNOWN on every row; not constant-foldable because
     the left side is a column *)
  let q = Select (Cmp (Eq, attr "a", Const Value.Null), Base "r") in
  flagged "always null" ~rule:"condition-always-null" ~path:[ "Select" ]
    (Lint.lint (db ()) q)

let test_unknown_relation () =
  flagged "unknown relation" ~rule:"unknown-relation" ~path:[ "Base(nosuch)" ]
    (Lint.lint (db ()) (Base "nosuch"))

let test_set_op_schema () =
  let q = Union (Bag, Base "r", Base "t") in
  flagged "set op" ~rule:"set-op-schema" ~path:[ "Union" ]
    (Lint.lint (db ()) q)

let test_limit_unsupported () =
  let q = Limit (2, Base "r") in
  flagged "limit" ~rule:"rewrite-unsupported" ~path:[ "Limit" ]
    (Lint.lint (db ()) q)

let test_shadowed_attribute () =
  (* the sublink exposes "a", hiding the correlation attribute "a" of
     the enclosing scope *)
  let q =
    Select
      ( exists
          (Select
             (Cmp (Eq, attr "a", Algebra.int 1),
              project [ (attr "c", "a") ] (Base "s"))),
        Base "r" )
  in
  flagged "shadowed" ~rule:"shadowed-attribute"
    ~path:[ "Select"; "sublink[1]"; "Select" ]
    (Lint.lint (db ()) q)

let test_suspicious_like () =
  let q = Select (Like (attr "u", "x"), Base "t") in
  flagged "like without wildcard" ~rule:"suspicious-like" ~path:[ "Select" ]
    (Lint.lint (db ()) q)

(* ------------------------------------------------------------------ *)
(* Mutations caught by the provenance-contract rules                    *)
(* ------------------------------------------------------------------ *)

let rewrite_q0 strategy = Rewrite.rewrite (db ()) ~strategy q0

let mutate_root_cols f q =
  match q with
  | Project p -> Project { p with cols = f p.cols }
  | _ -> Alcotest.fail "rewrite root is not a projection"

let test_dropped_prov_column () =
  let q_plus, provs = rewrite_q0 Strategy.Gen in
  let mutated =
    mutate_root_cols (fun cols -> List.filteri (fun i _ -> i < List.length cols - 1) cols) q_plus
  in
  flagged "dropped prov column" ~rule:"prov-schema" ~path:[]
    (Provcheck.contract (db ()) ~original:q0 mutated provs)

let test_reordered_prefix () =
  let q_plus, provs = rewrite_q0 Strategy.Gen in
  let mutated =
    mutate_root_cols
      (function c0 :: c1 :: rest -> c1 :: c0 :: rest | cols -> cols)
      q_plus
  in
  let diags = Provcheck.contract (db ()) ~original:q0 mutated provs in
  flagged "reordered prefix" ~rule:"prov-prefix" ~path:[] diags

let test_renamed_prefix () =
  (* renaming breaks identity pass-through even though arity is kept *)
  let q_plus, provs = rewrite_q0 Strategy.Gen in
  let mutated =
    mutate_root_cols
      (function (e, _) :: rest -> (e, "renamed") :: rest | cols -> cols)
      q_plus
  in
  flagged "renamed prefix" ~rule:"prov-prefix" ~path:[]
    (Provcheck.contract (db ()) ~original:q0 mutated provs)

let test_reordered_provs () =
  let q_plus, provs = rewrite_q0 Strategy.Gen in
  flagged "reordered provs" ~rule:"prov-order" ~path:[]
    (Provcheck.contract (db ()) ~original:q0 q_plus (List.rev provs))

let test_missing_crossbase () =
  let q_plus, _provs = rewrite_q0 Strategy.Gen in
  (* replace every NULL-extended CrossBase union by a plain scan *)
  let rec strip q =
    match q with
    | Union (Bag, Base r, TableExpr _) -> Base r
    | q -> map_queries strip q
  in
  flagged "missing crossbase" ~rule:"gen-crossbase" ~path:[]
    (Provcheck.gen_crossbase ~original:q0 (strip q_plus))

let test_left_on_correlated () =
  let q =
    Select (exists (Select (Cmp (Eq, attr "c", attr "a"), Base "s")), Base "r")
  in
  flagged "Left on correlated" ~rule:"strategy-precondition"
    ~path:[ "Select"; "sublink[1]" ]
    (Provcheck.precondition (db ()) ~strategy:Strategy.Left q);
  flagged "Move on correlated" ~rule:"strategy-precondition"
    ~path:[ "Select"; "sublink[1]" ]
    (Provcheck.precondition (db ()) ~strategy:Strategy.Move q)

let test_unn_on_all_sublink () =
  let q =
    Select
      ( all_op Eq (attr "a") (project [ (attr "c", "c") ] (Base "s")),
        Base "r" )
  in
  flagged "Unn on ALL" ~rule:"strategy-precondition" ~path:[ "Select" ]
    (Provcheck.precondition (db ()) ~strategy:Strategy.Unn q)

let test_unn_nondecorrelatable () =
  (* inequality correlation: Unn+ cannot de-correlate *)
  let q =
    Select (exists (Select (Cmp (Lt, attr "c", attr "a"), Base "s")), Base "r")
  in
  flagged "Unn non-decorrelatable" ~rule:"strategy-precondition"
    ~path:[ "Select" ]
    (Provcheck.precondition (db ()) ~strategy:Strategy.Unn q)

let test_optimizer_schema_change () =
  let q_plus, _ = rewrite_q0 Strategy.Gen in
  let truncated = project [ (attr "a", "a") ] q_plus in
  flagged "optimizer schema change" ~rule:"optimizer-schema" ~path:[]
    (Provcheck.optimizer_guard (db ()) ~before:q_plus truncated)

let test_optimizer_diag_regression () =
  let q_plus, _ = rewrite_q0 Strategy.Gen in
  let broken = Select (Cmp (Eq, attr "does_not_exist", Algebra.int 1), q_plus) in
  flagged "optimizer diagnostic regression" ~rule:"optimizer-diagnostics"
    ~path:[]
    (Provcheck.optimizer_guard (db ()) ~before:q_plus broken)

(* Preconditions must agree with the rewriter: over a small battery of
   queries, [precondition = []] exactly when the rewrite succeeds. *)
let test_precondition_agreement () =
  let battery =
    [
      q0;
      Select (exists (Select (Cmp (Eq, attr "c", attr "a"), Base "s")), Base "r");
      Select (exists (Select (Cmp (Lt, attr "c", attr "a"), Base "s")), Base "r");
      Select (Not (exists (project [ (attr "c", "c") ] (Base "s"))), Base "r");
      Select
        (all_op Eq (attr "a") (project [ (attr "c", "c") ] (Base "s")), Base "r");
      project
        [ (scalar (project [ (attr "c", "c") ] (Base "s")), "sc"); (attr "a", "a") ]
        (Base "r");
    ]
  in
  List.iteri
    (fun qi q ->
      List.iter
        (fun strategy ->
          let pre = Provcheck.precondition (db ()) ~strategy q in
          let rewrites =
            match Rewrite.rewrite (db ()) ~strategy q with
            | _ -> true
            | exception Strategy.Unsupported _ -> false
          in
          Alcotest.(check bool)
            (Printf.sprintf "battery[%d] %s: precondition agrees" qi
               (Strategy.to_string strategy))
            rewrites (pre = []))
        Strategy.all)
    battery

(* ------------------------------------------------------------------ *)
(* Clean plans stay clean                                               *)
(* ------------------------------------------------------------------ *)

let test_unmutated_clean () =
  let db = db () in
  no_errors "q0 source" (Lint.lint db q0);
  List.iter
    (fun strategy ->
      match Rewrite.rewrite db ~strategy q0 with
      | q_plus, provs ->
          let optimized = Optimizer.optimize db q_plus in
          let diags =
            Provcheck.check db ~strategy ~optimized ~original:q0 (q_plus, provs)
          in
          no_errors
            ("q0 contract under " ^ Strategy.to_string strategy)
            diags;
          no_errors
            ("q0 plan lint under " ^ Strategy.to_string strategy)
            (Lint.lint ~rules:Lint.plan_rules db optimized)
      | exception Strategy.Unsupported _ -> ())
    Strategy.all

let test_perm_lint_gate () =
  let db = db () in
  (* the gate accepts a clean provenance query end to end ... *)
  let rel, _ =
    Perm.provenance db ~strategy:Strategy.Gen ~lint:true ~werror:true q0
  in
  Alcotest.(check bool) "gate passes" true (Relation.cardinality rel > 0);
  (* ... and rejects a defective plan before evaluating it *)
  (match
     Perm.run_query db ~lint:true ~provenance:false
       (Select (Cmp (Eq, attr "a", attr "zz"), Base "r"))
   with
  | _ -> Alcotest.fail "expected Lint_error"
  | exception Resilience.Perm_error { e_detail = Resilience.Lint diags; _ } ->
      flagged "gate rejection" ~rule:"unresolved-attribute" ~path:[ "Select" ]
        diags);
  (* werror escalates warnings *)
  match Perm.run_query db ~lint:true ~werror:true ~provenance:false (Limit (1, Base "r")) with
  | _ -> Alcotest.fail "expected Lint_error under werror"
  | exception Resilience.Perm_error { e_detail = Resilience.Lint _; _ } -> ()

(* ------------------------------------------------------------------ *)
(* Workload coverage: TPC-H and synthetic queries lint clean            *)
(* ------------------------------------------------------------------ *)

let tpch_db = lazy (Tpch.Tpch_gen.generate ~seed:11 ~sf:0.01 ())

let check_workload_query name db q =
  no_errors (name ^ " source") (Lint.lint db q);
  List.iter
    (fun strategy ->
      match Rewrite.rewrite db ~strategy q with
      | q_plus, provs ->
          let optimized = Optimizer.optimize db q_plus in
          no_errors
            (Printf.sprintf "%s contract under %s" name
               (Strategy.to_string strategy))
            (Provcheck.check db ~strategy ~optimized ~original:q (q_plus, provs));
          no_errors
            (Printf.sprintf "%s plan lint under %s" name
               (Strategy.to_string strategy))
            (Lint.lint ~rules:Lint.plan_rules db optimized)
      | exception Strategy.Unsupported _ -> ())
    Strategy.all

let test_tpch_workload_lints_clean () =
  let db = Lazy.force tpch_db in
  List.iter
    (fun n ->
      let q = Tpch.Tpch_queries.instantiate ~seed:5 n in
      let analyzed =
        Sql_frontend.Analyzer.analyze_string db q.Tpch.Tpch_queries.sql
      in
      check_workload_query
        (Printf.sprintf "Q%d" n)
        db analyzed.Sql_frontend.Analyzer.query)
    Tpch.Tpch_queries.numbers

let test_tpch_standard_lints_clean () =
  let db = Lazy.force tpch_db in
  List.iter
    (fun n ->
      let q = Tpch.Tpch_queries.instantiate_standard ~seed:5 n in
      let analyzed =
        Sql_frontend.Analyzer.analyze_string db q.Tpch.Tpch_queries.sql
      in
      check_workload_query
        (Printf.sprintf "std Q%d" n)
        db analyzed.Sql_frontend.Analyzer.query)
    Tpch.Tpch_queries.standard_numbers

let test_synthetic_workload_lints_clean () =
  let db = Synthetic.Workload.make_db ~seed:3 ~n1:50 ~n2:50 () in
  let q1 = Synthetic.Workload.q1 ~seed:3 ~n1:50 ~n2:50 () in
  let q2 = Synthetic.Workload.q2 ~seed:3 ~n1:50 ~n2:50 () in
  check_workload_query "synthetic q1" db q1.Synthetic.Workload.query;
  check_workload_query "synthetic q2" db q2.Synthetic.Workload.query

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lint"
    [
      ( "lint-mutations",
        [
          Alcotest.test_case "unresolved attribute in sublink" `Quick
            test_unresolved_in_sublink;
          Alcotest.test_case "duplicate output names" `Quick test_duplicate_output;
          Alcotest.test_case "join side clash" `Quick test_join_side_clash;
          Alcotest.test_case "incomparable comparison" `Quick
            test_incomparable_types;
          Alcotest.test_case "aggregate misuse" `Quick test_aggregate_misuse;
          Alcotest.test_case "division by constant zero" `Quick test_div_by_zero;
          Alcotest.test_case "null comparison" `Quick test_null_comparison;
          Alcotest.test_case "constant condition" `Quick test_constant_condition;
          Alcotest.test_case "contradictory condition" `Quick
            test_contradictory_condition;
          Alcotest.test_case "tautological condition" `Quick
            test_tautological_condition;
          Alcotest.test_case "condition always NULL" `Quick
            test_condition_always_null;
          Alcotest.test_case "unknown relation" `Quick test_unknown_relation;
          Alcotest.test_case "set-op schema mismatch" `Quick test_set_op_schema;
          Alcotest.test_case "LIMIT unsupported" `Quick test_limit_unsupported;
          Alcotest.test_case "shadowed attribute" `Quick test_shadowed_attribute;
          Alcotest.test_case "suspicious LIKE" `Quick test_suspicious_like;
        ] );
      ( "provcheck-mutations",
        [
          Alcotest.test_case "dropped provenance column" `Quick
            test_dropped_prov_column;
          Alcotest.test_case "reordered prefix" `Quick test_reordered_prefix;
          Alcotest.test_case "renamed prefix" `Quick test_renamed_prefix;
          Alcotest.test_case "reordered provenance relations" `Quick
            test_reordered_provs;
          Alcotest.test_case "missing CrossBase" `Quick test_missing_crossbase;
          Alcotest.test_case "Left/Move on correlated sublink" `Quick
            test_left_on_correlated;
          Alcotest.test_case "Unn on ALL sublink" `Quick test_unn_on_all_sublink;
          Alcotest.test_case "Unn on non-decorrelatable EXISTS" `Quick
            test_unn_nondecorrelatable;
          Alcotest.test_case "optimizer schema change" `Quick
            test_optimizer_schema_change;
          Alcotest.test_case "optimizer diagnostic regression" `Quick
            test_optimizer_diag_regression;
          Alcotest.test_case "precondition agrees with rewriter" `Quick
            test_precondition_agreement;
        ] );
      ( "clean",
        [
          Alcotest.test_case "unmutated plans lint clean" `Quick
            test_unmutated_clean;
          Alcotest.test_case "Perm lint gate" `Quick test_perm_lint_gate;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "TPC-H sublink queries" `Slow
            test_tpch_workload_lints_clean;
          Alcotest.test_case "TPC-H standard queries" `Slow
            test_tpch_standard_lints_clean;
          Alcotest.test_case "synthetic workload" `Quick
            test_synthetic_workload_lints_clean;
        ] );
    ]
