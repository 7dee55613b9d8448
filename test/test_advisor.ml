(* Cost-model advisor and provenance-analysis utilities. *)

open Relalg
open Core

let i n = Value.Int n

let db () =
  let r_schema =
    Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt ]
  in
  let s_schema =
    Schema.of_list [ Schema.attr "c" Vtype.TInt; Schema.attr "d" Vtype.TInt ]
  in
  Database.of_list
    [
      ( "R",
        Relation.of_values r_schema [ [ i 1; i 1 ]; [ i 2; i 1 ]; [ i 3; i 2 ] ] );
      ( "S",
        Relation.of_values s_schema [ [ i 1; i 3 ]; [ i 2; i 4 ]; [ i 4; i 5 ] ] );
    ]

let any_eq_query () =
  Algebra.(
    Select (any_op Eq (attr "a") (project [ (attr "c", "c") ] (Base "S")), Base "R"))

(* ------------------------------------------------------------------ *)
(* Strategy ranking                                                     *)
(* ------------------------------------------------------------------ *)

let test_gen_costed_highest () =
  (* On a larger instance, the model must rank Gen's CrossBase plan as
     the most expensive. *)
  let db = Synthetic.Workload.make_db ~seed:4 ~n1:500 ~n2:200 () in
  let q = (Synthetic.Workload.q1 ~seed:4 ~n1:500 ~n2:200 ()).Synthetic.Workload.query in
  let ests = Advisor.estimates db q in
  Alcotest.(check int) "four strategies" 4 (List.length ests);
  let last = List.nth ests (List.length ests - 1) in
  Alcotest.(check string)
    "gen is the most expensive" "gen"
    (Strategy.to_string last.Advisor.est_strategy)

let test_choose_avoids_gen_when_possible () =
  let db = Synthetic.Workload.make_db ~seed:4 ~n1:500 ~n2:200 () in
  let q = (Synthetic.Workload.q1 ~seed:4 ~n1:500 ~n2:200 ()).Synthetic.Workload.query in
  Alcotest.(check bool)
    "not gen" true
    (Advisor.choose db q <> Strategy.Gen)

let test_choose_falls_back_to_gen () =
  let db = db () in
  (* correlated non-equality ALL-sublink: only Gen applies *)
  let q =
    Algebra.(
      Select
        ( all_op Lt (attr "a")
            (Select (Cmp (Gt, attr "d", attr "b"), project [ (attr "c", "c"); (attr "d", "d") ] (Base "S"))
             |> fun inner -> project [ (attr "c", "c") ] inner),
          Base "R" ))
  in
  Alcotest.(check string)
    "gen" "gen"
    (Strategy.to_string (Advisor.choose db q))

let test_unn_symbolic_safety () =
  (* S.c contains a NULL, so the dataflow lattice reports the sublink
     column maybe-NULL; a selection inside the sublink that filters
     NULLs must flip the verdict via the symbolic implication proof *)
  let s_schema =
    Schema.of_list [ Schema.attr "c" Vtype.TInt; Schema.attr "d" Vtype.TInt ]
  in
  let r_schema =
    Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt ]
  in
  let db =
    Database.of_list
      [
        ("R", Relation.of_values r_schema [ [ i 1; i 1 ]; [ i 2; i 1 ] ]);
        ( "S",
          Relation.of_values s_schema
            [ [ i 1; i 3 ]; [ Value.Null; i 4 ]; [ i 4; i 5 ] ] );
      ]
  in
  let q sub =
    Algebra.(Select (any_op Eq (attr "a") sub, Base "R"))
  in
  let unfiltered = Algebra.(project [ (attr "c", "c") ] (Base "S")) in
  Alcotest.(check bool)
    "nullable column unsafe" false
    (Advisor.unn_equi_safe db (q unfiltered));
  let is_not_null =
    Algebra.(
      project
        [ (attr "c", "c") ]
        (Select (Not (IsNull (attr "c")), Base "S")))
  in
  Alcotest.(check bool)
    "IS NOT NULL filter proves safe" true
    (Advisor.unn_equi_safe db (q is_not_null));
  let positive =
    Algebra.(
      project [ (attr "c", "c") ] (Select (gt (attr "c") (int 0), Base "S")))
  in
  Alcotest.(check bool)
    "comparison filter proves safe" true
    (Advisor.unn_equi_safe db (q positive));
  (* a filter on the *other* column proves nothing about c *)
  let unrelated =
    Algebra.(
      project [ (attr "c", "c") ] (Select (gt (attr "d") (int 0), Base "S")))
  in
  Alcotest.(check bool)
    "unrelated filter stays unsafe" false
    (Advisor.unn_equi_safe db (q unrelated))

let test_advisor_run () =
  let db = db () in
  Database.add db "r" (Database.find db "R");
  Database.add db "s" (Database.find db "S");
  let strategy, result =
    Advisor.run db "SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s)"
  in
  Alcotest.(check bool)
    "picked an applicable strategy" true
    (List.mem strategy Strategy.all);
  Alcotest.(check int) "rows" 2 (Relation.cardinality result.Perm.relation);
  (* result identical to every fixed strategy *)
  let fixed =
    (Perm.run db ~strategy:Strategy.Gen
       "SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s)").Perm.relation
  in
  Alcotest.(check bool)
    "same provenance" true
    (Relation.equal_set result.Perm.relation fixed)

(* The fallback ladder degrades in the static order Unn -> Move -> Left
   -> Gen even in a program that links the Advisor, on TPC-H queries
   where the Advisor's cost ranking differs from that order. *)
let test_ladder_order_static () =
  let db = Tpch.Tpch_gen.generate ~sf:0.01 () in
  List.iter
    (fun n ->
      let sql = (Tpch.Tpch_queries.instantiate ~seed:100 n).Tpch.Tpch_queries.sql in
      let q = (Sql_frontend.Analyzer.analyze_string db sql).Sql_frontend.Analyzer.query in
      let static =
        List.filter
          (fun strategy ->
            match Rewrite.rewrite db ~strategy q with
            | _ -> true
            | exception Strategy.Unsupported _ -> false)
          [ Strategy.Unn; Strategy.Move; Strategy.Left; Strategy.Gen ]
      in
      let names = List.map Strategy.to_string in
      let label = Printf.sprintf "Q%d" n in
      Alcotest.(check bool)
        (label ^ ": cost ranking differs from the static order")
        true
        (List.map (fun e -> e.Advisor.est_strategy) (Advisor.estimates db q)
        <> static);
      Alcotest.(check (list string))
        (label ^ ": ladder order") (names static)
        (names (!Resilience.strategy_ranking db q)))
    [ 11; 16 ]

(* [estimates] is sorted by safety first, then cost; equal costs keep
   [Strategy.all] order. *)
let prop_estimates_order =
  let key e =
    ( not e.Advisor.est_safe,
      e.Advisor.est_cost,
      List.find_index (( = ) e.Advisor.est_strategy) Strategy.all )
  in
  QCheck.Test.make ~name:"estimates tie order" ~count:1000
    QCheck.(int_bound 19_999)
    (fun seed ->
      let case = Fuzz.Qgen.case_of_seed seed in
      let db = Fuzz.Qgen.database case in
      match Sql_frontend.Analyzer.analyze db case.Fuzz.Qgen.c_select with
      | exception _ -> QCheck.assume_fail ()
      | analyzed ->
          let rec sorted = function
            | a :: (b :: _ as rest) -> compare (key a) (key b) < 0 && sorted rest
            | _ -> true
          in
          sorted (Advisor.estimates db analyzed.Sql_frontend.Analyzer.query))

(* advisor choices always produce the same provenance as Gen on random
   queries (reusing a small generator) *)
let prop_advisor_correct =
  let gen =
    QCheck.Gen.(
      pair (list_size (1 -- 4) (pair (0 -- 3) (0 -- 3)))
        (list_size (1 -- 4) (pair (0 -- 3) (0 -- 3))))
  in
  QCheck.Test.make ~name:"advisor choice agrees with Gen" ~count:100
    (QCheck.make gen) (fun (rs, ss) ->
      let r_schema =
        Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt ]
      in
      let s_schema =
        Schema.of_list [ Schema.attr "c" Vtype.TInt; Schema.attr "d" Vtype.TInt ]
      in
      let db =
        Database.of_list
          [
            ( "R",
              Relation.of_values r_schema
                (List.map (fun (x, y) -> [ i x; i y ]) (List.sort_uniq compare rs)) );
            ( "S",
              Relation.of_values s_schema
                (List.map (fun (x, y) -> [ i x; i y ]) (List.sort_uniq compare ss)) );
          ]
      in
      let q = any_eq_query () in
      let strategy = Advisor.choose db q in
      let chosen = fst (Perm.provenance db ~strategy q) in
      let gen = fst (Perm.provenance db ~strategy:Strategy.Gen q) in
      Relation.equal_set chosen gen)

(* ------------------------------------------------------------------ *)
(* Analysis: influence and DOT                                          *)
(* ------------------------------------------------------------------ *)

let test_influence () =
  let db = db () in
  (* q2 of Figure 3: every R tuple witnesses the single result row *)
  let q =
    Algebra.(
      Select (all_op Gt (attr "c") (project [ (attr "a", "a") ] (Base "R")), Base "S"))
  in
  let rel, provs = Perm.provenance db q in
  let inf = Analysis.influence db q rel provs in
  (* witnesses: 1 S tuple + 3 R tuples, each in exactly 1 result *)
  Alcotest.(check int) "four witnesses" 4 (List.length inf);
  List.iter
    (fun e -> Alcotest.(check int) "each in one result" 1 e.Analysis.inf_count)
    inf;
  let report = Analysis.influence_report db q rel provs in
  Alcotest.(check bool) "report mentions R" true
    (String.length report > 0
    && (try
          ignore (Str.search_forward (Str.regexp_string "R") report 0);
          true
        with Not_found -> false))

let test_influence_counts_distinct_results () =
  let db = db () in
  (* EXISTS over a fixed sublink: both surviving R rows share the same
     S witnesses, so each S witness counts 2 results *)
  let q =
    Algebra.(Select (exists (Select (lt (attr "c") (int 3), Base "S")), Base "R"))
  in
  let rel, provs = Perm.provenance db q in
  let inf = Analysis.influence db q rel provs in
  let s_entries = List.filter (fun e -> e.Analysis.inf_relation = "S") inf in
  Alcotest.(check int) "two S witnesses" 2 (List.length s_entries);
  List.iter
    (fun e -> Alcotest.(check int) "in all three results" 3 e.Analysis.inf_count)
    s_entries

let test_dot_export () =
  let db = db () in
  let q = any_eq_query () in
  let rel, provs = Perm.provenance db q in
  let dot = Analysis.to_dot db q rel provs in
  let contains needle =
    try
      ignore (Str.search_forward (Str.regexp_string needle) dot 0);
      true
    with Not_found -> false
  in
  Alcotest.(check bool) "digraph" true (contains "digraph provenance");
  Alcotest.(check bool) "cluster R" true (contains "cluster_R");
  Alcotest.(check bool) "cluster S" true (contains "cluster_S");
  Alcotest.(check bool) "edges" true (contains "->");
  (* 2 result nodes, 2 R witnesses, 2 S witnesses -> 4 edges *)
  let count needle =
    let re = Str.regexp_string needle in
    let rec go pos acc =
      match Str.search_forward re dot pos with
      | pos' -> go (pos' + 1) (acc + 1)
      | exception Not_found -> acc
    in
    go 0 0
  in
  Alcotest.(check int) "four edges" 4 (count "->")

let test_dot_escaping () =
  let schema = Schema.of_list [ Schema.attr "t" Vtype.TString ] in
  let db =
    Database.of_list
      [ ("Q", Relation.of_values schema [ [ Value.String "say \"hi\"" ] ]) ]
  in
  let q = Algebra.Base "Q" in
  let rel, provs = Perm.provenance db q in
  let dot = Analysis.to_dot db q rel provs in
  Alcotest.(check bool) "escaped quotes" true
    (try
       ignore (Str.search_forward (Str.regexp_string "\\\"hi\\\"") dot 0);
       true
     with Not_found -> false)

(* ------------------------------------------------------------------ *)
(* Execution statistics                                                 *)
(* ------------------------------------------------------------------ *)

let test_exec_stats_strategies () =
  let db = Synthetic.Workload.make_db ~seed:4 ~n1:300 ~n2:100 () in
  let q = (Synthetic.Workload.q1 ~seed:4 ~n1:300 ~n2:100 ()).Synthetic.Workload.query in
  let stats_for strategy =
    let q_plus, _ = Rewrite.rewrite db ~strategy q in
    snd (Eval.query_stats db (Optimizer.optimize db q_plus))
  in
  (* Unn's plan runs the provenance join as a hash join *)
  let unn = stats_for Strategy.Unn in
  Alcotest.(check bool) "unn hash joins" true (unn.Eval.st_hash_joins >= 1);
  (* Left's Jsub disjunction forces a nested loop *)
  let left = stats_for Strategy.Left in
  Alcotest.(check bool)
    "left nested loops" true
    (left.Eval.st_nested_loop_joins >= 1);
  (* Gen evaluates sublinks from inside its Csub+ condition *)
  let gen = stats_for Strategy.Gen in
  Alcotest.(check bool) "gen sublink evals" true (gen.Eval.st_sublink_evals >= 1);
  Alcotest.(check bool)
    "gen examines more pairs than left" true
    (gen.Eval.st_nested_pairs >= left.Eval.st_nested_pairs);
  Alcotest.(check bool)
    "to_string renders" true
    (String.length (Eval.stats_to_string gen) > 0)

let test_exec_stats_memoization () =
  (* an uncorrelated sublink evaluated for many rows: one materialization,
     many hits *)
  let db = Synthetic.Workload.make_db ~seed:4 ~n1:200 ~n2:50 () in
  let q = (Synthetic.Workload.q2 ~seed:4 ~n1:200 ~n2:50 ()).Synthetic.Workload.query in
  let _, st = Eval.query_stats db q in
  Alcotest.(check bool) "few evals" true (st.Eval.st_sublink_evals <= 2)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "advisor"
    [
      ( "cost-model",
        [
          tc "gen ranked most expensive" `Quick test_gen_costed_highest;
          tc "avoids gen when possible" `Quick test_choose_avoids_gen_when_possible;
          tc "falls back to gen" `Quick test_choose_falls_back_to_gen;
          tc "Unn symbolic NULL-safety" `Quick test_unn_symbolic_safety;
          tc "advisor run" `Quick test_advisor_run;
          tc "ladder order is static" `Quick test_ladder_order_static;
        ] );
      ( "exec-stats",
        [
          tc "per-strategy profiles" `Quick test_exec_stats_strategies;
          tc "sublink memoization" `Quick test_exec_stats_memoization;
        ] );
      ( "analysis",
        [
          tc "influence" `Quick test_influence;
          tc "influence distinct results" `Quick test_influence_counts_distinct_results;
          tc "dot export" `Quick test_dot_export;
          tc "dot escaping" `Quick test_dot_escaping;
        ] );
      qsuite "properties" [ prop_advisor_correct; prop_estimates_order ];
    ]
