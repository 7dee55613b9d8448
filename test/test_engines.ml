(* Engine parity: the vectorized engine (Vexec) must agree with the
   reference tree walker on every query — same schema, same rows in the
   same order, same errors, and on the workload, TPC-H, figure and
   replay inputs the same execution counters.

   Coverage:
   - randomized sublink-heavy SQL queries from the shared fuzz
     generator (Fuzz.Qgen: all four sublink kinds, correlation, joins,
     aggregation, set operations, ORDER BY/LIMIT, NULL-rich tiny
     databases), analyzed to algebra and run under both engines —
     QCheck counterexamples shrink with the fuzzer's own minimizer;
   - the same fuzz queries rewritten with every strategy
     (Gen/Left/Move/Unn) and optimized;
   - the synthetic workload q1/q2 instances, all applicable strategies;
   - all TPC-H sublink queries, all applicable strategies;
   - the benchmark's Figure 6-7 cells run through [Perm.exec] on the
     production (vectorized) engine, against the reference walker's row
     order and counters. *)

open Relalg
open Core

let i n = Value.Int n

let r_schema =
  Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt ]

let s_schema =
  Schema.of_list [ Schema.attr "c" Vtype.TInt; Schema.attr "d" Vtype.TInt ]

let mk_db r_rows s_rows =
  Database.of_list
    [
      ("R", Relation.of_values r_schema r_rows);
      ("S", Relation.of_values s_schema s_rows);
    ]

(* Vectorized-engine configurations every parity check runs under:
   large batches, and tiny batches (exercises batch boundaries in every
   kernel). *)
let vec_configs = [ ("b2048", 2048); ("b3", 3) ]

let with_vec_config (_, b) f =
  let saved_b = !Vexec.batch_rows in
  Vexec.batch_rows := b;
  Fun.protect ~finally:(fun () -> Vexec.batch_rows := saved_b) f

(* Both engines, same plan: under every configuration the vectorized
   engine must match the reference walker on schema and row list (order
   included), or fail with the same error. *)
let same_execution db plan =
  let run f =
    try Ok (f ()) with Eval.Eval_error m -> Error m
  in
  let rr = run (fun () -> Eval.query_reference db plan) in
  List.for_all
    (fun cfg ->
      let rv =
        with_vec_config cfg (fun () ->
            run (fun () -> Eval.query db plan))
      in
      match (rr, rv) with
      | Ok ra, Ok rb ->
          Schema.names (Relation.schema ra) = Schema.names (Relation.schema rb)
          && Relation.tuples ra = Relation.tuples rb
      | Error a, Error b -> a = b
      | _ -> false)
    vec_configs

let check_same msg db plan =
  let ra, sa = Eval.query_stats_reference db plan in
  List.iter
    (fun ((label, _) as cfg) ->
      let rv, sv =
        with_vec_config cfg (fun () -> Eval.query_stats db plan)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: vectorized[%s] schema" msg label)
        (Schema.names (Relation.schema ra))
        (Schema.names (Relation.schema rv));
      Alcotest.(check bool)
        (Printf.sprintf "%s: vectorized[%s] same rows" msg label)
        true
        (Relation.tuples ra = Relation.tuples rv);
      Alcotest.(check string)
        (Printf.sprintf "%s: vectorized[%s] same counters" msg label)
        (Eval.stats_to_string sa) (Eval.stats_to_string sv))
    vec_configs

(* ------------------------------------------------------------------ *)
(* Randomized queries from the shared fuzz generator                    *)
(* ------------------------------------------------------------------ *)

(* One arbitrary for all engine-parity properties: Fuzz.Qgen generates
   the case, Fuzz.Shrink provides the QCheck shrinker — the same
   generator and minimizer the differential fuzzer uses. *)
let fuzz_case =
  QCheck.make
    (fun st -> Fuzz.Qgen.generate st Fuzz.Qgen.default)
    ~print:Fuzz.Qgen.case_to_string
    ~shrink:(fun case yield ->
      List.iter
        (fun (sel, tbls) ->
          yield { Fuzz.Qgen.c_select = sel; c_tables = tbls })
        (Fuzz.Shrink.reductions case.Fuzz.Qgen.c_select
           case.Fuzz.Qgen.c_tables))

let analyzed_of case =
  let db = Fuzz.Qgen.database case in
  match Sql_frontend.Analyzer.analyze db case.Fuzz.Qgen.c_select with
  | exception _ -> None
  | analyzed -> Some (db, analyzed.Sql_frontend.Analyzer.query)

let prop_fuzz_parity =
  QCheck.Test.make ~name:"engines agree on fuzzed queries" ~count:400
    fuzz_case (fun case ->
      match analyzed_of case with
      | None -> true
      | Some (db, q) -> same_execution db q)

(* The fuzz queries rewritten with every strategy and optimized — the
   plans the benchmarks actually measure. *)
let prop_fuzz_strategy_parity =
  QCheck.Test.make
    ~name:"engines agree on rewritten fuzz plans (all strategies)" ~count:150
    fuzz_case (fun case ->
      match analyzed_of case with
      | None -> true
      | Some (db, q) ->
          List.for_all
            (fun strategy ->
              match Rewrite.rewrite db ~strategy q with
              | exception Strategy.Unsupported _ -> true
              | q_plus, _ ->
                  Typecheck.check db q_plus;
                  same_execution db (Optimizer.optimize db q_plus))
            Strategy.all)

(* ------------------------------------------------------------------ *)
(* Synthetic workload and TPC-H                                         *)
(* ------------------------------------------------------------------ *)

let test_workload_strategies () =
  List.iter
    (fun seed ->
      List.iter
        (fun (label, template) ->
          let n1 = 40 and n2 = 30 in
          let db = Synthetic.Workload.make_db ~seed ~n1 ~n2 () in
          let inst =
            match template with
            | `Q1 -> Synthetic.Workload.q1 ~seed ~n1 ~n2 ()
            | `Q2 -> Synthetic.Workload.q2 ~seed ~n1 ~n2 ()
          in
          let q = inst.Synthetic.Workload.query in
          check_same (Printf.sprintf "%s seed %d original" label seed) db q;
          List.iter
            (fun strategy ->
              let q_plus, _ = Perm.rewrite db ~strategy q in
              Typecheck.check db q_plus;
              check_same
                (Printf.sprintf "%s seed %d %s" label seed
                   (Strategy.to_string strategy))
                db
                (Optimizer.optimize db q_plus))
            (Synthetic.Workload.strategies_for template))
        [ ("q1", `Q1); ("q2", `Q2) ])
    [ 1; 2; 3 ]

let test_tpch_strategies () =
  let db = Tpch.Tpch_gen.generate ~seed:11 ~sf:0.01 () in
  List.iter
    (fun number ->
      let q = Tpch.Tpch_queries.instantiate ~seed:100 number in
      let analyzed =
        Sql_frontend.Analyzer.analyze_string db q.Tpch.Tpch_queries.sql
      in
      let algebra = analyzed.Sql_frontend.Analyzer.query in
      List.iter
        (fun strategy ->
          match Rewrite.rewrite db ~strategy algebra with
          | exception Strategy.Unsupported _ -> ()
          | q_plus, _ ->
              Typecheck.check db q_plus;
              check_same
                (Printf.sprintf "Q%d %s" number (Strategy.to_string strategy))
                db
                (Optimizer.optimize db q_plus))
        Strategy.all)
    Tpch.Tpch_queries.numbers

(* The Figure 6-7 cells the benchmark's paper-figs workload runs, at
   test scale (TPC-H at the workload's scale factor, three instances
   per template; a smaller synthetic database): SQL through
   [Perm.exec], i.e. on the production engine. The
   answer must match the reference walker's rows in order (the server
   renders rows in order) and its execution counters. *)
let figure_cells () =
  let open Strategy in
  let tpch = Tpch.Tpch_gen.generate ~seed:11 ~sf:0.4 () in
  let tpch_cells =
    List.concat_map
      (fun (n, strategies) ->
        List.concat_map
          (fun seed ->
            let sql =
              Tpch.Tpch_queries.with_provenance
                (Tpch.Tpch_queries.instantiate ~seed n)
            in
            List.map
              (fun s ->
                (Printf.sprintf "Q%d/%d %s" n seed (to_string s), tpch, s, sql))
              strategies)
          [ 100; 101; 102 ])
      [
        (4, [ Unn ]);
        (11, [ Left; Move ]);
        (15, [ Left; Move ]);
        (16, [ Gen; Left; Move; Unn ]);
        (17, [ Gen ]);
        (22, [ Gen ]);
      ]
  in
  let synthetic = Synthetic.Workload.make_db ~seed:4 ~n1:300 ~n2:60 () in
  let synthetic_cells =
    List.concat_map
      (fun (label, template, op) ->
        let sql =
          Printf.sprintf
            "SELECT PROVENANCE * FROM r1 WHERE b >= -150 AND b <= 150 AND a %s \
             (SELECT a FROM r2 WHERE b >= -40 AND b <= 40)"
            op
        in
        List.map
          (fun s -> (Printf.sprintf "%s %s" label (to_string s), synthetic, s, sql))
          (Synthetic.Workload.strategies_for template))
      [ ("q1", `Q1, "= ANY"); ("q2", `Q2, "< ALL") ]
  in
  tpch_cells @ synthetic_cells

let test_figure_cells_on_default () =
  List.iter
    (fun (name, db, strategy, sql) ->
      let r =
        match Perm.exec db ~strategy sql with
        | Perm.Rows r -> r
        | _ -> Alcotest.failf "%s: not a row result" name
      in
      let plan = r.Perm.plan in
      let rr, sr = Eval.query_stats_reference db plan in
      let _, sd = Eval.query_stats db plan in
      Alcotest.(check bool)
        (name ^ ": reference row order")
        true
        (Relation.tuples r.Perm.relation = Relation.tuples rr);
      Alcotest.(check string)
        (name ^ ": reference counters")
        (Eval.stats_to_string sr) (Eval.stats_to_string sd))
    (figure_cells ())

(* ------------------------------------------------------------------ *)
(* Error parity                                                         *)
(* ------------------------------------------------------------------ *)

let test_error_parity () =
  let db = mk_db [ [ i 1; i 1 ]; [ i 2; i 2 ] ] [ [ i 1; i 1 ]; [ i 2; i 2 ] ] in
  let msg_of f = try ignore (f ()); "no error" with Eval.Eval_error m -> m in
  (* scalar sublink with two rows: runtime error in both engines *)
  let bad =
    Algebra.(
      Select
        (eq (attr "a") (scalar (project [ (attr "c", "c") ] (Base "S"))), Base "R"))
  in
  Alcotest.(check string)
    "scalar cardinality error, vectorized"
    (msg_of (fun () -> Eval.query_reference db bad))
    (msg_of (fun () -> Eval.query db bad));
  (* unknown attribute: runtime in the walker, lowering time in Vexec,
     same exception and message either way *)
  let ghost = Algebra.attr "ghost" in
  Alcotest.(check string)
    "unknown attribute error"
    (msg_of (fun () -> Eval.expr_reference db ghost))
    (msg_of (fun () -> Eval.expr db ghost))

(* Correlated sublink bodies whose binding-independent subtrees the
   vectorized engine runs once per execution and replays for later
   bindings, and correlated selections it runs as mask kernels that
   compare an input column with an enclosing frame's column. Each input
   must give the reference walker's rows, row order, counters and error
   message under every vectorized configuration. *)
let replay_cases () =
  let open Algebra in
  let db =
    mk_db
      [ [ i 1; i 1 ]; [ i 2; i 1 ]; [ i 3; i 2 ]; [ i 4; i 5 ]; [ i 5; i 2 ] ]
      [ [ i 1; i 1 ]; [ i 2; i 2 ]; [ i 2; i 2 ]; [ i 4; i 5 ]; [ i 3; Value.Null ] ]
  in
  let empty_outer = mk_db [] [ [ i 1; i 1 ]; [ i 2; i 2 ] ] in
  (* Order over Limit over a bag union of a DISTINCT projection and a
     grouped aggregate: no free variable, no join, no sublink. *)
  let independent =
    Order
      ( [ (attr "k", Asc) ],
        Limit
          ( 4,
            Order
              ( [ (attr "k", Desc) ],
                Union
                  ( Bag,
                    project ~distinct:true [ (attr "c", "k") ] (Base "S"),
                    project
                      [ (attr "g", "k") ]
                      (aggregate
                         ~group_by:[ (attr "d", "g") ]
                         ~aggs:
                           [
                             {
                               agg_func = "count";
                               agg_distinct = false;
                               agg_arg = None;
                               agg_name = "n";
                             };
                           ]
                         (Base "S")) ) ) ) )
  in
  let below_a q = project [ (attr "k", "k") ] (Select (lt (attr "k") (attr "a"), q)) in
  let dividing =
    project
      [ (Binop (Div, int 10, Binop (Sub, attr "c", attr "c")), "k") ]
      (Base "S")
  in
  (* The inner sublink reads [a] from the outermost frame only; its
     selection on [a] must run per binding, not be replayed. *)
  let outer_outer =
    Select
      ( exists
          (Select
             ( And
                 ( eq (attr "d") (attr "b"),
                   exists
                     (Select
                        ( eq (attr "x") (attr "a"),
                          project [ (attr "c", "x") ] (Base "S") )) ),
               Base "S" )),
        Base "R" )
  in
  (* Per outer row, how many rows of S satisfy [cond]. *)
  let counted cond =
    project
      [
        (attr "a", "a");
        ( scalar
            (aggregate ~group_by:[]
               ~aggs:
                 [
                   {
                     agg_func = "count";
                     agg_distinct = false;
                     agg_arg = None;
                     agg_name = "n";
                   };
                 ]
               (Select (cond, Base "S"))),
          "n" );
      ]
      (Base "R")
  in
  let null_outer =
    mk_db
      [ [ i 1; i 1 ]; [ i 2; Value.Null ]; [ i 3; i 2 ] ]
      [ [ i 1; i 1 ]; [ i 2; i 2 ]; [ i 3; Value.Null ]; [ i 4; i 2 ] ]
  in
  let float_outer =
    Database.of_list
      [
        ( "R",
          Relation.of_values
            (Schema.of_list
               [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TFloat ])
            [
              [ i 1; Value.Float 2.0 ]; [ i 2; Value.Float 2.5 ]; [ i 3; Value.Null ];
            ] );
        ( "S",
          Relation.of_values s_schema
            [ [ i 1; i 1 ]; [ i 2; i 2 ]; [ i 3; Value.Null ]; [ i 2; i 3 ] ] );
      ]
  in
  (* The innermost selection compares with [a] two frames out. *)
  let depth_two =
    let level name col inner =
      Select (exists inner, project [ (attr col, name) ] (Base "S"))
    in
    Select
      ( exists
          (level "x" "c"
             (level "y" "d"
                (Select
                   (eq (attr "z") (attr "a"), project [ (attr "c", "z") ] (Base "S"))))),
        Base "R" )
  in
  [
    ("replayed subtree, EXISTS", db, Select (exists (below_a independent), Base "R"));
    ( "replayed subtree, = ANY",
      db,
      Select (any_op Eq (attr "b") (below_a independent), Base "R") );
    ( "replayed subtree, scalar",
      db,
      project
        [
          (attr "a", "a");
          ( scalar
              (aggregate ~group_by:[]
                 ~aggs:
                   [
                     {
                       agg_func = "sum";
                       agg_distinct = false;
                       agg_arg = Some (attr "k");
                       agg_name = "s";
                     };
                   ]
                 (below_a independent)),
            "s" );
        ]
        (Base "R") );
    ("replayed subtree raises", db, Select (exists (below_a dividing), Base "R"));
    ( "replayed subtree under an empty outer relation",
      empty_outer,
      Select (exists (below_a dividing), Base "R") );
    ("outer-outer reference", db, outer_outer);
    (* closed subtrees that touch the counters run per binding *)
    ( "closed join in a correlated body",
      db,
      Select
        ( exists
            (below_a
               (project
                  [ (attr "c", "k") ]
                  (Join
                     ( eq (attr "c") (attr "c2"),
                       Base "S",
                       project [ (attr "c", "c2") ] (Base "S") )))),
          Base "R" ) );
    ( "closed sublink in a correlated body",
      db,
      Select
        ( exists
            (below_a
               (project
                  [ (attr "c", "k") ]
                  (Select
                     (exists (Select (eq (attr "c") (int 2), Base "S")), Base "S")))),
          Base "R" ) );
    ("uncorrelated body", db, Select (any_op Eq (attr "a") independent, Base "R"));
    ("outer column, outer NULL", null_outer, counted (eq (attr "c") (attr "b")));
    ("outer column, =n", null_outer, counted (Cmp (EqNull, attr "d", attr "b")));
    ( "outer column, Int against Float",
      float_outer,
      counted (Or (eq (attr "c") (attr "b"), lt (attr "d") (attr "b"))) );
    ("outer column, reversed", null_outer, counted (Cmp (Leq, attr "b", attr "c")));
    ( "outer column, EXISTS",
      null_outer,
      Select (exists (Select (Cmp (Gt, attr "c", attr "a"), Base "S")), Base "R") );
    ("outer column at depth 2", db, depth_two);
    (* mask kernels over an int column that holds a NULL *)
    ("IS NULL over an int column with NULLs", db, Select (IsNull (attr "d"), Base "S"));
    (* the summary holds only [Float 2.0], so [Int 2] must match it *)
    ( "= ANY of an int column against Float 2.0",
      float_outer,
      Select
        ( any_op Eq (attr "d")
            (project [ (attr "b", "k") ] (Select (eq (attr "a") (int 1), Base "R"))),
          Base "S" ) );
  ]

let test_replay_parity () =
  let outcome f =
    match f () with
    | rel, stats ->
        Ok
          ( Schema.names (Relation.schema rel),
            Relation.tuples rel,
            Eval.stats_to_string stats )
    | exception Eval.Eval_error m -> Error m
    | exception Value.Type_clash m -> Error m
  in
  List.iter
    (fun (name, db, plan) ->
      let expected = outcome (fun () -> Eval.query_stats_reference db plan) in
      List.iter
        (fun (label, run) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s agrees with the reference walker" name label)
            true
            (outcome (fun () -> run db plan) = expected))
        (List.map
           (fun ((label, _) as cfg) ->
             ( "vectorized[" ^ label ^ "]",
               fun db plan ->
                 with_vec_config cfg (fun () -> Eval.query_stats db plan) ))
           vec_configs))
    (replay_cases ())

(* ------------------------------------------------------------------ *)
(* Vectorized engine: governor trips at batch granularity               *)
(* ------------------------------------------------------------------ *)

(* The vectorized engine checkpoints at batch boundaries, so a budget
   ceiling must trip with the tripping operator's path attributed —
   same path vocabulary as the other engines. *)
let test_vectorized_guard_trips () =
  let n1 = 400 and n2 = 60 in
  let db = Synthetic.Workload.make_db ~seed:5 ~n1 ~n2 () in
  let q = (Synthetic.Workload.q1 ~seed:5 ~n1 ~n2 ()).Synthetic.Workload.query in
  let trip_of budget =
    with_vec_config ("b64", 64) (fun () ->
        match
          Guard.with_budget (Some budget) (fun () -> Eval.query db q)
        with
        | _ -> None
        | exception Guard.Budget_exceeded t -> Some t)
  in
  (* Row ceiling: batches of 64 rows over a 400-row scan must trip. *)
  (match trip_of (Guard.budget ~max_rows:100 ()) with
  | None -> Alcotest.fail "row ceiling did not trip"
  | Some t ->
      Alcotest.(check bool)
        "row trip reason" true
        (match t.Guard.t_reason with Guard.Rows_exceeded _ -> true | _ -> false);
      Alcotest.(check bool)
        "row trip has an operator path" true
        (t.Guard.t_path <> []);
      Alcotest.(check bool)
        "row trip counters at batch granularity" true
        (t.Guard.t_counters.Guard.c_rows >= 64));
  (* Wall-clock ceiling: timeout-only budgets are checked by the
     amortized batch ticks (every [fuel_interval] cheap checkpoints), so
     run one-row batches over a relation wide enough to exhaust the
     fuel — an already-expired deadline must then trip. *)
  let tn1 = 700 and tn2 = 20 in
  let tdb = Synthetic.Workload.make_db ~seed:6 ~n1:tn1 ~n2:tn2 () in
  let tq =
    (Synthetic.Workload.q1 ~seed:6 ~n1:tn1 ~n2:tn2 ()).Synthetic.Workload.query
  in
  match
    with_vec_config ("b1", 1) (fun () ->
        match
          Guard.with_budget
            (Some (Guard.budget ~timeout:0.0 ()))
            (fun () -> Eval.query tdb tq)
        with
        | _ -> None
        | exception Guard.Budget_exceeded t -> Some t)
  with
  | None -> Alcotest.fail "timeout did not trip"
  | Some t ->
      Alcotest.(check bool)
        "timeout reason" true
        (match t.Guard.t_reason with Guard.Timed_out _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Relation memo caches under concurrent domains                        *)
(* ------------------------------------------------------------------ *)

(* Run [f] on the calling domain and on a spawned one, both released
   together, and return the two results (calling domain first). *)
let on_two_domains f =
  let ready = Atomic.make 0 in
  let go () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    f ()
  in
  let d = Domain.spawn go in
  let here = go () in
  (here, Domain.join d)

(* The relation memos are lazily built and shared across server
   sessions. [Relation.counts] and [Relation.nullable_columns] are
   hammered from two domains at once, and every observation must agree
   with a fresh sequential computation. A lazy relation forced from
   two domains at once runs its producer once and gives both the same
   list. Two executions racing to build a fresh base relation's row
   array both answer like the reference walker. *)
let test_relation_memo_two_domains () =
  let rows =
    List.init 512 (fun k ->
        [ i (k mod 7); (if k mod 11 = 0 then Value.Null else i (k mod 3)) ])
  in
  let expected_nullable = [| false; true |] in
  List.iter
    (fun trial ->
      ignore trial;
      (* fresh relation per trial so each race starts from a cold memo *)
      let r = Relation.of_values r_schema rows in
      let worker () =
        let ok = ref true in
        for _ = 1 to 50 do
          let c = Relation.counts r in
          if Tuple.Tbl.length c <> 7 * 3 + 7 then ok := false;
          if Relation.nullable_columns r <> expected_nullable then ok := false;
          if Tuple.Tbl.find_opt c [| i 0; i 0 |] = None then ok := false
        done;
        !ok
      in
      let here, there = on_two_domains worker in
      Alcotest.(check bool) "calling domain observations" true here;
      Alcotest.(check bool) "spawned domain observations" true there)
    [ 1; 2; 3 ];
  let produced = Atomic.make 0 in
  for _ = 1 to 20 do
    let lazy_rel =
      Relation.make_lazy ~cardinality:(List.length rows) r_schema (fun () ->
          Atomic.incr produced;
          List.map Tuple.of_list rows)
    in
    let here, there = on_two_domains (fun () -> Relation.tuples lazy_rel) in
    Alcotest.(check bool) "one tuple list for both domains" true (here == there)
  done;
  Alcotest.(check int) "each producer ran once" 20 (Atomic.get produced);
  let q =
    Algebra.Select
      (Algebra.Cmp (Algebra.Gt, Algebra.Attr "a", Algebra.Const (i 3)),
       Algebra.Base "R")
  in
  for _ = 1 to 20 do
    let db = Database.of_list [ ("R", Relation.of_values r_schema rows) ] in
    let expected = Eval.query_reference db q in
    let here, there =
      with_vec_config ("b16", 16) (fun () ->
          on_two_domains (fun () -> Vexec.query db q))
    in
    Alcotest.(check bool) "calling domain answer" true
      (Relation.equal_bag expected here);
    Alcotest.(check bool) "spawned domain answer" true
      (Relation.equal_bag expected there)
  done

(* A scan keeps nothing alive: once its caller drops every reference
   to a scanned relation, the relation is reclaimed. *)
let test_scan_retains_nothing () =
  let w = Weak.create 1 in
  let scan () =
    let rel =
      Relation.of_values r_schema (List.init 300 (fun k -> [ i k; i (k mod 5) ]))
    in
    Weak.set w 0 (Some rel);
    let db = Database.of_list [ ("R", rel) ] in
    ignore (Relation.cardinality (Vexec.query db (Algebra.Base "R")))
  in
  (Sys.opaque_identity scan) ();
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "scanned relation reclaimed" false (Weak.check w 0)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "engines"
    [
      ( "parity",
        [
          tc "synthetic workload, all strategies" `Quick test_workload_strategies;
          tc "tpch, all strategies" `Quick test_tpch_strategies;
          tc "error parity" `Quick test_error_parity;
          tc "correlated bodies with replayed subtrees" `Quick
            test_replay_parity;
          tc "figure cells on the default engine" `Quick
            test_figure_cells_on_default;
        ] );
      ( "vectorized",
        [
          tc "governor trips at batch granularity" `Quick
            test_vectorized_guard_trips;
          tc "relation memos race two domains" `Quick
            test_relation_memo_two_domains;
          tc "a scan retains no relation" `Quick test_scan_retains_nothing;
        ] );
      qsuite "properties" [ prop_fuzz_parity; prop_fuzz_strategy_parity ];
    ]
