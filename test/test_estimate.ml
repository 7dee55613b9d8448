(* Statistics and cardinality/cost estimation tests.

   Units: statistics collection (row counts, NDV, null fractions,
   histogram fractions) on known data; estimator fixtures with known
   cardinalities (selections through the Symbolic solver and the
   histograms, NDV-containment joins, DISTINCT and GROUP BY collapse);
   the feedback correction table.

   Properties (QCheck): the estimator is total — it never raises — on
   every plan the fuzzer generates under every strategy rewrite, and
   its calibration on Qgen workloads (uniform and skewed) keeps the
   median q-error ≤ 4.

   Join reorder: the Certify mutation pair — the stock reorder pass
   certifies clean on reorderable plans, the seeded mutant (dropping a
   residual conjunct) is caught by witness-database comparison — plus
   an Advisor regret check: the cost-based choice's measured runtime
   stays within 1.2× of the best strategy on the synthetic workloads. *)

open Relalg
open Algebra

let i n = Value.Int n

let db () =
  let ab = Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt ] in
  let cd = Schema.of_list [ Schema.attr "c" Vtype.TInt; Schema.attr "d" Vtype.TInt ] in
  Database.of_list
    [
      ("r", Relation.of_values ab [ [ i 1; i 1 ]; [ i 2; i 1 ]; [ i 3; i 2 ] ]);
      ("s", Relation.of_values cd [ [ i 1; i 3 ]; [ i 2; i 4 ]; [ i 4; i 5 ] ]);
      ( "nully",
        Relation.of_values
          (Schema.of_list [ Schema.attr "x" Vtype.TInt; Schema.attr "y" Vtype.TInt ])
          [ [ i 1; Value.Null ]; [ i 2; i 7 ]; [ i 3; i 7 ]; [ i 4; Value.Null ] ] );
    ]

let checkf = Alcotest.(check (float 0.001))
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let test_stats_basics () =
  let s = Stats.of_db (db ()) in
  let r = Option.get (Stats.table s "r") in
  Alcotest.(check int) "r rows" 3 r.Stats.t_rows;
  let a = Option.get (Stats.column r "a") in
  checkf "a ndv" 3.0 a.Stats.c_ndv;
  checkf "a null frac" 0.0 a.Stats.c_null_frac;
  checkf "a min" 1.0 (Option.get a.Stats.c_min);
  checkf "a max" 3.0 (Option.get a.Stats.c_max);
  let b = Option.get (Stats.column r "b") in
  checkf "b ndv" 2.0 b.Stats.c_ndv;
  let n = Option.get (Stats.table s "nully") in
  let y = Option.get (Stats.column n "y") in
  checkf "y null frac" 0.5 y.Stats.c_null_frac

let test_stats_hist () =
  let rel =
    Relation.of_values
      (Schema.of_list [ Schema.attr "v" Vtype.TInt ])
      (List.init 100 (fun k -> [ i k ]))
  in
  let t = Stats.of_relation rel in
  let v = Option.get (Stats.column t "v") in
  checkf "ndv" 100.0 v.Stats.c_ndv;
  (* frac_le is within a bucket of the truth *)
  Alcotest.(check (float 0.1)) "frac <= 49" 0.5 (Stats.frac_le v 49.0);
  Alcotest.(check (float 0.1)) "frac <= 24" 0.25 (Stats.frac_le v 24.0);
  checkf "frac below min" 0.0 (Stats.frac_le v (-1.0));
  checkf "frac above max" 1.0 (Stats.frac_le v 1000.0)

let test_stats_cache_invalidation () =
  let d = db () in
  let s0 = Stats.of_db d in
  Alcotest.(check int) "r rows pre" 3 (Option.get (Stats.table s0 "r")).Stats.t_rows;
  (* same catalog state: the cache returns the same pass *)
  check_bool "cached" true (s0 == Stats.of_db d);
  (* catalog mutation bumps the version; stats must refresh *)
  Database.add d "r"
    (Relation.of_values
       (Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt ])
       [ [ i 1; i 1 ] ]);
  let s1 = Stats.of_db d in
  check_bool "refreshed" true (not (s0 == s1));
  Alcotest.(check int) "r rows post" 1 (Option.get (Stats.table s1 "r")).Stats.t_rows

(* A catalog write recollects only the tables it changed: after a
   CREATE TABLE AS, the untouched tables keep the very statistics
   records they had, and estimates over them do not move. *)
let test_stats_write_recollects_changed () =
  let d = db () in
  let q = Select (Cmp (Lt, Attr "a", Const (i 3)), Cross (Base "r", Base "s")) in
  let s0 = Stats.of_db d in
  let rows0 = Estimate.rows (Estimate.create d) q in
  (match Core.Perm.exec d "CREATE TABLE w AS SELECT a FROM r WHERE a > 1" with
  | Core.Perm.Created_table ("w", 2) -> ()
  | _ -> Alcotest.fail "CREATE TABLE AS did not create w with 2 rows");
  let s1 = Stats.of_db d in
  check_bool "recollected" true (not (s0 == s1));
  List.iter
    (fun name ->
      check_bool (name ^ " reused") true
        (Option.get (Stats.table s0 name) == Option.get (Stats.table s1 name)))
    [ "r"; "s"; "nully" ];
  Alcotest.(check int) "new table collected" 2 (Option.get (Stats.table s1 "w")).Stats.t_rows;
  checkf "estimate unchanged" rows0 (Estimate.rows (Estimate.create d) q)

(* ------------------------------------------------------------------ *)
(* Estimator fixtures                                                   *)
(* ------------------------------------------------------------------ *)

let test_estimate_base_and_cross () =
  let est = Estimate.create (db ()) in
  checkf "base rows" 3.0 (Estimate.rows est (Base "r"));
  checkf "cross rows" 9.0 (Estimate.rows est (Cross (Base "r", Base "s")));
  check_bool "cross costs more than scans" true
    (Estimate.cost est (Cross (Base "r", Base "s"))
    > Estimate.cost est (Base "r") +. Estimate.cost est (Base "s"))

let test_estimate_symbolic_unsat () =
  let est = Estimate.create (db ()) in
  (* x < 1 AND x > 2 over an int column: the Symbolic solver proves it
     unsatisfiable, so the estimate is exactly 0 *)
  let cond = And (Cmp (Lt, Attr "a", int 1), Cmp (Gt, Attr "a", int 2)) in
  checkf "proved-unsat is 0 rows" 0.0 (Estimate.rows est (Select (cond, Base "r")));
  (* a tautology passes the input through unchanged *)
  let taut = Or (Cmp (Leq, Attr "a", int 5), Cmp (Gt, Attr "a", int 5)) in
  checkf "proved-taut keeps input" 3.0 (Estimate.rows est (Select (taut, Base "r")))

let test_estimate_eq_histogram () =
  let est = Estimate.create (db ()) in
  (* a = 2: ndv 3 ⇒ 1/3 of 3 rows *)
  checkf "eq const" 1.0 (Estimate.rows est (Select (eq (attr "a") (int 2), Base "r")));
  (* a = 99 is outside [min, max]: estimates 0 *)
  checkf "eq out of range" 0.0
    (Estimate.rows est (Select (eq (attr "a") (int 99), Base "r")));
  (* IS NULL uses the null fraction *)
  checkf "is-null" 2.0
    (Estimate.rows est (Select (IsNull (Attr "y"), Base "nully")))

let test_estimate_join_containment () =
  let est = Estimate.create (db ()) in
  (* r.a (ndv 3) = s.c (ndv 3): 9 pairs / 3 = 3 *)
  checkf "equi join" 3.0
    (Estimate.rows est (Join (eq (attr "a") (attr "c"), Base "r", Base "s")))

let test_estimate_agg_distinct () =
  let est = Estimate.create (db ()) in
  (* GROUP BY b: ndv(b) = 2 groups *)
  let q =
    aggregate ~group_by:[ (attr "b", "b") ]
      ~aggs:[ { agg_func = "count"; agg_distinct = false; agg_arg = None; agg_name = "n" } ]
      (Base "r")
  in
  checkf "group-by collapse" 2.0 (Estimate.rows est q);
  checkf "global agg is one row" 1.0
    (Estimate.rows est
       (aggregate ~group_by:[]
          ~aggs:[ { agg_func = "count"; agg_distinct = false; agg_arg = None; agg_name = "n" } ]
          (Base "r")));
  checkf "distinct collapse" 2.0
    (Estimate.rows est (project ~distinct:true [ (attr "b", "b") ] (Base "r")))

let test_estimate_total_on_broken_plans () =
  let est = Estimate.create (db ()) in
  (* unknown relation, unknown attributes: defaults, no exception *)
  let f = Estimate.query est (Select (eq (attr "ghost") (int 1), Base "no_such")) in
  check_bool "rows finite" true (Float.is_finite f.Estimate.e_rows);
  check_bool "cost finite" true (Float.is_finite f.Estimate.e_cost)

let test_annotate_paths () =
  let est = Estimate.create (db ()) in
  let q = Select (Cmp (Lt, Attr "a", int 3), Base "r") in
  let anns = Estimate.annotate est q in
  Alcotest.(check (list string))
    "paths are Lint-style, root first"
    [ "Select"; "Select/Base(r)" ]
    (List.map (fun a -> Algebra.Path.to_string a.Estimate.a_path) anns);
  let root = List.hd anns in
  check_bool "root rows below input" true (root.Estimate.a_rows < 3.0)

(* ------------------------------------------------------------------ *)
(* Feedback                                                             *)
(* ------------------------------------------------------------------ *)

let test_feedback_correction () =
  Estimate.reset_feedback ();
  let q = Select (eq (attr "a") (int 2), Base "r") in
  let fp = Estimate.fingerprint q in
  checkf "no feedback: unchanged" 100.0 (Estimate.corrected_cost ~fingerprint:fp 100.0);
  Estimate.note_feedback ~fingerprint:fp ~est_rows:1.0 ~obs_rows:10.0 ~tripped:false;
  checkf "underestimate scales up" 1000.0
    (Estimate.corrected_cost ~fingerprint:fp 100.0);
  Estimate.note_feedback ~fingerprint:fp ~est_rows:1.0 ~obs_rows:10.0 ~tripped:true;
  check_bool "tripped plans go last" true
    (Estimate.corrected_cost ~fingerprint:fp 100.0 >= 1e7);
  (* the fingerprint is stable across re-parses (fresh sublink ids) *)
  let parse () =
    (Sql_frontend.Analyzer.analyze_string (db ())
       "SELECT a FROM r WHERE a = ANY (SELECT c FROM s)")
      .Sql_frontend.Analyzer.query
  in
  Alcotest.(check string)
    "fingerprint stable" (Estimate.fingerprint (parse ()))
    (Estimate.fingerprint (parse ()));
  Estimate.reset_feedback ()

(* ------------------------------------------------------------------ *)
(* Properties: totality and calibration on fuzzer workloads            *)
(* ------------------------------------------------------------------ *)

open Core

let fuzz_case config =
  QCheck.make
    (fun st -> Fuzz.Qgen.generate st config)
    ~print:Fuzz.Qgen.case_to_string

let all_annots_finite db q =
  List.for_all
    (fun a ->
      Float.is_finite a.Estimate.a_rows
      && a.Estimate.a_rows >= 0.0
      && Float.is_finite a.Estimate.a_cost
      && a.Estimate.a_cost >= 0.0)
    (Estimate.annotate (Estimate.create db) q)

(* The estimator never raises and never yields NaN/negative facts — on
   fuzzed queries as analyzed and on every strategy's optimized
   rewrite of them. *)
let prop_estimator_total config name =
  QCheck.Test.make ~name ~count:120 (fuzz_case config) (fun case ->
      let db = Fuzz.Qgen.database case in
      match Sql_frontend.Analyzer.analyze db case.Fuzz.Qgen.c_select with
      | exception _ -> true
      | analyzed ->
          let q = analyzed.Sql_frontend.Analyzer.query in
          all_annots_finite db q
          && List.for_all
               (fun strategy ->
                 match Rewrite.rewrite db ~strategy q with
                 | exception Strategy.Unsupported _ -> true
                 | rewritten, _ ->
                     all_annots_finite db (Optimizer.optimize db rewritten))
               [ Strategy.Gen; Strategy.Left; Strategy.Move; Strategy.Unn ])

(* Calibration: root-cardinality q-error, median over a deterministic
   Qgen population (analyzable, evaluable cases), stays ≤ 4 — on
   uniform data and on the skewed/correlated distribution. *)
let qerr est actual =
  let e = Float.max est 1.0 and a = Float.max (float_of_int actual) 1.0 in
  Float.max (e /. a) (a /. e)

let median xs =
  let arr = Array.of_list xs in
  Array.sort compare arr;
  arr.(Array.length arr / 2)

let test_calibration config name () =
  let errs = ref [] in
  for seed = 0 to 149 do
    let case = Fuzz.Qgen.case_of_seed ~config seed in
    let db = Fuzz.Qgen.database case in
    match Sql_frontend.Analyzer.analyze db case.Fuzz.Qgen.c_select with
    | exception _ -> ()
    | analyzed -> (
        let q = Optimizer.optimize db analyzed.Sql_frontend.Analyzer.query in
        match Eval.query db q with
        | exception _ -> ()
        | rel ->
            let est = Estimate.create db in
            errs :=
              qerr (Estimate.rows est q) (Relation.cardinality rel) :: !errs)
  done;
  check_bool "population large enough" true (List.length !errs >= 40);
  let m = median !errs in
  if m > 4.0 then
    Alcotest.failf "%s: median q-error %.2f exceeds 4 (n=%d)" name m
      (List.length !errs)

(* ------------------------------------------------------------------ *)
(* Join reorder under Certify: the mutation pair                       *)
(* ------------------------------------------------------------------ *)

(* A reorderable cluster: three leaves under crosses, two equi
   conjuncts chaining them. *)
let reorder_db = db

let reorder_plan =
  Select
    ( eq (attr "a") (attr "c") &&& eq (attr "c") (attr "x"),
      Cross (Cross (Base "r", Base "s"), Base "nully") )

let test_reorder_certifies_clean () =
  let d = reorder_db () in
  let fired = ref false in
  ignore
    (Rewrite_trace.with_tracer
       (fun e -> if e.Rewrite_trace.e_rule = "join-reorder" then fired := true)
       (fun () -> Optimizer.optimize d reorder_plan));
  check_bool "reorder actually applied" true !fired;
  let plan, report = Certify.optimize d reorder_plan in
  if not (Certify.ok report) then
    Alcotest.failf "stock join reorder failed certification:\n%s"
      (Certify.report_to_string ~verbose:true report);
  (* and the reordered plan still computes the right rows *)
  Alcotest.(check bool)
    "same rows" true
    (Relation.tuples (Eval.query d plan)
    = Relation.tuples (Eval.query d reorder_plan))

let test_reorder_mutant_caught () =
  let d = reorder_db () in
  let report =
    Rewrite_trace.with_mutation "reorder-drop-conjunct" (fun () ->
        snd (Certify.optimize d reorder_plan))
  in
  if Certify.ok report then
    Alcotest.fail "reorder-drop-conjunct mutant escaped certification";
  check_bool "failure attributed to join-reorder" true
    (List.exists
       (fun (f : Certify.failure) -> f.Certify.f_rule = "join-reorder")
       report.Certify.r_failures)

(* ------------------------------------------------------------------ *)
(* Advisor regret                                                      *)
(* ------------------------------------------------------------------ *)

(* The cost-mode choice's measured execution work (deterministic
   engine counters, not wall clock) stays within 1.2× of the best
   strategy on the synthetic equality-ANY workload. *)
let measured_work d q strategy =
  match Rewrite.rewrite d ~strategy q with
  | exception Strategy.Unsupported _ -> None
  | rewritten, _ ->
      let plan = Optimizer.optimize d rewritten in
      let _, st = Eval.query_stats d plan in
      Some
        (float_of_int
           (st.Eval.st_nested_pairs + st.Eval.st_rows_emitted
          + st.Eval.st_sublink_evals))

let test_advisor_regret () =
  let d = Synthetic.Workload.make_db ~seed:4 ~n1:400 ~n2:150 () in
  let q =
    (Synthetic.Workload.q1 ~seed:4 ~n1:400 ~n2:150 ()).Synthetic.Workload.query
  in
  let chosen = Advisor.choose d q in
  let work =
    List.filter_map
      (fun s ->
        Option.map (fun w -> (s, Float.max w 1.0)) (measured_work d q s))
      (Synthetic.Workload.strategies_for `Q1)
  in
  let best = List.fold_left (fun acc (_, w) -> Float.min acc w) infinity work in
  let chosen_work = List.assoc chosen work in
  if chosen_work > 1.2 *. best then
    Alcotest.failf
      "advisor regret: chose %s at %.0f work units, best is %.0f (%.2fx)"
      (Strategy.to_string chosen) chosen_work best (chosen_work /. best)

(* ------------------------------------------------------------------ *)
(* Suite                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "estimate"
    [
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "histogram" `Quick test_stats_hist;
          Alcotest.test_case "cache invalidation" `Quick test_stats_cache_invalidation;
          Alcotest.test_case "write recollects only what changed" `Quick
            test_stats_write_recollects_changed;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "base and cross" `Quick test_estimate_base_and_cross;
          Alcotest.test_case "symbolic unsat/taut" `Quick test_estimate_symbolic_unsat;
          Alcotest.test_case "eq and histogram" `Quick test_estimate_eq_histogram;
          Alcotest.test_case "join containment" `Quick test_estimate_join_containment;
          Alcotest.test_case "agg and distinct" `Quick test_estimate_agg_distinct;
          Alcotest.test_case "total on broken plans" `Quick test_estimate_total_on_broken_plans;
          Alcotest.test_case "annotate paths" `Quick test_annotate_paths;
        ] );
      ( "feedback",
        [ Alcotest.test_case "correction table" `Quick test_feedback_correction ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest
            (prop_estimator_total Fuzz.Qgen.default "estimator total (uniform)");
          QCheck_alcotest.to_alcotest
            (prop_estimator_total Fuzz.Qgen.default_skewed
               "estimator total (skewed)");
          Alcotest.test_case "calibration (uniform)" `Quick
            (test_calibration Fuzz.Qgen.default "uniform");
          Alcotest.test_case "calibration (skewed)" `Quick
            (test_calibration Fuzz.Qgen.default_skewed "skewed");
        ] );
      ( "reorder",
        [
          Alcotest.test_case "certifies clean" `Quick
            test_reorder_certifies_clean;
          Alcotest.test_case "mutant caught by witness" `Quick
            test_reorder_mutant_caught;
        ] );
      ( "advisor",
        [ Alcotest.test_case "regret within 1.2x" `Quick test_advisor_regret ] );
    ]
