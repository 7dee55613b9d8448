(* Execution governor and resilience: budget trips (every ceiling, with
   operator-path attribution), scope nesting, the deterministic
   fault-injection matrix over 4 strategies on the production engine and
   on the reference walker (a fault at any boundary yields a
   phase-attributed error, never a wrong answer), the
   strategy-fallback ladder, the error taxonomy, CSV load errors with
   file:line attribution, and a qcheck property that a budget either
   trips or leaves the answer exactly as the unbudgeted run's. *)

open Relalg
open Core

let i n = Value.Int n

let r_schema =
  Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt ]

let s_schema =
  Schema.of_list [ Schema.attr "c" Vtype.TInt; Schema.attr "d" Vtype.TInt ]

let small_db () =
  Database.of_list
    [
      ( "R",
        Relation.of_values r_schema
          [ [ i 1; i 1 ]; [ i 2; i 1 ]; [ i 3; i 2 ]; [ i 4; i 2 ] ] );
      ( "S",
        Relation.of_values s_schema
          [ [ i 1; i 3 ]; [ i 2; i 4 ]; [ i 4; i 5 ] ] );
    ]

let rows rel = List.map Tuple.to_list (Relation.sorted_tuples rel)

(* ------------------------------------------------------------------ *)
(* Budget trips: every ceiling, with a non-empty operator path          *)
(* ------------------------------------------------------------------ *)

let test_row_ceiling () =
  let db = small_db () in
  match
    Guard.with_budget
      (Some (Guard.budget ~max_rows:2 ()))
      (fun () -> Eval.query db (Algebra.Base "R"))
  with
  | _ -> Alcotest.fail "row ceiling did not trip"
  | exception Guard.Budget_exceeded t ->
      (match t.Guard.t_reason with
      | Guard.Rows_exceeded 2 -> ()
      | _ -> Alcotest.fail "wrong trip reason");
      Alcotest.(check bool) "trip names an operator" true (t.Guard.t_path <> []);
      Alcotest.(check bool)
        "trip path mentions the scan" true
        (String.length (Algebra.Path.to_string t.Guard.t_path) > 0)

let test_pair_ceiling_preflight () =
  (* the reference walker knows both input cardinalities up front, so
     its preflight trips before a single pair is enumerated; the
     vectorized engine streams the left input and trips at the
     counting checkpoint instead — both must stop the cross product *)
  let db = small_db () in
  let q = Algebra.Cross (Algebra.Base "R", Algebra.Base "S") in
  let trip label eval =
    match
      Guard.with_budget (Some (Guard.budget ~max_pairs:5 ())) (fun () -> eval db q)
    with
    | _ -> Alcotest.failf "pair ceiling did not trip (%s)" label
    | exception Guard.Budget_exceeded t -> t
  in
  let tr = trip "reference" Eval.query_reference in
  (match tr.Guard.t_reason with
  | Guard.Pairs_exceeded 5 ->
      Alcotest.(check int) "preflight: no pairs enumerated" 0
        tr.Guard.t_counters.Guard.c_pairs
  | _ -> Alcotest.fail "wrong trip reason (reference)");
  match (trip "vectorized" Eval.query).Guard.t_reason with
  | Guard.Pairs_exceeded 5 -> ()
  | _ -> Alcotest.fail "wrong trip reason (vectorized)"

(* a workload big enough that the per-push fuel clock re-checks the
   wall clock / allocation meter at least once *)
let heavy_gen_run ~budget () =
  let n1 = 2000 and n2 = 300 in
  let db = Synthetic.Workload.make_db ~seed:3 ~n1 ~n2 () in
  let inst = Synthetic.Workload.q1 ~seed:3 ~n1 ~n2 () in
  Guard.with_budget (Some budget) (fun () ->
      Perm.provenance db ~strategy:Strategy.Gen inst.Synthetic.Workload.query)

let test_timeout_trips () =
  match heavy_gen_run ~budget:(Guard.budget ~timeout:0.0 ()) () with
  | _ -> Alcotest.fail "timeout did not trip"
  | exception Resilience.Perm_error
      { e_detail = Resilience.Budget t; e_phase = Resilience.Eval } -> (
      match t.Guard.t_reason with
      | Guard.Timed_out _ -> ()
      | _ -> Alcotest.fail "wrong trip reason")

(* Regression: the reference walker must reach the clock through its
   per-row ticks alone. A sublink-free plan with a handful of operators
   never accumulates the 512 operator-level checkpoints that would
   otherwise trigger a slow check, yet runs for seconds unguarded — a
   timeout-only budget must still trip it. *)
let test_reference_timeout () =
  let n = 150 in
  let table col =
    Relation.of_values
      (Schema.of_list [ Schema.attr col Vtype.TInt ])
      (List.init n (fun k -> [ i k ]))
  in
  let db =
    Database.of_list [ ("T1", table "x"); ("T2", table "y"); ("T3", table "z") ]
  in
  let q = Algebra.(Cross (Cross (Base "T1", Base "T2"), Base "T3")) in
  let t0 = Unix.gettimeofday () in
  match
    Guard.with_budget
      (Some (Guard.budget ~timeout:0.05 ()))
      (fun () -> Eval.query_reference db q)
  with
  | _ -> Alcotest.fail "reference-engine timeout did not trip"
  | exception Guard.Budget_exceeded t -> (
      Alcotest.(check bool)
        "tripped promptly, not at plan completion" true
        (Unix.gettimeofday () -. t0 < 1.0);
      match t.Guard.t_reason with
      | Guard.Timed_out _ -> ()
      | _ -> Alcotest.fail "wrong trip reason")

let test_alloc_trips () =
  match heavy_gen_run ~budget:(Guard.budget ~max_alloc_mb:0.05 ()) () with
  | _ -> Alcotest.fail "allocation ceiling did not trip"
  | exception Resilience.Perm_error
      { e_detail = Resilience.Budget t; e_phase = Resilience.Eval } -> (
      match t.Guard.t_reason with
      | Guard.Alloc_exceeded _ -> ()
      | _ -> Alcotest.fail "wrong trip reason")

(* The allocation meter counts words exactly: allocating a known number
   of words moves a scope's [c_alloc_mb] by that many words, within 1%,
   whether they stay in the minor heap, span minor collections or go
   straight to the major heap. *)
let keep = ref []

let test_alloc_meter_words () =
  let bytes_per_word = float_of_int (Sys.word_size / 8) in
  let words_of mb = mb *. 1_048_576.0 /. bytes_per_word in
  let probe label words alloc =
    Guard.with_budget
      (Some (Guard.budget ~max_alloc_mb:1e9 ()))
      (fun () ->
        let m0 = (Guard.observed ()).Guard.c_alloc_mb in
        keep := [ alloc () ];
        let m1 = (Guard.observed ()).Guard.c_alloc_mb in
        keep := [];
        let moved = words_of (m1 -. m0) in
        if Float.abs (moved -. float_of_int words) > 0.01 *. float_of_int words
        then Alcotest.failf "%s: %d words allocated, meter moved %.0f" label words moved)
  in
  (* a list cell is a header plus two fields: three words *)
  let cells n () = Obj.repr (List.init n Fun.id) in
  probe "minor, within one minor heap" 60_000 (cells 20_000);
  probe "minor, across minor collections" 3_000_000 (cells 1_000_000);
  (* an array past [Max_young_wosize] is allocated in the major heap *)
  probe "major, direct" 100_001 (fun () -> Obj.repr (Array.make 100_000 0))

let test_scope_nesting () =
  Alcotest.(check bool) "inactive outside" false (Guard.is_active ());
  Guard.with_budget
    (Some (Guard.budget ~max_rows:1000 ()))
    (fun () ->
      Alcotest.(check bool) "active inside" true (Guard.is_active ());
      Guard.count_rows [ "outer" ] 1;
      Alcotest.(check int) "outer counted" 1 (Guard.observed ()).Guard.c_rows;
      Guard.with_budget
        (Some (Guard.budget ~max_rows:5 ()))
        (fun () ->
          Alcotest.(check int) "inner scope starts fresh" 0
            (Guard.observed ()).Guard.c_rows);
      Alcotest.(check int) "outer counter restored" 1
        (Guard.observed ()).Guard.c_rows);
  Alcotest.(check bool) "inactive after" false (Guard.is_active ())

let test_counts_rows_gating () =
  Alcotest.(check bool) "off outside any scope" false (Guard.counts_rows ());
  Guard.with_budget
    (Some (Guard.budget ~timeout:10.0 ()))
    (fun () ->
      Alcotest.(check bool)
        "timeout-only budget skips bulk row counting" false
        (Guard.counts_rows ()));
  Guard.with_budget
    (Some (Guard.budget ~max_rows:10 ()))
    (fun () ->
      Alcotest.(check bool)
        "row ceiling arms bulk row counting" true (Guard.counts_rows ()))

(* Row totals a whole run charges to its scope, pinned to the values
   measured before correlated sublink bodies replayed their
   binding-independent subtrees: a replay charges the rows of the run it
   replaces, so the totals must not move. Covers the Gen q1 plan of the
   fallback tests below and the Figure 6-7 plans that replay the most
   (synthetic Gen q1/q2, TPC-H Q4 Unn and Q22 Gen). *)
let test_row_totals_pinned () =
  let charged db plan =
    Guard.with_budget
      (Some (Guard.budget ~max_rows:max_int ()))
      (fun () ->
        ignore (Eval.query db plan);
        (Guard.observed ()).Guard.c_rows)
  in
  let plan_of db strategy sql =
    match Perm.exec db ~strategy sql with
    | Perm.Rows r -> r.Perm.plan
    | _ -> Alcotest.fail "not a row result"
  in
  let fallback_plan =
    let n1 = 1000 and n2 = 300 in
    let db = Synthetic.Workload.make_db ~seed:2 ~n1 ~n2 () in
    let inst = Synthetic.Workload.q1 ~seed:2 ~n1 ~n2 () in
    let r =
      Perm.run_query db ~strategy:Strategy.Gen ~provenance:true
        inst.Synthetic.Workload.query
    in
    ("Gen q1 1000x300", db, r.Perm.plan, 148_844)
  in
  let synthetic = Synthetic.Workload.make_db ~seed:4 ~n1:300 ~n2:60 () in
  let synthetic_plan label op expected =
    let sql =
      Printf.sprintf
        "SELECT PROVENANCE * FROM r1 WHERE b >= -150 AND b <= 150 AND a %s \
         (SELECT a FROM r2 WHERE b >= -40 AND b <= 40)"
        op
    in
    (label, synthetic, plan_of synthetic Strategy.Gen sql, expected)
  in
  let tpch = Tpch.Tpch_gen.generate ~seed:11 ~sf:0.05 () in
  let tpch_plan n strategy expected =
    let sql =
      Tpch.Tpch_queries.with_provenance
        (Tpch.Tpch_queries.instantiate ~seed:100 n)
    in
    ( Printf.sprintf "Q%d %s" n (Strategy.to_string strategy),
      tpch,
      plan_of tpch strategy sql,
      expected )
  in
  List.iter
    (fun (label, db, plan, expected) ->
      Alcotest.(check int) (label ^ " rows charged") expected (charged db plan))
    [
      fallback_plan;
      synthetic_plan "Gen q1" "= ANY" 68_194;
      synthetic_plan "Gen q2" "< ALL" 540_479;
      tpch_plan 4 Strategy.Unn 4_559;
      tpch_plan 22 Strategy.Gen 888;
    ]

(* ------------------------------------------------------------------ *)
(* Fault matrix: 4 strategies x 2 engines                               *)
(* ------------------------------------------------------------------ *)

(* The plan paths at which a fault of each boundary kind may fire in
   [plan]: scans at a [Base]/[Table] site of [Lint.sites], joins at a
   [Cross]/[Join]/[LeftJoin] site (a fused selection or projection
   reports at its join node), sublinks at the [op/sublink[k]] prefix of
   the body of a site's k-th sublink. *)
let fault_paths db plan =
  List.concat_map
    (fun (s : Lint.site) ->
      let kind =
        match s.Lint.s_query with
        | Algebra.Base _ | TableExpr _ -> [ ("scan", s.Lint.s_path) ]
        | Cross _ | Join _ | LeftJoin _ -> [ ("join", s.Lint.s_path) ]
        | _ -> []
      in
      kind
      @ List.map
          (fun (_, p) -> ("sublink", p))
          (Algebra.Path.sublinks s.Lint.s_path (List.map snd s.Lint.s_exprs)))
    (Lint.sites db plan)

(* For every strategy, on one engine: count the fault-injection boundary
   crossings N of a clean provenance run, then re-run once per k in
   1..N with a countdown fault armed at the k-th crossing. Every such
   run must either report a phase-attributed injected fault at a plan
   path of the executed plan ({!fault_paths}) or return exactly the
   clean result — a wrong answer is never acceptable. [prepare db
   ~strategy q] returns the executed plan and the run to repeat. The
   result is, per strategy, the sorted paths that fired. *)
let fault_matrix label prepare =
  let n1 = 12 and n2 = 6 in
  let db = Synthetic.Workload.make_db ~seed:7 ~n1 ~n2 () in
  let inst = Synthetic.Workload.q1 ~seed:7 ~n1 ~n2 () in
  let q = inst.Synthetic.Workload.query in
  Fun.protect ~finally:Guard.Faults.disarm (fun () ->
      List.map
        (fun strategy ->
          let name = Printf.sprintf "%s/%s" label (Strategy.to_string strategy) in
          let plan, run = prepare db ~strategy q in
          let valid = fault_paths db plan in
          let clean = rows (run ()) in
          (* learn N with a countdown that can never fire *)
          Guard.Faults.arm (Guard.Faults.Countdown max_int);
          ignore (run ());
          let n = Guard.Faults.events () in
          Alcotest.(check bool) (name ^ ": boundaries crossed") true (n > 0);
          let fired = ref [] in
          for k = 1 to n do
            Guard.Faults.arm (Guard.Faults.Countdown k);
            match run () with
            | rel ->
                (* the fault did not surface: the answer must still be
                   the clean one *)
                Alcotest.(check (list (list string)))
                  (Printf.sprintf "%s k=%d: result unchanged" name k)
                  (List.map (List.map Value.to_string) clean)
                  (List.map (List.map Value.to_string) (rows rel))
            | exception
                Resilience.Perm_error
                  {
                    e_phase = Resilience.Eval;
                    e_detail = Resilience.Fault { f_site; f_path };
                  } ->
                if not (List.mem (f_site, f_path) valid) then
                  Alcotest.failf "%s k=%d: %s fault at %s, no such plan path"
                    name k f_site
                    (Algebra.Path.to_string f_path);
                fired := Algebra.Path.to_string f_path :: !fired
            | exception e ->
                Alcotest.failf "%s k=%d: unclassified escape: %s" name k
                  (Printexc.to_string e)
          done;
          (strategy, List.sort_uniq compare !fired))
        [ Strategy.Gen; Strategy.Left; Strategy.Move; Strategy.Unn ])

(* The walker leg runs the rewritten, optimized plan through the
   reference walker, as the differential fuzzer does. *)
let reference_matrix =
  lazy
    (fault_matrix "reference" (fun db ~strategy q ->
         let plan = Optimizer.optimize db (fst (Perm.rewrite db ~strategy q)) in
         ( plan,
           fun () ->
             Resilience.enter Resilience.Eval (fun () ->
                 Eval.query_reference db plan) )))

let vectorized_matrix =
  lazy
    (fault_matrix "vectorized" (fun db ~strategy q ->
         let run () = Perm.run_query db ~strategy ~provenance:true q in
         ((run ()).Perm.plan, fun () -> (run ()).Perm.relation)))

let test_fault_matrix () = ignore (Lazy.force reference_matrix)
let test_fault_matrix_vectorized () = ignore (Lazy.force vectorized_matrix)

(* Both engines name a plan's operators alike, so the two matrices fire
   at the same paths. *)
let test_fault_paths_agree () =
  List.iter2
    (fun (strategy, reference) (_, vectorized) ->
      Alcotest.(check (list string))
        (Strategy.to_string strategy ^ ": fault paths")
        reference vectorized)
    (Lazy.force reference_matrix)
    (Lazy.force vectorized_matrix)

(* A path copied from [Estimate.annotate] arms a fault at exactly that
   operator, on both engines. Every scan and join of a Gen plan is
   tried; one whose body a sublink memo hit skips never fires, but the
   two engines reach the same ones, sublink bodies included. *)
let test_at_path_from_annotate () =
  let db = small_db () in
  let q =
    Algebra.(
      Select (any_op Eq (attr "a") (project [ (attr "c", "c") ] (Base "S")),
              Base "R"))
  in
  let plan = (Perm.run_query db ~strategy:Strategy.Gen ~provenance:true q).Perm.plan in
  let boundaries =
    List.filter_map
      (fun (a : Estimate.annot) ->
        match a.Estimate.a_query with
        | Algebra.Base _ | TableExpr _ | Cross _ | Join _ | LeftJoin _ ->
            Some (Algebra.Path.to_string a.Estimate.a_path)
        | _ -> None)
      (Estimate.annotate (Estimate.create db) plan)
  in
  let fired engine run =
    List.filter
      (fun path ->
        Guard.Faults.arm (Guard.Faults.At_path path);
        match run () with
        | _ -> false
        | exception Guard.Faults.Injected { i_path; _ } ->
            Alcotest.(check string)
              (engine ^ ": fault fires at the annotated operator")
              path
              (Algebra.Path.to_string i_path);
            true)
      boundaries
  in
  Fun.protect ~finally:Guard.Faults.disarm (fun () ->
      let reference = fired "reference" (fun () -> Eval.query_reference db plan)
      and vectorized = fired "vectorized" (fun () -> Eval.query db plan) in
      Alcotest.(check (list string)) "same operators fire" reference vectorized;
      Alcotest.(check bool) "the root join fires" true
        (List.mem "Project/Join" reference);
      Alcotest.(check bool) "a sublink body's scan fires" true
        (List.exists
           (fun p ->
             List.mem (Algebra.Path.segment 1) (String.split_on_char '/' p))
           reference))

let test_seeded_faults_deterministic () =
  let db = small_db () in
  let q =
    Algebra.(
      Select (any_op Eq (attr "a") (project [ (attr "c", "c") ] (Base "S")),
              Base "R"))
  in
  (* each run rewrites afresh, with fresh sublink ids: a fault path
     must not depend on them *)
  let outcome seed =
    Guard.Faults.arm (Guard.Faults.Seeded seed);
    match Perm.run_query db ~strategy:Strategy.Gen ~provenance:true q with
    | r -> "ok:" ^ String.concat "|" (List.concat_map (List.map Value.to_string) (rows r.Perm.relation))
    | exception Resilience.Perm_error e -> "err:" ^ Resilience.error_to_string e
  in
  Fun.protect ~finally:Guard.Faults.disarm (fun () ->
      for seed = 1 to 30 do
        Alcotest.(check string)
          (Printf.sprintf "seed %d: same outcome" seed)
          (outcome seed) (outcome seed)
      done)

(* ------------------------------------------------------------------ *)
(* Fallback ladder                                                      *)
(* ------------------------------------------------------------------ *)

(* A Gen rewrite whose sublink re-evaluations blow the row budget (two
   orders of magnitude more rows than any other strategy at this size)
   degrades to a cheaper strategy and still returns the relation the
   unbounded Gen run would have. *)
let test_fallback_from_budget () =
  let n1 = 1000 and n2 = 300 in
  let db = Synthetic.Workload.make_db ~seed:2 ~n1 ~n2 () in
  let inst = Synthetic.Workload.q1 ~seed:2 ~n1 ~n2 () in
  let q = inst.Synthetic.Workload.query in
  let unbounded = Perm.run_query db ~strategy:Strategy.Gen ~provenance:true q in
  let governed =
    Perm.run_query db ~strategy:Strategy.Gen
      ~budget:(Guard.budget ~max_rows:20_000 ())
      ~fallback:true ~provenance:true q
  in
  let lad =
    match governed.Perm.ladder with
    | Some l -> l
    | None -> Alcotest.fail "fallback run reports no ladder"
  in
  Alcotest.(check bool)
    "Gen was abandoned" true
    (List.exists
       (fun a ->
         a.Resilience.att_strategy = Strategy.Gen
         &&
         match a.Resilience.att_error.Resilience.e_detail with
         | Resilience.Budget _ -> true
         | _ -> false)
       lad.Resilience.lad_abandoned);
  Alcotest.(check bool)
    "a cheaper strategy delivered" true
    (lad.Resilience.lad_strategy <> Strategy.Gen);
  Alcotest.(check (list (list string)))
    "same relation as the unbounded Gen run"
    (List.map (List.map Value.to_string) (rows unbounded.Perm.relation))
    (List.map (List.map Value.to_string) (rows governed.Perm.relation))

(* Unn does not apply to q2; with fallback the ladder abandons it with
   an applicability error and a supported strategy answers. *)
let test_fallback_from_unsupported () =
  let n1 = 40 and n2 = 10 in
  let db = Synthetic.Workload.make_db ~seed:9 ~n1 ~n2 () in
  let inst = Synthetic.Workload.q2 ~seed:9 ~n1 ~n2 () in
  let q = inst.Synthetic.Workload.query in
  let r = Perm.run_query db ~strategy:Strategy.Unn ~fallback:true ~provenance:true q in
  let lad = Option.get r.Perm.ladder in
  Alcotest.(check bool)
    "Unn abandoned as unsupported" true
    (List.exists
       (fun a ->
         a.Resilience.att_strategy = Strategy.Unn
         &&
         match a.Resilience.att_error.Resilience.e_detail with
         | Resilience.Unsupported _ -> true
         | _ -> false)
       lad.Resilience.lad_abandoned);
  Alcotest.(check bool)
    "a supported strategy answered" true
    (List.mem lad.Resilience.lad_strategy
       (Synthetic.Workload.strategies_for `Q2))

(* Without fallback the same budget trip propagates as an error. *)
let test_no_fallback_propagates () =
  let n1 = 1000 and n2 = 300 in
  let db = Synthetic.Workload.make_db ~seed:2 ~n1 ~n2 () in
  let inst = Synthetic.Workload.q1 ~seed:2 ~n1 ~n2 () in
  match
    Perm.run_query db ~strategy:Strategy.Gen
      ~budget:(Guard.budget ~max_rows:20_000 ())
      ~provenance:true inst.Synthetic.Workload.query
  with
  | _ -> Alcotest.fail "expected a budget error"
  | exception Resilience.Perm_error { e_detail = Resilience.Budget _; _ } -> ()

(* The ladder consults the ranking hook only once a rung is abandoned:
   a first rung that answers costs no ranking. A budget needs the rung
   count for its wall-clock re-split, so it ranks up front. *)
let test_ranking_is_lazy () =
  let db = small_db () in
  let q = Algebra.Base "R" in
  let calls = ref 0 in
  let saved = !Resilience.strategy_ranking in
  (Resilience.strategy_ranking :=
     fun db q ->
       incr calls;
       saved db q);
  Fun.protect
    ~finally:(fun () -> Resilience.strategy_ranking := saved)
    (fun () ->
      let ladder ?budget f =
        Resilience.run_ladder db ~strategy:Strategy.Gen ~budget q f
      in
      let v, lad = ladder (fun _ -> 42) in
      Alcotest.(check int) "first rung answers" 42 v;
      Alcotest.(check int) "ranking not called" 0 !calls;
      Alcotest.(check int) "nothing abandoned" 0
        (List.length lad.Resilience.lad_abandoned);
      let unsupported =
        Resilience.Perm_error
          {
            Resilience.e_phase = Resilience.Rewrite;
            e_detail = Resilience.Unsupported "first rung refuses";
          }
      in
      let _, lad =
        ladder (fun s -> if s = Strategy.Gen then raise unsupported else 7)
      in
      Alcotest.(check int) "ranked once the first rung is abandoned" 1 !calls;
      Alcotest.(check bool)
        "a later rung answered" true
        (lad.Resilience.lad_strategy <> Strategy.Gen);
      calls := 0;
      ignore (ladder ~budget:(Guard.budget ~timeout:10.0 ()) (fun _ -> 1));
      Alcotest.(check int) "a budget ranks up front" 1 !calls)

(* ------------------------------------------------------------------ *)
(* Error taxonomy                                                       *)
(* ------------------------------------------------------------------ *)

exception Weird_local_exn

let test_classification () =
  let open Resilience in
  (match classify ~default:Eval (Strategy.Unsupported "no can do") with
  | { e_phase = Rewrite; e_detail = Unsupported "no can do" } -> ()
  | _ -> Alcotest.fail "Unsupported misclassified");
  (match classify ~default:Eval Division_by_zero with
  | { e_phase = Eval; e_detail = Message _ } -> ()
  | _ -> Alcotest.fail "Division_by_zero misclassified");
  (match
     classify ~default:Eval
       (Csv.Csv_error { file = Some "t.csv"; line = Some 3; msg = "bad row" })
   with
  | { e_phase = Load; e_detail = Message m } ->
      Alcotest.(check string) "csv message carries file:line" "t.csv:3: bad row" m
  | _ -> Alcotest.fail "Csv_error misclassified");
  (match classify ~default:Eval Weird_local_exn with
  | _ -> Alcotest.fail "unknown exception should not classify"
  | exception Not_found -> ());
  Alcotest.(check bool) "budget retryable" true
    (retryable { e_phase = Eval; e_detail = Budget { Guard.t_path = []; t_reason = Guard.Rows_exceeded 1; t_counters = { Guard.c_rows = 1; c_pairs = 0; c_elapsed = 0.0; c_alloc_mb = 0.0 } } });
  Alcotest.(check bool) "unsupported retryable" true
    (retryable { e_phase = Rewrite; e_detail = Unsupported "x" });
  Alcotest.(check bool) "semantic errors not retryable" false
    (retryable { e_phase = Typecheck; e_detail = Message "x" })

let test_enter () =
  let open Resilience in
  (match enter Typecheck (fun () -> raise (Failure "boom")) with
  | _ -> Alcotest.fail "enter swallowed the error"
  | exception Perm_error { e_phase = Typecheck; e_detail = Message "boom" } ->
      ());
  (* an inner Perm_error passes through unchanged *)
  let inner = { e_phase = Load; e_detail = Message "inner" } in
  (match enter Eval (fun () -> raise (Perm_error inner)) with
  | _ -> Alcotest.fail "enter swallowed the inner error"
  | exception Perm_error e ->
      Alcotest.(check string) "phase preserved" "load"
        (phase_to_string e.e_phase));
  (* an unknown exception escapes unclassified *)
  match enter Eval (fun () -> raise Weird_local_exn) with
  | _ -> Alcotest.fail "enter swallowed the unknown exception"
  | exception Weird_local_exn -> ()

let test_csv_errors () =
  (match Csv.of_lines ~file:"t.csv" [ "a,b"; "1,2"; "3" ] with
  | _ -> Alcotest.fail "short row accepted"
  | exception Csv.Csv_error { file = Some "t.csv"; line = Some 3; _ } -> ());
  match
    Resilience.enter Resilience.Load (fun () ->
        Csv.load "/nonexistent/never/x.csv")
  with
  | _ -> Alcotest.fail "missing file accepted"
  | exception Resilience.Perm_error
      { e_phase = Resilience.Load; e_detail = Resilience.Message _ } ->
      ()

(* ------------------------------------------------------------------ *)
(* Property: a budget either trips or leaves the answer exact           *)
(* ------------------------------------------------------------------ *)

let budget_queries =
  Algebra.
    [
      Base "R";
      Select (Cmp (Leq, attr "a", int 3), Base "R");
      project [ (attr "b", "b"); (attr "a", "a") ] (Base "R");
      Union (Bag, Base "R", Base "R");
      Cross (Base "R", Base "S");
      Select
        ( any_op Eq (attr "a") (project [ (attr "c", "c") ] (Base "S")),
          Base "R" );
      Order ([ (attr "a", Desc) ], Base "R");
    ]

let prop_trip_or_exact =
  QCheck.Test.make ~name:"a budget either trips or leaves the answer exact"
    ~count:300
    (QCheck.triple
       (QCheck.int_range 1 40)
       (QCheck.int_bound (List.length budget_queries - 1))
       QCheck.bool)
    (fun (k, qi, walker) ->
      let eval = if walker then Eval.query_reference else Eval.query in
      let db = small_db () in
      let q = List.nth budget_queries qi in
      let clean = rows (eval db q) in
      match
        Guard.with_budget
          (Some (Guard.budget ~max_rows:k ()))
          (fun () -> eval db q)
      with
      | rel -> rows rel = clean
      | exception Guard.Budget_exceeded _ -> true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "guard"
    [
      ( "budget",
        [
          Alcotest.test_case "row ceiling trips with path" `Quick
            test_row_ceiling;
          Alcotest.test_case "pair ceiling preflights cross" `Quick
            test_pair_ceiling_preflight;
          Alcotest.test_case "timeout trips" `Quick test_timeout_trips;
          Alcotest.test_case "reference engine: per-row ticks reach the clock"
            `Quick test_reference_timeout;
          Alcotest.test_case "allocation ceiling trips" `Quick
            test_alloc_trips;
          Alcotest.test_case "allocation meter counts words" `Quick
            test_alloc_meter_words;
          Alcotest.test_case "scopes nest" `Quick test_scope_nesting;
          Alcotest.test_case "bulk counting gated on row ceiling" `Quick
            test_counts_rows_gating;
          Alcotest.test_case "row totals pinned across sublink replay" `Quick
            test_row_totals_pinned;
        ] );
      ( "faults",
        [
          Alcotest.test_case "matrix: 4 strategies x 2 engines" `Slow
            test_fault_matrix;
          Alcotest.test_case "seeded faults are deterministic" `Quick
            test_seeded_faults_deterministic;
          Alcotest.test_case "vectorized matrix: 4 strategies" `Slow
            test_fault_matrix_vectorized;
          Alcotest.test_case "both engines fault at the same plan paths"
            `Slow test_fault_paths_agree;
          Alcotest.test_case "At_path from Estimate.annotate" `Quick
            test_at_path_from_annotate;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "budget trip degrades to cheaper strategy" `Quick
            test_fallback_from_budget;
          Alcotest.test_case "unsupported strategy degrades" `Quick
            test_fallback_from_unsupported;
          Alcotest.test_case "no fallback: trip propagates" `Quick
            test_no_fallback_propagates;
          Alcotest.test_case "ranking deferred to the first abandoned rung"
            `Quick test_ranking_is_lazy;
        ] );
      ( "taxonomy",
        [
          Alcotest.test_case "classification" `Quick test_classification;
          Alcotest.test_case "enter converts and preserves" `Quick test_enter;
          Alcotest.test_case "CSV errors carry file:line" `Quick
            test_csv_errors;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:false prop_trip_or_exact ] );
    ]
