(* Concurrency sanitizer: vector-clock detector unit tests, the five
   injected-race mutants (each with a fixed twin that publishes the
   real synchronization edge and must come back clean), cross-domain
   Guard budget aggregation, two-domain memo/cache stress under the
   armed detector, the share-lint inventory against the real sources,
   and a QCheck schedule-parity property (vectorized engine under
   chaos schedules on a genuinely multi-domain pool vs the reference
   walker, all strategies). *)

open Relalg

let i n = Value.Int n

(* Run [f] on a fresh domain while the calling domain runs [g]; both
   run strictly sequentially (g first), so any race the detector
   reports comes from missing happens-before edges, not timing. *)
let sequential_cross_domain g f =
  g ();
  Domain.join (Domain.spawn f)

let with_armed ?seed body =
  Race.arm ?seed ();
  Fun.protect ~finally:Race.disarm body

let reports_of ?seed body =
  with_armed ?seed (fun () ->
      body ();
      Race.reports ())

(* ------------------------------------------------------------------ *)
(* Detector unit tests                                                 *)
(* ------------------------------------------------------------------ *)

let test_disarmed_is_silent () =
  Race.disarm ();
  Race.write "unit.loc";
  Race.read "unit.loc";
  Race.release "unit.edge";
  Race.acquire "unit.edge";
  Alcotest.(check bool) "disarmed" false (Race.is_armed ())

let test_write_write_race () =
  let rs =
    reports_of ~seed:7 (fun () ->
        sequential_cross_domain
          (fun () -> Race.write_at "unit.cell" ~path:"main/write")
          (fun () -> Race.write_at "unit.cell" ~path:"worker/write"))
  in
  match rs with
  | [ r ] ->
      Alcotest.(check string) "location" "unit.cell" r.Race.r_loc;
      Alcotest.(check string) "first path" "main/write" r.Race.r_first.Race.a_path;
      Alcotest.(check string)
        "second path" "worker/write" r.Race.r_second.Race.a_path;
      Alcotest.(check bool)
        "distinct domains" true
        (r.Race.r_first.Race.a_domain <> r.Race.r_second.Race.a_domain);
      Alcotest.(check (option int)) "schedule seed" (Some 7) r.Race.r_seed
  | rs -> Alcotest.failf "expected exactly one report, got %d" (List.length rs)

let test_read_write_race () =
  let rs =
    reports_of (fun () ->
        sequential_cross_domain
          (fun () -> Race.read "unit.rw")
          (fun () -> Race.write "unit.rw"))
  in
  Alcotest.(check int) "one report" 1 (List.length rs);
  let r = List.hd rs in
  Alcotest.(check bool) "read vs write" true
    (r.Race.r_first.Race.a_kind = Race.Read
    && r.Race.r_second.Race.a_kind = Race.Write)

let test_read_read_no_race () =
  let rs =
    reports_of (fun () ->
        sequential_cross_domain
          (fun () -> Race.read "unit.rr")
          (fun () -> Race.read "unit.rr"))
  in
  Alcotest.(check int) "no report" 0 (List.length rs)

let test_edge_orders () =
  let rs =
    reports_of (fun () ->
        sequential_cross_domain
          (fun () ->
            Race.write "unit.pub";
            Race.release "unit.edge")
          (fun () ->
            Race.acquire "unit.edge";
            Race.write "unit.pub"))
  in
  Alcotest.(check int) "release/acquire orders" 0 (List.length rs)

let test_with_lock_orders () =
  let m = Mutex.create () in
  let rs =
    reports_of (fun () ->
        sequential_cross_domain
          (fun () ->
            Race.with_lock m "unit.lock" (fun () -> Race.write "unit.cell2"))
          (fun () ->
            Race.with_lock m "unit.lock" (fun () -> Race.write "unit.cell2")))
  in
  Alcotest.(check int) "with_lock orders" 0 (List.length rs)

let test_report_dedup () =
  let rs =
    reports_of (fun () ->
        sequential_cross_domain
          (fun () -> Race.write "unit.dedup")
          (fun () ->
            for _ = 1 to 10 do
              Race.write "unit.dedup"
            done))
  in
  Alcotest.(check int) "one report per (loc, domain pair)" 1 (List.length rs)

let test_arm_resets () =
  ignore
    (reports_of (fun () ->
         sequential_cross_domain
           (fun () -> Race.write "unit.reset")
           (fun () -> Race.write "unit.reset")));
  let rs = reports_of (fun () -> Race.write "unit.reset") in
  Alcotest.(check int) "fresh arm, fresh state" 0 (List.length rs)

(* ------------------------------------------------------------------ *)
(* The five injected-race mutants (and their fixed twins)              *)
(*                                                                     *)
(* Each mutant replays a realistic engine bug at test-only access      *)
(* points: the shared cell keeps its production location name, the     *)
(* accesses run on two real domains, and the bug is modeled exactly    *)
(* as it would occur — by NOT publishing the synchronization edge the  *)
(* fixed code path publishes. The fixed twin publishes it and must be  *)
(* clean.                                                              *)
(* ------------------------------------------------------------------ *)

let expect_race name loc rs =
  match List.find_opt (fun r -> r.Race.r_loc = loc) rs with
  | None -> Alcotest.failf "%s: no report on %s" name loc
  | Some r ->
      Alcotest.(check bool)
        (name ^ ": both access paths attributed") true
        (r.Race.r_first.Race.a_path <> "" && r.Race.r_second.Race.a_path <> "");
      Alcotest.(check bool)
        (name ^ ": cross-domain") true
        (r.Race.r_first.Race.a_domain <> r.Race.r_second.Race.a_domain)

let expect_clean name rs =
  Alcotest.(check int) (name ^ ": fixed twin is clean") 0 (List.length rs)

(* 1. Guard tick on shared per-scope counters without domain-local
   views (the pre-refactor bug: every worker bumping one plain int). *)
let test_mutant_unguarded_guard_tick () =
  let loc = "guard.scope.rows" in
  let buggy =
    reports_of ~seed:11 (fun () ->
        sequential_cross_domain
          (fun () -> Race.write_at loc ~path:"Select/count_row@coordinator")
          (fun () -> Race.write_at loc ~path:"Select/count_row@worker"))
  in
  expect_race "unguarded guard tick" loc buggy;
  (* fixed: per-domain views flushed through an atomic (modeled as the
     release/acquire pair the Atomic provides) *)
  let fixed =
    reports_of (fun () ->
        sequential_cross_domain
          (fun () ->
            Race.write_at loc ~path:"Select/count_row@coordinator";
            Race.release "guard.scope.flush")
          (fun () ->
            Race.acquire "guard.scope.flush";
            Race.write_at loc ~path:"Select/count_row@worker"))
  in
  expect_clean "guard tick" fixed

(* 2. Insert into the columnar base-relation cache without holding
   vexec.cache_lock. *)
let test_mutant_unlocked_cache_insert () =
  let loc = "vexec.cache" in
  let buggy =
    reports_of ~seed:12 (fun () ->
        sequential_cross_domain
          (fun () ->
            Race.read_at loc ~path:"columnar_batches/lookup";
            Race.write_at loc ~path:"columnar_batches/insert")
          (fun () ->
            Race.read_at loc ~path:"columnar_batches/lookup";
            Race.write_at loc ~path:"columnar_batches/insert"))
  in
  expect_race "unlocked cache insert" loc buggy;
  let m = Mutex.create () in
  let fixed =
    reports_of (fun () ->
        sequential_cross_domain
          (fun () ->
            Race.with_lock m "vexec.cache_lock" (fun () ->
                Race.read_at loc ~path:"columnar_batches/lookup";
                Race.write_at loc ~path:"columnar_batches/insert"))
          (fun () ->
            Race.with_lock m "vexec.cache_lock" (fun () ->
                Race.read_at loc ~path:"columnar_batches/lookup";
                Race.write_at loc ~path:"columnar_batches/insert")))
  in
  expect_clean "cache insert" fixed

(* 3. Job-remaining maintained as a plain int instead of an Atomic. *)
let test_mutant_nonatomic_job_counter () =
  let loc = "morsel.job0.remaining" in
  let buggy =
    reports_of ~seed:13 (fun () ->
        sequential_cross_domain
          (fun () -> Race.write_at loc ~path:"run_task/decrement@w0")
          (fun () -> Race.write_at loc ~path:"run_task/decrement@w1"))
  in
  expect_race "non-atomic job counter" loc buggy;
  let fixed =
    reports_of (fun () ->
        sequential_cross_domain
          (fun () ->
            Race.write_at loc ~path:"run_task/decrement@w0";
            Race.release "morsel.job0.done")
          (fun () ->
            Race.acquire "morsel.job0.done";
            Race.write_at loc ~path:"run_task/decrement@w1"))
  in
  expect_clean "job counter" fixed

(* 4. Memo result published without the release fence: the reader hits
   the cell with no acquire path back to the builder. *)
let test_mutant_memo_without_fence () =
  let loc = "relation[0].rows_memo" in
  let buggy =
    reports_of ~seed:14 (fun () ->
        sequential_cross_domain
          (fun () -> Race.write_at loc ~path:"memo_init/build")
          (fun () -> Race.read_at loc ~path:"tuples/hit"))
  in
  expect_race "memo published without fence" loc buggy;
  let fixed =
    reports_of (fun () ->
        sequential_cross_domain
          (fun () ->
            Race.write_at loc ~path:"memo_init/build";
            Race.release loc)
          (fun () ->
            Race.acquire loc;
            Race.read_at loc ~path:"tuples/hit"))
  in
  expect_clean "memo fence" fixed

(* 5. Deque bottom/top indices touched outside the deque lock (owner
   pop racing a steal). *)
let test_mutant_deque_index_race () =
  let loc = "morsel.job0.dq0.bot" in
  let buggy =
    reports_of ~seed:15 (fun () ->
        sequential_cross_domain
          (fun () -> Race.write_at loc ~path:"deque_pop@owner")
          (fun () ->
            Race.read_at loc ~path:"deque_steal@thief";
            Race.write_at "morsel.job0.dq0.top" ~path:"deque_steal@thief"))
  in
  expect_race "deque index race" loc buggy;
  let m = Mutex.create () in
  let fixed =
    reports_of (fun () ->
        sequential_cross_domain
          (fun () ->
            Race.with_lock m "morsel.job0.dq0" (fun () ->
                Race.write_at loc ~path:"deque_pop@owner"))
          (fun () ->
            Race.with_lock m "morsel.job0.dq0" (fun () ->
                Race.read_at loc ~path:"deque_steal@thief";
                Race.write_at "morsel.job0.dq0.top" ~path:"deque_steal@thief")))
  in
  expect_clean "deque indices" fixed

(* ------------------------------------------------------------------ *)
(* Guard: cross-domain budget aggregation                              *)
(* ------------------------------------------------------------------ *)

(* A 4-domain pool (unclamped: the CI host may report one core). Tasks
   sized so that any domain running two of them crosses the ceiling —
   8 tasks on 4 workers guarantee one does, whatever the schedule. *)
let test_budget_trips_across_domains () =
  let pool = Morsel.create 4 in
  Fun.protect
    ~finally:(fun () -> Morsel.shutdown pool)
    (fun () ->
      match
        Guard.with_budget
          (Some (Guard.budget ~max_rows:100 ()))
          (fun () ->
            let scope = Guard.current_scope () in
            Morsel.run pool ~tasks:8 (fun _w _t ->
                Guard.with_scope scope (fun () ->
                    Guard.count_rows [ "task" ] 60)))
      with
      | () -> Alcotest.fail "budget did not trip across domains"
      | exception Guard.Budget_exceeded t -> (
          match t.Guard.t_reason with
          | Guard.Rows_exceeded 100 -> ()
          | _ -> Alcotest.fail "wrong trip reason"))

let test_aggregation_exact_total () =
  let pool = Morsel.create 4 in
  Fun.protect
    ~finally:(fun () -> Morsel.shutdown pool)
    (fun () ->
      Guard.with_budget
        (Some (Guard.budget ~max_rows:10_000 ()))
        (fun () ->
          let scope = Guard.current_scope () in
          Morsel.run pool ~tasks:8 (fun _w _t ->
              Guard.with_scope scope (fun () -> Guard.count_rows [ "task" ] 50));
          Alcotest.(check int)
            "8 tasks x 50 rows aggregate exactly" 400
            (Guard.observed ()).Guard.c_rows))

(* End-to-end: a vectorized query on a 4-domain pool trips its row
   budget (the pre-refactor Guard lost worker-side counts entirely). *)
let test_vexec_budget_trips_on_pool () =
  let schema = Schema.of_list [ Schema.attr "a" Vtype.TInt ] in
  let rel =
    Relation.of_values schema (List.init 64 (fun k -> [ i (k mod 7) ]))
  in
  let db = Database.of_list [ ("t", rel) ] in
  let pool = Morsel.create 4 in
  let saved_batch = !Vexec.batch_rows in
  Vexec.pool_override := Some pool;
  Vexec.batch_rows := 2;
  Fun.protect
    ~finally:(fun () ->
      Vexec.pool_override := None;
      Vexec.batch_rows := saved_batch;
      Morsel.shutdown pool)
    (fun () ->
      let q =
        Algebra.Select
          ( Algebra.Cmp (Algebra.Geq, Algebra.Attr "a", Algebra.Const (i 0)),
            Algebra.Base "t" )
      in
      match
        Guard.with_budget
          (Some (Guard.budget ~max_rows:10 ()))
          (fun () -> Vexec.query db q)
      with
      | _ -> Alcotest.fail "vectorized row budget did not trip on the pool"
      | exception Guard.Budget_exceeded t -> (
          match t.Guard.t_reason with
          | Guard.Rows_exceeded 10 -> ()
          | _ -> Alcotest.fail "wrong trip reason"))

(* ------------------------------------------------------------------ *)
(* Two-domain stress under the armed detector: engine paths are clean  *)
(* ------------------------------------------------------------------ *)

let test_relation_memo_stress_armed () =
  let rs =
    reports_of (fun () ->
        for _ = 1 to 20 do
          let schema = Schema.of_list [ Schema.attr "a" Vtype.TInt ] in
          let r =
            Relation.make_lazy ~cardinality:32 schema (fun () ->
                List.init 32 (fun k -> Tuple.of_list [ i k ]))
          in
          let d =
            Domain.spawn (fun () -> ignore (Relation.tuples r))
          in
          ignore (Relation.tuples r);
          Domain.join d
        done)
  in
  Alcotest.(check int) "relation memo stress: no reports" 0 (List.length rs)

let test_vexec_cache_stress_armed () =
  let schema = Schema.of_list [ Schema.attr "a" Vtype.TInt ] in
  let rel = Relation.of_values schema (List.init 40 (fun k -> [ i k ])) in
  let db = Database.of_list [ ("t", rel) ] in
  let q =
    Algebra.Select
      ( Algebra.Cmp (Algebra.Gt, Algebra.Attr "a", Algebra.Const (i 3)),
        Algebra.Base "t" )
  in
  Vexec.clear_cache ();
  let rs =
    reports_of (fun () ->
        for _ = 1 to 10 do
          let d = Domain.spawn (fun () -> ignore (Vexec.query db q)) in
          ignore (Vexec.query db q);
          Domain.join d
        done)
  in
  Alcotest.(check int) "vexec cache stress: no reports" 0 (List.length rs)

(* ------------------------------------------------------------------ *)
(* Share lint                                                           *)
(* ------------------------------------------------------------------ *)

let test_share_lint_clean_on_sources () =
  match Share_lint.default_root () with
  | None -> () (* running outside the source tree; covered in CI *)
  | Some root ->
      let diags = Share_lint.check_sources ~root in
      Alcotest.(check string) "share-lint clean" "" (Lint.report diags)

let test_share_lint_flags_unregistered_mutable () =
  let src = "let sneaky = ref 0\n\nlet ok x = x + 1\n" in
  let ds = Share_lint.check_module ~module_:"vexec" src in
  Alcotest.(check bool)
    "unregistered ref is an error" true
    (List.exists
       (fun d ->
         d.Lint.severity = Lint.Error && d.Lint.rule = "share-undeclared-mutable")
       (Lint.errors ds))

let test_share_lint_flags_kind_mismatch () =
  let src = "let chaos = ref 0\n" in
  let ds = Share_lint.check_module ~module_:"morsel" src in
  Alcotest.(check bool)
    "atomic registered, ref declared" true
    (List.exists (fun d -> d.Lint.rule = "share-kind-mismatch") ds)

let test_share_lint_scanner () =
  let src =
    String.concat "\n"
      [
        "(* a ref in a comment: ref *)";
        "let doc = \"Hashtbl.create in a string\"";
        "let table : (int, int) Hashtbl.t = Hashtbl.create 16";
        "let helper x =";
        "  let local = ref 0 in";
        "  incr local;";
        "  x + !local";
        "";
        "module Sub = struct";
        "  let inner = Atomic.make 0";
        "end";
        "";
        "let multi =";
        "  ref []";
        "";
      ]
  in
  let ds = Share_lint.scan src in
  let kinds =
    List.map (fun d -> (d.Share_lint.d_name, d.Share_lint.d_kind)) ds
  in
  Alcotest.(check (list (pair string string)))
    "scanner finds exactly the toplevel mutables"
    [ ("table", "hashtbl"); ("Sub.inner", "atomic"); ("multi", "ref") ]
    kinds

let test_share_lint_inventory_consistent () =
  Alcotest.(check int)
    "inventory self-consistency" 0
    (List.length (Share_lint.check_inventory ()))

let test_race_report_as_diagnostic () =
  let rs =
    reports_of ~seed:3 (fun () ->
        sequential_cross_domain
          (fun () -> Race.write "unit.diag")
          (fun () -> Race.write "unit.diag"))
  in
  let d = Share_lint.diagnostic_of_race (List.hd rs) in
  Alcotest.(check string) "stable rule id" "race-unordered-access" d.Lint.rule;
  let js = Share_lint.diagnostics_json [ d ] in
  Alcotest.(check bool)
    "json carries the rule" true
    (let re = Str.regexp_string "\"rule\":\"race-unordered-access\"" in
     try
       ignore (Str.search_forward re js 0);
       true
     with Not_found -> false)

(* ------------------------------------------------------------------ *)
(* Schedule parity: chaos schedules on a real multi-domain pool        *)
(* ------------------------------------------------------------------ *)

let schedule_parity_prop =
  let pool = Morsel.create 2 in
  (* pool shutdown leaks at process exit — acceptable in a test binary *)
  QCheck.Test.make ~count:10 ~name:"vectorized under chaos schedules = reference"
    QCheck.(pair small_nat small_nat)
    (fun (case_seed, sched_seed) ->
      let case = Fuzz.Qgen.case_of_seed ~config:Fuzz.Racefuzz.default_config case_seed in
      match Fuzz.Racefuzz.check ~pool ~sched_seed case with
      | Fuzz.Racefuzz.Clean _ | Fuzz.Racefuzz.Skip _ -> true
      | Fuzz.Racefuzz.Fail detail -> QCheck.Test.fail_report detail)

let test_racefuzz_mini_campaign () =
  let stats =
    Fuzz.Racefuzz.campaign ~seed:5 ~count:6 ~domains:3 ()
  in
  Alcotest.(check int) "mini campaign clean" 0
    (List.length stats.Fuzz.Racefuzz.rs_failures);
  Alcotest.(check bool) "mini campaign ran plans" true
    (stats.Fuzz.Racefuzz.rs_plans > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "race"
    [
      ( "detector",
        [
          Alcotest.test_case "disarmed is silent" `Quick test_disarmed_is_silent;
          Alcotest.test_case "write-write race" `Quick test_write_write_race;
          Alcotest.test_case "read-write race" `Quick test_read_write_race;
          Alcotest.test_case "read-read no race" `Quick test_read_read_no_race;
          Alcotest.test_case "release/acquire orders" `Quick test_edge_orders;
          Alcotest.test_case "with_lock orders" `Quick test_with_lock_orders;
          Alcotest.test_case "report dedup" `Quick test_report_dedup;
          Alcotest.test_case "arm resets state" `Quick test_arm_resets;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "unguarded guard tick" `Quick
            test_mutant_unguarded_guard_tick;
          Alcotest.test_case "unlocked cache insert" `Quick
            test_mutant_unlocked_cache_insert;
          Alcotest.test_case "non-atomic job counter" `Quick
            test_mutant_nonatomic_job_counter;
          Alcotest.test_case "memo published without fence" `Quick
            test_mutant_memo_without_fence;
          Alcotest.test_case "deque index race" `Quick
            test_mutant_deque_index_race;
        ] );
      ( "guard-aggregation",
        [
          Alcotest.test_case "budget trips across domains" `Quick
            test_budget_trips_across_domains;
          Alcotest.test_case "totals aggregate exactly" `Quick
            test_aggregation_exact_total;
          Alcotest.test_case "vectorized trip on 4-domain pool" `Quick
            test_vexec_budget_trips_on_pool;
        ] );
      ( "stress-armed",
        [
          Alcotest.test_case "relation memos, two domains" `Quick
            test_relation_memo_stress_armed;
          Alcotest.test_case "vexec cache, two domains" `Quick
            test_vexec_cache_stress_armed;
        ] );
      ( "share-lint",
        [
          Alcotest.test_case "clean on the real sources" `Quick
            test_share_lint_clean_on_sources;
          Alcotest.test_case "flags unregistered mutable" `Quick
            test_share_lint_flags_unregistered_mutable;
          Alcotest.test_case "flags kind mismatch" `Quick
            test_share_lint_flags_kind_mismatch;
          Alcotest.test_case "scanner" `Quick test_share_lint_scanner;
          Alcotest.test_case "inventory self-consistency" `Quick
            test_share_lint_inventory_consistent;
          Alcotest.test_case "race report as diagnostic" `Quick
            test_race_report_as_diagnostic;
        ] );
      ( "schedule-fuzz",
        [
          QCheck_alcotest.to_alcotest schedule_parity_prop;
          Alcotest.test_case "mini campaign" `Slow test_racefuzz_mini_campaign;
        ] );
    ]
