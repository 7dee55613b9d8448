(* The mutation harness for the translation validator: every
   deliberately broken rule variant embedded in Simplify/Optimizer
   behind the test-only [Rewrite_trace.mutation] hook must be caught by
   [Certify] with the correct rule name and operator path — and the
   stock pipeline must certify clean (zero failed obligations) on the
   TPC-H and synthetic workloads under every applicable strategy. *)

open Relalg
open Core
module A = Algebra

let i n = Value.Int n

let rs_schema =
  Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt ]

(* r and r2 share a schema (for set operations); s has its own. *)
let test_db () =
  Database.of_list
    [
      ( "r",
        Relation.of_values rs_schema
          [ [ i 1; i 1 ]; [ i 2; i 1 ]; [ i 3; i 2 ] ] );
      ("r2", Relation.of_values rs_schema [ [ i 1; i 1 ]; [ i 4; i 2 ] ]);
      ( "s",
        Relation.of_values
          (Schema.of_list
             [ Schema.attr "c" Vtype.TInt; Schema.attr "d" Vtype.TInt ])
          [ [ i 2; i 3 ]; [ i 3; i 4 ] ] );
    ]

let certify ?mutation db q =
  let run () = snd (Certify.optimize db q) in
  match mutation with
  | None -> run ()
  | Some m -> Rewrite_trace.with_mutation m run

(* ------------------------------------------------------------------ *)
(* Mutation harness: each mutant must be caught, with attribution      *)
(* ------------------------------------------------------------------ *)

(* One mutant: name, a plan its broken rule fires on, the rule name the
   certificate must attribute the failure to, and the expected operator
   path of the failing obligation. *)
type mutant_case = {
  m_name : string;
  m_plan : A.query;
  m_rule : string;
  m_path : string list;
}

let mutant_cases =
  let open A in
  [
    {
      (* drops a pushable conjunct while distributing over a cross *)
      m_name = "opt-drop-conjunct";
      m_plan =
        Select (eq (attr "a") (int 1) &&& eq (attr "c") (int 2),
                Cross (Base "r", Base "s"));
      m_rule = "pushdown-into-cross";
      m_path = [ "Select" ];
    };
    {
      (* drops the residual (both-sides) conjunct entirely *)
      m_name = "opt-residual-drop";
      m_plan =
        Select (eq (Binop (Add, attr "a", attr "c")) (int 3),
                Cross (Base "r", Base "s"));
      m_rule = "pushdown-into-cross";
      m_path = [ "Select" ];
    };
    {
      (* pushes a null-intolerant filter into the nullable side of a
         left join *)
      m_name = "opt-leftjoin-push-right";
      m_plan =
        Select (eq (attr "c") (int 2),
                LeftJoin (eq (attr "a") (attr "c"), Base "r", Base "s"));
      m_rule = "pushdown-into-leftjoin";
      m_path = [ "Select" ];
    };
    {
      (* merges through a DISTINCT projection, changing multiplicities *)
      m_name = "opt-merge-distinct";
      m_plan =
        project [ (attr "a", "a") ]
          (project ~distinct:true
             [ (attr "a", "a"); (attr "b", "b") ]
             (Base "r"));
      m_rule = "merge-projects";
      m_path = [ "Project" ];
    };
    {
      (* pushes a condition over computed columns below the projection
         that defines them — the pushed plan no longer typechecks *)
      m_name = "opt-push-nonrename";
      m_plan =
        Select (eq (attr "x") (int 2),
                project [ (Binop (Add, attr "a", Const (i 1)), "x") ] (Base "r"));
      m_rule = "pushdown-through-project";
      m_path = [ "Select" ];
    };
    {
      (* narrows the column set a DISTINCT projection dedups on *)
      m_name = "prune-distinct";
      m_plan =
        project [ (attr "a", "a") ]
          (project ~distinct:true
             [ (attr "a", "a"); (attr "b", "b") ]
             (Base "r"));
      m_rule = "prune";
      m_path = [ "Project"; "Project" ];
    };
    {
      (* drops GROUP BY columns nothing above reads, merging groups *)
      m_name = "prune-group-by";
      m_plan =
        project
          [ (attr "a", "a"); (attr "n", "n") ]
          (aggregate
             ~group_by:[ (attr "a", "a"); (attr "b", "b") ]
             ~aggs:
               [
                 {
                   agg_func = "count";
                   agg_distinct = false;
                   agg_arg = None;
                   agg_name = "n";
                 };
               ]
             (Base "r"));
      m_rule = "prune";
      m_path = [ "Project"; "Agg" ];
    };
    {
      (* narrows set-operation arms to the needed columns, changing what
         the set difference matches on *)
      m_name = "prune-setop";
      m_plan = project [ (attr "a", "a") ] (Diff (SetSem, Base "r", Base "r2"));
      m_rule = "prune";
      m_path = [ "Project"; "Diff" ];
    };
    {
      (* negates =n like ordinary equality — wrong under NULLs *)
      m_name = "simp-not-eqnull";
      m_plan = Select (Not (Cmp (EqNull, attr "a", attr "b")), Base "r");
      m_rule = "fold-exprs";
      m_path = [ "Select" ];
    };
    {
      (* treats [NULL AND x] as [x] — wrong when x is TRUE *)
      m_name = "simp-and-null";
      m_plan =
        Select (And (Const Value.Null, eq (attr "a") (int 1)), Base "r");
      m_rule = "fold-exprs";
      m_path = [ "Select" ];
    };
    {
      (* drops a selection whose condition folded to NULL *)
      m_name = "simp-select-null";
      m_plan = Select (Const Value.Null, Base "r");
      m_rule = "select-true";
      m_path = [ "Select" ];
    };
    {
      (* folds a never-FALSE selection to empty — wrong polarity: the
         tautology [a =n a] keeps every row *)
      m_name = "sym-unsat-null-ok";
      m_plan = Select (Cmp (EqNull, attr "a", attr "a"), Base "r");
      m_rule = "unsat-fold";
      m_path = [ "Select" ];
    };
    {
      (* assumes base columns never NULL: [IS NULL a] is "unsatisfiable"
         only on the all-non-null databases the mutant imagines *)
      m_name = "sym-unsat-notnull-db";
      m_plan = Select (IsNull (attr "a"), Base "r");
      m_rule = "unsat-fold";
      m_path = [ "Select" ];
    };
    {
      (* treats never-FALSE as always-TRUE: [p OR NOT p] is NULL on NULL
         rows, so dropping the selection leaks them *)
      m_name = "sym-taut-not-false";
      m_plan =
        Select (gt (attr "a") (int 1) ||| Not (gt (attr "a") (int 1)),
                Base "r");
      m_rule = "taut-fold";
      m_path = [ "Select" ];
    };
    {
      (* tests the redundancy implication backwards, dropping the
         stronger conjunct [a < 1] and keeping the weaker [a < 5] *)
      m_name = "sym-drop-implicant";
      m_plan = Select (lt (attr "a") (int 1) &&& lt (attr "a") (int 5), Base "r");
      m_rule = "drop-implied";
      m_path = [ "Select" ];
    };
    {
      (* derives the implied predicate with its comparison flipped:
         [a = c AND a < 1] yields [c > 1] instead of [c < 1] *)
      m_name = "sym-implied-op-flip";
      m_plan =
        Select (eq (attr "a") (attr "c") &&& lt (attr "a") (int 1),
                Cross (Base "r", Base "s"));
      m_rule = "implied-predicate";
      m_path = [ "Select" ];
    };
    {
      (* propagates constants through a disequality as if it were an
         equality edge *)
      m_name = "sym-implied-through-neq";
      m_plan =
        Select (Cmp (Neq, attr "a", attr "c") &&& lt (attr "a") (int 1),
                Cross (Base "r", Base "s"));
      m_rule = "implied-predicate";
      m_path = [ "Select" ];
    };
  ]

let test_mutant (c : mutant_case) () =
  let db = test_db () in
  (* sanity: the same plan certifies clean without the mutation *)
  let clean = certify db c.m_plan in
  if not (Certify.ok clean) then
    Alcotest.failf "plan for %s fails certification without the mutation:\n%s"
      c.m_name
      (Certify.report_to_string ~verbose:true clean);
  let report = certify ~mutation:c.m_name db c.m_plan in
  if Certify.ok report then
    Alcotest.failf "mutant %s escaped certification:\n%s" c.m_name
      (Certify.report_to_string ~verbose:true report);
  if
    not
      (List.exists
         (fun (f : Certify.failure) ->
           String.equal f.Certify.f_rule c.m_rule
           && f.Certify.f_path = c.m_path)
         report.Certify.r_failures)
  then
    Alcotest.failf
      "mutant %s caught, but not attributed to rule %S at path %s:\n%s"
      c.m_name c.m_rule
      (Algebra.Path.to_string c.m_path)
      (Certify.report_to_string ~verbose:true report)

(* Arming one mutant must not break the others' rules: a plan touching
   none of the mutated rules still certifies clean under each. *)
let test_mutants_are_isolated () =
  let db = test_db () in
  let plan = A.(Select (gt (attr "a") (int 1), Base "r")) in
  List.iter
    (fun (c : mutant_case) ->
      let report = certify ~mutation:c.m_name db plan in
      if not (Certify.ok report) then
        Alcotest.failf "mutation %s broke an unrelated plan:\n%s" c.m_name
          (Certify.report_to_string ~verbose:true report))
    mutant_cases

(* ------------------------------------------------------------------ *)
(* Witness databases                                                   *)
(* ------------------------------------------------------------------ *)

let test_witness_databases () =
  let db = test_db () in
  let q = A.(Select (lt (attr "a") (int 2), Base "r")) in
  let wdbs = Certify.witness_databases db q in
  Alcotest.(check bool) "several witness databases" true (List.length wdbs >= 3);
  List.iter
    (fun wdb ->
      Alcotest.(check (list string))
        "only referenced relations" [ "r" ] (List.map fst wdb))
    wdbs;
  (* one variant is empty, the others carry NULLs and a duplicated row *)
  let empties, populated =
    List.partition
      (fun wdb -> List.for_all (fun (_, r) -> Relation.is_empty r) wdb)
      wdbs
  in
  Alcotest.(check bool) "has an empty variant" true (List.length empties >= 1);
  List.iter
    (fun wdb ->
      List.iter
        (fun (_, rel) ->
          let tuples = Relation.tuples rel in
          Alcotest.(check bool) "has an all-NULL row" true
            (List.exists
               (fun t -> List.for_all Value.is_null (Tuple.to_list t))
               tuples);
          let sorted = List.sort Tuple.compare tuples in
          let rec has_dup = function
            | a :: (b :: _ as rest) ->
                Tuple.equal a b || has_dup rest
            | _ -> false
          in
          Alcotest.(check bool) "has a duplicated row" true (has_dup sorted))
        wdb)
    populated;
  (* the pool contains the plan's constants and their neighbours: the
     boundary value 2 of [a < 2] must appear somewhere *)
  let all_values =
    List.concat_map
      (fun wdb ->
        List.concat_map
          (fun (_, rel) ->
            List.concat_map Tuple.to_list (Relation.tuples rel))
          wdb)
      populated
  in
  Alcotest.(check bool) "boundary constant appears" true
    (List.mem (i 2) all_values)

(* ------------------------------------------------------------------ *)
(* Stock pipeline certifies clean on the workloads                     *)
(* ------------------------------------------------------------------ *)

let assert_clean ~what (report : Certify.report) =
  if not (Certify.ok report) then
    Alcotest.failf "stock pipeline failed certification on %s:\n%s" what
      (Certify.report_to_string ~verbose:true report)

let certified_run db ~strategy ~what q =
  match
    Perm.run_query db ~strategy ~certify:true ~provenance:true q
  with
  | r -> (
      match r.Perm.certificate with
      | Some report ->
          assert_clean ~what report;
          Alcotest.(check bool)
            (what ^ ": obligations were checked")
            true (report.Certify.r_total >= 0)
      | None -> Alcotest.failf "no certificate returned for %s" what)
  | exception Resilience.Perm_error e ->
      Alcotest.failf "certified run of %s failed: %s" what
        (Resilience.error_to_string e)

let test_synthetic_certifies () =
  let n1 = 60 and n2 = 30 in
  let db = Synthetic.Workload.make_db ~seed:11 ~n1 ~n2 () in
  List.iter
    (fun (template, inst) ->
      let q = inst.Synthetic.Workload.query in
      List.iter
        (fun strategy ->
          certified_run db ~strategy
            ~what:
              (Printf.sprintf "synthetic %s under %s" template
                 (Strategy.to_string strategy))
            q)
        (Synthetic.Workload.strategies_for
           (if String.equal template "q1" then `Q1 else `Q2)))
    [
      ("q1", Synthetic.Workload.q1 ~seed:11 ~n1 ~n2 ());
      ("q2", Synthetic.Workload.q2 ~seed:11 ~n1 ~n2 ());
    ]

let test_tpch_certifies () =
  let db = Tpch.Tpch_gen.generate ~seed:5 ~sf:0.01 () in
  List.iter
    (fun number ->
      let q = Tpch.Tpch_queries.instantiate ~seed:100 number in
      let analyzed =
        Sql_frontend.Analyzer.analyze_string db q.Tpch.Tpch_queries.sql
      in
      let query = analyzed.Sql_frontend.Analyzer.query in
      List.iter
        (fun strategy ->
          certified_run db ~strategy
            ~what:
              (Printf.sprintf "TPC-H q%d under %s" number
                 (Strategy.to_string strategy))
            query)
        (Perm.applicable_strategies db query))
    Tpch.Tpch_queries.numbers

(* The stock pipeline on the mutant-harness plans: clean, and the
   certificates actually carry discharged obligations. *)
let test_stock_plans_certify () =
  let db = test_db () in
  List.iter
    (fun (c : mutant_case) ->
      let report = certify db c.m_plan in
      assert_clean ~what:c.m_name report;
      Alcotest.(check bool)
        (c.m_name ^ ": some obligation was discharged")
        true
        (report.Certify.r_compared > 0
        || report.Certify.r_proved <> []
        || report.Certify.r_total = 0))
    mutant_cases

(* ------------------------------------------------------------------ *)
(* Shared sublink bodies: the memo-hit path equals the miss path        *)
(* ------------------------------------------------------------------ *)

(* A deep copy with every node rebuilt, so no two sublink references
   share a body: each pass then rewrites every copy itself. *)
let rec unshare (q : A.query) : A.query =
  match q with
  | A.Base n -> A.Base n
  | A.TableExpr r -> A.TableExpr r
  | q -> A.map_queries unshare q

let traced_optimize db q =
  let entries = ref [] in
  let plan =
    Rewrite_trace.with_tracer
      (fun e -> entries := e :: !entries)
      (fun () -> Optimizer.optimize db q)
  in
  let show (e : Rewrite_trace.entry) =
    Printf.sprintf "%s at %s: %s => %s" e.e_rule
      (Algebra.Path.to_string e.e_path)
      (Pp.query_to_string e.e_before)
      (Pp.query_to_string e.e_after)
  in
  (Pp.query_to_string plan, List.rev_map show !entries)

(* [optimize q_plus] and [optimize (unshare q_plus)] print the same
   plan, untraced and traced, and the traced runs emit the same entry
   list (rule, path, before, after): the replay of a shared body's
   entries under each copy's path stands in for rewriting the copy. *)
let check_shared_unshared ~what db q_plus =
  let copy = unshare q_plus in
  let plain = Pp.query_to_string (Optimizer.optimize db q_plus) in
  Alcotest.(check string) (what ^ ": plan") plain
    (Pp.query_to_string (Optimizer.optimize db copy));
  let plan_s, entries_s = traced_optimize db q_plus in
  let plan_u, entries_u = traced_optimize db copy in
  Alcotest.(check string) (what ^ ": traced plan") plain plan_s;
  Alcotest.(check string) (what ^ ": traced unshared plan") plain plan_u;
  Alcotest.(check (list string)) (what ^ ": entries") entries_u entries_s

(* Whether two sublink references of [q] share one body object. *)
let has_shared_body q =
  let seen = ref [] and shared = ref false in
  let rec walk q =
    List.iter
      (fun (sl : A.sublink) ->
        if List.memq sl.A.query !seen then shared := true
        else begin
          seen := sl.A.query :: !seen;
          walk sl.A.query
        end)
      (List.concat_map A.sublinks_of_expr (A.root_exprs q));
    List.iter walk (A.inputs q)
  in
  walk q;
  !shared

let strategy_plans db q =
  List.filter_map
    (fun strategy ->
      match Rewrite.rewrite db ~strategy q with
      | q_plus, _ -> Some (strategy, q_plus)
      | exception Strategy.Unsupported _ -> None)
    Strategy.all

let test_shared_bodies_qgen () =
  let plans = ref 0 and shared = ref 0 in
  for seed = 1 to 300 do
    let case = Fuzz.Qgen.case_of_seed seed in
    let db = Fuzz.Qgen.database case in
    match Sql_frontend.Analyzer.analyze db case.Fuzz.Qgen.c_select with
    | exception _ -> ()
    | a ->
        List.iter
          (fun (strategy, q_plus) ->
            incr plans;
            if has_shared_body (Optimizer.optimize db q_plus) then incr shared;
            check_shared_unshared db q_plus
              ~what:
                (Printf.sprintf "qgen %d under %s" seed
                   (Strategy.to_string strategy)))
          (strategy_plans db a.Sql_frontend.Analyzer.query)
  done;
  Alcotest.(check bool) "the corpus has plans" true (!plans > 300);
  (* the memo-hit path runs: Gen's copies come out of the optimizer
     still sharing their body *)
  Alcotest.(check bool) "some optimized plans share a body" true (!shared > 100)

(* The Figure 6 TPC-H queries and the Figure 7 synthetic templates,
   under every strategy that applies. *)
let test_shared_bodies_figures () =
  let db = Tpch.Tpch_gen.generate ~seed:5 ~sf:0.01 () in
  List.iter
    (fun number ->
      let q = Tpch.Tpch_queries.instantiate ~seed:100 number in
      let query =
        (Sql_frontend.Analyzer.analyze_string db q.Tpch.Tpch_queries.sql)
          .Sql_frontend.Analyzer.query
      in
      List.iter
        (fun (strategy, q_plus) ->
          check_shared_unshared db q_plus
            ~what:
              (Printf.sprintf "TPC-H q%d under %s" number
                 (Strategy.to_string strategy)))
        (strategy_plans db query))
    [ 4; 11; 15; 16; 17; 22 ];
  let n1 = 60 and n2 = 30 in
  let db = Synthetic.Workload.make_db ~seed:11 ~n1 ~n2 () in
  List.iter
    (fun (template, inst) ->
      List.iter
        (fun (strategy, q_plus) ->
          check_shared_unshared db q_plus
            ~what:
              (Printf.sprintf "synthetic %s under %s" template
                 (Strategy.to_string strategy)))
        (strategy_plans db inst.Synthetic.Workload.query))
    [
      ("q1", Synthetic.Workload.q1 ~seed:11 ~n1 ~n2 ());
      ("q2", Synthetic.Workload.q2 ~seed:11 ~n1 ~n2 ());
    ]

(* ------------------------------------------------------------------ *)
(* Certify failures surface through the Perm API                       *)
(* ------------------------------------------------------------------ *)

let test_certify_error_through_perm () =
  let db = test_db () in
  let q =
    A.(Select (eq (attr "a") (int 1) &&& eq (attr "c") (int 2),
               Cross (Base "r", Base "s")))
  in
  Rewrite_trace.with_mutation "opt-drop-conjunct" (fun () ->
      match Perm.run_query db ~certify:true ~provenance:false q with
      | _ -> Alcotest.fail "mutated optimizer run unexpectedly certified"
      | exception Resilience.Perm_error e ->
          Alcotest.(check bool)
            "failure attributed to the optimize phase" true
            (e.Resilience.e_phase = Resilience.Optimize))

let () =
  Alcotest.run "certify"
    [
      ( "mutants",
        List.map
          (fun (c : mutant_case) ->
            Alcotest.test_case c.m_name `Quick (test_mutant c))
          mutant_cases
        @ [
            Alcotest.test_case "mutations are isolated" `Quick
              test_mutants_are_isolated;
          ] );
      ( "witness databases",
        [ Alcotest.test_case "derivation" `Quick test_witness_databases ] );
      ( "stock clean",
        [
          Alcotest.test_case "harness plans" `Quick test_stock_plans_certify;
          Alcotest.test_case "synthetic workload, all strategies" `Quick
            test_synthetic_certifies;
          Alcotest.test_case "TPC-H, all strategies" `Slow
            test_tpch_certifies;
        ] );
      ( "shared bodies",
        [
          Alcotest.test_case "qgen 1-300, shared = unshared" `Quick
            test_shared_bodies_qgen;
          Alcotest.test_case "figure cells, shared = unshared" `Quick
            test_shared_bodies_figures;
        ] );
      ( "integration",
        [
          Alcotest.test_case "Perm surfaces certify failures" `Quick
            test_certify_error_through_perm;
        ] );
    ]
