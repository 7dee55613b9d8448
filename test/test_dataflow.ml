(* Dataflow-analysis and dead-column-pruning tests.

   Units: the three analyses (nullability, attribute lineage,
   cardinality bounds) on hand-built plans covering the interesting
   transfer functions — outer-join NULL introduction, Gen's all-NULL
   extension tuple, aggregate cardinality collapse.

   Pruner: shape units (EXISTS sublinks prune to zero width, DISTINCT
   projections keep their width, argument-less count reads a
   zero-width scan) and
   two properties against the reference engine — random well-typed
   plans, and the paper's single-sublink selections rewritten with all
   four strategies — asserting the pruned and unpruned optimized plans
   are bag-equal with the same schema.

   Semantic lint: the mutation harness for the dataflow-fed rules —
   NOT IN / <> ALL over nullable data and under-aggregated scalar
   sublinks are flagged at the operator path that exhibits them; the
   prov-lineage contract rule catches a provenance column rewired to
   the wrong source; and every stock workload stays clean. *)

open Relalg
open Core
open Algebra

let i n = Value.Int n

(* r(a,b), s(c,d) — no NULLs; nully(x,y) — y contains a NULL. *)
let db () =
  let ab = Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt ] in
  let cd = Schema.of_list [ Schema.attr "c" Vtype.TInt; Schema.attr "d" Vtype.TInt ] in
  let xy = Schema.of_list [ Schema.attr "x" Vtype.TInt; Schema.attr "y" Vtype.TInt ] in
  Database.of_list
    [
      ("r", Relation.of_values ab [ [ i 1; i 1 ]; [ i 2; i 1 ]; [ i 3; i 2 ] ]);
      ("s", Relation.of_values cd [ [ i 1; i 3 ]; [ i 2; i 4 ]; [ i 4; i 5 ] ]);
      ("nully", Relation.of_values xy [ [ i 1; Value.Null ]; [ i 2; i 7 ] ]);
    ]

let deps_list f name =
  Dataflow.Deps.elements (Dataflow.attr_deps f name)

let check_bool = Alcotest.(check bool)
let check_names = Alcotest.(check (list string))

(* ------------------------------------------------------------------ *)
(* Nullability                                                          *)
(* ------------------------------------------------------------------ *)

let test_null_base () =
  let dfa = Dataflow.create (db ()) in
  let f = Dataflow.nullability dfa (Base "nully") in
  check_bool "x not null" false (Dataflow.attr_nullable f "x");
  check_bool "y maybe null (data)" true (Dataflow.attr_nullable f "y");
  let f = Dataflow.nullability dfa (Base "r") in
  check_bool "r.a not null" false (Dataflow.attr_nullable f "a");
  (* unknown attribute: top *)
  check_bool "unknown is maybe-null" true (Dataflow.attr_nullable f "ghost")

let test_null_leftjoin () =
  let dfa = Dataflow.create (db ()) in
  let q = LeftJoin (eq (attr "a") (attr "c"), Base "r", Base "s") in
  let f = Dataflow.nullability dfa q in
  check_bool "left side survives non-null" false (Dataflow.attr_nullable f "a");
  check_bool "right side nullable" true (Dataflow.attr_nullable f "c");
  check_bool "right side nullable" true (Dataflow.attr_nullable f "d")

let test_null_union_nullrow () =
  (* Gen's CrossBase shape: Base + the all-NULL extension tuple *)
  let dfa = Dataflow.create (db ()) in
  let schema =
    Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt ]
  in
  let null_row = Relation.of_values schema [ [ Value.Null; Value.Null ] ] in
  let q = Union (Bag, Base "r", TableExpr null_row) in
  let f = Dataflow.nullability dfa q in
  check_bool "a maybe null" true (Dataflow.attr_nullable f "a");
  check_bool "b maybe null" true (Dataflow.attr_nullable f "b");
  (* Inter keeps only tuples present on both sides *)
  let f = Dataflow.nullability dfa (Inter (SetSem, Base "r", TableExpr null_row)) in
  check_bool "inter not null" false (Dataflow.attr_nullable f "a")

let test_null_exprs () =
  let dfa = Dataflow.create (db ()) in
  let env = [ Dataflow.nullability dfa (Base "nully") ] in
  let nullable e = Dataflow.expr_nullable dfa ~env e in
  check_bool "IS NULL never null" false (nullable (IsNull (attr "y")));
  check_bool "nullable attr" true (nullable (attr "y"));
  check_bool "non-null attr" false (nullable (attr "x"));
  check_bool "binop over nullable" true (nullable (Binop (Add, attr "x", attr "y")));
  check_bool "EXISTS never null" false
    (nullable (exists (Select (eq (attr "c") (attr "x"), Base "s"))));
  check_bool "aggregated count never null" false
    (nullable
       (scalar
          (aggregate ~group_by:[]
             ~aggs:[ { agg_func = "count"; agg_distinct = false; agg_arg = None; agg_name = "n" } ]
             (Base "s"))))

(* ------------------------------------------------------------------ *)
(* Lineage                                                              *)
(* ------------------------------------------------------------------ *)

let test_lineage_project_chain () =
  let dfa = Dataflow.create (db ()) in
  let q =
    project
      [ (Binop (Add, attr "a", attr "b"), "ab"); (attr "a", "just_a") ]
      (Base "r")
  in
  let f = Dataflow.lineage dfa q in
  check_names "sum depends on both" [ "r.a"; "r.b" ]
    (List.map (fun (r, c) -> r ^ "." ^ c) (deps_list f "ab"));
  check_names "alias keeps source" [ "r.a" ]
    (List.map (fun (r, c) -> r ^ "." ^ c) (deps_list f "just_a"))

let test_lineage_join_and_sublink () =
  let dfa = Dataflow.create (db ()) in
  let q =
    project
      [ (scalar (project [ (attr "c", "c") ] (Base "s")), "sc") ]
      (Base "r")
  in
  let f = Dataflow.lineage dfa q in
  check_bool "scalar sublink reaches s.c" true
    (Dataflow.Deps.mem ("s", "c") (Dataflow.attr_deps f "sc"));
  let q = Join (eq (attr "a") (attr "c"), Base "r", Base "s") in
  let f = Dataflow.lineage dfa q in
  check_bool "join keeps sides apart" true
    (deps_list f "a" = [ ("r", "a") ] && deps_list f "d" = [ ("s", "d") ])

(* ------------------------------------------------------------------ *)
(* Cardinality                                                          *)
(* ------------------------------------------------------------------ *)

let card_str c = Format.asprintf "%a" Dataflow.pp_card c

let test_cardinality () =
  let dfa = Dataflow.create (db ()) in
  let card q = Dataflow.cardinality dfa q in
  Alcotest.(check string) "base" "1..3" (card_str (card (Base "r")));
  Alcotest.(check string) "agg collapses" "1..1"
    (card_str
       (card
          (aggregate ~group_by:[]
             ~aggs:[ { agg_func = "count"; agg_distinct = false; agg_arg = None; agg_name = "n" } ]
             (Base "r"))));
  Alcotest.(check string) "select may drop all" "0..3"
    (card_str (card (Select (eq (attr "a") (int 1), Base "r"))));
  Alcotest.(check string) "limit caps" "1..2" (card_str (card (Limit (2, Base "r"))));
  Alcotest.(check string) "union adds" "1..6"
    (card_str (card (Union (Bag, Base "r", Base "s"))));
  Alcotest.(check string) "cross multiplies" "1..9"
    (card_str (card (Cross (Base "r", Base "s"))))

(* ------------------------------------------------------------------ *)
(* Pruner shape units                                                   *)
(* ------------------------------------------------------------------ *)

let out_names q = Scope.out_names (db ()) q

let test_prune_exists_zero_width () =
  (* EXISTS only needs emptiness: its body prunes to zero columns *)
  let q =
    Select (exists (project [ (attr "c", "c"); (attr "d", "d") ] (Base "s")), Base "r")
  in
  let pruned = Optimizer.prune (db ()) q in
  (match pruned with
  | Select (Sublink s, _) ->
      check_names "exists body zero-width" [] (out_names s.query)
  | _ -> Alcotest.fail "expected Select over sublink");
  check_bool "same rows" true
    (Relation.equal_bag (Eval.query_reference (db ()) q)
       (Eval.query_reference (db ()) pruned))

let test_prune_distinct_and_scalar_kept () =
  (* DISTINCT dedups over its full width: must not narrow *)
  let q =
    Select
      (exists (project ~distinct:true [ (attr "c", "c"); (attr "d", "d") ] (Base "s")),
       Base "r")
  in
  (match Optimizer.prune (db ()) q with
  | Select (Sublink s, _) ->
      check_names "distinct width kept" [ "c"; "d" ] (out_names s.query)
  | _ -> Alcotest.fail "expected Select over sublink");
  (* a scalar sublink's output is its value: the root arity must stay *)
  let q =
    Select
      (Cmp (Eq, attr "a", scalar (project [ (attr "c", "c") ] (Base "s"))), Base "r")
  in
  match Optimizer.prune (db ()) q with
  | Select (Cmp (_, _, Sublink s), _) ->
      check_names "scalar width kept" [ "c" ] (out_names s.query)
  | _ -> Alcotest.fail "expected Select over scalar comparison"

let test_prune_count_star () =
  (* an argument-less count reads no columns: the scan below prunes
     to zero width *)
  let q =
    aggregate ~group_by:[]
      ~aggs:[ { agg_func = "count"; agg_distinct = false; agg_arg = None; agg_name = "n" } ]
      (Base "r")
  in
  let pruned = Optimizer.prune (db ()) q in
  (match pruned with
  | Agg { agg_input; _ } -> check_names "zero-width scan" [] (out_names agg_input)
  | _ -> Alcotest.fail "expected Agg");
  check_bool "count preserved" true
    (Relation.equal_bag (Eval.query_reference (db ()) q)
       (Eval.query_reference (db ()) pruned))

let test_prune_keeps_schema () =
  List.iter
    (fun q ->
      check_names "pruned schema" (out_names q) (out_names (Optimizer.prune (db ()) q)))
    [
      Base "r";
      project [ (attr "a", "a") ] (Base "r");
      Join (eq (attr "a") (attr "c"), Base "r", Base "s");
      Union (Bag, project [ (attr "a", "v") ] (Base "r"),
             project [ (attr "c", "v") ] (Base "s"));
      Order ([ (attr "b", Desc) ], Base "r");
    ]

(* ------------------------------------------------------------------ *)
(* Prune parity properties (reference engine)                           *)
(* ------------------------------------------------------------------ *)

(* Compact random-plan generator in the style of test_engines: all
   attributes int-typed over R/S with NULL-bearing rows. *)
let fresh =
  let c = ref 0 in
  fun () -> incr c; Printf.sprintf "x%d" !c

let pick st l = List.nth l (Random.State.int st (List.length l))
let cmpops = [ Eq; Neq; Lt; Leq; Gt; Geq ]

let gen_value st =
  if Random.State.int st 6 = 0 then Value.Null else Value.Int (Random.State.int st 4)

let gen_rows st =
  List.init (Random.State.int st 6) (fun _ -> [ gen_value st; gen_value st ])

let rec gen_expr scope depth st =
  if depth <= 0 || Random.State.bool st then
    if Random.State.bool st then attr (pick st scope) else int (Random.State.int st 4)
  else
    Binop (pick st [ Add; Sub; Mul ], gen_expr scope (depth - 1) st,
           gen_expr scope (depth - 1) st)

and gen_cond scope ~subq depth st =
  let cmp () = Cmp (pick st cmpops, gen_expr scope 1 st, gen_expr scope 1 st) in
  if depth <= 0 then cmp ()
  else
    match Random.State.int st (if subq > 0 then 7 else 4) with
    | 0 -> cmp ()
    | 1 -> And (gen_cond scope ~subq (depth - 1) st, gen_cond scope ~subq (depth - 1) st)
    | 2 -> Not (gen_cond scope ~subq (depth - 1) st)
    | 3 -> IsNull (gen_expr scope 1 st)
    | 4 -> exists (fst (gen_query scope 2 st))
    | 5 ->
        let q, ns = gen_query scope 2 st in
        let single = project [ (gen_expr ns 1 st, fresh ()) ] q in
        let mk = if Random.State.bool st then any_op else all_op in
        mk (pick st cmpops) (gen_expr scope 1 st) single
    | _ ->
        let q, ns = gen_query scope 2 st in
        let call =
          { agg_func = pick st [ "max"; "min"; "sum"; "count" ];
            agg_distinct = false; agg_arg = Some (gen_expr ns 1 st);
            agg_name = fresh () }
        in
        Cmp (pick st cmpops, gen_expr scope 1 st,
             scalar (aggregate ~group_by:[] ~aggs:[ call ] q))

and gen_query env size st : query * string list =
  if size <= 1 then gen_base st
  else
    match Random.State.int st 8 with
    | 0 | 1 ->
        let q, ns = gen_query env (size - 1) st in
        (Select (gen_cond (ns @ env) ~subq:1 2 st, q), ns)
    | 2 ->
        let q, ns = gen_query env (size - 1) st in
        let cols =
          List.init (1 + Random.State.int st 3) (fun _ -> (gen_expr ns 1 st, fresh ()))
        in
        let distinct = Random.State.int st 3 = 0 in
        (project ~distinct cols q, List.map snd cols)
    | 3 | 4 ->
        let qa, na = gen_query env (size / 2) st in
        let qb, nb = gen_query env (size / 2) st in
        let cond = gen_cond (na @ nb @ env) ~subq:0 1 st in
        let q =
          match Random.State.int st 3 with
          | 0 -> Cross (qa, qb)
          | 1 -> Join (cond, qa, qb)
          | _ -> LeftJoin (cond, qa, qb)
        in
        (q, na @ nb)
    | 5 ->
        let q, ns = gen_query env (size - 1) st in
        let group_by =
          if Random.State.bool st then [ (gen_expr ns 1 st, fresh ()) ] else []
        in
        let func = pick st [ "count"; "sum"; "min"; "max" ] in
        let call =
          { agg_func = func; agg_distinct = false;
            agg_arg = Some (gen_expr ns 1 st); agg_name = fresh () }
        in
        (aggregate ~group_by ~aggs:[ call ] q, List.map snd group_by @ [ call.agg_name ])
    | 6 ->
        let qa, na = gen_query env (size / 2) st in
        let qb, nb = gen_query env (size / 2) st in
        let narrow q ns = project [ (gen_expr ns 1 st, fresh ()) ] q in
        let name = fresh () in
        let rename q = (match q with
          | Project p -> Project { p with cols = List.map (fun (e, _) -> (e, name)) p.cols }
          | q -> q)
        in
        let qa = rename (narrow qa na) and qb = rename (narrow qb nb) in
        let sem = if Random.State.bool st then Bag else SetSem in
        let q =
          match Random.State.int st 3 with
          | 0 -> Union (sem, qa, qb)
          | 1 -> Inter (sem, qa, qb)
          | _ -> Diff (sem, qa, qb)
        in
        (q, [ name ])
    | _ ->
        let q, ns = gen_query env (size - 1) st in
        let q = Order ([ (gen_expr ns 1 st, Asc) ], q) in
        ((if Random.State.bool st then Limit (Random.State.int st 5, q) else q), ns)

and gen_base st =
  let n1 = fresh () and n2 = fresh () in
  if Random.State.bool st then
    (project [ (attr "a", n1); (attr "b", n2) ] (Base "R"), [ n1; n2 ])
  else (project [ (attr "c", n1); (attr "d", n2) ] (Base "S"), [ n1; n2 ])

let ab_schema =
  Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt ]

let cd_schema =
  Schema.of_list [ Schema.attr "c" Vtype.TInt; Schema.attr "d" Vtype.TInt ]

let mk_db r_rows s_rows =
  Database.of_list
    [
      ("R", Relation.of_values ab_schema r_rows);
      ("S", Relation.of_values cd_schema s_rows);
    ]

let prune_parity db plan =
  let pruned = Optimizer.optimize db plan in
  let unpruned = Optimizer.optimize ~prune:false db plan in
  Scope.out_names db pruned = Scope.out_names db unpruned
  && Relation.equal_bag (Eval.query_reference db pruned)
       (Eval.query_reference db unpruned)

let prop_prune_random_plans =
  QCheck.Test.make ~name:"pruning preserves results on random plans" ~count:500
    (QCheck.make
       (fun st ->
         let r_rows = gen_rows st and s_rows = gen_rows st in
         let q, _ = gen_query [] (2 + Random.State.int st 5) st in
         (r_rows, s_rows, q))
       ~print:(fun (_, _, q) -> Pp.query_to_string q))
    (fun (r_rows, s_rows, q) ->
      let db = mk_db r_rows s_rows in
      Typecheck.check db q;
      prune_parity db q)

(* The paper's single-sublink selections under all four strategies. *)
let rel1 name ints =
  Relation.of_values
    (Schema.of_list [ Schema.attr name Vtype.TInt ])
    (List.map (fun v -> [ i v ]) ints)

let prop_prune_all_strategies =
  QCheck.Test.make ~name:"pruning preserves rewritten plans (all strategies)"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_size (0 -- 6) (0 -- 4))
           (list_size (0 -- 6) (0 -- 4))
           (pair (0 -- 5) (0 -- 3)))
       ~print:(fun (r, s, (opi, kind)) ->
         Printf.sprintf "R=[%s] S=[%s] op#%d kind#%d"
           (String.concat ";" (List.map string_of_int r))
           (String.concat ";" (List.map string_of_int s))
           opi kind))
    (fun (r_rows, s_rows, (opi, kind)) ->
      let db =
        Database.of_list [ ("R", rel1 "a" r_rows); ("S", rel1 "s" s_rows) ]
      in
      let op = List.nth cmpops opi in
      let sub = Base "S" in
      let q =
        match kind with
        | 0 -> Select (any_op op (attr "a") sub, Base "R")
        | 1 -> Select (all_op op (attr "a") sub, Base "R")
        | 2 -> Select (exists (Select (Cmp (op, attr "s", attr "a"), sub)), Base "R")
        | _ -> Select (Not (exists (Select (Cmp (op, attr "s", attr "a"), sub))), Base "R")
      in
      List.for_all
        (fun strategy ->
          match Rewrite.rewrite db ~strategy q with
          | exception Strategy.Unsupported _ -> true
          | q_plus, _ ->
              Typecheck.check db q_plus;
              prune_parity db q_plus)
        Strategy.all)

(* ------------------------------------------------------------------ *)
(* Semantic lint rules: mutations fire, stock stays clean               *)
(* ------------------------------------------------------------------ *)

let flagged name ~rule ~path diags =
  if not (List.exists (fun d -> d.Lint.rule = rule && d.Lint.path = path) diags)
  then
    Alcotest.failf "%s: expected %s at %s, got:\n%s" name rule
      (Algebra.Path.to_string path)
      (if diags = [] then "(no diagnostics)" else Lint.report diags)

let none name ~rules diags =
  match List.filter (fun d -> List.mem d.Lint.rule rules) diags with
  | [] -> ()
  | ds -> Alcotest.failf "%s: unexpected diagnostics:\n%s" name (Lint.report ds)

let semantic_rules = [ "sublink-null-trap"; "scalar-cardinality" ]

let test_null_trap_not_in () =
  (* NOT IN over a nullable sublink column *)
  let sub = project [ (attr "y", "y") ] (Base "nully") in
  let q = Select (Not (any_op Eq (attr "a") sub), Base "r") in
  flagged "NOT IN nullable column" ~rule:"sublink-null-trap" ~path:[ "Select" ]
    (Lint.lint (db ()) q);
  (* nullable left-hand side, sublink column clean *)
  let sub = project [ (attr "c", "c") ] (Base "s") in
  let q = Select (Not (any_op Eq (attr "y") sub), Base "nully") in
  flagged "NOT IN nullable lhs" ~rule:"sublink-null-trap" ~path:[ "Select" ]
    (Lint.lint (db ()) q);
  (* <> ALL is the same trap spelled differently *)
  let sub = project [ (attr "y", "y") ] (Base "nully") in
  let q = Select (all_op Neq (attr "a") sub, Base "r") in
  flagged "<> ALL nullable column" ~rule:"sublink-null-trap" ~path:[ "Select" ]
    (Lint.lint (db ()) q);
  (* fires at the operator that owns the expression, sublinks included *)
  let inner = Select (Not (any_op Eq (attr "y") (project [ (attr "c", "c") ] (Base "s"))), Base "nully") in
  let q = Select (exists inner, Base "r") in
  flagged "nested path" ~rule:"sublink-null-trap"
    ~path:[ "Select"; "sublink[1]"; "Select" ]
    (Lint.lint (db ()) q)

let test_null_trap_clean () =
  (* both sides provably non-NULL: silent *)
  let sub = project [ (attr "c", "c") ] (Base "s") in
  let q = Select (Not (any_op Eq (attr "a") sub), Base "r") in
  none "clean NOT IN" ~rules:semantic_rules (Lint.lint (db ()) q);
  (* plain IN is never a null trap *)
  let sub = project [ (attr "y", "y") ] (Base "nully") in
  let q = Select (any_op Eq (attr "a") sub, Base "r") in
  none "plain IN" ~rules:[ "sublink-null-trap" ] (Lint.lint (db ()) q)

let test_scalar_cardinality () =
  (* un-aggregated scalar sublink over a 3-row relation *)
  let q =
    Select (Cmp (Eq, attr "a", scalar (project [ (attr "c", "c") ] (Base "s"))), Base "r")
  in
  flagged "multi-row scalar" ~rule:"scalar-cardinality" ~path:[ "Select" ]
    (Lint.lint (db ()) q);
  (* aggregated: provably one row, silent *)
  let one =
    aggregate ~group_by:[]
      ~aggs:[ { agg_func = "max"; agg_distinct = false; agg_arg = Some (attr "c"); agg_name = "m" } ]
      (Base "s")
  in
  let q = Select (Cmp (Eq, attr "a", scalar one), Base "r") in
  none "aggregated scalar" ~rules:[ "scalar-cardinality" ] (Lint.lint (db ()) q)

(* prov-lineage: rewire a provenance column below the root projection
   and the contract must notice the lineage no longer reaches the
   claimed base column. The root projection itself is covered by
   prov-prefix, so the defect is injected in an inner projection. *)
let test_prov_lineage_mutation () =
  let q0 =
    Select (any_op Eq (attr "a") (project [ (attr "c", "c") ] (Base "s")), Base "r")
  in
  let q_plus, provs = Rewrite.rewrite (db ()) ~strategy:Strategy.Gen q0 in
  (* sanity: the untampered rewrite satisfies the contract *)
  (match Lint.errors (Provcheck.contract (db ()) ~original:q0 q_plus provs) with
  | [] -> ()
  | errs -> Alcotest.failf "clean rewrite flagged:\n%s" (Lint.report errs));
  let swapped = ref false in
  let swap_cols cols =
    if !swapped
       || not (List.exists (fun (_, n) -> n = "prov_r_a") cols
               && List.exists (fun (_, n) -> n = "prov_r_b") cols)
    then cols
    else begin
      swapped := true;
      let ea = fst (List.find (fun (_, n) -> n = "prov_r_a") cols) in
      let eb = fst (List.find (fun (_, n) -> n = "prov_r_b") cols) in
      List.map
        (fun (e, n) ->
          if n = "prov_r_a" then (eb, n)
          else if n = "prov_r_b" then (ea, n)
          else (e, n))
        cols
    end
  in
  let rec go q =
    let q = map_queries go q in
    match q with
    | Project p -> Project { p with cols = swap_cols p.cols }
    | q -> q
  in
  let mutated =
    match q_plus with
    | Project root -> Project { root with proj_input = go root.proj_input }
    | q -> q
  in
  check_bool "mutation applied" true !swapped;
  flagged "rewired provenance column" ~rule:"prov-lineage" ~path:[]
    (Provcheck.contract (db ()) ~original:q0 mutated provs)

let test_stock_workloads_clean () =
  (* TPC-H: every source query, zero semantic-rule diagnostics (the
     generator emits no NULLs, and every scalar sublink is aggregated) *)
  let db = Tpch.Tpch_gen.generate ~seed:5 ~sf:0.01 () in
  List.iter
    (fun number ->
      let q = Tpch.Tpch_queries.instantiate ~seed:100 number in
      let analyzed = Sql_frontend.Analyzer.analyze_string db q.Tpch.Tpch_queries.sql in
      none (Printf.sprintf "tpch Q%d" number) ~rules:semantic_rules
        (Lint.lint db analyzed.Sql_frontend.Analyzer.query))
    Tpch.Tpch_queries.numbers;
  (* synthetic workload *)
  let n1 = 30 and n2 = 20 in
  let sdb = Synthetic.Workload.make_db ~seed:1 ~n1 ~n2 () in
  List.iter
    (fun (label, q) ->
      none label ~rules:semantic_rules (Lint.lint sdb q))
    [
      ("q1", (Synthetic.Workload.q1 ~seed:1 ~n1 ~n2 ()).Synthetic.Workload.query);
      ("q2", (Synthetic.Workload.q2 ~seed:1 ~n1 ~n2 ()).Synthetic.Workload.query);
    ]

(* ------------------------------------------------------------------ *)
(* Advisor safety gating                                                *)
(* ------------------------------------------------------------------ *)

let test_advisor_unn_gating () =
  (* nullable sublink column: Unn applies but is ranked unsafe-last *)
  let q =
    Select (any_op Eq (attr "a") (project [ (attr "y", "y") ] (Base "nully")), Base "r")
  in
  let ests = Advisor.estimates (db ()) q in
  List.iter
    (fun e ->
      check_bool
        (Strategy.to_string e.Advisor.est_strategy ^ " safety")
        (e.Advisor.est_strategy <> Strategy.Unn)
        e.Advisor.est_safe)
    ests;
  (match List.rev ests with
  | last :: _ -> check_bool "unsafe Unn ranked last" true (last.Advisor.est_strategy = Strategy.Unn)
  | [] -> Alcotest.fail "no estimates");
  (* NULL-free data: Unn is safe *)
  let q =
    Select (any_op Eq (attr "a") (project [ (attr "c", "c") ] (Base "s")), Base "r")
  in
  List.iter
    (fun e -> check_bool "all safe" true e.Advisor.est_safe)
    (Advisor.estimates (db ()) q)

(* ------------------------------------------------------------------ *)
(* Fact reuse across environments                                       *)
(* ------------------------------------------------------------------ *)

(* A subplan reached again under another environment keeps its fact
   when every free name of it reads the same there, and is re-analysed
   and widened otherwise. The correlated body below reads only the
   enclosing scope's [a]. *)
let correlated_body () = Select (Cmp (Eq, Attr "c", Attr "a"), Base "s")

let with_col k f (fact : Estimate.fact) =
  { fact with Estimate.e_cols = List.mapi (fun j c -> if j = k then f c else c) fact.e_cols }

let test_reuse_equal_reads () =
  let d = db () in
  let est = Estimate.create d in
  let fr = Estimate.query est (Base "r") in
  (* physically another environment, differing only in [b], which the
     body does not read *)
  let fr' = with_col 1 (fun c -> { c with Estimate.ci_ndv = c.ci_ndv +. 5.0 }) fr in
  let q = correlated_body () in
  let n0 = Estimate.transfers () in
  let f1 = Estimate.query est ~env:[ fr ] q in
  let n1 = Estimate.transfers () in
  Alcotest.(check int) "first environment: selection and scan" 2 (n1 - n0);
  let f2 = Estimate.query est ~env:[ fr' ] q in
  Alcotest.(check int) "equal reads: no transfer" n1 (Estimate.transfers ());
  Alcotest.(check bool) "the memoized fact" true (f1 == f2);
  Alcotest.(check bool) "the fact a re-transfer gives" true
    (Estimate.query (Estimate.create d) ~env:[ fr' ] q = f2)

let test_reuse_differing_reads () =
  let d = db () in
  let est = Estimate.create d in
  let fr = Estimate.query est (Base "r") in
  (* [a] half NULL: the correlation predicate keeps half the rows *)
  let fr' = with_col 0 (fun c -> { c with Estimate.ci_null = 0.5 }) fr in
  let q = correlated_body () in
  let f1 = Estimate.query est ~env:[ fr ] q in
  let n1 = Estimate.transfers () in
  let f2 = Estimate.query est ~env:[ fr' ] q in
  Alcotest.(check int) "the selection re-transferred, the scan kept" 1
    (Estimate.transfers () - n1);
  let alone env = Estimate.query (Estimate.create d) ~env q in
  let a = alone [ fr ] and b = alone [ fr' ] in
  Alcotest.(check bool) "environments estimate differently" true (a.e_rows <> b.e_rows);
  Alcotest.(check (float 1e-9)) "rows widened" (Float.max a.e_rows b.e_rows) f2.e_rows;
  Alcotest.(check (float 1e-9)) "cost widened" (Float.max a.e_cost b.e_cost) f2.e_cost;
  Alcotest.(check bool) "first fact unchanged" true (f1 = a)

(* Nullability and lineage follow the same rule; cardinality reads no
   environment at all. *)
let test_reuse_null_lineage () =
  let t = Dataflow.create (db ()) in
  let q = project [ (Attr "a", "a2"); (Attr "c", "c") ] (Base "s") in
  let nenv v = [ { Dataflow.n_names = [ "a" ]; n_maybe = [ v ] } ] in
  let f1 = Dataflow.nullability t ~env:(nenv false) q in
  Alcotest.(check bool) "equal reads: kept" true
    (f1 == Dataflow.nullability t ~env:(nenv false) q);
  Alcotest.(check (list bool)) "differing reads: widened" [ true; false ]
    (Dataflow.nullability t ~env:(nenv true) q).n_maybe;
  let lenv deps = [ { Dataflow.l_names = [ "a" ]; l_deps = [ Dataflow.Deps.of_list deps ] } ] in
  let g1 = Dataflow.lineage t ~env:(lenv [ ("r", "a"); ("r", "b") ]) q in
  (* the same set, built in the other order *)
  Alcotest.(check bool) "equal dependency sets: kept" true
    (g1 == Dataflow.lineage t ~env:(lenv [ ("r", "b"); ("r", "a") ]) q);
  let g3 = Dataflow.lineage t ~env:(lenv [ ("u", "e") ]) q in
  Alcotest.(check (list string)) "differing reads: widened" [ "r.a"; "r.b"; "u.e" ]
    (List.map (fun (r, c) -> r ^ "." ^ c) (Dataflow.Deps.elements (List.hd g3.l_deps)))

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "dataflow"
    [
      ( "nullability",
        [
          Alcotest.test_case "base facts" `Quick test_null_base;
          Alcotest.test_case "left join introduces NULL" `Quick test_null_leftjoin;
          Alcotest.test_case "union with null row" `Quick test_null_union_nullrow;
          Alcotest.test_case "expressions" `Quick test_null_exprs;
        ] );
      ( "lineage",
        [
          Alcotest.test_case "projection chain" `Quick test_lineage_project_chain;
          Alcotest.test_case "join and sublink" `Quick test_lineage_join_and_sublink;
        ] );
      ("cardinality", [ Alcotest.test_case "bounds" `Quick test_cardinality ]);
      ( "reuse",
        [
          Alcotest.test_case "equal reads transfer once" `Quick test_reuse_equal_reads;
          Alcotest.test_case "differing reads re-transfer and widen" `Quick
            test_reuse_differing_reads;
          Alcotest.test_case "nullability and lineage share the rule" `Quick
            test_reuse_null_lineage;
        ] );
      ( "pruner",
        [
          Alcotest.test_case "exists prunes to zero width" `Quick test_prune_exists_zero_width;
          Alcotest.test_case "distinct and scalar keep width" `Quick test_prune_distinct_and_scalar_kept;
          Alcotest.test_case "count zero-width scan" `Quick test_prune_count_star;
          Alcotest.test_case "schema preserved" `Quick test_prune_keeps_schema;
        ] );
      qsuite "prune parity" [ prop_prune_random_plans; prop_prune_all_strategies ];
      ( "semantic lint",
        [
          Alcotest.test_case "NOT IN / <> ALL null trap" `Quick test_null_trap_not_in;
          Alcotest.test_case "null trap stays silent when proven safe" `Quick test_null_trap_clean;
          Alcotest.test_case "scalar cardinality" `Quick test_scalar_cardinality;
          Alcotest.test_case "prov-lineage catches rewired column" `Quick test_prov_lineage_mutation;
          Alcotest.test_case "stock workloads clean" `Quick test_stock_workloads_clean;
        ] );
      ( "advisor",
        [ Alcotest.test_case "Unn nullability gating" `Quick test_advisor_unn_gating ] );
    ]
