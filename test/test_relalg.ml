(* Relational substrate tests: values, schemas, relations, evaluator,
   optimizer; qcheck properties for bag laws, ANY/ALL fast paths and
   value rendering. *)

open Relalg

let i n = Value.Int n
let vnull = Value.Null

(* ------------------------------------------------------------------ *)
(* Value semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_3vl_tables () =
  let t = Value.vtrue and f = Value.vfalse and u = Value.Null in
  let cases_and =
    [ (t, t, t); (t, f, f); (t, u, u); (f, f, f); (f, u, f); (u, u, u) ]
  in
  List.iter
    (fun (a, b, r) ->
      Alcotest.(check bool) "and" true (Value.and3 a b = r);
      Alcotest.(check bool) "and comm" true (Value.and3 b a = r))
    cases_and;
  let cases_or =
    [ (t, t, t); (t, f, t); (t, u, t); (f, f, f); (f, u, u); (u, u, u) ]
  in
  List.iter
    (fun (a, b, r) ->
      Alcotest.(check bool) "or" true (Value.or3 a b = r);
      Alcotest.(check bool) "or comm" true (Value.or3 b a = r))
    cases_or;
  Alcotest.(check bool) "not t" true (Value.not3 t = f);
  Alcotest.(check bool) "not u" true (Value.not3 u = u)

let test_null_comparisons () =
  Alcotest.(check bool) "null cmp" true (Value.cmp_sql vnull (i 1) = None);
  Alcotest.(check bool) "null eqn null" true (Value.equal_null vnull vnull);
  Alcotest.(check bool) "null eqn 1" false (Value.equal_null vnull (i 1));
  Alcotest.(check bool) "int float" true (Value.equal_null (i 2) (Value.Float 2.0));
  Alcotest.(check bool)
    "hash agrees" true
    (Value.hash (i 2) = Value.hash (Value.Float 2.0))

let test_arith () =
  Alcotest.(check bool) "add" true (Value.add (i 2) (i 3) = i 5);
  Alcotest.(check bool) "add null" true (Value.add (i 2) vnull = vnull);
  Alcotest.(check bool)
    "promote" true
    (Value.add (i 2) (Value.Float 0.5) = Value.Float 2.5);
  Alcotest.check_raises "div zero" (Value.Type_clash "division by zero") (fun () ->
      ignore (Value.div (i 1) (i 0)))

let test_total_order () =
  let sorted =
    List.sort Value.compare_total
      [ i 3; vnull; Value.String "x"; i 1; Value.Bool true ]
  in
  Alcotest.(check (list string))
    "order"
    [ "NULL"; "true"; "1"; "3"; "x" ]
    (List.map Value.to_string sorted)

(* ------------------------------------------------------------------ *)
(* Schema / tuples                                                      *)
(* ------------------------------------------------------------------ *)

let test_schema_dup () =
  Alcotest.check_raises "duplicate"
    (Schema.Schema_error "duplicate attribute name \"a\" in schema") (fun () ->
      ignore (Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "a" Vtype.TInt ]))

(* Schemas wider than a lookup scan build their name index on the first
   lookup; two domains may race to build it. The duplicate check stays
   eager and names the first repeated attribute in order. *)
let test_schema_wide () =
  let names = List.init 40 (Printf.sprintf "c%d") in
  let attrs = List.map (fun n -> Schema.attr n Vtype.TInt) names in
  let positions s = List.map (Schema.find s) names in
  let expected = List.init 40 Option.some in
  let s = Schema.of_list attrs in
  Alcotest.(check (list (option int))) "positions" expected (positions s);
  Alcotest.(check bool) "absent" false (Schema.mem s "c40");
  let fresh = Schema.concat (Schema.of_list (List.filteri (fun i _ -> i < 20) attrs))
      (Schema.of_list (List.filteri (fun i _ -> i >= 20) attrs)) in
  let race = List.init 2 (fun _ -> Domain.spawn (fun () -> positions fresh)) in
  List.iter
    (fun d -> Alcotest.(check (list (option int))) "raced positions" expected (Domain.join d))
    race;
  let dup = List.mapi (fun i a -> if i = 25 then Schema.attr "c12" Vtype.TInt else if i = 28 then Schema.attr "c3" Vtype.TInt else a) attrs in
  Alcotest.check_raises "first duplicate named"
    (Schema.Schema_error "duplicate attribute name \"c12\" in schema") (fun () ->
      ignore (Schema.of_list dup))

let test_schema_ops () =
  let s = Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TString ] in
  Alcotest.(check int) "arity" 2 (Schema.arity s);
  Alcotest.(check bool) "find" true (Schema.find s "b" = Some 1);
  Alcotest.(check bool) "mem" false (Schema.mem s "z");
  let r = Schema.rename s (fun n -> "p_" ^ n) in
  Alcotest.(check (list string)) "renamed" [ "p_a"; "p_b" ] (Schema.names r);
  let c = Schema.concat s r in
  Alcotest.(check int) "concat arity" 4 (Schema.arity c)

let test_tuple_identity () =
  let a = Tuple.of_list [ i 1; vnull ] and b = Tuple.of_list [ i 1; vnull ] in
  Alcotest.(check bool) "null-aware equal" true (Tuple.equal a b);
  Alcotest.(check bool) "hash equal" true (Tuple.hash a = Tuple.hash b);
  let c = Tuple.of_list [ Value.Float 1.0; vnull ] in
  Alcotest.(check bool) "int/float identity" true (Tuple.equal a c)

(* ------------------------------------------------------------------ *)
(* Relation bag ops                                                     *)
(* ------------------------------------------------------------------ *)

let schema1 = Schema.of_list [ Schema.attr "x" Vtype.TInt ]

let rel_of ints =
  Relation.of_values schema1 (List.map (fun n -> [ i n ]) ints)

let as_sorted_ints rel =
  List.map
    (fun t -> match Tuple.get t 0 with Value.Int n -> n | _ -> -999)
    (Relation.sorted_tuples rel)

let test_bag_ops () =
  let a = rel_of [ 1; 1; 2; 3 ] and b = rel_of [ 1; 2; 2; 4 ] in
  Alcotest.(check (list int))
    "union bag" [ 1; 1; 1; 2; 2; 2; 3; 4 ]
    (as_sorted_ints (Relation.union_bag a b));
  Alcotest.(check (list int))
    "inter bag" [ 1; 2 ]
    (as_sorted_ints (Relation.inter_bag a b));
  Alcotest.(check (list int))
    "diff bag" [ 1; 3 ]
    (as_sorted_ints (Relation.diff_bag a b));
  Alcotest.(check (list int))
    "union set" [ 1; 2; 3; 4 ]
    (as_sorted_ints (Relation.union_set a b));
  Alcotest.(check (list int))
    "inter set" [ 1; 2 ]
    (as_sorted_ints (Relation.inter_set a b));
  Alcotest.(check (list int))
    "diff set" [ 3 ]
    (as_sorted_ints (Relation.diff_set a b))

let test_relation_equal () =
  let a = rel_of [ 1; 2; 2 ] and b = rel_of [ 2; 1; 2 ] and c = rel_of [ 1; 2 ] in
  Alcotest.(check bool) "bag equal" true (Relation.equal_bag a b);
  Alcotest.(check bool) "bag not equal" false (Relation.equal_bag a c);
  Alcotest.(check bool) "set equal" true (Relation.equal_set a c)

(* qcheck: bag-op multiplicity laws. *)
let small_bag = QCheck.(list_of_size Gen.(0 -- 12) (0 -- 4))

let prop_bag_laws =
  QCheck.Test.make ~name:"bag union/inter/diff multiplicities" ~count:200
    (QCheck.pair small_bag small_bag) (fun (xs, ys) ->
      let a = rel_of xs and b = rel_of ys in
      let count l v = List.length (List.filter (( = ) v) l) in
      let u = Relation.union_bag a b
      and it = Relation.inter_bag a b
      and d = Relation.diff_bag a b in
      List.for_all
        (fun v ->
          let t = Tuple.of_list [ i v ] in
          Relation.multiplicity u t = count xs v + count ys v
          && Relation.multiplicity it t = min (count xs v) (count ys v)
          && Relation.multiplicity d t = max 0 (count xs v - count ys v))
        [ 0; 1; 2; 3; 4 ])

(* ------------------------------------------------------------------ *)
(* Rendering: Value.to_string against the format interpreter          *)
(* ------------------------------------------------------------------ *)

(* The renderings [Value.to_string] must keep byte for byte: the wire
   protocol and the CLI show rows through it. *)
let ref_int = string_of_int

let ref_float f =
  let s = Printf.sprintf "%.6g" f in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
  then s
  else s ^ ".0"

let int_gen =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ 0; 1; -1; 9; 10; -10; 99; 100; min_int; max_int; min_int + 1; max_int - 1 ]);
        (3, int);
        (3, map (fun n -> n - 50_000) (0 -- 100_000));
        (* every decimal width *)
        (2, map2 (fun e n -> n * Int.shift_left 1 e) (0 -- 62) (-10 -- 10));
      ])

let prop_int_rendering =
  QCheck.Test.make ~name:"Value.to_string on ints is string_of_int" ~count:5000
    (QCheck.make int_gen ~print:string_of_int) (fun n ->
      Value.to_string (Value.Int n) = ref_int n)

(* Floats where a six-digit rendering is easy to get wrong: rounding
   ties and their neighbours one ulp either side, two-decimal money
   values, every decade from subnormals to 1e308, and the specials. *)
let float_gen =
  let open QCheck.Gen in
  let signed g = map2 (fun neg f -> if neg then -.f else f) bool g in
  let wiggle g =
    map2 (fun d f -> match d with 0 -> Float.pred f | 1 -> f | _ -> Float.succ f) (0 -- 2) g
  in
  let tie =
    map2
      (fun d e -> (float_of_int d +. 0.5) /. (10. ** float_of_int e))
      (100_000 -- 999_999) (-3 -- 12)
  in
  let money = map (fun c -> float_of_int c /. 100.) (0 -- 100_000_000) in
  let decade = map2 (fun m e -> m *. (10. ** float_of_int e)) (float_bound_exclusive 10.) (-12 -- 12) in
  let bits = map Int64.float_of_bits ui64 in
  let special =
    oneofl
      [
        0.; -0.; nan; infinity; neg_infinity; 1e300; -1e300; 5e-324; Float.min_float;
        Float.pred Float.min_float; Float.max_float; 1e-4; 1e6; 999_999.5; 0.000_099_999_95;
        1.; 100.; 123_456.; 1_234_567.;
      ]
  in
  signed
    (wiggle
       (frequency [ (1, special); (4, tie); (3, money); (3, decade); (2, bits) ]))

let prop_float_rendering =
  QCheck.Test.make ~name:"Value.to_string on floats is %.6g with the .0 rule" ~count:20000
    (QCheck.make float_gen ~print:(Printf.sprintf "%h")) (fun f ->
      Value.to_string (Value.Float f) = ref_float f)

(* ------------------------------------------------------------------ *)
(* ANY/ALL fast path vs naive 3VL fold                                  *)
(* ------------------------------------------------------------------ *)

let value_gen =
  QCheck.Gen.(
    frequency
      [ (1, return Value.Null); (5, map (fun n -> Value.Int n) (0 -- 5)) ])

let values_gen = QCheck.Gen.(list_size (0 -- 10) value_gen)

let cmpops = Algebra.[ Eq; Neq; Lt; Leq; Gt; Geq; EqNull ]

let prop_any_all_summary =
  let gen = QCheck.Gen.(triple value_gen values_gen (0 -- 6)) in
  let arb =
    QCheck.make gen ~print:(fun (lhs, vs, opi) ->
        Printf.sprintf "lhs=%s vals=[%s] op#%d" (Value.to_string lhs)
          (String.concat ";" (List.map Value.to_string vs))
          opi)
  in
  QCheck.Test.make ~name:"ANY/ALL summary agrees with naive 3VL fold" ~count:2000
    arb (fun (lhs, values, opi) ->
      let op = List.nth cmpops opi in
      let s = Eval.summarize values in
      Eval.any_of_summary op lhs s = Eval.naive_any op lhs values
      && Eval.all_of_summary op lhs s = Eval.naive_all op lhs values)

(* ------------------------------------------------------------------ *)
(* Evaluator on algebra trees                                           *)
(* ------------------------------------------------------------------ *)

let mk_db () =
  let r_schema =
    Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt ]
  in
  let s_schema = Schema.of_list [ Schema.attr "c" Vtype.TInt ] in
  Database.of_list
    [
      ( "R",
        Relation.of_values r_schema
          [ [ i 1; i 2 ]; [ i 3; i 4 ]; [ i 3; i 4 ]; [ i 5; vnull ] ] );
      ("S", Relation.of_values s_schema [ [ i 2 ]; [ i 5 ] ]);
    ]

let test_eval_select_null_cond () =
  (* b > 3: the NULL b row must be filtered out (unknown, not true). *)
  let db = mk_db () in
  let q = Algebra.(Select (gt (attr "b") (int 3), Base "R")) in
  let rel = Eval.query db q in
  Alcotest.(check int) "two rows" 2 (Relation.cardinality rel)

let test_eval_project_bag_vs_set () =
  let db = mk_db () in
  let cols = [ (Algebra.attr "a", "a") ] in
  let bag = Eval.query db (Algebra.project cols (Algebra.Base "R")) in
  let set = Eval.query db (Algebra.project ~distinct:true cols (Algebra.Base "R")) in
  Alcotest.(check int) "bag keeps dups" 4 (Relation.cardinality bag);
  Alcotest.(check int) "set dedups" 3 (Relation.cardinality set)

let test_eval_cross () =
  let db = mk_db () in
  let rel = Eval.query db (Algebra.Cross (Base "R", Base "S")) in
  Alcotest.(check int) "cardinality" 8 (Relation.cardinality rel)

let test_eval_hash_join_null () =
  (* join on b = c: NULL b must not match anything. *)
  let db = mk_db () in
  let q = Algebra.(Join (eq (attr "b") (attr "c"), Base "R", Base "S")) in
  let rel = Eval.query db q in
  Alcotest.(check int) "one match" 1 (Relation.cardinality rel)

let test_eval_null_safe_join () =
  (* =n matches NULL with NULL. *)
  let db = mk_db () in
  let s2 =
    Relation.of_values
      (Schema.of_list [ Schema.attr "c" Vtype.TInt ])
      [ [ vnull ]; [ i 2 ] ]
  in
  Database.add db "S2" s2;
  let q = Algebra.(Join (Cmp (EqNull, attr "b", attr "c"), Base "R", Base "S2")) in
  let rel = Eval.query db q in
  (* b=2 matches c=2; b=NULL matches c=NULL *)
  Alcotest.(check int) "two matches" 2 (Relation.cardinality rel)

let test_eval_left_join_residual () =
  let db = mk_db () in
  let q =
    Algebra.(
      LeftJoin (eq (attr "b") (attr "c") &&& gt (attr "a") (int 2), Base "R", Base "S"))
  in
  let rel = Eval.query db q in
  (* no R row matches (b=2 has a=1, fails residual) -> all padded *)
  Alcotest.(check int) "padded rows" 4 (Relation.cardinality rel);
  List.iter
    (fun t -> Alcotest.(check bool) "padded" true (Value.is_null (Tuple.get t 2)))
    (Relation.tuples rel)

let test_eval_agg_empty_group () =
  let db = mk_db () in
  let empty = Relation.empty (Schema.of_list [ Schema.attr "z" Vtype.TInt ]) in
  Database.add db "E" empty;
  let q =
    Algebra.aggregate ~group_by:[]
      ~aggs:
        [
          { Algebra.agg_func = "count"; agg_distinct = false; agg_arg = None; agg_name = "n" };
          {
            Algebra.agg_func = "sum";
            agg_distinct = false;
            agg_arg = Some (Algebra.attr "z");
            agg_name = "s";
          };
        ]
      (Algebra.Base "E")
  in
  let rel = Eval.query db q in
  Alcotest.(check int) "one row" 1 (Relation.cardinality rel);
  let t = List.hd (Relation.tuples rel) in
  Alcotest.(check string) "count 0" "0" (Value.to_string (Tuple.get t 0));
  Alcotest.(check bool) "sum null" true (Value.is_null (Tuple.get t 1))

let test_eval_agg_nulls () =
  let db = mk_db () in
  (* count(b) skips the NULL; avg over non-null only. *)
  let q =
    Algebra.aggregate ~group_by:[]
      ~aggs:
        [
          {
            Algebra.agg_func = "count";
            agg_distinct = false;
            agg_arg = Some (Algebra.attr "b");
            agg_name = "n";
          };
          {
            Algebra.agg_func = "avg";
            agg_distinct = false;
            agg_arg = Some (Algebra.attr "b");
            agg_name = "m";
          };
        ]
      (Algebra.Base "R")
  in
  let t = List.hd (Relation.tuples (Eval.query db q)) in
  Alcotest.(check string) "count non-null" "3" (Value.to_string (Tuple.get t 0));
  (* avg(2,4,4) *)
  Alcotest.(check string) "avg" "3.33333" (Value.to_string (Tuple.get t 1))

let test_eval_distinct_agg () =
  let db = mk_db () in
  let q =
    Algebra.aggregate ~group_by:[]
      ~aggs:
        [
          {
            Algebra.agg_func = "count";
            agg_distinct = true;
            agg_arg = Some (Algebra.attr "a");
            agg_name = "n";
          };
        ]
      (Algebra.Base "R")
  in
  let t = List.hd (Relation.tuples (Eval.query db q)) in
  Alcotest.(check string) "count distinct" "3" (Value.to_string (Tuple.get t 0))

let test_eval_scalar_error () =
  let db = mk_db () in
  let q =
    Algebra.(
      Select
        (eq (attr "a") (scalar (project [ (attr "c", "c") ] (Base "S"))), Base "R"))
  in
  match Eval.query db q with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "expected scalar sublink error"

(* ------------------------------------------------------------------ *)
(* LIKE                                                                 *)
(* ------------------------------------------------------------------ *)

let test_like () =
  let cases =
    [
      ("abc", "abc", true);
      ("abc", "a%", true);
      ("abc", "%c", true);
      ("abc", "%b%", true);
      ("abc", "a_c", true);
      ("abc", "a_b", false);
      ("abc", "%", true);
      ("", "%", true);
      ("", "_", false);
      ("forest pine", "forest%", true);
      ("customer complaints", "%Customer%Complaints%", false);
      ("xCustomeryComplaintsz", "%Customer%Complaints%", true);
      ("aaa", "a%a", true);
      ("special brass", "%BRASS", false);
    ]
  in
  List.iter
    (fun (s, pattern, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s LIKE %s" s pattern)
        expected
        (Builtin.like_match ~pattern s))
    cases

(* ------------------------------------------------------------------ *)
(* Typecheck                                                            *)
(* ------------------------------------------------------------------ *)

let test_typecheck_catches () =
  let db = mk_db () in
  let bad =
    [
      Algebra.(Select (attr "a", Base "R"));
      (* non-boolean condition *)
      Algebra.(Select (eq (attr "nope") (int 1), Base "R"));
      Algebra.(Select (eq (attr "a") (str "x"), Base "R"));
      Algebra.(Union (Bag, Base "R", Base "S"));
      Algebra.(project [ (FunCall ("sum", [ attr "a" ]), "s") ] (Base "R"));
    ]
  in
  List.iter
    (fun q ->
      match Typecheck.check db q with
      | exception Typecheck.Type_error _ -> ()
      | () -> Alcotest.failf "expected type error for %s" (Pp.query_to_line q))
    bad

let test_typecheck_correlation () =
  let db = mk_db () in
  (* correlated sublink: S-level query references R's a *)
  let sub = Algebra.(Select (eq (attr "c") (attr "a"), Base "S")) in
  let q = Algebra.(Select (exists sub, Base "R")) in
  Typecheck.check db q;
  let schema = Typecheck.infer db q in
  Alcotest.(check (list string)) "schema" [ "a"; "b" ] (Schema.names schema)

(* ------------------------------------------------------------------ *)
(* Optimizer equivalence                                                *)
(* ------------------------------------------------------------------ *)

let test_optimizer_pushdown_equiv () =
  let db = mk_db () in
  let queries =
    Algebra.
      [
        Select (eq (attr "b") (attr "c") &&& gt (attr "a") (int 1), Cross (Base "R", Base "S"));
        Select (gt (attr "a") (int 0), Select (lt (attr "a") (int 4), Base "R"));
        Select
          ( eq (attr "b") (attr "c"),
            Cross (Select (gt (attr "a") (int 0), Base "R"), Base "S") );
        Select
          ( gt (attr "a") (int 2) &&& eq (attr "b") (attr "c"),
            Join (Cmp (Neq, attr "a", attr "c"), Base "R", Base "S") );
      ]
  in
  List.iter
    (fun q ->
      let plain = Eval.query db q in
      let opt = Eval.query db (Optimizer.optimize db q) in
      if not (Relation.equal_bag plain opt) then
        Alcotest.failf "optimizer changed semantics of %s" (Pp.query_to_line q))
    queries

(* qcheck: random conjunctive selections over crosses are preserved. *)
let prop_optimizer_equiv =
  let gen =
    QCheck.Gen.(
      list_size (1 -- 4)
        (oneofl
           Algebra.
             [
               gt (attr "a") (int 1);
               eq (attr "b") (attr "c");
               lt (attr "c") (int 4);
               Cmp (Neq, attr "a", attr "c");
               Or (gt (attr "a") (int 2), lt (attr "c") (int 3));
             ]))
  in
  let arb =
    QCheck.make gen ~print:(fun es ->
        String.concat " AND " (List.map Pp.expr_to_string es))
  in
  QCheck.Test.make ~name:"optimizer preserves selection-over-cross semantics"
    ~count:100 arb (fun conjs ->
      let db = mk_db () in
      let q = Algebra.(Select (conj conjs, Cross (Base "R", Base "S"))) in
      let plain = Eval.query db q in
      let opt = Eval.query db (Optimizer.optimize db q) in
      Relation.equal_bag plain opt)

(* ------------------------------------------------------------------ *)
(* Simplifier                                                           *)
(* ------------------------------------------------------------------ *)

let test_simplify_rules () =
  let open Algebra in
  let cases =
    [
      ("fold add", Binop (Add, int 2, int 3), int 5);
      ("fold cmp", Cmp (Lt, int 1, int 2), bool true);
      ("and true", And (bool true, attr "a"), attr "a");
      ("and false", And (attr "a", bool false), bool false);
      ("or true", Or (attr "a", bool true), bool true);
      ("or false", Or (bool false, attr "a"), attr "a");
      ("double not", Not (Not (attr "a")), attr "a");
      ("not lt", Not (lt (attr "a") (int 3)), Cmp (Geq, attr "a", int 3));
      ("not eq", Not (eq (attr "a") (int 3)), Cmp (Neq, attr "a", int 3));
      ("is null const", IsNull (Const Value.Null), bool true);
      ("like const", Like (str "forest pine", "forest%"), bool true);
      ("in list const", InList (int 2, [ int 1; int 2 ]), bool true);
      ( "case true branch",
        Case ([ (bool false, int 1); (bool true, int 2) ], Some (int 3)),
        int 2 );
      ("case falls to else", Case ([ (bool false, int 1) ], Some (int 3)), int 3);
      ("case no else", Case ([ (bool false, int 1) ], None), Const Value.Null);
    ]
  in
  List.iter
    (fun (name, input, expected) ->
      let got = Simplify.expr input in
      if got <> expected then
        Alcotest.failf "%s: got %s, expected %s" name (Pp.expr_to_string got)
          (Pp.expr_to_string expected))
    cases;
  (* a folding that would raise must be left in place *)
  let div0 = Algebra.(Binop (Div, int 1, int 0)) in
  Alcotest.(check bool) "div by zero kept" true (Simplify.expr div0 = div0);
  (* NOT over =n has no negated operator: must stay a Not *)
  let noteqn = Algebra.(Not (Cmp (EqNull, attr "a", int 1))) in
  Alcotest.(check bool) "not =n kept" true (Simplify.expr noteqn = noteqn)

let test_simplify_query () =
  let open Algebra in
  (* constant-TRUE selections disappear; TRUE joins become products *)
  let q = Select (Or (bool true, lt (attr "a") (int 0)), Base "R") in
  (match Simplify.query q with
  | Base "R" -> ()
  | q' -> Alcotest.failf "expected bare base, got %s" (Pp.query_to_line q'));
  match Simplify.query (Join (bool true, Base "R", Base "S")) with
  | Cross (Base "R", Base "S") -> ()
  | q' -> Alcotest.failf "expected cross, got %s" (Pp.query_to_line q')

(* random boolean expressions: simplified form evaluates identically *)
let gen_bool_expr =
  let open QCheck.Gen in
  let open Algebra in
  let leaf =
    oneofl
      [
        attr "flag"; bool true; bool false; Const Value.Null;
        lt (attr "a") (Algebra.int 2); eq (attr "b") (Algebra.int 1);
        Cmp (EqNull, attr "a", Const Value.Null);
      ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (1, leaf);
          (2, map2 (fun a b -> And (a, b)) (go (depth - 1)) (go (depth - 1)));
          (2, map2 (fun a b -> Or (a, b)) (go (depth - 1)) (go (depth - 1)));
          (2, map (fun a -> Not a) (go (depth - 1)));
        ]
  in
  go 4

let prop_simplify_equiv =
  QCheck.Test.make ~name:"simplified expressions evaluate identically" ~count:500
    (QCheck.make
       QCheck.Gen.(
         triple gen_bool_expr
           (oneofl [ Value.Int 0; Value.Int 2; Value.Null ])
           (oneofl [ Value.Int 1; Value.Int 3; Value.Null ]))
       ~print:(fun (e, _, _) -> Pp.expr_to_string e))
    (fun (e, va, vb) ->
      let schema =
        Schema.of_list
          [
            Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt;
            Schema.attr "flag" Vtype.TBool;
          ]
      in
      let db = Database.create () in
      List.for_all
        (fun flag ->
          let tuple = Tuple.of_list [ va; vb; flag ] in
          let env = [ Eval.frame schema tuple ] in
          Eval.expr ~env db e = Eval.expr ~env db (Simplify.expr e))
        [ Value.Bool true; Value.Bool false; Value.Null ])

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "relalg"
    [
      ( "value",
        [
          tc "3vl truth tables" `Quick test_3vl_tables;
          tc "null comparisons" `Quick test_null_comparisons;
          tc "arithmetic" `Quick test_arith;
          tc "total order" `Quick test_total_order;
        ] );
      ( "schema",
        [
          tc "duplicate rejected" `Quick test_schema_dup;
          tc "wide schemas" `Quick test_schema_wide;
          tc "ops" `Quick test_schema_ops;
          tc "tuple identity" `Quick test_tuple_identity;
        ] );
      ( "relation",
        [
          tc "bag ops" `Quick test_bag_ops;
          tc "equality" `Quick test_relation_equal;
        ] );
      ( "eval",
        [
          tc "null condition filtered" `Quick test_eval_select_null_cond;
          tc "bag vs set projection" `Quick test_eval_project_bag_vs_set;
          tc "cross" `Quick test_eval_cross;
          tc "hash join nulls" `Quick test_eval_hash_join_null;
          tc "null-safe join" `Quick test_eval_null_safe_join;
          tc "left join residual" `Quick test_eval_left_join_residual;
          tc "agg empty input" `Quick test_eval_agg_empty_group;
          tc "agg null handling" `Quick test_eval_agg_nulls;
          tc "distinct agg" `Quick test_eval_distinct_agg;
          tc "scalar sublink error" `Quick test_eval_scalar_error;
          tc "like" `Quick test_like;
        ] );
      ( "typecheck",
        [
          tc "catches errors" `Quick test_typecheck_catches;
          tc "correlation" `Quick test_typecheck_correlation;
        ] );
      ("optimizer", [ tc "pushdown equivalence" `Quick test_optimizer_pushdown_equiv ]);
      ( "simplify",
        [
          tc "rewrite rules" `Quick test_simplify_rules;
          tc "plan rules" `Quick test_simplify_query;
        ] );
      qsuite "properties"
        [
          prop_bag_laws; prop_any_all_summary; prop_optimizer_equiv;
          prop_simplify_equiv; prop_int_rendering; prop_float_rendering;
        ];
    ]
