(* Symbolic 3VL solver tests.

   Units: truth tables over constant operands (the solver's compiled
   pos/neg/unk propositions must agree with [Value.and3]/[or3]/[not3]
   and [Eval.cmp3]), interval and congruence reasoning (integer bound
   tightening, transitive equalities, null facts, =n two-valuedness,
   opaque-atom propositional reasoning), fuel exhaustion, and the
   filter-simplifier.

   Properties: random predicates over three int columns are
   brute-force enumerated on tiny domains ({NULL, 0, 1, 2} per
   column) and every theorem-side verdict is checked against the
   enumeration — [satisfiable]/[falsifiable] Refuted means no
   assignment produces TRUE/FALSE, [implies]/[always_true] Proved
   holds on every assignment, and [simplify] preserves the TRUE-set
   exactly.

   Pinned: the MD5 of the verdicts on the optimizer-shaped questions of
   Qgen plans and on random predicates (computed with the solver that
   materialized every proposition, so a rewrite of the search must keep
   each verdict, [Unknown] included), and a bound on the minor words a
   Csub+-shaped question allocates. *)

open Relalg
open Algebra

let check_bool = Alcotest.(check bool)

let verdict =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Symbolic.verdict_to_string v))
    ( = )

let cols = [ "a"; "b"; "c" ]

let int_types n = if List.mem n cols then Some Vtype.TInt else None

let ctx ?notnull ?fuel () = Symbolic.ctx ?fuel ~types:int_types ?notnull ()

(* ------------------------------------------------------------------ *)
(* A direct 3VL evaluator over assignments (the brute-force oracle)    *)
(* ------------------------------------------------------------------ *)

let rec eval3 (env : (string * Value.t) list) (e : expr) : Value.t =
  match e with
  | Const v -> v
  | TypedNull _ -> Value.Null
  | Attr n -> List.assoc n env
  | Binop (op, a, b) -> (
      let va = eval3 env a and vb = eval3 env b in
      match op with
      | Add -> Value.add va vb
      | Sub -> Value.sub va vb
      | Mul -> Value.mul va vb
      | _ -> invalid_arg "eval3: binop")
  | Cmp (op, a, b) -> Eval.cmp3 op (eval3 env a) (eval3 env b)
  | And (a, b) -> Value.and3 (eval3 env a) (eval3 env b)
  | Or (a, b) -> Value.or3 (eval3 env a) (eval3 env b)
  | Not a -> Value.not3 (eval3 env a)
  | IsNull a -> Value.Bool (Value.is_null (eval3 env a))
  | InList (a, es) ->
      let va = eval3 env a in
      List.fold_left
        (fun acc el -> Value.or3 acc (Eval.cmp3 Eq va (eval3 env el)))
        Value.vfalse es
  | _ -> invalid_arg "eval3: unsupported"

let domain = [ Value.Null; Value.Int 0; Value.Int 1; Value.Int 2 ]

let assignments =
  List.concat_map
    (fun va ->
      List.concat_map
        (fun vb ->
          List.map (fun vc -> [ ("a", va); ("b", vb); ("c", vc) ]) domain)
        domain)
    domain

let true_on env e = Value.is_true (eval3 env e)
let false_on env e = Value.is_false (eval3 env e)

(* ------------------------------------------------------------------ *)
(* Truth tables                                                        *)
(* ------------------------------------------------------------------ *)

let truths = [ Value.vtrue; Value.vfalse; Value.Null ]

let expect_of v =
  if Value.is_true v then Symbolic.Proved (* satisfiable: abstractly yes *)
  else Symbolic.Refuted

let test_truth_tables () =
  let c = ctx () in
  List.iter
    (fun v1 ->
      List.iter
        (fun v2 ->
          let check name e expected =
            Alcotest.check verdict name expected (Symbolic.satisfiable c e)
          in
          check
            (Printf.sprintf "and3 %s %s" (Value.to_string v1) (Value.to_string v2))
            (And (Const v1, Const v2))
            (expect_of (Value.and3 v1 v2));
          check
            (Printf.sprintf "or3 %s %s" (Value.to_string v1) (Value.to_string v2))
            (Or (Const v1, Const v2))
            (expect_of (Value.or3 v1 v2)))
        truths;
      Alcotest.check verdict
        (Printf.sprintf "not3 %s" (Value.to_string v1))
        (expect_of (Value.not3 v1))
        (Symbolic.satisfiable c (Not (Const v1))))
    truths

let test_cmp_constants () =
  let c = ctx () in
  let vals = [ Value.Null; Value.Int 0; Value.Int 1 ] in
  List.iter
    (fun op ->
      List.iter
        (fun v1 ->
          List.iter
            (fun v2 ->
              let e = Cmp (op, Const v1, Const v2) in
              let v = Eval.cmp3 op v1 v2 in
              Alcotest.check verdict "cmp3 satisfiable" (expect_of v)
                (Symbolic.satisfiable c e);
              Alcotest.check verdict "cmp3 falsifiable"
                (if Value.is_false v then Symbolic.Proved else Symbolic.Refuted)
                (Symbolic.falsifiable c e))
            vals)
        vals)
    [ Eq; Neq; Lt; Leq; Gt; Geq; EqNull ]

(* ------------------------------------------------------------------ *)
(* Theory units                                                        *)
(* ------------------------------------------------------------------ *)

let a = attr "a"
let b = attr "b"
let c_ = attr "c"
let ci n = Const (Value.Int n)

let test_intervals () =
  let c = ctx () in
  Alcotest.check verdict "a<1 & a>3 unsat" Symbolic.Refuted
    (Symbolic.satisfiable c (And (lt a (ci 1), gt a (ci 3))));
  (* integer tightening: no int fits strictly between 1 and 2 *)
  Alcotest.check verdict "int a>1 & a<2 unsat" Symbolic.Refuted
    (Symbolic.satisfiable c (And (gt a (ci 1), lt a (ci 2))));
  (* without type info the strict gap must stay satisfiable *)
  let untyped = Symbolic.ctx () in
  Alcotest.check verdict "untyped a>1 & a<2 sat" Symbolic.Proved
    (Symbolic.satisfiable untyped (And (gt a (ci 1), lt a (ci 2))));
  Alcotest.check verdict "a=1 & a<>1 unsat" Symbolic.Refuted
    (Symbolic.satisfiable c (And (eq a (ci 1), Cmp (Neq, a, ci 1))));
  Alcotest.check verdict "a=1 & a<=1 sat" Symbolic.Proved
    (Symbolic.satisfiable c (And (eq a (ci 1), Cmp (Leq, a, ci 1))))

let test_congruence () =
  let c = ctx () in
  Alcotest.check verdict "a=b & b=c & a<5 => c<5" Symbolic.Proved
    (Symbolic.implies c
       (And (eq a b, And (eq b c_, lt a (ci 5))))
       (lt c_ (ci 5)));
  Alcotest.check verdict "a=b & a<1 & b>3 unsat" Symbolic.Refuted
    (Symbolic.satisfiable c (And (eq a b, And (lt a (ci 1), gt b (ci 3)))));
  Alcotest.check verdict "a=b & a<>b unsat" Symbolic.Refuted
    (Symbolic.satisfiable c (And (eq a b, Cmp (Neq, a, b))));
  Alcotest.check verdict "a<a unsat" Symbolic.Refuted
    (Symbolic.satisfiable c (lt a a));
  (* equality asserted TRUE forces both operands non-null *)
  Alcotest.check verdict "a=b => a not null" Symbolic.Proved
    (Symbolic.implies c (eq a b) (Not (IsNull a)))

let test_null_facts () =
  let c = ctx () in
  Alcotest.check verdict "IS NULL a & a=1 unsat" Symbolic.Refuted
    (Symbolic.satisfiable c (And (IsNull a, eq a (ci 1))));
  (* comparison with a literal NULL is never TRUE and never FALSE *)
  let e = eq a (Const Value.Null) in
  Alcotest.check verdict "a=NULL never true" Symbolic.Refuted
    (Symbolic.satisfiable c e);
  Alcotest.check verdict "a=NULL never false" Symbolic.Refuted
    (Symbolic.falsifiable c e);
  (* external not-null facts *)
  let nn = ctx ~notnull:[ "a" ] () in
  Alcotest.check verdict "notnull fact refutes IS NULL" Symbolic.Refuted
    (Symbolic.satisfiable nn (IsNull a));
  Alcotest.check verdict "notnull fact proves IS NOT NULL" Symbolic.Proved
    (Symbolic.always_true nn (Not (IsNull a)))

let test_eqnull () =
  let c = ctx () in
  let e = Cmp (EqNull, a, a) in
  (* =n is two-valued and reflexive *)
  Alcotest.check verdict "a =n a never false" Symbolic.Refuted
    (Symbolic.falsifiable c e);
  Alcotest.check verdict "a =n a tautological" Symbolic.Proved
    (Symbolic.always_true c e);
  Alcotest.check verdict "x =n y OR NOT (x =n y) tautological" Symbolic.Proved
    (Symbolic.always_true c
       (Or (Cmp (EqNull, a, b), Not (Cmp (EqNull, a, b)))))

let test_opaque_atoms () =
  let c = ctx () in
  let p = Like (a, "x%") in
  Alcotest.check verdict "P & Q => P (opaque)" Symbolic.Proved
    (Symbolic.implies c (And (p, gt b (ci 0))) p);
  Alcotest.check verdict "P & NOT P never true (opaque)" Symbolic.Refuted
    (Symbolic.satisfiable c (And (p, Not p)));
  (* distinct opaque atoms stay free *)
  Alcotest.check verdict "P & NOT Q sat (opaque)" Symbolic.Proved
    (Symbolic.satisfiable c (And (p, Not (Like (b, "y%")))))

let test_fuel () =
  let tiny = Symbolic.ctx ~fuel:5 () in
  let big =
    List.fold_left
      (fun acc i -> Or (acc, eq a (ci i)))
      (eq a (ci 0))
      [ 1; 2; 3; 4; 5; 6; 7 ]
  in
  Alcotest.check verdict "fuel exhaustion is Unknown" Symbolic.Unknown
    (Symbolic.satisfiable tiny (And (big, Not big)))

let test_simplify () =
  let c = ctx () in
  (* implied conjunct dropped *)
  check_bool "a=1 & a>0 simplifies" true
    (Symbolic.simplify c (And (eq a (ci 1), gt a (ci 0))) = eq a (ci 1));
  (* unsatisfiable conjunction folds to FALSE *)
  check_bool "contradiction folds to false" true
    (Symbolic.simplify c (And (lt a (ci 1), gt a (ci 3))) = Const Value.vfalse);
  (* tautology folds to TRUE *)
  check_bool "tautology folds to true" true
    (Symbolic.simplify c (Cmp (EqNull, a, a)) = Const Value.vtrue);
  (* nothing provable: expression returned unchanged *)
  let e = And (lt a (ci 5), gt b (ci 0)) in
  check_bool "independent conjuncts unchanged" true (Symbolic.simplify c e == e)

(* ------------------------------------------------------------------ *)
(* Properties: verdicts vs brute-force enumeration                     *)
(* ------------------------------------------------------------------ *)

let gen_pred : expr QCheck.Gen.t =
  let open QCheck.Gen in
  let col = oneofl cols >|= attr in
  let const =
    frequency
      [ (5, int_range (-1) 3 >|= Algebra.int); (1, return (Const Value.Null)) ]
  in
  let operand = frequency [ (3, col); (2, const) ] in
  let op = oneofl [ Eq; Neq; Lt; Leq; Gt; Geq; EqNull ] in
  let atom =
    frequency
      [
        (5, map3 (fun op a b -> Cmp (op, a, b)) op operand operand);
        (1, col >|= fun c -> IsNull c);
        ( 1,
          map2
            (fun c vs -> InList (c, vs))
            col
            (list_size (int_range 1 3) const) );
        (* out-of-theory atom: arithmetic under a comparison *)
        ( 1,
          map3
            (fun op c k -> Cmp (op, Binop (Add, c, Algebra.int 1), k))
            op col const );
      ]
  in
  let rec pred n =
    if n <= 0 then atom
    else
      frequency
        [
          (2, atom);
          (2, map2 (fun a b -> And (a, b)) (pred (n - 1)) (pred (n - 1)));
          (2, map2 (fun a b -> Or (a, b)) (pred (n - 1)) (pred (n - 1)));
          (1, pred (n - 1) >|= fun e -> Not e);
        ]
  in
  int_range 0 3 >>= pred

let arb_pred = QCheck.make ~print:(fun _ -> "<pred>") gen_pred

let prop_verdicts_sound =
  QCheck.Test.make ~name:"theorem verdicts agree with brute force" ~count:400
    arb_pred (fun e ->
      let c = ctx () in
      let can_true = List.exists (fun env -> true_on env e) assignments in
      let can_false = List.exists (fun env -> false_on env e) assignments in
      (match Symbolic.satisfiable c e with
      | Symbolic.Refuted ->
          if can_true then QCheck.Test.fail_report "refuted but satisfiable"
      | _ -> ());
      (match Symbolic.falsifiable c e with
      | Symbolic.Refuted ->
          if can_false then QCheck.Test.fail_report "never-false refuted wrongly"
      | _ -> ());
      (match Symbolic.always_true c e with
      | Symbolic.Proved ->
          if not (List.for_all (fun env -> true_on env e) assignments) then
            QCheck.Test.fail_report "always_true proved wrongly"
      | _ -> ());
      true)

let prop_implies_sound =
  QCheck.Test.make ~name:"implies/equiv Proved holds on every assignment"
    ~count:400
    (QCheck.pair arb_pred arb_pred)
    (fun (p, q) ->
      let c = ctx () in
      (match Symbolic.implies c p q with
      | Symbolic.Proved ->
          List.iter
            (fun env ->
              if true_on env p && not (true_on env q) then
                QCheck.Test.fail_report "implies proved but countermodel exists")
            assignments
      | _ -> ());
      (match Symbolic.equiv c p q with
      | Symbolic.Proved ->
          List.iter
            (fun env ->
              if true_on env p <> true_on env q then
                QCheck.Test.fail_report "equiv proved but TRUE-sets differ")
            assignments
      | _ -> ());
      true)

let prop_simplify_filter_equiv =
  QCheck.Test.make ~name:"simplify preserves the TRUE-set" ~count:400 arb_pred
    (fun e ->
      let c = ctx () in
      let e' = Symbolic.simplify c e in
      List.for_all (fun env -> true_on env e = true_on env e') assignments)

(* The solver must stay exact on the decidable fragment often enough to
   be useful: interval+congruence conjunctions it refutes are truly
   unsat, and (spot completeness) it refutes a known family. *)
let prop_range_contradictions_found =
  QCheck.Test.make ~name:"contradictory ranges are refuted" ~count:100
    (QCheck.pair (QCheck.int_range (-1) 3) (QCheck.int_range (-1) 3))
    (fun (lo, hi) ->
      let c = ctx () in
      let e = And (lt a (ci lo), gt a (ci hi)) in
      let verdict_ = Symbolic.satisfiable c e in
      if lo <= hi + 1 then verdict_ = Symbolic.Refuted
      else verdict_ = Symbolic.Proved)

(* ------------------------------------------------------------------ *)
(* Pinned verdicts and allocation                                      *)
(* ------------------------------------------------------------------ *)

(* The questions the optimizer's sites ask, over real plans: every
   Select/Join condition of the original query and of every strategy's
   rewritten plan for Qgen seeds 1-300 — the condition, each conjunct,
   and each conjunct against the rest — asked as [never_true],
   [always_true] and [implies] under the typing of the condition's
   input (none when the input does not type on its own, i.e. it is
   correlated). *)
let plan_questions (emit : string -> unit) =
  let schema_types db q =
    match Typecheck.infer db q with
    | s -> fun n -> Option.map (fun i -> (Schema.attr_at s i).Schema.ty) (Schema.find s n)
    | exception _ -> fun _ -> None
  in
  let ask types cond =
    let c = Symbolic.ctx ~types () in
    let v x = emit (Symbolic.verdict_to_string x) in
    v (Symbolic.never_true c cond);
    v (Symbolic.always_true c cond);
    match conjuncts cond with
    | [ _ ] -> ()
    | cs ->
        List.iteri
          (fun i x ->
            let others = List.filteri (fun j _ -> j <> i) cs in
            v (Symbolic.never_true c x);
            v (Symbolic.always_true c x);
            v (Symbolic.implies c (conj others) x))
          cs
  in
  let rec walk db q =
    (match q with
    | Select (c, q1) -> ask (schema_types db q1) c
    | Join (c, l, r) -> ask (schema_types db (Cross (l, r))) c
    | _ -> ());
    List.iter (walk db) (Algebra.inputs q);
    List.iter
      (fun (s : sublink) -> walk db s.query)
      (List.concat_map sublinks_of_expr (Algebra.root_exprs q))
  in
  for seed = 1 to 300 do
    let case = Fuzz.Qgen.case_of_seed seed in
    let db = Fuzz.Qgen.database case in
    let q =
      (Sql_frontend.Analyzer.analyze_string db (Fuzz.Qgen.sql case))
        .Sql_frontend.Analyzer.query
    in
    emit (Printf.sprintf "seed %d" seed);
    walk db q;
    List.iter
      (fun strategy ->
        match Core.Rewrite.rewrite db ~strategy q with
        | q_plus, _ -> walk db q_plus
        | exception Core.Strategy.Unsupported _ -> emit "unsupported")
      Core.Strategy.all
  done

(* Random predicates from the brute-force generator, asked every way
   under three contexts: typed, typed with a not-null fact, and a fuel
   small enough that many questions run out ([Unknown]). *)
let random_questions (emit : string -> unit) =
  let rand = Random.State.make [| 20261019 |] in
  let ctxs = [ ctx (); ctx ~notnull:[ "b" ] (); ctx ~fuel:24 () ] in
  for _ = 1 to 2000 do
    let p = gen_pred rand and q = gen_pred rand in
    List.iter
      (fun c ->
        List.iter
          (fun v -> emit (Symbolic.verdict_to_string v))
          [
            Symbolic.satisfiable c p;
            Symbolic.falsifiable c p;
            Symbolic.never_true c p;
            Symbolic.always_true c p;
            Symbolic.implies c p q;
            Symbolic.equiv c p q;
          ];
        emit (Pp.expr_to_string (Symbolic.simplify c p)))
      ctxs
  done

let digest_of questions =
  let buf = Buffer.create 65536 and n = ref 0 in
  questions (fun s ->
      incr n;
      Buffer.add_string buf s;
      Buffer.add_char buf '\n');
  (!n, Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Verdicts pinned at the solver before its search moved to a mutable
   state with an undo trail: the same answers, [Unknown] included. *)
let test_plan_verdicts () =
  let n, d = digest_of plan_questions in
  Alcotest.(check (pair int string)) "plan verdicts" (24249, "6e1d7693ebe3b69b33488f45206bc0e6") (n, d)

let test_random_verdicts () =
  let n, d = digest_of random_questions in
  Alcotest.(check (pair int string)) "random verdicts" (42000, "4deed52794596f292e6a4c0dcca70b36") (n, d)

(* The shape of a Gen plan's Csub+ condition: sixteen [=n] tests over
   provenance columns and an opaque EXISTS. Asking whether it can hold
   allocates a bounded number of minor words (the translation is read
   lazily and the search updates one state in place). *)
let test_csub_alloc () =
  let eqn i =
    Cmp (EqNull, attr (Printf.sprintf "prov_r_%d" i), attr (Printf.sprintf "prov_s_%d" i))
  in
  let cond = conj (List.init 16 eqn @ [ Algebra.exists (Base "s") ]) in
  let c = Symbolic.ctx () in
  ignore (Symbolic.never_true c cond);
  let w0 = Gc.minor_words () in
  let v = Symbolic.never_true c cond in
  let words = Gc.minor_words () -. w0 in
  Alcotest.check verdict "Csub+ can hold" Symbolic.Refuted v;
  Alcotest.(check bool)
    (Printf.sprintf "never_true on a Csub+ condition allocates %.0f minor words" words)
    true (words <= 520.)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "symbolic"
    [
      ( "truth tables",
        [
          Alcotest.test_case "and3/or3/not3" `Quick test_truth_tables;
          Alcotest.test_case "cmp3 constants" `Quick test_cmp_constants;
        ] );
      ( "theory",
        [
          Alcotest.test_case "intervals" `Quick test_intervals;
          Alcotest.test_case "congruence" `Quick test_congruence;
          Alcotest.test_case "null facts" `Quick test_null_facts;
          Alcotest.test_case "=n two-valued" `Quick test_eqnull;
          Alcotest.test_case "opaque atoms" `Quick test_opaque_atoms;
          Alcotest.test_case "fuel" `Quick test_fuel;
          Alcotest.test_case "simplify" `Quick test_simplify;
        ] );
      qsuite "brute force"
        [
          prop_verdicts_sound;
          prop_implies_sound;
          prop_simplify_filter_equiv;
          prop_range_contradictions_found;
        ];
      ( "pinned",
        [
          Alcotest.test_case "plan verdicts digest" `Quick test_plan_verdicts;
          Alcotest.test_case "random verdicts digest" `Quick test_random_verdicts;
          Alcotest.test_case "Csub+ question allocation" `Quick test_csub_alloc;
        ] );
    ]
