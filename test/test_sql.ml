(* SQL front end tests: lexer, parser, analyzer, end-to-end evaluation. *)

open Relalg
open Sql_frontend

let schema_rs =
  Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt ]

let schema_s =
  Schema.of_list [ Schema.attr "c" Vtype.TInt; Schema.attr "d" Vtype.TInt ]

(* Figure 3 of the paper. *)
let db () =
  Database.of_list
    [
      ( "r",
        Relation.of_values schema_rs
          [
            [ Value.Int 1; Value.Int 1 ];
            [ Value.Int 2; Value.Int 1 ];
            [ Value.Int 3; Value.Int 2 ];
          ] );
      ( "s",
        Relation.of_values schema_s
          [
            [ Value.Int 1; Value.Int 3 ];
            [ Value.Int 2; Value.Int 4 ];
            [ Value.Int 4; Value.Int 5 ];
          ] );
    ]

let run sql =
  let db = db () in
  let analyzed = Analyzer.analyze_string db sql in
  Eval.query db analyzed.Analyzer.query

let rows rel =
  List.map Tuple.to_list (Relation.sorted_tuples rel)

let check_rows name expected rel =
  Alcotest.(check (list (list string)))
    name
    (List.map (List.map Value.to_string) expected)
    (List.map (List.map Value.to_string) (rows rel))

let i n = Value.Int n

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

let test_lexer_basic () =
  let toks = Lexer.tokenize "SELECT a, b FROM r WHERE a <= 3 -- comment" in
  let kinds = List.map (fun p -> p.Lexer.tok) toks in
  Alcotest.(check bool)
    "token kinds" true
    (kinds
    = [
        Token.KW "SELECT"; Token.IDENT "a"; Token.SYM ","; Token.IDENT "b";
        Token.KW "FROM"; Token.IDENT "r"; Token.KW "WHERE"; Token.IDENT "a";
        Token.SYM "<="; Token.INT 3; Token.EOF;
      ])

let test_lexer_string_escape () =
  let toks = Lexer.tokenize "'it''s'" in
  match List.map (fun p -> p.Lexer.tok) toks with
  | [ Token.STRING s; Token.EOF ] -> Alcotest.(check string) "escape" "it's" s
  | _ -> Alcotest.fail "expected one string token"

let test_lexer_block_comment () =
  let toks = Lexer.tokenize "/* multi \n line */ 42" in
  match List.map (fun p -> p.Lexer.tok) toks with
  | [ Token.INT 42; Token.EOF ] -> ()
  | _ -> Alcotest.fail "expected 42"

let test_lexer_error () =
  Alcotest.check_raises "bad char"
    (Lexer.Lex_error ("unexpected character '?'", 1, 1))
    (fun () -> ignore (Lexer.tokenize "?"))

(* A NUL byte is an ordinary character to the lexer, not the end of
   its input. *)
let test_lexer_nul () =
  Alcotest.check_raises "NUL byte"
    (Lexer.Lex_error ("unexpected character '\\000'", 1, 3))
    (fun () -> ignore (Lexer.tokenize "a \000 b"))

(* Reading a character allocates nothing and keywords and symbols are
   shared tokens, so tokenizing a statement allocates little more than
   its positioned tokens and identifier texts: about 850 minor words
   for this 200-character statement, where boxing every character read
   cost about 4 300. *)
let test_lexer_alloc () =
  let sql =
    "SELECT PROVENANCE a, b FROM r WHERE (a = ANY (SELECT c FROM s WHERE (d <= b))) OR \
     (NOT EXISTS (SELECT e FROM u WHERE ((f = a) AND (e > 2)))) OR (b <> ALL (SELECT d FROM s)) \
     ORDER BY a, b DESC"
  in
  Alcotest.(check bool) "about 200 characters" true (abs (String.length sql - 200) <= 10);
  ignore (Lexer.tokenize sql);
  let w0 = Gc.minor_words () in
  ignore (Lexer.tokenize sql);
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "tokenizing allocates %.0f minor words" words)
    true (words <= 1200.)

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

let parses sql = ignore (Parser.parse sql)

let test_parse_basic () =
  parses "SELECT * FROM r";
  parses "SELECT DISTINCT a AS x, b FROM r WHERE a = 1 AND b <> 2";
  parses "SELECT PROVENANCE * FROM r";
  parses "SELECT a FROM r GROUP BY a HAVING count(*) > 1 ORDER BY a DESC LIMIT 3";
  parses "SELECT r.a FROM r, s WHERE r.a = s.c";
  parses "SELECT a FROM r JOIN s ON a = c LEFT JOIN s AS s2 ON a = s2.c";
  parses "SELECT a FROM (SELECT a FROM r) AS sub";
  parses "SELECT a FROM r UNION ALL SELECT c FROM s"

let test_parse_sublinks () =
  parses "SELECT a FROM r WHERE a = ANY (SELECT c FROM s)";
  parses "SELECT a FROM r WHERE a < ALL (SELECT c FROM s)";
  parses "SELECT a FROM r WHERE EXISTS (SELECT c FROM s WHERE c = r.a)";
  parses "SELECT a FROM r WHERE NOT EXISTS (SELECT c FROM s)";
  parses "SELECT a FROM r WHERE a IN (SELECT c FROM s)";
  parses "SELECT a FROM r WHERE a NOT IN (SELECT c FROM s)";
  parses "SELECT a, (SELECT max(c) FROM s) FROM r";
  parses "SELECT a FROM r WHERE a IN (1, 2, 3)"

let test_parse_roundtrip_examples () =
  let cases =
    [
      "SELECT * FROM r";
      "SELECT a FROM r WHERE a = ANY (SELECT c FROM s WHERE c = r.b)";
      "SELECT a, count(*) AS n FROM r GROUP BY a HAVING count(*) > 1";
      "SELECT CASE WHEN a = 1 THEN 'one' ELSE 'many' END FROM r";
      "SELECT a FROM r WHERE a BETWEEN 1 AND 3 OR b IS NOT NULL";
      "SELECT a FROM r WHERE NOT EXISTS (SELECT 1 FROM s)";
    ]
  in
  List.iter
    (fun sql ->
      let ast1 = Parser.parse sql in
      let printed = Sql_pp.print ast1 in
      let ast2 = Parser.parse printed in
      if not (Ast.equal_select ast1 ast2) then
        Alcotest.failf "round trip failed for %S -> %S" sql printed)
    cases

let test_parse_error () =
  (try
     parses "SELECT FROM";
     Alcotest.fail "expected parse error"
   with Parser.Parse_error _ -> ());
  try
    parses "SELECT a FROM r WHERE";
    Alcotest.fail "expected parse error"
  with Parser.Parse_error _ -> ()

(* ------------------------------------------------------------------ *)
(* End-to-end evaluation                                                *)
(* ------------------------------------------------------------------ *)

let test_eval_simple_select () =
  check_rows "filter" [ [ i 3; i 2 ] ] (run "SELECT * FROM r WHERE a = 3")

let test_eval_projection_expr () =
  check_rows "arith"
    [ [ i 2 ]; [ i 3 ]; [ i 5 ] ]
    (run "SELECT a + b AS x FROM r")

let test_eval_join () =
  check_rows "join"
    [ [ i 1; i 3 ]; [ i 2; i 4 ] ]
    (run "SELECT r.a, s.d FROM r, s WHERE r.a = s.c")

let test_eval_left_join () =
  check_rows "left join"
    [
      [ i 1; i 1 ];
      [ i 2; i 2 ];
      [ i 3; Value.Null ];
    ]
    (run "SELECT r.a, s.c FROM r LEFT JOIN s ON r.a = s.c")

let test_eval_group_by () =
  check_rows "group"
    [ [ i 1; i 2 ]; [ i 2; i 1 ] ]
    (run "SELECT b, count(*) AS n FROM r GROUP BY b")

let test_eval_having () =
  check_rows "having"
    [ [ i 1; i 2 ] ]
    (run "SELECT b, count(*) AS n FROM r GROUP BY b HAVING count(*) > 1")

let test_eval_agg_no_group () =
  check_rows "sum" [ [ i 6 ] ] (run "SELECT sum(a) FROM r")

let test_eval_distinct () =
  check_rows "distinct" [ [ i 1 ]; [ i 2 ] ] (run "SELECT DISTINCT b FROM r")

let test_eval_order_limit () =
  let rel = run "SELECT a FROM r ORDER BY a DESC LIMIT 2" in
  Alcotest.(check (list string))
    "ordered"
    [ "3"; "2" ]
    (List.map
       (fun t -> Value.to_string (Tuple.get t 0))
       (Relation.tuples rel))

let test_eval_any_sublink () =
  (* q1 from Figure 3: sigma_{a = ANY(Pi_c(S))}(R) *)
  check_rows "q1 of Figure 3"
    [ [ i 1; i 1 ]; [ i 2; i 1 ] ]
    (run "SELECT * FROM r WHERE a = ANY (SELECT c FROM s)")

let test_eval_all_sublink () =
  (* q2 from Figure 3: sigma_{c > ALL(Pi_a(R))}(S) *)
  check_rows "q2 of Figure 3"
    [ [ i 4; i 5 ] ]
    (run "SELECT * FROM s WHERE c > ALL (SELECT a FROM r)")

let test_eval_exists_correlated () =
  check_rows "correlated exists"
    [ [ i 1; i 1 ]; [ i 2; i 1 ] ]
    (run "SELECT * FROM r WHERE EXISTS (SELECT 1 FROM s WHERE s.c = r.a)")

let test_eval_scalar_sublink () =
  check_rows "scalar"
    [ [ i 1; i 4 ]; [ i 2; i 4 ]; [ i 3; i 4 ] ]
    (run "SELECT a, (SELECT max(c) FROM s) AS m FROM r")

let test_eval_correlated_scalar () =
  check_rows "correlated scalar"
    [ [ i 1; i 3 ]; [ i 2; i 4 ]; [ i 3; Value.Null ] ]
    (run "SELECT a, (SELECT d FROM s WHERE c = r.a) AS m FROM r")

let test_eval_nested_sublink () =
  (* nested: ANY sublink containing another sublink with correlation to
     the middle scope. *)
  check_rows "nested sublinks"
    [ [ i 1; i 1 ]; [ i 2; i 1 ] ]
    (run
       "SELECT * FROM r WHERE a = ANY (SELECT c FROM s WHERE EXISTS (SELECT 1 \
        FROM r AS r2 WHERE r2.a = s.c))")

let test_eval_not_in () =
  check_rows "not in"
    [ [ i 3; i 2 ] ]
    (run "SELECT * FROM r WHERE a NOT IN (SELECT c FROM s)")

let test_eval_union () =
  check_rows "union set"
    [ [ i 1 ]; [ i 2 ]; [ i 3 ]; [ i 4 ] ]
    (run "SELECT a FROM r UNION SELECT c FROM s")

let test_eval_union_all () =
  check_rows "union all"
    [ [ i 1 ]; [ i 1 ]; [ i 2 ]; [ i 2 ]; [ i 3 ]; [ i 4 ] ]
    (run "SELECT a FROM r UNION ALL SELECT c FROM s")

let test_eval_except () =
  check_rows "except" [ [ i 3 ] ] (run "SELECT a FROM r EXCEPT SELECT c FROM s")

let test_eval_case () =
  check_rows "case"
    [ [ Value.String "many" ]; [ Value.String "one" ]; [ Value.String "one" ] ]
    (run "SELECT CASE WHEN b = 1 THEN 'one' ELSE 'many' END AS t FROM r")

let test_eval_derived_table () =
  check_rows "derived"
    [ [ i 2 ]; [ i 3 ] ]
    (run "SELECT sub.x FROM (SELECT a AS x FROM r WHERE a > 1) AS sub")

let test_eval_self_join () =
  check_rows "self join aliases"
    [ [ i 1; i 2 ] ]
    (run "SELECT r1.a, r2.a FROM r AS r1, r AS r2 WHERE r1.b = r2.b AND r1.a + 1 = r2.a")

let test_analyze_errors () =
  let expect_err sql =
    match Analyzer.analyze_string (db ()) sql with
    | exception Analyzer.Analyze_error _ -> ()
    | exception Typecheck.Type_error _ -> ()
    | _ -> Alcotest.failf "expected analysis to fail: %s" sql
  in
  expect_err "SELECT z FROM r";
  expect_err "SELECT a FROM nope";
  expect_err "SELECT a FROM r, r";
  expect_err "SELECT a FROM r GROUP BY b";
  expect_err "SELECT sum(sum(a)) FROM r";
  expect_err "SELECT a FROM r WHERE sum(a) > 1";
  expect_err "SELECT a FROM r UNION SELECT c, d FROM s";
  expect_err "SELECT a FROM r WHERE a = ANY (SELECT c, d FROM s)"

let test_group_expr_reuse () =
  check_rows "group by expression"
    [ [ i 2; i 2 ]; [ i 4; i 1 ] ]
    (run "SELECT b * 2 AS g, count(*) AS n FROM r GROUP BY b * 2")

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "sql"
    [
      ( "lexer",
        [
          tc "basic tokens" `Quick test_lexer_basic;
          tc "string escape" `Quick test_lexer_string_escape;
          tc "block comment" `Quick test_lexer_block_comment;
          tc "lex error" `Quick test_lexer_error;
          tc "NUL is a character" `Quick test_lexer_nul;
          tc "allocation bound" `Quick test_lexer_alloc;
        ] );
      ( "parser",
        [
          tc "basic statements" `Quick test_parse_basic;
          tc "sublinks" `Quick test_parse_sublinks;
          tc "round trip" `Quick test_parse_roundtrip_examples;
          tc "errors" `Quick test_parse_error;
        ] );
      ( "eval",
        [
          tc "simple select" `Quick test_eval_simple_select;
          tc "projection expr" `Quick test_eval_projection_expr;
          tc "join" `Quick test_eval_join;
          tc "left join" `Quick test_eval_left_join;
          tc "group by" `Quick test_eval_group_by;
          tc "having" `Quick test_eval_having;
          tc "agg without group" `Quick test_eval_agg_no_group;
          tc "distinct" `Quick test_eval_distinct;
          tc "order/limit" `Quick test_eval_order_limit;
          tc "ANY sublink (Fig 3 q1)" `Quick test_eval_any_sublink;
          tc "ALL sublink (Fig 3 q2)" `Quick test_eval_all_sublink;
          tc "correlated EXISTS" `Quick test_eval_exists_correlated;
          tc "scalar sublink" `Quick test_eval_scalar_sublink;
          tc "correlated scalar" `Quick test_eval_correlated_scalar;
          tc "nested sublinks" `Quick test_eval_nested_sublink;
          tc "NOT IN" `Quick test_eval_not_in;
          tc "union" `Quick test_eval_union;
          tc "union all" `Quick test_eval_union_all;
          tc "except" `Quick test_eval_except;
          tc "case" `Quick test_eval_case;
          tc "derived table" `Quick test_eval_derived_table;
          tc "self join" `Quick test_eval_self_join;
          tc "group expr reuse" `Quick test_group_expr_reuse;
          tc "analyzer errors" `Quick test_analyze_errors;
        ] );
    ]
