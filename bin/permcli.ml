(* permcli — a small SQL shell over the Perm reproduction.

   Examples:
     dune exec bin/permcli.exe -- --demo \
       -e "SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s)"
     dune exec bin/permcli.exe -- --tpch 0.1          # interactive REPL
     dune exec bin/permcli.exe -- --load t=data.csv -e "SELECT * FROM t"

   REPL commands:  \d [table]    list tables / describe one
                   \strategy S   rewrite strategy (gen|left|move|unn|auto)
                   \engine E     execution engine (vectorized|reference)
                   \plan         toggle plan printing
                   \timing       toggle timing
                   \stats        toggle EXPLAIN-ANALYZE-style counters
                   \lint [SQL]   toggle lint gating / lint one statement
                   \certify      toggle translation validation of every
                                 optimizer rewrite (see --certify)
                   \analyze SQL  per-operator dataflow facts (nullability,
                                 lineage, cardinality) for one statement
                   \explain SQL  the optimized plan with per-operator
                                 estimated rows/cost next to actual rows
                   \advisor M    advisor ranking mode (cost|heuristic)
                   \werror       toggle treating lint warnings as errors
                   \race         toggle the vector-clock race detector
                                 around every statement (see --race-check)
                   \budget ...   show / set the execution budget, e.g.
                                 \budget timeout=2 rows=1e6; \budget off
                   \fallback     toggle strategy fallback on budget trips
                   \influence    rank witnesses of the last provenance result
                   \graph FILE   write the last provenance result as Graphviz
                   \q            quit

   Every statement error — parse, analysis, type, lint, strategy,
   budget, runtime — is caught per statement and reported through the
   Resilience taxonomy; the REPL never dies on a bad statement.       *)

open Relalg
open Core

type strategy_choice = Fixed of Strategy.t | Auto

type session = {
  db : Database.t;
  mutable strategy : strategy_choice;
  mutable advisor_mode : Advisor.mode;  (* ranking mode under Auto *)
  mutable show_plan : bool;
  mutable timing : bool;
  mutable show_stats : bool;
  mutable lint : bool;  (* gate statements through Lint / Provcheck *)
  mutable certify : bool;  (* translation-validate every optimizer rewrite *)
  mutable werror : bool;  (* escalate lint warnings to errors *)
  mutable budget : Guard.budget option;  (* execution governor budget *)
  mutable fallback : bool;  (* degrade strategy on Unsupported / budget trip *)
  mutable race_check : bool;  (* arm the Race detector around statements *)
  mutable last_provenance : (Relation.t * Pschema.prov_rel list) option;
      (* most recent provenance result, for \influence and \graph *)
}

let demo_db () =
  let r_schema =
    Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt ]
  in
  let s_schema =
    Schema.of_list [ Schema.attr "c" Vtype.TInt; Schema.attr "d" Vtype.TInt ]
  in
  Database.of_list
    [
      ( "r",
        Relation.of_values r_schema
          [
            [ Value.Int 1; Value.Int 1 ];
            [ Value.Int 2; Value.Int 1 ];
            [ Value.Int 3; Value.Int 2 ];
          ] );
      ( "s",
        Relation.of_values s_schema
          [
            [ Value.Int 1; Value.Int 3 ];
            [ Value.Int 2; Value.Int 4 ];
            [ Value.Int 4; Value.Int 5 ];
          ] );
    ]

let run_statement session sql =
  let lint = session.lint
  and certify = session.certify
  and werror = session.werror
  and fallback = session.fallback in
  let budget = session.budget in
  match session.strategy with
  | Fixed strategy ->
      Perm.exec session.db ~strategy ~certify ~lint ~werror ?budget ~fallback
        sql
  | Auto -> (
      (* the advisor handles SELECTs; DDL does not need a strategy *)
      match
        Resilience.enter Resilience.Parse (fun () ->
            Sql_frontend.Parser.parse_statement sql)
      with
      | Sql_frontend.Ast.Stmt_select _ ->
          let strategy, result =
            Advisor.run session.db ~mode:session.advisor_mode ~certify ~lint
              ~werror ?budget ~fallback sql
          in
          if result.Perm.provenance <> [] then
            Printf.printf "advisor chose: %s\n" (Strategy.to_string strategy);
          Perm.Rows result
      | _ ->
          Perm.exec session.db ~certify ~lint ~werror ?budget ~fallback sql)

(* Statement outcomes drive the exit code in one-shot mode: typed
   failures ([Perm_error] and classifiable library errors) are ordinary
   query failures (exit 1), anything unclassifiable is an internal
   crash (exit 70, EX_SOFTWARE). Usage errors exit 2 before any
   statement runs. *)
type outcome = O_ok | O_error | O_crash

let execute_statement session sql =
  let t0 = Unix.gettimeofday () in
  match run_statement session sql with
  | Perm.Rows result ->
      let dt = Unix.gettimeofday () -. t0 in
      if session.show_plan then begin
        print_endline "plan:";
        print_string (Pp.query_to_string result.Perm.plan)
      end;
      Table_pp.print result.Perm.relation;
      (match result.Perm.certificate with
      | Some rep -> print_string (Certify.report_to_string rep)
      | None -> ());
      (match result.Perm.ladder with
      | Some l when l.Resilience.lad_abandoned <> [] ->
          Printf.printf "fallback: %s\n" (Resilience.ladder_to_string l)
      | _ -> ());
      if result.Perm.provenance <> [] then begin
        Printf.printf "provenance of: %s\n"
          (String.concat ", "
             (List.map (fun p -> p.Pschema.pr_rel) result.Perm.provenance));
        session.last_provenance <-
          Some (result.Perm.relation, result.Perm.provenance)
      end;
      if session.timing then Printf.printf "time: %.4f s\n" dt;
      if session.show_stats then begin
        let _, st = Eval.query_stats session.db result.Perm.plan in
        Printf.printf "exec: %s\n" (Eval.stats_to_string st)
      end;
      O_ok
  | Perm.Created_view name ->
      Printf.printf "created view %s\n" name;
      O_ok
  | Perm.Created_table (name, n) ->
      Printf.printf "created table %s (%d rows)\n" name n;
      O_ok
  | Perm.Dropped name ->
      Printf.printf "dropped %s\n" name;
      O_ok
  | exception Resilience.Perm_error e ->
      Printf.printf "error: %s\n" (Resilience.error_to_string e);
      O_error
  | exception exn -> (
      (* last-ditch: classify stray library exceptions so a statement
         can never kill the session *)
      match Resilience.classify ~default:Resilience.Eval exn with
      | e ->
          Printf.printf "error: %s\n" (Resilience.error_to_string e);
          O_error
      | exception Not_found ->
          Printf.printf "error: [eval] %s\n" (Printexc.to_string exn);
          O_crash)

(* With \race / --race-check on, each statement runs with the
   vector-clock detector armed; unordered access pairs are reported as
   diagnostics (rule race-unordered-access) after the rows. Mostly
   interesting with the vectorized engine and --domains > 1 — a
   sequential statement trivially has no cross-domain accesses. *)
let execute session sql =
  if not session.race_check then execute_statement session sql
  else begin
    Race.arm ~seed:0 ();
    (* statement errors are caught inside execute_statement, so the
       harvest below runs whatever the statement did *)
    let outcome = execute_statement session sql in
    let reports = Race.reports () in
    Race.disarm ();
    if reports = [] then print_endline "race check: no unordered accesses"
    else
      print_string
        (Lint.report (List.map Share_lint.diagnostic_of_race reports));
    outcome
  end

let describe session = function
  | None ->
      List.iter
        (fun name ->
          Printf.printf "  %-12s %6d rows\n" name
            (Relation.cardinality (Database.find session.db name)))
        (Database.names session.db);
      List.iter
        (fun name -> Printf.printf "  %-12s (view)\n" name)
        (Database.view_names session.db)
  | Some name -> (
      match Database.find_opt session.db name with
      | Some rel -> Printf.printf "%s %s\n" name (Schema.to_string (Relation.schema rel))
      | None -> Printf.printf "unknown table %S\n" name)

let strip_semi sql =
  let sql = String.trim sql in
  if String.length sql > 0 && sql.[String.length sql - 1] = ';' then
    String.sub sql 0 (String.length sql - 1)
  else sql

(* Diagnostics for one statement without running it — the Lint rules on
   the analyzed plan, plus the Provcheck contract on its provenance
   rewrite when the PROVENANCE marker is present. [Error msg] when the
   statement cannot even be analyzed. *)
let statement_diagnostics session sql :
    (Lint.diagnostic list, string) Stdlib.result =
  match Sql_frontend.Analyzer.analyze_string session.db (strip_semi sql) with
  | analyzed ->
      let q = analyzed.Sql_frontend.Analyzer.query in
      let diags = Lint.lint session.db q in
      let prov_diags =
        if not analyzed.Sql_frontend.Analyzer.wants_provenance then []
        else begin
          let strategy =
            match session.strategy with
            | Fixed s -> s
            | Auto -> (
                try Advisor.choose ~mode:session.advisor_mode session.db q
                with Strategy.Unsupported _ -> Strategy.Gen)
          in
          match Rewrite.rewrite session.db ~strategy q with
          | rewritten -> Provcheck.check session.db ~strategy ~original:q rewritten
          | exception Strategy.Unsupported msg ->
              [
                Lint.diag Lint.Error ~rule:"strategy-precondition" ~path:[]
                  (Printf.sprintf "strategy %s not applicable: %s"
                     (Strategy.to_string strategy) msg);
              ]
        end
      in
      Ok (diags @ prov_diags)
  | exception Sql_frontend.Lexer.Lex_error (msg, line, col) ->
      Error (Printf.sprintf "lex error at %d:%d: %s" line col msg)
  | exception Sql_frontend.Parser.Parse_error (msg, line, col) ->
      Error (Printf.sprintf "parse error at %d:%d: %s" line col msg)
  | exception Sql_frontend.Analyzer.Analyze_error msg ->
      Error (Printf.sprintf "analysis error: %s" msg)
  | exception Typecheck.Type_error msg ->
      Error (Printf.sprintf "type error: %s" msg)
  | exception Value.Type_clash msg ->
      Error (Printf.sprintf "value error: %s" msg)

(* \lint SQL *)
let lint_statement session sql =
  match statement_diagnostics session sql with
  | Ok [] -> print_endline "no diagnostics"
  | Ok ds -> print_endline (Lint.report ds)
  | Error msg -> print_endline msg

(* --lint-json SQL: the same diagnostics as one machine-readable JSON
   object keyed on the stable rule identifiers of the Lint registry
   (rendering shared with [bench share-lint] via Share_lint). *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let lint_json_statement session sql : int =
  match statement_diagnostics session sql with
  | Ok ds ->
      print_endline (Share_lint.diagnostics_json ds);
      if Lint.errors ds = [] then 0 else 1
  | Error msg ->
      Printf.printf "{\"error\":\"%s\"}\n" (json_escape msg);
      2

(* --share-lint: the engine's shared-state inventory cross-checked
   against its sources, as the same JSON shape as --lint-json. *)
let share_lint_json () : int =
  match Share_lint.default_root () with
  | None ->
      print_endline "{\"error\":\"cannot find lib/relalg sources\"}";
      2
  | Some root ->
      let ds = Share_lint.check_sources ~root in
      print_endline (Share_lint.diagnostics_json ds);
      if Lint.errors ds = [] then 0 else 1

(* \analyze SQL: per-operator dataflow fact dump (cardinality interval,
   maybe-null flags, base-column lineage) for one statement, without
   running it — and for its provenance rewrite when the PROVENANCE
   marker is present. *)
let analyze_statement session sql =
  let sql = String.trim sql in
  let sql =
    if String.length sql > 0 && sql.[String.length sql - 1] = ';' then
      String.sub sql 0 (String.length sql - 1)
    else sql
  in
  match Sql_frontend.Analyzer.analyze_string session.db sql with
  | analyzed ->
      let q = analyzed.Sql_frontend.Analyzer.query in
      let dfa = Dataflow.create session.db in
      print_string (Dataflow.dump dfa q);
      if analyzed.Sql_frontend.Analyzer.wants_provenance then begin
        let strategy =
          match session.strategy with
          | Fixed s -> s
          | Auto -> (
              try Advisor.choose ~mode:session.advisor_mode session.db q
              with Strategy.Unsupported _ -> Strategy.Gen)
        in
        match Rewrite.rewrite session.db ~strategy q with
        | rewritten, _ ->
            let plan = Optimizer.optimize session.db rewritten in
            Printf.printf "\nrewritten plan (%s, optimized):\n"
              (Strategy.to_string strategy);
            print_string (Dataflow.dump (Dataflow.create session.db) plan)
        | exception Strategy.Unsupported msg ->
            Printf.printf "\nstrategy %s not applicable: %s\n"
              (Strategy.to_string strategy) msg
      end
  | exception Sql_frontend.Lexer.Lex_error (msg, line, col) ->
      Printf.printf "lex error at %d:%d: %s\n" line col msg
  | exception Sql_frontend.Parser.Parse_error (msg, line, col) ->
      Printf.printf "parse error at %d:%d: %s\n" line col msg
  | exception Sql_frontend.Analyzer.Analyze_error msg ->
      Printf.printf "analysis error: %s\n" msg
  | exception Typecheck.Type_error msg -> Printf.printf "type error: %s\n" msg
  | exception Value.Type_clash msg -> Printf.printf "value error: %s\n" msg

(* \explain SQL / --explain-json SQL: the optimized plan of one
   statement (its provenance rewrite when the PROVENANCE marker is
   present), each operator annotated with the Estimate model's
   predicted rows and cumulative cost next to the rows the subtree
   actually produces. Correlated sublink subtrees cannot run
   standalone; their actual column is "-" (JSON: null). *)
let explain_plan session sql =
  match Sql_frontend.Analyzer.analyze_string session.db (strip_semi sql) with
  | analyzed -> (
      let q = analyzed.Sql_frontend.Analyzer.query in
      let planned =
        if not analyzed.Sql_frontend.Analyzer.wants_provenance then
          Ok (None, Optimizer.optimize session.db q)
        else begin
          let strategy =
            match session.strategy with
            | Fixed s -> s
            | Auto -> (
                try Advisor.choose ~mode:session.advisor_mode session.db q
                with Strategy.Unsupported _ -> Strategy.Gen)
          in
          match Rewrite.rewrite session.db ~strategy q with
          | rewritten, _ ->
              Ok (Some strategy, Optimizer.optimize session.db rewritten)
          | exception Strategy.Unsupported msg ->
              Error
                (Printf.sprintf "strategy %s not applicable: %s"
                   (Strategy.to_string strategy) msg)
        end
      in
      match planned with
      | Error _ as e -> e
      | Ok (strategy, plan) ->
          let est = Estimate.create session.db in
          let annots =
            List.map
              (fun a ->
                let actual =
                  match Eval.query session.db a.Estimate.a_query with
                  | rel -> Some (Relation.cardinality rel)
                  | exception _ -> None
                in
                (a, actual))
              (Estimate.annotate est plan)
          in
          Ok (strategy, annots))
  | exception Sql_frontend.Lexer.Lex_error (msg, line, col) ->
      Error (Printf.sprintf "lex error at %d:%d: %s" line col msg)
  | exception Sql_frontend.Parser.Parse_error (msg, line, col) ->
      Error (Printf.sprintf "parse error at %d:%d: %s" line col msg)
  | exception Sql_frontend.Analyzer.Analyze_error msg ->
      Error (Printf.sprintf "analysis error: %s" msg)
  | exception Typecheck.Type_error msg ->
      Error (Printf.sprintf "type error: %s" msg)
  | exception Value.Type_clash msg ->
      Error (Printf.sprintf "value error: %s" msg)

let explain_statement session sql =
  match explain_plan session sql with
  | Error msg -> print_endline msg
  | Ok (strategy, annots) ->
      (match strategy with
      | Some s ->
          Printf.printf "strategy: %s%s\n" (Strategy.to_string s)
            (match session.strategy with
            | Auto ->
                Printf.sprintf " (advisor, %s mode)"
                  (Advisor.mode_to_string session.advisor_mode)
            | Fixed _ -> "")
      | None -> ());
      Printf.printf "%-52s %12s %14s %8s\n" "operator" "est rows" "est cost"
        "actual";
      List.iter
        (fun (a, actual) ->
          Printf.printf "%-52s %12.6g %14.6g %8s\n"
            (Guard.path_to_string a.Estimate.a_path)
            a.Estimate.a_rows a.Estimate.a_cost
            (match actual with Some n -> string_of_int n | None -> "-"))
        annots

(* --explain-json SQL: the same annotations as one JSON object. *)
let explain_json_statement session sql : int =
  let json_num f =
    if Float.is_finite f then Printf.sprintf "%.6g" f else "null"
  in
  match explain_plan session sql with
  | Error msg ->
      Printf.printf "{\"error\":\"%s\"}\n" (json_escape msg);
      2
  | Ok (strategy, annots) ->
      let buf = Buffer.create 512 in
      Buffer.add_char buf '{';
      (match strategy with
      | Some s ->
          Buffer.add_string buf
            (Printf.sprintf "\"strategy\":\"%s\",\"advisor\":\"%s\","
               (Strategy.to_string s)
               (Advisor.mode_to_string session.advisor_mode))
      | None -> ());
      Buffer.add_string buf "\"operators\":[";
      List.iteri
        (fun i (a, actual) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "{\"path\":\"%s\",\"est_rows\":%s,\"est_cost\":%s,\"actual_rows\":%s}"
               (json_escape (Guard.path_to_string a.Estimate.a_path))
               (json_num a.Estimate.a_rows)
               (json_num a.Estimate.a_cost)
               (match actual with Some n -> string_of_int n | None -> "null")))
        annots;
      Buffer.add_string buf "]}";
      print_endline (Buffer.contents buf);
      0

(* \budget — show, clear, or set the execution governor's budget from
   key=value parts (numbers accept scientific notation: rows=1e6). *)
let budget_command session args =
  match args with
  | [] -> (
      match session.budget with
      | None -> print_endline "no budget (unlimited)"
      | Some b -> Printf.printf "budget: %s\n" (Guard.budget_to_string b))
  | [ "off" ] ->
      session.budget <- None;
      print_endline "budget cleared"
  | parts ->
      let timeout = ref None
      and rows = ref None
      and pairs = ref None
      and alloc = ref None in
      let ok =
        List.for_all
          (fun part ->
            match String.index_opt part '=' with
            | None -> false
            | Some k -> (
                let key = String.sub part 0 k in
                let v = String.sub part (k + 1) (String.length part - k - 1) in
                match (key, float_of_string_opt v) with
                | "timeout", Some f ->
                    timeout := Some f;
                    true
                | "rows", Some f ->
                    rows := Some (int_of_float f);
                    true
                | "pairs", Some f ->
                    pairs := Some (int_of_float f);
                    true
                | "alloc", Some f ->
                    alloc := Some f;
                    true
                | _ -> false))
          parts
      in
      if not ok then
        print_endline
          "usage: \\budget [off] [timeout=SECS] [rows=N] [pairs=N] [alloc=MB]"
      else begin
        let b =
          Guard.budget ?timeout:!timeout ?max_rows:!rows ?max_pairs:!pairs
            ?max_alloc_mb:!alloc ()
        in
        session.budget <- (if Guard.is_unlimited b then None else Some b);
        match session.budget with
        | Some b -> Printf.printf "budget: %s\n" (Guard.budget_to_string b)
        | None -> print_endline "no budget (unlimited)"
      end

let handle_command session line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "\\q" ] -> `Quit
  | [ "\\d" ] ->
      describe session None;
      `Continue
  | [ "\\d"; name ] ->
      describe session (Some name);
      `Continue
  | [ "\\strategy"; "auto" ] ->
      session.strategy <- Auto;
      Printf.printf "strategy set to auto (advisor, %s mode)\n"
        (Advisor.mode_to_string session.advisor_mode);
      `Continue
  | [ "\\strategy"; s ] ->
      (match Strategy.of_string s with
      | strategy ->
          session.strategy <- Fixed strategy;
          Printf.printf "strategy set to %s\n" s
      | exception Invalid_argument msg -> print_endline msg);
      `Continue
  | [ "\\engine" ] ->
      Printf.printf "engine: %s\n" (Eval.engine_name !Eval.default_engine);
      `Continue
  | [ "\\engine"; e ] ->
      (match Eval.engine_of_string e with
      | engine ->
          Eval.default_engine := engine;
          Printf.printf "engine set to %s\n" (Eval.engine_name engine)
      | exception Invalid_argument msg -> print_endline msg);
      `Continue
  | [ "\\influence" ] ->
      (match session.last_provenance with
      | None -> print_endline "no provenance result yet"
      | Some (rel, provs) ->
          let n_orig =
            Schema.arity (Relation.schema rel) - Pschema.width provs
          in
          print_string (Analysis.influence_report_cols ~n_orig rel provs));
      `Continue
  | [ "\\graph"; path ] ->
      (match session.last_provenance with
      | None -> print_endline "no provenance result yet"
      | Some (rel, provs) ->
          let n_orig =
            Schema.arity (Relation.schema rel) - Pschema.width provs
          in
          let oc = open_out path in
          output_string oc (Analysis.to_dot_cols ~n_orig rel provs);
          close_out oc;
          Printf.printf "wrote %s (render with: dot -Tsvg %s)\n" path path);
      `Continue
  | [ "\\plan" ] ->
      session.show_plan <- not session.show_plan;
      Printf.printf "plan printing %s\n" (if session.show_plan then "on" else "off");
      `Continue
  | [ "\\timing" ] ->
      session.timing <- not session.timing;
      Printf.printf "timing %s\n" (if session.timing then "on" else "off");
      `Continue
  | [ "\\stats" ] ->
      session.show_stats <- not session.show_stats;
      Printf.printf "execution statistics %s\n"
        (if session.show_stats then "on" else "off");
      `Continue
  | [ "\\lint" ] ->
      session.lint <- not session.lint;
      Printf.printf "lint gating %s\n" (if session.lint then "on" else "off");
      `Continue
  | [ "\\certify" ] ->
      session.certify <- not session.certify;
      Printf.printf "rewrite certification %s\n"
        (if session.certify then "on" else "off");
      `Continue
  | "\\lint" :: rest ->
      lint_statement session (String.concat " " rest);
      `Continue
  | "\\analyze" :: rest when rest <> [] ->
      analyze_statement session (String.concat " " rest);
      `Continue
  | "\\explain" :: rest when rest <> [] ->
      explain_statement session (String.concat " " rest);
      `Continue
  | [ "\\advisor" ] ->
      Printf.printf "advisor mode: %s\n"
        (Advisor.mode_to_string session.advisor_mode);
      `Continue
  | [ "\\advisor"; m ] ->
      (match Advisor.mode_of_string m with
      | Some mode ->
          session.advisor_mode <- mode;
          Printf.printf "advisor mode set to %s\n" m
      | None -> print_endline "usage: \\advisor [cost|heuristic]");
      `Continue
  | "\\budget" :: rest ->
      budget_command session rest;
      `Continue
  | [ "\\fallback" ] ->
      session.fallback <- not session.fallback;
      Printf.printf "strategy fallback %s\n"
        (if session.fallback then "on" else "off");
      `Continue
  | [ "\\werror" ] ->
      session.werror <- not session.werror;
      Printf.printf "lint warnings are %s\n"
        (if session.werror then "errors" else "warnings");
      `Continue
  | [ "\\race" ] ->
      session.race_check <- not session.race_check;
      Printf.printf "race detector %s%s\n"
        (if session.race_check then "armed around statements" else "off")
        (if
           session.race_check
           && (!Eval.default_engine <> Eval.Vectorized || !Vexec.domains <= 1)
         then " (note: only the vectorized engine with --domains > 1 runs in \
               parallel)"
         else "");
      `Continue
  | _ ->
      Printf.printf "unknown command: %s\n" line;
      `Continue

let repl session =
  Printf.printf
    "permcli — Perm provenance shell. \\d lists tables, \\q quits,\n\
     \\influence and \\graph analyze the last provenance result,\n\
     \\lint checks a statement, \\analyze dumps per-operator dataflow facts,\n\
     \\explain shows estimated vs actual rows per operator.\n\
     Statements end with ';'. Use SELECT PROVENANCE ... for provenance.\n";
  let buffer = Buffer.create 256 in
  let rec loop () =
    if Buffer.length buffer = 0 then print_string "perm> "
    else print_string "  ... ";
    flush stdout;
    match input_line stdin with
    | exception End_of_file -> ()
    | line when Buffer.length buffer = 0 && String.length (String.trim line) > 0
                && (String.trim line).[0] = '\\' -> (
        match handle_command session line with
        | `Quit -> ()
        | `Continue -> loop ())
    | line ->
        Buffer.add_string buffer line;
        Buffer.add_char buffer '\n';
        let text = Buffer.contents buffer in
        if String.contains line ';' then begin
          Buffer.clear buffer;
          let stmt = String.trim text in
          if stmt <> ";" && stmt <> "" then ignore (execute session stmt);
          loop ()
        end
        else loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Remote mode: --connect HOST:PORT                                     *)
(* ------------------------------------------------------------------ *)

(* The shell as a network client of permserver: statements travel as
   [Query] frames, the session commands that have a wire counterpart
   (\strategy, \engine, \budget) become typed requests, and connection
   failures reconnect with jittered exponential backoff (seeded from
   the pid so parallel shells desynchronize). *)

let print_remote_table cols rows =
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length c) rows)
      cols
  in
  let line cells =
    print_endline
      (String.concat " | "
         (List.map2 (fun w c -> Printf.sprintf "%-*s" w c) widths cells))
  in
  line cols;
  print_endline
    (String.concat "-+-" (List.map (fun w -> String.make w '-') widths));
  List.iter line rows;
  Printf.printf "(%d rows)\n" (List.length rows)

let remote_response (resp : Provserver.Protocol.response) : outcome =
  match resp with
  | Provserver.Protocol.Pong ->
      print_endline "pong";
      O_ok
  | Provserver.Protocol.Ok_msg m ->
      print_endline m;
      O_ok
  | Provserver.Protocol.Result { r_cols; r_rows; r_ladder } ->
      print_remote_table r_cols r_rows;
      (match r_ladder with
      | Some l -> Printf.printf "fallback: %s\n" l
      | None -> ());
      O_ok
  | Provserver.Protocol.Error_msg { e_kind = "internal"; e_msg; _ } ->
      Printf.printf "server internal error: %s\n" e_msg;
      O_crash
  | Provserver.Protocol.Error_msg { e_msg; _ } ->
      Printf.printf "error: %s\n" e_msg;
      O_error
  | Provserver.Protocol.Overloaded { retry_after } ->
      Printf.printf "server overloaded, retry after %.3fs\n" retry_after;
      O_error
  | Provserver.Protocol.Stats_msg kvs ->
      List.iter (fun (k, v) -> Printf.printf "  %-18s %.0f\n" k v) kvs;
      O_ok

let remote_request cl req : outcome =
  match Provserver.Client.request cl req with
  | resp, _retries -> remote_response resp
  | exception Provserver.Client.Client_error m ->
      Printf.printf "connection error: %s\n" m;
      O_error

let remote_command cl line : [ `Quit | `Continue ] =
  let module P = Provserver.Protocol in
  (match String.split_on_char ' ' (String.trim line) with
  | [ "\\q" ] -> raise Exit
  | [ "\\ping" ] -> ignore (remote_request cl P.Ping)
  | [ "\\stats" ] -> ignore (remote_request cl P.Stats)
  | [ "\\strategy"; s ] -> ignore (remote_request cl (P.Set_strategy s))
  | [ "\\engine"; e ] -> ignore (remote_request cl (P.Set_engine e))
  | [ "\\snapshot"; n ] -> ignore (remote_request cl (P.Load_snapshot n))
  | "\\budget" :: [ "off" ] ->
      ignore (remote_request cl (P.Set_budget Guard.unlimited))
  | "\\budget" :: parts when parts <> [] -> (
      let timeout = ref None and rows = ref None and pairs = ref None in
      let ok =
        List.for_all
          (fun part ->
            match String.index_opt part '=' with
            | None -> false
            | Some k -> (
                let key = String.sub part 0 k in
                let v = String.sub part (k + 1) (String.length part - k - 1) in
                match (key, float_of_string_opt v) with
                | "timeout", Some f -> timeout := Some f; true
                | "rows", Some f -> rows := Some (int_of_float f); true
                | "pairs", Some f -> pairs := Some (int_of_float f); true
                | _ -> false))
          parts
      in
      if not ok then print_endline "usage: \\budget [off] [timeout=SECS] [rows=N] [pairs=N]"
      else
        ignore
          (remote_request cl
             (P.Set_budget
                (Guard.budget ?timeout:!timeout ?max_rows:!rows
                   ?max_pairs:!pairs ()))))
  | _ ->
      print_endline
        "remote commands: \\ping \\stats \\strategy S \\engine E \\budget ... \
         \\snapshot NAME \\q");
  `Continue

let remote_repl cl =
  print_endline
    "permcli (connected) — statements end with ';', \\q quits, \\stats shows \
     server counters.";
  let buffer = Buffer.create 256 in
  let rec loop () =
    if Buffer.length buffer = 0 then print_string "perm> "
    else print_string "  ... ";
    flush stdout;
    match input_line stdin with
    | exception End_of_file -> ()
    | line
      when Buffer.length buffer = 0
           && String.length (String.trim line) > 0
           && (String.trim line).[0] = '\\' -> (
        match remote_command cl line with
        | `Quit -> ()
        | `Continue -> loop ()
        | exception Exit -> ())
    | line ->
        Buffer.add_string buffer line;
        Buffer.add_char buffer '\n';
        let text = Buffer.contents buffer in
        if String.contains line ';' then begin
          Buffer.clear buffer;
          let stmt = strip_semi (String.trim text) in
          if stmt <> "" then
            ignore (remote_request cl (Provserver.Protocol.Query stmt));
          loop ()
        end
        else loop ()
  in
  loop ()

(* [remote_main] mirrors the local one-shot/script/REPL switch over the
   wire. Returns the exit code. *)
let remote_main ~hostport ~exec ~file ~strategy ~engine ~timeout ~max_rows =
  match String.rindex_opt hostport ':' with
  | None ->
      prerr_endline "usage: --connect HOST:PORT";
      2
  | Some i -> (
      let host = String.sub hostport 0 i in
      let port_s = String.sub hostport (i + 1) (String.length hostport - i - 1) in
      match int_of_string_opt port_s with
      | None ->
          prerr_endline "usage: --connect HOST:PORT";
          2
      | Some port -> (
          try
          let cl =
            Provserver.Client.create ~host ~port ~seed:(Unix.getpid ()) ()
          in
          let setup () =
            List.iter
              (fun req -> ignore (remote_request cl req))
              (Provserver.Client.session_setup ~strategy ?engine
                 (Guard.budget ?timeout ?max_rows ()))
          in
          let code =
            match (exec, file) with
            | Some sql, _ -> (
                setup ();
                match
                  remote_request cl
                    (Provserver.Protocol.Query (strip_semi (String.trim sql)))
                with
                | O_ok -> 0
                | O_error -> 1
                | O_crash -> 70)
            | None, Some path ->
                setup ();
                let ic = open_in path in
                let len = in_channel_length ic in
                let script = really_input_string ic len in
                close_in ic;
                let stmts =
                  List.filter_map
                    (fun s ->
                      let s = String.trim s in
                      if s = "" then None else Some s)
                    (String.split_on_char ';' script)
                in
                List.fold_left
                  (fun code stmt ->
                    if code <> 0 then code
                    else
                      match
                        remote_request cl (Provserver.Protocol.Query stmt)
                      with
                      | O_ok -> 0
                      | O_error -> 1
                      | O_crash -> 70)
                  0 stmts
            | None, None ->
                setup ();
                remote_repl cl;
                0
          in
          Provserver.Client.close cl;
          code
          with Provserver.Client.Client_error msg ->
            (* unreachable / unresolvable server after all retries:
               an ordinary failure, not a crash *)
            Printf.eprintf "error: %s\n" msg;
            1))

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let tpch_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "tpch" ] ~docv:"SF" ~doc:"Load generated TPC-H data at scale $(docv).")

let demo_arg =
  Arg.(value & flag & info [ "demo" ] ~doc:"Load the paper's Figure 3 demo tables.")

let load_arg =
  Arg.(
    value & opt_all string []
    & info [ "load" ] ~docv:"NAME=FILE"
        ~doc:"Load a CSV file as table $(docv) (repeatable).")

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Run a ';'-separated SQL script and exit.")

let exec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "e"; "execute" ] ~docv:"SQL" ~doc:"Execute one statement and exit.")

let strategy_arg =
  Arg.(
    value & opt string "gen"
    & info [ "strategy" ] ~docv:"S"
        ~doc:"Sublink strategy: gen, left, move, unn, or auto (cost-based).")

let plan_arg = Arg.(value & flag & info [ "plan" ] ~doc:"Print executed plans.")

let engine_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "engine" ] ~docv:"E"
        ~doc:
          "Execution engine: $(b,vectorized) (columnar batches, the \
           default; see --domains and --batch-rows) or $(b,reference) \
           (tree-walking interpreter). With $(b,--connect), a named engine is always \
           sent to the session; absent, the server's default applies.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for the $(b,vectorized) engine (morsel-driven \
           parallelism); 1 runs sequentially.")

let batch_rows_arg =
  Arg.(
    value & opt int !Vexec.batch_rows
    & info [ "batch-rows" ] ~docv:"N"
        ~doc:"Rows per columnar batch for the $(b,vectorized) engine.")

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Gate every statement through the plan linter and the \
           provenance-contract verifier: error diagnostics abort the \
           statement before it runs.")

let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Translation-validate every optimizer rewrite while executing: \
           each rule application is checked for schema preservation, \
           dataflow-fact preservation, and bounded equivalence on witness \
           databases, and provenance results are cross-checked against the \
           enumeration oracle on those witnesses. A failed certificate \
           aborts the statement with the rule, path, and differing rows.")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"DIR"
        ~doc:
          "Replay a fuzzer counterexample bundle ($(docv)/query.sql plus \
           $(docv)/*.csv) through the differential harness and exit: 0 when \
           all configurations agree, 1 on a mismatch, 2 when the bundle \
           cannot be checked.")

let lint_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "lint-json" ] ~docv:"SQL"
        ~doc:
          "Lint one statement without executing it and print the diagnostics \
           as one JSON object — stable rule identifier, operator path, \
           severity, message. Exits 0 when no error-severity diagnostics are \
           present, 1 when some are, 2 when the statement cannot be \
           analyzed.")

let advisor_arg =
  Arg.(
    value & opt string "cost"
    & info [ "advisor" ] ~docv:"MODE"
        ~doc:
          "Advisor ranking mode under $(b,--strategy auto): $(b,cost) \
           (statistics-backed cardinality/cost estimates with \
           observed-outcome correction, the default) or $(b,heuristic) \
           (the coarse tuples-touched model — the escape hatch when \
           statistics mislead). Safety gates apply in both modes.")

let explain_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "explain-json" ] ~docv:"SQL"
        ~doc:
          "Explain one statement without printing its rows and exit: the \
           optimized plan (the provenance rewrite when the PROVENANCE \
           marker is present) as one JSON object with each operator's \
           estimated rows, cumulative estimated cost, and the rows the \
           subtree actually produces (null for correlated subtrees that \
           cannot run standalone). Exits 0 on success, 2 when the \
           statement cannot be analyzed.")

let werror_arg =
  Arg.(
    value & flag
    & info [ "Werror" ]
        ~doc:"With $(b,--lint), treat warning diagnostics as errors too.")

let race_check_arg =
  Arg.(
    value & flag
    & info [ "race-check" ]
        ~doc:
          "Arm the vector-clock race detector around every statement and \
           report unordered cross-domain access pairs as diagnostics (rule \
           $(b,race-unordered-access), both access paths included). Mostly \
           interesting with $(b,--engine vectorized --domains N>1); \
           toggleable at the prompt with \\\\race.")

let share_lint_arg =
  Arg.(
    value & flag
    & info [ "share-lint" ]
        ~doc:
          "Cross-check the engine's declared shared-state inventory against \
           its sources and exit, printing the diagnostics as the same JSON \
           object $(b,--lint-json) emits (stable rule identifiers such as \
           $(b,share-undeclared-mutable)). Exits 0 when clean, 1 on errors, \
           2 when the sources cannot be found.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:
          "Execution budget: abort any statement that runs longer than \
           $(docv) seconds (cooperative, checked at operator checkpoints).")

let max_rows_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-rows" ] ~docv:"N"
        ~doc:
          "Execution budget: abort any statement once its operators have \
           produced more than $(docv) rows in total (the ceiling is \
           cumulative across all operators, intermediate rows included, \
           not per operator).")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"HOST:PORT"
        ~doc:
          "Run as a client of a running $(b,permserver) instead of \
           evaluating locally: statements travel over the wire, \
           $(b,--strategy)/$(b,--engine)/$(b,--timeout)/$(b,--max-rows) \
           configure the remote session, and connection failures \
           reconnect with jittered exponential backoff.")

let fallback_arg =
  Arg.(
    value & flag
    & info [ "fallback" ]
        ~doc:
          "When a provenance strategy is inapplicable or blows the budget, \
           degrade to the next strategy of the advisor ranking instead of \
           failing; the answer reports which strategy delivered.")

(* --replay DIR: re-run a fuzzer counterexample bundle through the
   differential harness, independent of any loaded database. *)
let replay_bundle dir =
  match Fuzz.Diff.replay dir with
  | Fuzz.Diff.Agree n ->
      Printf.printf "replay %s: agree (%d configuration comparisons)\n" dir n;
      Stdlib.exit 0
  | Fuzz.Diff.Mismatch mm ->
      Printf.printf "replay %s: MISMATCH %s vs %s\n%s\n" dir mm.Fuzz.Diff.mm_left
        mm.Fuzz.Diff.mm_right mm.Fuzz.Diff.mm_detail;
      Stdlib.exit 1
  | Fuzz.Diff.Skip reason ->
      Printf.printf "replay %s: skipped (%s)\n" dir reason;
      Stdlib.exit 2
  | exception Sys_error msg ->
      Printf.eprintf "error: cannot read bundle: %s\n" msg;
      Stdlib.exit 2

let main_inner tpch demo loads exec file strategy advisor plan engine domains
    batch_rows lint certify replay lint_json explain_json werror race_check
    share_lint timeout max_rows fallback connect =
  if share_lint then Stdlib.exit (share_lint_json ());
  (match replay with Some dir -> replay_bundle dir | None -> ());
  (match connect with
  | Some hostport ->
      Stdlib.exit
        (remote_main ~hostport ~exec ~file ~strategy ~engine ~timeout ~max_rows)
  | None -> ());
  (match Option.map Eval.engine_of_string engine with
  | Some e -> Eval.default_engine := e
  | None -> ()
  | exception Invalid_argument msg ->
      prerr_endline msg;
      Stdlib.exit 2);
  Vexec.domains := max 1 domains;
  Vexec.batch_rows := max 1 batch_rows;
  let db = Database.create () in
  if demo then
    List.iter (fun n -> Database.add db n (Database.find (demo_db ()) n)) [ "r"; "s" ];
  (match tpch with
  | Some sf ->
      Printf.printf "generating TPC-H at sf=%.2f ...\n%!" sf;
      let t = Tpch.Tpch_gen.generate ~sf () in
      List.iter (fun name -> Database.add db name (Database.find t name))
        (Database.names t)
  | None -> ());
  List.iter
    (fun spec ->
      match String.index_opt spec '=' with
      | Some k -> (
          let name = String.sub spec 0 k in
          let path = String.sub spec (k + 1) (String.length spec - k - 1) in
          match Resilience.enter Resilience.Load (fun () -> Csv.load path) with
          | rel ->
              Database.add db name rel;
              Printf.printf "loaded %s (%d rows)\n" name
                (Relation.cardinality rel)
          | exception Resilience.Perm_error e ->
              Printf.eprintf "error: %s\n" (Resilience.error_to_string e);
              Stdlib.exit 2)
      | None -> Printf.printf "ignoring --load %s (expected NAME=FILE)\n" spec)
    loads;
  if Database.names db = [] then
    List.iter (fun n -> Database.add db n (Database.find (demo_db ()) n)) [ "r"; "s" ];
  let budget =
    let b = Guard.budget ?timeout ?max_rows () in
    if Guard.is_unlimited b then None else Some b
  in
  let advisor_mode =
    match Advisor.mode_of_string advisor with
    | Some m -> m
    | None ->
        prerr_endline "advisor mode must be cost or heuristic";
        Stdlib.exit 2
  in
  let session =
    {
      db;
      strategy =
        (if strategy = "auto" then Auto
         else
           match Strategy.of_string strategy with
           | s -> Fixed s
           | exception Invalid_argument msg ->
               prerr_endline msg;
               Stdlib.exit 2);
      advisor_mode;
      show_plan = plan;
      timing = false;
      show_stats = false;
      lint;
      certify;
      werror;
      budget;
      fallback;
      race_check;
      last_provenance = None;
    }
  in
  (match lint_json with
  | Some sql -> Stdlib.exit (lint_json_statement session sql)
  | None -> ());
  (match explain_json with
  | Some sql -> Stdlib.exit (explain_json_statement session sql)
  | None -> ());
  match (exec, file) with
  | Some sql, _ -> (
      match execute session sql with
      | O_ok -> ()
      | O_error -> Stdlib.exit 1
      | O_crash -> Stdlib.exit 70)
  | None, Some path -> (
      let ic = open_in path in
      let len = in_channel_length ic in
      let script = really_input_string ic len in
      close_in ic;
      let strategy =
        match session.strategy with Fixed s -> s | Auto -> Strategy.Gen
      in
      match
        Perm.exec_script session.db ~strategy ~lint ~werror ?budget ~fallback
          script
      with
      | results ->
          List.iter
            (fun result ->
              match result with
              | Perm.Rows r -> Table_pp.print r.Perm.relation
              | Perm.Created_view name -> Printf.printf "created view %s\n" name
              | Perm.Created_table (name, n) ->
                  Printf.printf "created table %s (%d rows)\n" name n
              | Perm.Dropped name -> Printf.printf "dropped %s\n" name)
            results
      | exception Resilience.Perm_error e ->
          Printf.eprintf "error: %s\n" (Resilience.error_to_string e);
          Stdlib.exit 1)
  | None, None -> repl session

(* Exit-code discipline: 0 success, 1 typed query failure, 2 usage
   error, 70 internal crash (EX_SOFTWARE). [Stdlib.exit] calls above
   raise [Exit_with] through this wrapper untouched ([exit] never
   returns); anything else escaping is by definition a crash. *)
let main tpch demo loads exec file strategy advisor plan engine domains
    batch_rows lint certify replay lint_json explain_json werror race_check
    share_lint timeout max_rows fallback connect =
  try
    main_inner tpch demo loads exec file strategy advisor plan engine domains
      batch_rows lint certify replay lint_json explain_json werror race_check
      share_lint timeout max_rows fallback connect
  with
  | Resilience.Perm_error e ->
      Printf.eprintf "error: %s\n" (Resilience.error_to_string e);
      Stdlib.exit 1
  | (Stack_overflow | Out_of_memory) as exn ->
      Printf.eprintf "internal error: %s\n" (Printexc.to_string exn);
      Stdlib.exit 70
  | exn ->
      Printf.eprintf "internal error: %s\n" (Printexc.to_string exn);
      Stdlib.exit 70

let cmd =
  Cmd.v
    (Cmd.info "permcli" ~doc:"SQL shell with Perm-style provenance")
    Term.(
      const main $ tpch_arg $ demo_arg $ load_arg $ exec_arg $ file_arg
      $ strategy_arg $ advisor_arg $ plan_arg $ engine_arg $ domains_arg
      $ batch_rows_arg $ lint_arg $ certify_arg $ replay_arg $ lint_json_arg
      $ explain_json_arg $ werror_arg $ race_check_arg $ share_lint_arg
      $ timeout_arg $ max_rows_arg $ fallback_arg $ connect_arg)

(* cmdliner reports its own CLI parse failures as [term_err]; map them
   to the conventional usage-error code 2 (the default is 124). *)
let () = Stdlib.exit (Cmd.eval ~term_err:2 cmd)
