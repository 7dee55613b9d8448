(* Shared-state checks: Guard scopes (exact counts on one domain,
   concurrent sessions' scopes kept apart), the share-lint inventory
   against the real sources, and sublink ids allocated from two
   domains. *)

open Relalg

(* ------------------------------------------------------------------ *)
(* Guard: one scope per domain                                         *)
(* ------------------------------------------------------------------ *)

let test_scope_exact_total () =
  Guard.with_budget
    (Some (Guard.budget ~max_rows:10_000 ()))
    (fun () ->
      for _ = 1 to 8 do
        Guard.count_rows [ "task" ] 50
      done;
      Alcotest.(check int)
        "8 x 50 rows count exactly" 400 (Guard.observed ()).Guard.c_rows)

let test_scope_row_ceiling () =
  match
    Guard.with_budget
      (Some (Guard.budget ~max_rows:100 ()))
      (fun () ->
        for _ = 1 to 8 do
          Guard.count_rows [ "task" ] 50
        done)
  with
  | () -> Alcotest.fail "row ceiling did not trip"
  | exception Guard.Budget_exceeded t -> (
      match t.Guard.t_reason with
      | Guard.Rows_exceeded 100 -> ()
      | _ -> Alcotest.fail "wrong trip reason")

(* Two sessions on two domains, each under its own scope, both scopes
   live at once: one trips its 100-row ceiling at its own third batch,
   the other finishes under its own ceiling and then, after the first
   has tripped, still observes exactly its own 400 rows. A scope shared
   between domains would trip the first early or show the second more
   rows. *)
let test_scopes_do_not_share () =
  let inside = Atomic.make 0 and tripped = Atomic.make false in
  let wait_until p = while not (p ()) do Domain.cpu_relax () done in
  let session ~ceiling ~before_reading () =
    Guard.with_budget
      (Some (Guard.budget ~max_rows:ceiling ()))
      (fun () ->
        Atomic.incr inside;
        wait_until (fun () -> Atomic.get inside = 2);
        for _ = 1 to 8 do
          Guard.count_rows [ "task" ] 50
        done;
        before_reading ();
        (Guard.observed ()).Guard.c_rows)
  in
  let tripper =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set tripped true)
          (fun () ->
            match session ~ceiling:100 ~before_reading:ignore () with
            | _ -> None
            | exception Guard.Budget_exceeded t -> Some t))
  in
  let finisher =
    Domain.spawn
      (session ~ceiling:10_000 ~before_reading:(fun () ->
           wait_until (fun () -> Atomic.get tripped)))
  in
  let t = Domain.join tripper and own = Domain.join finisher in
  (match t with
  | None -> Alcotest.fail "the 100-row session did not trip"
  | Some t ->
      Alcotest.(check bool)
        "trip reason" true
        (t.Guard.t_reason = Guard.Rows_exceeded 100);
      Alcotest.(check int) "tripped on its own count" 150
        t.Guard.t_counters.Guard.c_rows);
  Alcotest.(check int) "other session counts only its own rows" 400 own;
  Alcotest.(check bool) "no scope leaks to the caller" false
    (Guard.is_active ())

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
  let src = "let memo_lock = ref 0\n" in
  let ds = Share_lint.check_module ~module_:"relation" src in
  Alcotest.(check bool)
    "mutex registered, ref declared" true
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
        "let render = function";
        "  | Some s -> Buffer.contents (Buffer.create (String.length s))";
        "  | None -> \"\"";
        "let fresh =";
        "  fun () -> ref 0";
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

(* A potential race the lint reports (an unregistered shared mutable)
   on the JSON surface [share-lint --lint-json] prints. *)
let test_race_report_as_diagnostic () =
  let src = "let sneaky = ref 0\n" in
  let d =
    match Lint.errors (Share_lint.check_module ~module_:"vexec" src) with
    | [ d ] -> d
    | ds -> Alcotest.failf "expected one error, got %d" (List.length ds)
  in
  Alcotest.(check string) "stable rule id" "share-undeclared-mutable" d.Lint.rule;
  let js = Share_lint.diagnostics_json [ d ] in
  let contains sub =
    try
      ignore (Str.search_forward (Str.regexp_string sub) js 0);
      true
    with Not_found -> false
  in
  Alcotest.(check bool)
    "json carries the rule" true
    (contains "\"rule\":\"share-undeclared-mutable\"");
  Alcotest.(check bool) "json counts the error" true (contains "\"errors\":1")

(* ------------------------------------------------------------------ *)
(* Sublink ids                                                         *)
(* ------------------------------------------------------------------ *)

(* Two domains allocating sublinks at once never get the same id:
   within one execution the engines and the rewrites key a sublink's
   answers by its id. *)
let test_sublink_ids_distinct () =
  let per_domain = 200_000 in
  let alloc () =
    Array.init per_domain (fun _ ->
        (Algebra.mk_sublink Algebra.Exists (Algebra.Base "r")).Algebra.id)
  in
  let d = Domain.spawn alloc in
  let mine = alloc () in
  let theirs = Domain.join d in
  let ids = Array.append mine theirs in
  Array.sort compare ids;
  let dups = ref 0 in
  for k = 1 to Array.length ids - 1 do
    if ids.(k) = ids.(k - 1) then incr dups
  done;
  Alcotest.(check int) "no id handed out twice" 0 !dups

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "race"
    [
      ( "guard-scope",
        [
          Alcotest.test_case "totals count exactly" `Quick
            test_scope_exact_total;
          Alcotest.test_case "row ceiling trips" `Quick test_scope_row_ceiling;
          Alcotest.test_case "sessions do not share budgets" `Quick
            test_scopes_do_not_share;
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
      ( "sublink-ids",
        [
          Alcotest.test_case "distinct across two domains" `Quick
            test_sublink_ids_distinct;
        ] );
    ]
