(** Provenance-contract verification — see provcheck.mli. *)

open Relalg
open Algebra

let diag = Lint.diag

(* ------------------------------------------------------------------ *)
(* Strategy preconditions                                               *)
(* ------------------------------------------------------------------ *)

let uncorrelated_precondition db name (s : Lint.site) =
  List.filter_map
    (fun (sub, path) ->
      if Scope.is_uncorrelated db sub then None
      else
        Some
          (diag Error ~rule:"strategy-precondition" ~path
             (Printf.sprintf
                "the %s strategy requires uncorrelated sublinks, but this one \
                 references the enclosing scope"
                name)))
    (Path.sublinks s.Lint.s_path (List.map snd s.Lint.s_exprs))

(* Mirror of [Rewrite.unn_selection]'s conjunct classification: which
   sublink forms the Unn strategy can un-nest. *)
let unn_precondition db (s : Lint.site) =
  let classify path = function
    | Sublink ({ kind = Exists; _ } as sub) ->
        if
          Scope.is_uncorrelated db sub
          || Rewrite.unnestable_exists db sub.query
        then []
        else
          [
            diag Error ~rule:"strategy-precondition" ~path
              "the Unn strategy cannot de-correlate this EXISTS sublink (its \
               correlation is not a conjunction of top-level equalities)";
          ]
    | Not (Sublink { kind = Exists; _ }) -> []
    | (Sublink ({ kind = AnyOp (Eq, _); _ } as sub) | Not (Sublink ({ kind = AnyOp (Eq, _); _ } as sub)))
      ->
        if Scope.is_uncorrelated db sub then []
        else
          [
            diag Error ~rule:"strategy-precondition" ~path
              "the Unn strategy requires uncorrelated equality-ANY sublinks";
          ]
    | c ->
        if has_sublink c then
          [
            diag Error ~rule:"strategy-precondition" ~path
              (Printf.sprintf
                 "the Unn strategy only unnests top-level EXISTS, NOT EXISTS \
                  or equality-ANY sublinks (found %s)"
                 (Pp.expr_to_string c));
          ]
        else []
  in
  match s.Lint.s_query with
  | Select (c, _) | Join (c, _, _) ->
      (* a join with sublinks in its condition is normalized to a
         selection over a cross product before the strategy applies *)
      List.concat_map (classify s.Lint.s_path) (conjuncts c)
  | Project { cols; _ }
    when List.exists (fun (e, _) -> has_sublink e) cols ->
      [
        diag Error ~rule:"strategy-precondition" ~path:s.Lint.s_path
          "the Unn strategy has no rewrite for projection sublinks";
      ]
  | _ -> []

let precondition db ~strategy q =
  let per_site =
    match strategy with
    | Strategy.Gen -> fun _ -> []
    | Strategy.Left -> uncorrelated_precondition db "Left"
    | Strategy.Move -> uncorrelated_precondition db "Move"
    | Strategy.Unn -> unn_precondition db
  in
  List.concat_map per_site (Lint.sites db q)

(* ------------------------------------------------------------------ *)
(* The rewrite contract                                                 *)
(* ------------------------------------------------------------------ *)

let infer_opt db q =
  match Typecheck.infer db q with
  | s -> Ok s
  | exception Typecheck.Type_error m -> Error m
  | exception Schema.Schema_error m -> Error m
  | exception Database.Unknown_relation r -> Error ("unknown relation " ^ r)

let attr_to_string (a : Schema.attr) =
  Printf.sprintf "%s:%s" a.Schema.name (Vtype.to_string a.Schema.ty)

let attrs_to_string attrs =
  "(" ^ String.concat ", " (List.map attr_to_string attrs) ^ ")"

let schema_rule db ~original rewritten provs =
  match (infer_opt db original, infer_opt db rewritten) with
  | Error m, _ ->
      [
        diag Error ~rule:"prov-schema" ~path:[]
          ("the original query does not typecheck: " ^ m);
      ]
  | _, Error m ->
      [
        diag Error ~rule:"prov-schema" ~path:[]
          ("the rewritten query does not typecheck: " ^ m);
      ]
  | Ok so, Ok sr ->
      let expected = Schema.to_list so @ Pschema.schema_attrs provs in
      let actual = Schema.to_list sr in
      if actual = expected then []
      else
        [
          diag Error ~rule:"prov-schema" ~path:[]
            (Printf.sprintf
               "rewritten schema %s differs from original schema plus \
                provenance attributes %s"
               (attrs_to_string actual) (attrs_to_string expected));
        ]

let order_rule ~original provs =
  let expected = base_relations original in
  let actual = List.map (fun pr -> pr.Pschema.pr_rel) provs in
  if actual = expected then []
  else
    [
      diag Error ~rule:"prov-order" ~path:[]
        (Printf.sprintf
           "provenance relations [%s] are not the base-relation accesses of \
            the original in traversal order [%s]"
           (String.concat "; " actual)
           (String.concat "; " expected));
    ]

let prefix_rule db ~original rewritten provs =
  let fail msg = [ diag Error ~rule:"prov-prefix" ~path:[] msg ] in
  match rewritten with
  | Project { distinct = false; cols; _ } -> (
      let orig_names = Scope.out_names db original in
      let expected =
        List.map (fun n -> (Attr n, n)) orig_names @ Pschema.identity_cols provs
      in
      if cols = expected then []
      else
        let rec first_mismatch i = function
          | [], [] -> None
          | (_, n) :: _, [] -> Some (i, Printf.sprintf "unexpected extra column %S" n)
          | [], (_, n) :: _ -> Some (i, Printf.sprintf "missing column %S" n)
          | (e, n) :: _, ((e', n') : expr * string) :: _ when e <> e' || n <> n' ->
              Some
                ( i,
                  Printf.sprintf "found %s, expected %s"
                    (Pp.expr_to_string e ^ " AS " ^ n)
                    (Pp.expr_to_string e' ^ " AS " ^ n') )
          | _ :: cs, _ :: es -> first_mismatch (i + 1) (cs, es)
        in
        match first_mismatch 0 (cols, expected) with
        | Some (i, detail) ->
            fail
              (Printf.sprintf
                 "the root projection is not the identity pass-through of the \
                  original attributes then the provenance attributes (column \
                  %d: %s)"
                 (i + 1) detail)
        | None -> [])
  | _ ->
      fail
        "the rewritten query's root is not the normalizing identity \
         projection"

(* Dataflow-backed: each provenance attribute must transitively trace
   back to the base column it claims to copy. Empty lineage is
   tolerated — the rewrites legitimately NULL-pad provenance columns
   (set-operation arms, Gen's empty-sublink case, unmatched outer-join
   rows), and a typed NULL has no base sources. *)
let lineage_rule db rewritten provs =
  let dfa = Dataflow.create db in
  let fact = Dataflow.lineage dfa rewritten in
  let deps_to_string deps =
    String.concat ", "
      (List.map (fun (r, c) -> r ^ "." ^ c) (Dataflow.Deps.elements deps))
  in
  List.concat_map
    (fun (pr : Pschema.prov_rel) ->
      List.filter_map
        (fun (pc : Pschema.prov_col) ->
          let deps = Dataflow.attr_deps fact pc.Pschema.pc_name in
          if
            Dataflow.Deps.is_empty deps
            || Dataflow.Deps.mem (pr.Pschema.pr_rel, pc.Pschema.pc_src) deps
          then None
          else
            Some
              (diag Error ~rule:"prov-lineage" ~path:[]
                 (Printf.sprintf
                    "provenance attribute %S traces to {%s}, which does not \
                     include its claimed source %s.%s"
                    pc.Pschema.pc_name (deps_to_string deps) pr.Pschema.pr_rel
                    pc.Pschema.pc_src)))
        pr.Pschema.pr_cols)
    provs

let contract db ~original rewritten provs =
  schema_rule db ~original rewritten provs
  @ order_rule ~original provs
  @ prefix_rule db ~original rewritten provs
  @ lineage_rule db rewritten provs

(* ------------------------------------------------------------------ *)
(* Gen's CrossBase presence                                             *)
(* ------------------------------------------------------------------ *)

let bump tbl key by =
  Hashtbl.replace tbl key (by + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* A base-relation access at sublink nesting depth d is re-scanned by
   the CrossBase of each of its d enclosing sublinks. *)
let gen_required original =
  let tbl = Hashtbl.create 8 in
  Path.walk
    (fun _ depth q ->
      (match q with Base r when depth > 0 -> bump tbl r depth | _ -> ());
      depth + 1)
    0 original;
  tbl

let is_null_row rel =
  Relation.cardinality rel = 1
  && List.for_all Value.is_null (Tuple.to_list (List.hd (Relation.tuples rel)))

let crossbase_scans q =
  let tbl = Hashtbl.create 8 in
  let rec walk q =
    (match q with
    | Union (Bag, Base r, TableExpr rel) when is_null_row rel -> bump tbl r 1
    | _ -> ());
    ignore (map_queries (fun c -> walk c; c) q)
  in
  walk q;
  tbl

let gen_crossbase ~original rewritten =
  let required = gen_required original in
  let actual = crossbase_scans rewritten in
  Hashtbl.fold
    (fun r need acc ->
      let have = Option.value ~default:0 (Hashtbl.find_opt actual r) in
      if have >= need then acc
      else
        diag Error ~rule:"gen-crossbase" ~path:[]
          (Printf.sprintf
             "the Gen rewrite should contain %d NULL-extended CrossBase \
              scan%s of %S but has %d"
             need
             (if need > 1 then "s" else "")
             r have)
        :: acc)
    required []

(* ------------------------------------------------------------------ *)
(* Optimizer guard                                                      *)
(* ------------------------------------------------------------------ *)

let error_counts db q =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (d : Lint.diagnostic) -> bump tbl d.Lint.rule 1)
    (Lint.errors (Lint.lint ~rules:Lint.plan_rules db q));
  tbl

let optimizer_guard db ~before after =
  let schema =
    match (infer_opt db before, infer_opt db after) with
    | Ok sb, Ok sa when Schema.equal sb sa -> []
    | Ok sb, Ok sa ->
        [
          diag Error ~rule:"optimizer-schema" ~path:[]
            (Printf.sprintf
               "optimization changed the typed schema from %s to %s"
               (Schema.to_string sb) (Schema.to_string sa));
        ]
    | _, Error m ->
        [
          diag Error ~rule:"optimizer-schema" ~path:[]
            ("the optimized plan does not typecheck: " ^ m);
        ]
    | Error m, _ ->
        [
          diag Error ~rule:"optimizer-schema" ~path:[]
            ("the pre-optimization plan does not typecheck: " ^ m);
        ]
  in
  let cb = error_counts db before and ca = error_counts db after in
  let regressions =
    Hashtbl.fold
      (fun rule n acc ->
        let before_n = Option.value ~default:0 (Hashtbl.find_opt cb rule) in
        if n > before_n then
          diag Error ~rule:"optimizer-diagnostics" ~path:[]
            (Printf.sprintf
               "optimization increased error diagnostics of rule %S from %d \
                to %d"
               rule before_n n)
          :: acc
        else acc)
      ca []
  in
  schema @ regressions

(* ------------------------------------------------------------------ *)
(* Bounded oracle ground truth (rule: prov-oracle)                     *)
(* ------------------------------------------------------------------ *)

let oracle_check db ~original rewritten =
  let budget = Guard.budget ~timeout:1.0 ~max_rows:200_000 () in
  let canon rows = List.sort_uniq Tuple.compare rows in
  let check_one assoc =
    let wdb = Database.of_list assoc in
    match
      Guard.with_budget (Some budget) (fun () ->
          let expected = canon (Oracle.provenance wdb original) in
          let actual =
            canon (Relation.tuples (Eval.query_reference wdb rewritten))
          in
          (expected, actual))
    with
    | exception
        ( Oracle.Unsupported _ | Guard.Budget_exceeded _ | Eval.Eval_error _
        | Value.Type_clash _ | Schema.Schema_error _ | Typecheck.Type_error _
        | Relation.Relation_error _ | Database.Unknown_relation _
        | Builtin.Unknown_function _ | Not_found | Invalid_argument _
        | Division_by_zero | Failure _ ) ->
        (* the oracle or the plan legitimately gives up on this witness
           (unsupported form, budget trip, runtime error): not a defect *)
        []
    | expected, actual ->
        if List.equal Tuple.equal expected actual then []
        else
          [
            diag Error ~rule:"prov-oracle" ~path:[]
              (Printf.sprintf
                 "rewritten plan disagrees with the enumeration oracle on a \
                  witness database (%d oracle rows vs %d plan rows, \
                  set-level)"
                 (List.length expected) (List.length actual));
          ]
  in
  (* stop at the first refuting witness database *)
  let rec first = function
    | [] -> []
    | wdb :: rest -> (
        match check_one wdb with [] -> first rest | ds -> ds)
  in
  first (Certify.witness_databases db original)

(* ------------------------------------------------------------------ *)
(* Combined check                                                       *)
(* ------------------------------------------------------------------ *)

let check db ~strategy ?optimized ~original (rewritten, provs) =
  precondition db ~strategy original
  @ contract db ~original rewritten provs
  @ (match strategy with
    | Strategy.Gen -> gen_crossbase ~original rewritten
    | _ -> [])
  @
  match optimized with
  | None -> []
  | Some after -> optimizer_guard db ~before:rewritten after
