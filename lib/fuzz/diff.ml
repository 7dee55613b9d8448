(** The differential harness: one fuzz case is evaluated under every
    applicable provenance strategy × both engines (reference,
    vectorized) and compared against the enumeration oracle,
    plus a plain (no-provenance) engine-parity check and the Theorem-1
    projection property (the provenance rows restricted to the original
    columns are exactly the plain result, set-level).

    Configurations that legitimately cannot run — a strategy whose
    applicability conditions the query violates, an oracle-unsupported
    form, a budget trip, a runtime error like division by zero — are
    {e skipped}, not failed; a {!Mismatch} verdict means two
    configurations that both ran produced different rows, which is a
    genuine counterexample. The campaign driver shrinks those to
    minimal repros and writes them as replayable [.sql] + [.csv]
    bundles. *)

open Relalg
open Core

type mismatch = {
  mm_left : string;  (** configuration label, e.g. ["prov/Left/reference"] *)
  mm_right : string;
  mm_detail : string;  (** row counts and sample differing rows *)
}

type verdict =
  | Agree of int  (** number of configuration comparisons that ran *)
  | Skip of string  (** nothing comparable ran *)
  | Mismatch of mismatch

let default_budget = Guard.budget ~timeout:2.0 ~max_rows:500_000 ()

(* ------------------------------------------------------------------ *)
(* Running one configuration                                           *)
(* ------------------------------------------------------------------ *)

type run = (Tuple.t list, string) result  (** rows (unsorted) or skip reason *)

let guarded budget f =
  match Guard.with_budget (Some budget) f with
  | rows -> Ok rows
  | exception Guard.Budget_exceeded t -> Error (Guard.trip_to_string t)
  | exception Strategy.Unsupported m -> Error ("strategy unsupported: " ^ m)
  | exception Oracle.Unsupported m -> Error ("oracle unsupported: " ^ m)
  | exception
      (( Eval.Eval_error _ | Value.Type_clash _ | Schema.Schema_error _
       | Relation.Relation_error _ | Typecheck.Type_error _
       | Database.Unknown_relation _ | Builtin.Unknown_function _
       | Division_by_zero | Not_found | Invalid_argument _ | Failure _ ) as e)
    ->
      Error (Printexc.to_string e)

let canon_bag rows = List.sort Tuple.compare rows
let canon_set rows = List.sort_uniq Tuple.compare rows

let sample n rows =
  List.filteri (fun i _ -> i < n) rows |> List.map Tuple.to_string
  |> String.concat " "

let describe left right l r =
  {
    mm_left = left;
    mm_right = right;
    mm_detail =
      Printf.sprintf "%d vs %d rows; %s: %s | %s: %s" (List.length l)
        (List.length r) left (sample 4 l) right (sample 4 r);
  }

(* ------------------------------------------------------------------ *)
(* The differential check                                               *)
(* ------------------------------------------------------------------ *)

let check ?(budget = default_budget) (case : Qgen.case) : verdict =
  let db = Qgen.database case in
  match Sql_frontend.Analyzer.analyze db case.Qgen.c_select with
  | exception
      ( Sql_frontend.Analyzer.Analyze_error _ | Typecheck.Type_error _
      | Schema.Schema_error _ | Database.Unknown_relation _
      | Builtin.Unknown_function _ | Failure _ | Not_found ) ->
      Skip "query does not analyze"
  | analyzed -> (
      let q = analyzed.Sql_frontend.Analyzer.query in
      match Typecheck.infer db q with
      | exception _ -> Skip "query does not typecheck"
      | _ ->
          let n_orig = List.length (Scope.out_names db q) in
          let plain_ref =
            guarded budget (fun () ->
                Relation.tuples (Eval.query_reference db q))
          in
          let plain_vec =
            guarded budget (fun () -> Relation.tuples (Eval.query db q))
          in
          let oracle =
            guarded budget (fun () -> Oracle.provenance db q)
          in
          (* provenance plans per strategy, optimized, under both engines *)
          let prov_runs =
            List.map
              (fun strategy ->
                let name = Strategy.to_string strategy in
                match
                  guarded budget (fun () ->
                      let q_plus, _ = Rewrite.rewrite db ~strategy q in
                      Optimizer.optimize db q_plus)
                with
                | Error e ->
                    [ ("prov/" ^ name ^ "/reference", (Error e : run)) ]
                | Ok plan ->
                    (* smuggle the plan through: re-wrap each engine run *)
                    [
                      ( "prov/" ^ name ^ "/reference",
                        guarded budget (fun () ->
                            Relation.tuples (Eval.query_reference db plan)) );
                      ( "prov/" ^ name ^ "/vectorized",
                        guarded budget (fun () ->
                            Relation.tuples (Eval.query db plan)) );
                    ])
              Strategy.all
            |> List.concat
          in
          let checked = ref 0 in
          let failure = ref None in
          let compare_rows ~canon left right l r =
            if Option.is_none !failure then begin
              match (l, r) with
              | Ok lr, Ok rr ->
                  incr checked;
                  let lc = canon lr and rc = canon rr in
                  if not (List.equal Tuple.equal lc rc) then
                    failure := Some (describe left right lc rc)
              | _ -> ()
            end
          in
          (* 1. plain engine parity (bag-level) *)
          compare_rows ~canon:canon_bag "plain/reference" "plain/vectorized"
            plain_ref plain_vec;
          (* 2. engine parity per strategy (bag-level) *)
          List.iter
            (fun strategy ->
              let name = Strategy.to_string strategy in
              let find l = List.assoc_opt l prov_runs in
              match
                (find ("prov/" ^ name ^ "/reference"),
                 find ("prov/" ^ name ^ "/vectorized"))
              with
              | Some l, Some r ->
                  compare_rows ~canon:canon_bag
                    ("prov/" ^ name ^ "/reference")
                    ("prov/" ^ name ^ "/vectorized")
                    l r
              | _ -> ())
            Strategy.all;
          (* 3. every provenance run against the oracle (set-level) *)
          List.iter
            (fun (label, r) ->
              compare_rows ~canon:canon_set label "oracle" r oracle)
            prov_runs;
          (* 4. cross-strategy agreement (set-level) — meaningful when
             the oracle could not run *)
          (match
             List.filter (fun (_, r) -> Result.is_ok r) prov_runs
           with
          | (l1, r1) :: rest ->
              List.iter
                (fun (l2, r2) -> compare_rows ~canon:canon_set l1 l2 r1 r2)
                rest
          | [] -> ());
          (* 5. Theorem 1: provenance rows project onto the plain result *)
          List.iter
            (fun (label, r) ->
              match (r, plain_ref) with
              | Ok rows, Ok _ ->
                  let projected =
                    let positions = Array.init n_orig Fun.id in
                    Ok
                      (List.map
                         (fun t -> Tuple.project_arr t positions)
                         rows)
                  in
                  compare_rows ~canon:canon_set
                    (label ^ " (original columns)")
                    "plain/reference" projected plain_ref
              | _ -> ())
            prov_runs;
          (match !failure with
          | Some mm -> Mismatch mm
          | None ->
              if !checked = 0 then
                Skip "no two configurations both ran (all skipped)"
              else Agree !checked))

(* ------------------------------------------------------------------ *)
(* Replayable bundles                                                  *)
(* ------------------------------------------------------------------ *)

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(** [write_bundle ~dir case ~notes] materializes a case as a replayable
    bundle: [query.sql], one [<table>.csv] per table, and [notes.txt]
    describing the finding. *)
let write_bundle ~dir (case : Qgen.case) ~notes =
  mkdir_p dir;
  write_file (Filename.concat dir "query.sql") (Qgen.sql case ^ "\n");
  List.iter
    (fun (name, rel) ->
      write_file (Filename.concat dir (name ^ ".csv")) (Csv.to_string rel))
    case.Qgen.c_tables;
  write_file (Filename.concat dir "notes.txt") (notes ^ "\n")

(* CSV inference types empty/all-NULL columns as strings; coerce tables
   of the known fuzz layout back to their integer schemas. *)
let coerce_to_spec name rel =
  match List.assoc_opt name Qgen.tables_spec with
  | Some cols
    when Schema.names (Relation.schema rel) = cols
         && List.for_all
              (fun t ->
                List.for_all
                  (fun v ->
                    match v with Value.Null | Value.Int _ -> true | _ -> false)
                  (Tuple.to_list t))
              (Relation.tuples rel) ->
      Relation.make
        (Schema.of_list (List.map (fun n -> Schema.attr n Vtype.TInt) cols))
        (Relation.tuples rel)
  | _ -> rel

(** [load_bundle dir] reads a bundle back: [query.sql] plus every
    [*.csv] (table name = file name). *)
let load_bundle dir : Qgen.case =
  let sql_path = Filename.concat dir "query.sql" in
  let ic = open_in sql_path in
  let n = in_channel_length ic in
  let sql = really_input_string ic n in
  close_in ic;
  let c_select = Sql_frontend.Parser.parse sql in
  let c_tables =
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.filter (fun f -> Filename.check_suffix f ".csv")
    |> List.map (fun f ->
           let name = Filename.chop_suffix f ".csv" in
           (name, coerce_to_spec name (Csv.load (Filename.concat dir f))))
  in
  { Qgen.c_select; c_tables }

(** [replay ?budget dir] re-runs a bundle through the differential
    check. *)
let replay ?budget dir = check ?budget (load_bundle dir)

(* ------------------------------------------------------------------ *)
(* Campaign driver                                                     *)
(* ------------------------------------------------------------------ *)

type failure = {
  fl_index : int;  (** which generated case (0-based) *)
  fl_case : Qgen.case;  (** as generated *)
  fl_shrunk : Qgen.case;  (** after delta-debugging *)
  fl_detail : string;
  fl_dir : string option;  (** bundle directory, when artifacts were written *)
}

type stats = {
  st_seed : int;
  st_total : int;
  st_agreed : int;
  st_comparisons : int;  (** configuration comparisons across all cases *)
  st_skipped : int;
  st_failures : failure list;
}

let campaign ?(config = Qgen.default) ?(budget = default_budget) ?artifacts
    ?(progress = fun _ -> ()) ~seed ~count () : stats =
  let st = Random.State.make [| seed; 0xd1ff |] in
  let agreed = ref 0 and comparisons = ref 0 and skipped = ref 0 in
  let failures = ref [] in
  for index = 0 to count - 1 do
    progress index;
    let case = Qgen.generate st config in
    match check ~budget case with
    | Agree n ->
        incr agreed;
        comparisons := !comparisons + n
    | Skip _ -> incr skipped
    | Mismatch mm ->
        let still_fails sel tbls =
          match
            check ~budget { Qgen.c_select = sel; c_tables = tbls }
          with
          | Mismatch _ -> true
          | Agree _ | Skip _ -> false
          | exception _ -> false
        in
        let sel', tbls' =
          Shrink.shrink ~still_fails case.Qgen.c_select case.Qgen.c_tables
        in
        let shrunk = { Qgen.c_select = sel'; c_tables = tbls' } in
        let detail =
          let final =
            match check ~budget shrunk with
            | Mismatch mm' -> mm'
            | _ -> mm
          in
          Printf.sprintf "%s disagrees with %s: %s" final.mm_left
            final.mm_right final.mm_detail
        in
        let dir =
          match artifacts with
          | None -> None
          | Some root ->
              let dir =
                Filename.concat root
                  (Printf.sprintf "seed%d-case%d" seed index)
              in
              write_bundle ~dir shrunk
                ~notes:
                  (Printf.sprintf "seed %d, case %d\n%s\noriginal query:\n%s"
                     seed index detail (Qgen.sql case));
              Some dir
        in
        failures :=
          {
            fl_index = index;
            fl_case = case;
            fl_shrunk = shrunk;
            fl_detail = detail;
            fl_dir = dir;
          }
          :: !failures
  done;
  {
    st_seed = seed;
    st_total = count;
    st_agreed = !agreed;
    st_comparisons = !comparisons;
    st_skipped = !skipped;
    st_failures = List.rev !failures;
  }

let stats_to_string s =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "fuzz: seed %d, %d cases: %d agreed (%d comparisons), %d skipped, %d \
     mismatches\n"
    s.st_seed s.st_total s.st_agreed s.st_comparisons s.st_skipped
    (List.length s.st_failures);
  List.iter
    (fun f ->
      Printf.bprintf b "case %d: %s\n  minimal repro: %s\n" f.fl_index
        f.fl_detail
        (Qgen.sql f.fl_shrunk);
      List.iter
        (fun (name, rel) ->
          Printf.bprintf b "  %s: %d rows\n" name (Relation.cardinality rel))
        f.fl_shrunk.Qgen.c_tables;
      match f.fl_dir with
      | Some d -> Printf.bprintf b "  bundle: %s\n" d
      | None -> ())
    s.st_failures;
  Buffer.contents b
