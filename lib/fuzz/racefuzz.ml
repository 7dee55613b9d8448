(** Schedule fuzzing for the parallel vectorized engine: each generated
    query runs under the reference walker once (the baseline) and then
    under the vectorized engine on a genuinely multi-domain pool with
    the chaos scheduler ({!Relalg.Morsel.set_chaos}) perturbing the
    schedule and the vector-clock race detector ({!Relalg.Race}) armed.

    A case fails when the detector reports an unordered access pair or
    the vectorized rows differ from the reference rows (bag-level) —
    either way the failure carries the (query, schedule-seed, domains)
    triple that reproduces it, and the campaign driver shrinks the
    query and tables with {!Shrink} while replaying that exact
    schedule seed.

    Pools come from [Morsel.create] (unclamped) through
    [Vexec.pool_override], so the campaign exercises real cross-domain
    schedules even on single-core CI hosts; batches are forced tiny
    ([Vexec.batch_rows := 2]) so generated tables of a dozen rows
    still fan out across workers. *)

open Relalg
open Core

(* Larger tables than the differential default: parallel scan/join
   paths need several batches per relation to schedule anything. *)
let default_config = { Qgen.default with Qgen.max_rows = 16 }
let default_budget = Guard.budget ~timeout:5.0 ~max_rows:500_000 ()

type verdict =
  | Clean of int  (** plans that ran under both engines *)
  | Skip of string
  | Fail of string  (** race reports and/or parity mismatch, rendered *)

let guarded budget f =
  match Guard.with_budget (Some budget) f with
  | rows -> Ok rows
  | exception Guard.Budget_exceeded t -> Error (Guard.trip_to_string t)
  | exception
      (( Eval.Eval_error _ | Value.Type_clash _ | Schema.Schema_error _
       | Relation.Relation_error _ | Typecheck.Type_error _
       | Database.Unknown_relation _ | Builtin.Unknown_function _
       | Division_by_zero | Not_found | Invalid_argument _ | Failure _ ) as e)
    ->
      Error (Printexc.to_string e)

(* The plans a case exercises: the plain query plus every applicable
   strategy's optimized provenance plan. *)
let plans db q =
  ("plain", q)
  :: List.filter_map
       (fun strategy ->
         match
           let q_plus, _ = Rewrite.rewrite db ~strategy q in
           Optimizer.optimize db q_plus
         with
         | plan -> Some (Strategy.to_string strategy, plan)
         | exception _ -> None)
       Strategy.all

let canon rows = List.sort Tuple.compare rows

let sample n rows =
  List.filteri (fun i _ -> i < n) rows |> List.map Tuple.to_string
  |> String.concat " "

(* One vectorized run on [pool] under chaos seed [sched_seed] with the
   detector armed. Globals are restored whatever happens; reports are
   harvested before disarming. *)
let vectorized_run budget pool sched_seed db plan =
  let saved_pool = !Vexec.pool_override in
  let saved_batch = !Vexec.batch_rows in
  Vexec.pool_override := Some pool;
  Vexec.batch_rows := 2;
  Morsel.set_chaos (Some sched_seed);
  Race.arm ~seed:sched_seed ();
  Fun.protect
    ~finally:(fun () ->
      Race.disarm ();
      Morsel.set_chaos None;
      Vexec.batch_rows := saved_batch;
      Vexec.pool_override := saved_pool)
    (fun () ->
      let r =
        guarded budget (fun () -> Relation.tuples (Vexec.query db plan))
      in
      (r, Race.reports ()))

let check ?(budget = default_budget) ~pool ~sched_seed (case : Qgen.case) :
    verdict =
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
          let pl =
            match guarded budget (fun () -> plans db q) with
            | Ok pl -> pl
            | Error _ -> [ ("plain", q) ]
          in
          let checked = ref 0 in
          let failures = ref [] in
          List.iter
            (fun (label, plan) ->
              let reference =
                guarded budget (fun () ->
                    Relation.tuples (Eval.query_reference db plan))
              in
              let vec, reports =
                vectorized_run budget pool sched_seed db plan
              in
              List.iter
                (fun r ->
                  failures :=
                    Printf.sprintf "[%s] %s" label (Race.report_to_string r)
                    :: !failures)
                reports;
              match (reference, vec) with
              | Ok r, Ok v ->
                  incr checked;
                  let r = canon r and v = canon v in
                  if not (List.equal Tuple.equal r v) then
                    failures :=
                      Printf.sprintf
                        "[%s] engine divergence under schedule seed %d: \
                         reference %d rows (%s) vs vectorized %d rows (%s)"
                        label sched_seed (List.length r) (sample 4 r)
                        (List.length v) (sample 4 v)
                      :: !failures
              | _ -> ())
            pl;
          if !failures <> [] then
            Fail (String.concat "\n" (List.rev !failures))
          else if !checked = 0 then Skip "no plan ran under both engines"
          else Clean !checked)

(* ------------------------------------------------------------------ *)
(* Campaign driver                                                     *)
(* ------------------------------------------------------------------ *)

type failure = {
  rf_index : int;
  rf_sched_seed : int;  (** replays the failing schedule *)
  rf_domains : int;
  rf_case : Qgen.case;
  rf_shrunk : Qgen.case;
  rf_detail : string;
}

type stats = {
  rs_seed : int;
  rs_total : int;
  rs_clean : int;
  rs_plans : int;  (** plan runs compared across all cases *)
  rs_skipped : int;
  rs_failures : failure list;
}

let campaign ?(config = default_config) ?(budget = default_budget)
    ?(progress = fun _ -> ()) ~seed ~count ~domains () : stats =
  let domains = max 2 (min 4 domains) in
  let st = Random.State.make [| seed; 0xace |] in
  let pools = Array.make (domains + 1) None in
  let pool_of n =
    match pools.(n) with
    | Some p -> p
    | None ->
        let p = Morsel.create n in
        pools.(n) <- Some p;
        p
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (function Some p -> Morsel.shutdown p | None -> ()) pools)
    (fun () ->
      let clean = ref 0 and plans_run = ref 0 and skipped = ref 0 in
      let failures = ref [] in
      for index = 0 to count - 1 do
        progress index;
        let case = Qgen.generate st config in
        let sched_seed = (seed * 1_000_003) + index in
        let nd = 2 + (index mod (domains - 1)) in
        let pool = pool_of nd in
        match check ~budget ~pool ~sched_seed case with
        | Clean n ->
            incr clean;
            plans_run := !plans_run + n
        | Skip _ -> incr skipped
        | Fail detail ->
            let still_fails sel tbls =
              match
                check ~budget ~pool ~sched_seed
                  { Qgen.c_select = sel; c_tables = tbls }
              with
              | Fail _ -> true
              | Clean _ | Skip _ -> false
              | exception _ -> false
            in
            let sel', tbls' =
              Shrink.shrink ~still_fails case.Qgen.c_select case.Qgen.c_tables
            in
            let shrunk = { Qgen.c_select = sel'; c_tables = tbls' } in
            let detail =
              match check ~budget ~pool ~sched_seed shrunk with
              | Fail d -> d
              | _ -> detail
            in
            failures :=
              {
                rf_index = index;
                rf_sched_seed = sched_seed;
                rf_domains = nd;
                rf_case = case;
                rf_shrunk = shrunk;
                rf_detail = detail;
              }
              :: !failures
      done;
      {
        rs_seed = seed;
        rs_total = count;
        rs_clean = !clean;
        rs_plans = !plans_run;
        rs_skipped = !skipped;
        rs_failures = List.rev !failures;
      })

let stats_to_string s =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "racefuzz: seed %d, %d cases: %d clean (%d plan runs), %d skipped, %d \
     failures\n"
    s.rs_seed s.rs_total s.rs_clean s.rs_plans s.rs_skipped
    (List.length s.rs_failures);
  List.iter
    (fun f ->
      Printf.bprintf b
        "case %d (schedule seed %d, %d domains):\n%s\n  minimal repro: %s\n"
        f.rf_index f.rf_sched_seed f.rf_domains f.rf_detail
        (Qgen.sql f.rf_shrunk);
      List.iter
        (fun (name, rel) ->
          Printf.bprintf b "  %s: %d rows\n" name (Relation.cardinality rel))
        f.rf_shrunk.Qgen.c_tables)
    s.rs_failures;
  Buffer.contents b
