(** Schedule fuzzing for the parallel vectorized engine: generated
    queries run on a genuinely multi-domain pool under the chaos
    scheduler with the vector-clock race detector armed, checked for
    bag-parity against the reference walker. Failures carry the
    (query, schedule-seed, domains) triple that replays them and are
    shrunk with {!Shrink} under that exact schedule seed. *)

open Relalg

(** {!Qgen.default} with [max_rows = 16] — enough rows that 2-row
    batches fan out across workers. *)
val default_config : Qgen.config

(** 5 s / 500k rows per engine run. *)
val default_budget : Guard.budget

type verdict =
  | Clean of int  (** plans that ran under both engines *)
  | Skip of string
  | Fail of string  (** race reports and/or parity mismatch, rendered *)

(** [check ~pool ~sched_seed case] — every applicable plan of [case]
    (plain + per-strategy provenance), reference baseline vs. a
    vectorized run on [pool] under chaos seed [sched_seed] with the
    detector armed. Detector reports fail the case even when rows
    agree. Engine globals are saved and restored around each run. *)
val check :
  ?budget:Guard.budget ->
  pool:Morsel.pool ->
  sched_seed:int ->
  Qgen.case ->
  verdict

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

(** [campaign ~seed ~count ~domains ()] — [count] cases from one
    deterministic stream; case [i] runs under schedule seed
    [seed * 1_000_003 + i] on a pool of [2 + i mod (domains-1)]
    domains (unclamped [Morsel.create] pools, created lazily and shut
    down at the end). [domains] is clamped to 2–4. *)
val campaign :
  ?config:Qgen.config ->
  ?budget:Guard.budget ->
  ?progress:(int -> unit) ->
  seed:int ->
  count:int ->
  domains:int ->
  unit ->
  stats

val stats_to_string : stats -> string
