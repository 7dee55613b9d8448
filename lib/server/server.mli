(** The provenance server: domain-per-connection accept loop, admission
    control (session cap, eval token bucket with a bounded wait queue),
    per-request budgets with strategy degradation via
    {!Resilience.run_ladder}, deterministic wire-fault injection, and
    graceful drain. See server.ml for the design notes. *)

open Relalg

(** {1 Deterministic wire faults} *)

type fault_plan

(** [fault_plan seed]: at each accept, read and write boundary, a
    PRNG seeded with [seed] fires with probability 5%, modelling a peer
    reset: the connection is dropped. *)
val fault_plan : int -> fault_plan

(** {1 Configuration} *)

type config = {
  c_host : string;
  c_port : int;  (** 0 picks an ephemeral port; see {!port} *)
  c_snapshot : Database.t;  (** initial snapshot, frozen at publication *)
  c_snapshots : (string * (unit -> Database.t)) list;
  c_max_sessions : int;
  c_eval_slots : int;
  c_queue_limit : int;
  c_budget : Guard.budget option;
      (** every request's budget; a session's own override wins *)
  c_drain_deadline : float;
  c_max_result_rows : int;
  c_faults : fault_plan option;
  c_on_eval : (unit -> unit) option;
}

val config :
  ?host:string ->
  ?port:int ->
  ?snapshots:(string * (unit -> Database.t)) list ->
  ?max_sessions:int ->
  ?eval_slots:int ->
  ?queue_limit:int ->
  ?budget:Guard.budget ->
  ?drain_deadline:float ->
  ?max_result_rows:int ->
  ?faults:fault_plan ->
  ?on_eval:(unit -> unit) ->
  Database.t ->
  config

(** {1 Lifecycle} *)

type t

(** [start cfg] binds, listens and spawns the accept domain. *)
val start : config -> t

(** The actually bound port (useful with [c_port = 0]). *)
val port : t -> int

val store : t -> Session.store

(** Counter snapshot, as served by the [Stats] request: accepted,
    sessions opened/closed/active, requests, queries ok/err, shed,
    degraded, violations, faults injected, internal errors, epoch,
    epoch swaps. *)
val stats : t -> (string * float) list

(** Wire faults fired so far (0 without a fault plan). *)
val faults_injected : t -> int

(** [drain sv] stops accepting, waits for in-flight sessions up to
    [c_drain_deadline], then force-closes the rest; all handler domains
    are joined before returning. [true] when everything finished within
    the deadline. *)
val drain : t -> bool

(** [stop sv] = [ignore (drain sv)]. *)
val stop : t -> unit
