(** Dynamic data-race detector: a vector-clock happens-before checker
    over explicitly instrumented access points.

    The engines name their shared mutable cells with stable string
    locations ([vexec.cache], [relation[7].counts_memo], ...) and call
    {!read}/{!write} at each access; synchronization points publish
    happens-before edges with {!release}/{!acquire} (a released edge
    carries the releasing domain's vector clock; acquiring joins it
    into the acquirer's clock). Two accesses to the same location where
    at least one is a write and neither happens-before the other is a
    race: a {!report} carrying both access paths plus the schedule seed
    is recorded (execution is not interrupted).

    The disabled path is near-free — every entry point is gated on a
    single {!Atomic.t} flag load, the same pattern as [Guard.active] —
    so instrumentation stays compiled into the production engine and
    is armed only by tests (the concurrent-session stress cases and the
    injected-race mutants).

    Detection is sound for what is instrumented and published: an edge
    the scheduler does not publish (e.g. a raw [Domain.join]) does not
    order accesses, so test harnesses can model {e missing}
    synchronization simply by omitting the edge. *)

type kind = Read | Write

(** One instrumented access, as recorded. *)
type access = {
  a_loc : string;  (** instrumented location (the shared cell) *)
  a_path : string;  (** access-site path / context, may be [""] *)
  a_domain : int;  (** detector slot of the accessing domain *)
  a_kind : kind;
  a_clock : int;  (** accessing domain's own clock component *)
}

type report = {
  r_loc : string;  (** the location both accesses touched *)
  r_first : access;  (** the earlier-recorded access *)
  r_second : access;  (** the conflicting access that exposed the race *)
  r_seed : int option;  (** schedule seed armed at detection time *)
}

val report_to_string : report -> string

(** {1 Arming} *)

(** [arm ?seed ()] clears previous edges, access history and reports,
    records [seed] (the schedule seed, carried into reports) and
    enables the detector. *)
val arm : ?seed:int -> unit -> unit

val disarm : unit -> unit
val is_armed : unit -> bool

(** Reports recorded since {!arm}, in detection order (capped; each
    distinct (location, domain pair, kind pair) is reported once). *)
val reports : unit -> report list

(** {1 Access points} — called by the instrumented engines. *)

(** [read loc] / [write loc] record an access to the shared cell named
    [loc] by the calling domain. No-ops (one flag load) when disarmed. *)
val read : string -> unit

val write : string -> unit

(** Like {!read}/{!write} with an access-site path for the report. *)
val read_at : string -> path:string -> unit

val write_at : string -> path:string -> unit

(** {1 Happens-before edges} — published by the scheduler and the
    synchronization wrappers. *)

(** [release edge] publishes the calling domain's vector clock under
    [edge] (joined with any previous publication) and advances the
    domain's clock: accesses before the release happen-before accesses
    of any domain that subsequently {!acquire}s [edge]. *)
val release : string -> unit

(** [acquire edge] joins the published clock of [edge] (if any) into
    the calling domain's clock. *)
val acquire : string -> unit

(** [with_lock m edge f] is [Mutex.protect m f] that also models the
    mutex as a happens-before edge: acquire after locking, release
    before unlocking. Disarmed cost: exactly [Mutex.protect]. *)
val with_lock : Mutex.t -> string -> (unit -> 'a) -> 'a
