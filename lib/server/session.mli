(** Per-session state over shared immutable database snapshots with
    epoch-based swap: sessions rebase at query boundaries ({!pin}), so
    in-flight queries finish on the epoch they pinned. *)

open Relalg
open Core

(** {1 Snapshot store} *)

(** Publishes one frozen {!Database.t} at a time under a monotonically
    increasing epoch. Thread- and domain-safe. *)
type store

(** [store db] publishes [db] as epoch 1. [db] must not be mutated
    afterwards. *)
val store : Database.t -> store

(** Current [(epoch, snapshot)] pair, read atomically. *)
val snapshot : store -> int * Database.t

val epoch : store -> int

(** [swap st db] publishes [db] under a fresh epoch (returned). Running
    queries are unaffected; sessions adopt it at their next {!pin}. *)
val swap : store -> Database.t -> int

(** Number of swaps since creation. *)
val swaps : store -> int

(** {1 Sessions} *)

type t

(** [create ?strategy st ~id] opens a session on the store's current
    epoch. *)
val create : ?strategy:Strategy.t -> store -> id:int -> t

val id : t -> int

(** Epoch of the session's current overlay. *)
val epoch_of : t -> int

val strategy : t -> Strategy.t
val set_strategy : t -> Strategy.t -> unit
val budget : t -> Guard.budget option
val set_budget : t -> Guard.budget option -> unit

(** [pin s] is the query-boundary rebase: adopt the store's latest
    snapshot if it moved (replaying this session's DDL on top) and
    return the overlay database and its epoch. The returned database
    stays valid for the whole query even if the store swaps meanwhile. *)
val pin : t -> Database.t * int

(** [db s] = [fst (pin s)]. *)
val db : t -> Database.t

(** [note s res] records a statement's DDL effect (created view/table,
    drop) so a later rebase replays it onto the new snapshot.
    Materialized tables are replayed as values, not re-run. *)
val note : t -> Perm.exec_result -> unit
