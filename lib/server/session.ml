(** Per-session state over shared immutable database snapshots.

    The {!store} publishes one snapshot at a time, identified by a
    monotonically increasing {e epoch}. A snapshot is a {!Database.t}
    treated as frozen: the server never mutates it after publication,
    and {!Relation.t} values (with their lazy memos) are safe to share
    across domains, so handing a snapshot to a session costs nothing.

    Each session evaluates against a private {e overlay} database:
    snapshot tables and views shared by reference, plus the session's
    own DDL (views and materialized tables) replayed on top. Queries
    therefore run without any lock — the overlay is confined to the
    session's connection domain.

    Epoch swap semantics: {!swap} publishes a new snapshot and bumps
    the epoch. Sessions notice at the {e next query boundary} ({!pin})
    and rebase their overlay — rebuild from the new snapshot, replay
    their DDL log. A query already running keeps the overlay it pinned,
    so in-flight queries finish on their epoch; nothing blocks the
    swap. *)

open Relalg
open Core

(* ------------------------------------------------------------------ *)
(* Snapshot store                                                      *)
(* ------------------------------------------------------------------ *)

type store = {
  st_mu : Mutex.t;
  mutable st_epoch : int;
  mutable st_db : Database.t;
  mutable st_swaps : int;
}

let store db = { st_mu = Mutex.create (); st_epoch = 1; st_db = db; st_swaps = 0 }

let snapshot st =
  Mutex.lock st.st_mu;
  let r = (st.st_epoch, st.st_db) in
  Mutex.unlock st.st_mu;
  r

let epoch st = fst (snapshot st)

let swap st db =
  Mutex.lock st.st_mu;
  st.st_epoch <- st.st_epoch + 1;
  st.st_db <- db;
  st.st_swaps <- st.st_swaps + 1;
  let e = st.st_epoch in
  Mutex.unlock st.st_mu;
  e

let swaps st =
  Mutex.lock st.st_mu;
  let n = st.st_swaps in
  Mutex.unlock st.st_mu;
  n

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* One replayable DDL effect. Tables store the materialized relation —
   a CREATE TABLE AS is a value, not a recipe, so a rebase must not
   re-run the (possibly snapshot-dependent) query. *)
type op =
  | Op_table of string * Relation.t
  | Op_view of string * Algebra.query
  | Op_drop of string

type t = {
  s_id : int;
  s_store : store;
  mutable s_epoch : int;
  mutable s_db : Database.t;
  mutable s_ops : op list;  (* newest first; replayed in reverse *)
  mutable s_strategy : Strategy.t;
  mutable s_budget : Guard.budget option;
}

let overlay_of (snap : Database.t) ops =
  let db = Database.create () in
  List.iter (fun n -> Database.add db n (Database.find snap n)) (Database.names snap);
  List.iter
    (fun v ->
      match Database.find_view snap v with
      | Some q -> Database.add_view db v q
      | None -> ())
    (Database.view_names snap);
  List.iter
    (function
      | Op_table (n, r) -> Database.add db n r
      | Op_view (n, q) -> Database.add_view db n q
      | Op_drop n -> ignore (Database.drop db n))
    (List.rev ops);
  db

let create ?(strategy = Strategy.Gen) st ~id =
  let epoch, snap = snapshot st in
  {
    s_id = id;
    s_store = st;
    s_epoch = epoch;
    s_db = overlay_of snap [];
    s_ops = [];
    s_strategy = strategy;
    s_budget = None;
  }

let id s = s.s_id
let epoch_of s = s.s_epoch
let strategy s = s.s_strategy
let set_strategy s v = s.s_strategy <- v
let budget s = s.s_budget
let set_budget s v = s.s_budget <- v

(* Query-boundary rebase: adopt the latest snapshot if the store moved
   on, replaying this session's DDL on the new base. The rebuilt
   overlay is a fresh [Database.t] (fresh uid), so the {!Stats} cache
   can never serve it the old overlay's statistics; dropping the dead
   overlay's entry here just frees the memory eagerly. (DDL on a live
   overlay bumps its version, which the cache revalidates against, so
   session-local CREATE/DROP invalidate statistics automatically.) *)
let pin s =
  let epoch, snap = snapshot s.s_store in
  if epoch <> s.s_epoch then begin
    Stats.invalidate s.s_db;
    s.s_epoch <- epoch;
    s.s_db <- overlay_of snap s.s_ops
  end;
  (s.s_db, s.s_epoch)

let db s = fst (pin s)

(* Record a statement's DDL effect for replay across rebases. *)
let note s = function
  | Perm.Rows _ -> ()
  | Perm.Created_view n -> (
      match Database.find_view s.s_db n with
      | Some q -> s.s_ops <- Op_view (n, q) :: s.s_ops
      | None -> ())
  | Perm.Created_table (n, _) ->
      s.s_ops <- Op_table (n, Database.find s.s_db n) :: s.s_ops
  | Perm.Dropped n -> s.s_ops <- Op_drop n :: s.s_ops
