(** Execution governor: resource budgets with cooperative checkpoints,
    and a deterministic fault-injection harness.

    The engines call {!count_rows} / {!count_pairs} / {!tick} at
    operator boundaries and {!Faults.fire_point} at scan, join and
    sublink boundaries. Both are designed for a near-free
    disabled path: a single domain-local load guards each, so unguarded
    execution pays one load-and-branch per checkpoint.

    A budget is installed dynamically with {!with_budget} rather than
    threaded through the evaluator signatures: one scope then governs
    everything that runs inside it — both engines, sublink
    re-evaluation, optimizer-produced plans. Scopes nest lexically, but
    only the innermost scope is enforced: while an inner scope is
    active the outer scope's counters and deadline are suspended
    (neither advanced nor checked), and they resume where they left off
    when the inner scope exits. The strategy-fallback ladder in [Core]
    builds its per-attempt sub-budgets on this — it re-splits the
    remaining {e wall-clock} allowance across attempts itself, while
    each attempt's row/pair/allocation ceilings are per-attempt, fresh
    allowances.

    Domain safety: the governor used to keep the innermost scope in
    plain global [ref]s, which worker domains could not safely tick.
    The scope registry is now [Domain.DLS]-backed: each domain holds a
    private {e view} of a scope — local row/pair counters, fuel, and a
    per-domain [Gc.allocated_bytes] baseline — over a shared [state]
    whose totals are [Atomic] and flushed on each slow checkpoint and
    at view exit. Worker domains adopt the coordinator's scope with
    {!with_scope} (the vectorized engine does this per morsel task), so
    ceilings trip with correct aggregated totals no matter which domain
    crosses the line. The cheap per-row path stays non-atomic: a local
    increment plus one plain atomic load for the ceiling compare. *)

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)
(* ------------------------------------------------------------------ *)

type budget = {
  g_timeout : float option;
  g_max_rows : int option;
  g_max_pairs : int option;
  g_max_alloc_mb : float option;
}

let budget ?timeout ?max_rows ?max_pairs ?max_alloc_mb () =
  {
    g_timeout = timeout;
    g_max_rows = max_rows;
    g_max_pairs = max_pairs;
    g_max_alloc_mb = max_alloc_mb;
  }

let unlimited =
  { g_timeout = None; g_max_rows = None; g_max_pairs = None; g_max_alloc_mb = None }

let is_unlimited b =
  b.g_timeout = None && b.g_max_rows = None && b.g_max_pairs = None
  && b.g_max_alloc_mb = None

let budget_to_string b =
  if is_unlimited b then "unlimited"
  else
    String.concat ", "
      (List.filter_map Fun.id
         [
           Option.map (Printf.sprintf "timeout=%gs") b.g_timeout;
           Option.map (Printf.sprintf "max-rows=%d") b.g_max_rows;
           Option.map (Printf.sprintf "max-pairs=%d") b.g_max_pairs;
           Option.map (Printf.sprintf "max-alloc=%gMB") b.g_max_alloc_mb;
         ])

type counters = {
  c_rows : int;
  c_pairs : int;
  c_elapsed : float;
  c_alloc_mb : float;
}

type reason =
  | Timed_out of float
  | Rows_exceeded of int
  | Pairs_exceeded of int
  | Alloc_exceeded of float

type trip = { t_path : string list; t_reason : reason; t_counters : counters }

exception Budget_exceeded of trip

let reason_to_string = function
  | Timed_out s -> Printf.sprintf "wall-clock timeout (%g s)" s
  | Rows_exceeded n -> Printf.sprintf "row ceiling (%d rows)" n
  | Pairs_exceeded n -> Printf.sprintf "join-pair ceiling (%d pairs)" n
  | Alloc_exceeded mb -> Printf.sprintf "allocation ceiling (%g MB)" mb

let trip_to_string t =
  Printf.sprintf
    "budget exceeded at %s: %s; %d rows, %d pairs, %.2f s, %.1f MB allocated"
    (Algebra.Path.to_string t.t_path)
    (reason_to_string t.t_reason)
    t.t_counters.c_rows t.t_counters.c_pairs t.t_counters.c_elapsed
    t.t_counters.c_alloc_mb

(* How many cheap checkpoints between time/allocation re-checks. *)
let fuel_interval = 512

(* The scope proper, shared by every domain that adopted it. Totals are
   [Atomic] so views flush without a lock; ceilings/deadline/baselines
   are immutable. *)
type state = {
  st_budget : budget;
  st_deadline : float option;
  st_t0 : float;
  (* ceilings flattened to ints ([max_int] = none) so the per-push
     checkpoint compares without an option match *)
  st_row_limit : int;
  st_pair_limit : int;
  st_rows : int Atomic.t;  (* rows flushed by all views *)
  st_pairs : int Atomic.t;  (* pairs flushed by all views *)
  st_alloc : int Atomic.t;
      (* bytes flushed by all views; [Gc.allocated_bytes] is per-domain,
         so each view folds its own delta in at slow checkpoints and at
         view exit — this is how parallel sections share one budget *)
}

(* A domain's private view of a scope: unflushed counter deltas, fuel,
   and the domain's own allocation baseline. Single-writer (the owning
   domain), so the cheap checkpoints stay plain loads and stores. *)
type dview = {
  dv_state : state;
  mutable dv_rows : int;
  mutable dv_pairs : int;
  mutable dv_fuel : int;
  mutable dv_alloc0 : float;
}

(* The innermost active view of the calling domain. DLS-backed: worker
   domains adopt a scope with [with_scope] without racing the
   coordinator's own bookkeeping. *)
let tls : dview option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let cur () = !(Domain.DLS.get tls)

(* Fold this view's unflushed deltas into the shared totals and reset
   the local allocation baseline. *)
let flush dv =
  let st = dv.dv_state in
  if dv.dv_rows <> 0 then begin
    ignore (Atomic.fetch_and_add st.st_rows dv.dv_rows);
    dv.dv_rows <- 0
  end;
  if dv.dv_pairs <> 0 then begin
    ignore (Atomic.fetch_and_add st.st_pairs dv.dv_pairs);
    dv.dv_pairs <- 0
  end;
  let now = Gc.allocated_bytes () in
  let delta = now -. dv.dv_alloc0 in
  if delta <> 0.0 then begin
    ignore (Atomic.fetch_and_add st.st_alloc (int_of_float delta));
    dv.dv_alloc0 <- now
  end

let snapshot dv =
  flush dv;
  let st = dv.dv_state in
  {
    c_rows = Atomic.get st.st_rows;
    c_pairs = Atomic.get st.st_pairs;
    c_elapsed = Unix.gettimeofday () -. st.st_t0;
    c_alloc_mb = float_of_int (Atomic.get st.st_alloc) /. 1_048_576.0;
  }

let trip dv path reason =
  raise (Budget_exceeded { t_path = path; t_reason = reason; t_counters = snapshot dv })

let is_active () = cur () <> None

(* Bulk row counting walks an O(n) [Relation.cardinality] at every
   operator exit, so call sites skip it unless a row ceiling is armed;
   per-push counting (streaming operators) stays on under any budget. *)
let counts_rows () =
  match cur () with
  | Some dv -> dv.dv_state.st_budget.g_max_rows <> None
  | None -> false

let observed () =
  match cur () with
  | None -> { c_rows = 0; c_pairs = 0; c_elapsed = 0.0; c_alloc_mb = 0.0 }
  | Some dv -> snapshot dv

let charged_rows () =
  match cur () with
  | None -> 0
  | Some dv -> Atomic.get dv.dv_state.st_rows + dv.dv_rows

(* Re-check the clock and the allocation counter; called once every
   [fuel_interval] cheap checkpoints, and on every bulk checkpoint.
   Flushing here is also what keeps the shared totals fresh enough for
   the other domains' ceiling compares. *)
let slow_check dv path =
  dv.dv_fuel <- fuel_interval;
  flush dv;
  let st = dv.dv_state in
  (match st.st_deadline with
  | Some d when Unix.gettimeofday () > d ->
      trip dv path (Timed_out (Option.get st.st_budget.g_timeout))
  | _ -> ());
  match st.st_budget.g_max_alloc_mb with
  | Some mb when float_of_int (Atomic.get st.st_alloc) /. 1_048_576.0 > mb ->
      trip dv path (Alloc_exceeded mb)
  | _ -> ()

(* Ceiling compares read the shared total (a plain load on the cheap
   path — no fetch-and-add) plus the local unflushed delta: exact when
   one domain runs (the common case), at worst [fuel_interval] late per
   extra domain otherwise. *)
let count_rows path n =
  match cur () with
  | None -> ()
  | Some dv ->
      let st = dv.dv_state in
      dv.dv_rows <- dv.dv_rows + n;
      if Atomic.get st.st_rows + dv.dv_rows > st.st_row_limit then
        trip dv path (Rows_exceeded st.st_row_limit);
      slow_check dv path

let count_pairs path n =
  match cur () with
  | None -> ()
  | Some dv ->
      let st = dv.dv_state in
      dv.dv_pairs <- dv.dv_pairs + n;
      if Atomic.get st.st_pairs + dv.dv_pairs > st.st_pair_limit then
        trip dv path (Pairs_exceeded st.st_pair_limit);
      let f = dv.dv_fuel - 1 in
      dv.dv_fuel <- f;
      if f <= 0 then slow_check dv path

let cross_guard path ~left ~right =
  match cur () with
  | None -> ()
  | Some dv -> (
      let st = dv.dv_state in
      match st.st_budget.g_max_pairs with
      | Some m
        when float_of_int left *. float_of_int right
             > float_of_int
                 (max 0 (m - (Atomic.get st.st_pairs + dv.dv_pairs))) ->
          trip dv path (Pairs_exceeded m)
      | _ -> ())

let tick path =
  match cur () with
  | None -> ()
  | Some dv ->
      dv.dv_fuel <- dv.dv_fuel - 1;
      if dv.dv_fuel <= 0 then slow_check dv path

(* [note_alloc path bytes] folds externally measured worker-domain
   bytes into the active scope. Kept for callers that measure worker
   allocation themselves instead of adopting the scope ({!with_scope}
   now subsumes it for the vectorized engine). *)
let note_alloc path bytes =
  match cur () with
  | None -> ()
  | Some dv ->
      ignore (Atomic.fetch_and_add dv.dv_state.st_alloc (int_of_float bytes));
      if dv.dv_state.st_budget.g_max_alloc_mb <> None then slow_check dv path

let mk_view st =
  {
    dv_state = st;
    dv_rows = 0;
    dv_pairs = 0;
    dv_fuel = fuel_interval;
    dv_alloc0 = Gc.allocated_bytes ();
  }

(** [with_budget b f] runs [f] governed by [b] ([None] = unchanged).
    Installing a scope inside another {e suspends} the outer scope: its
    counters and deadline are neither advanced nor checked until the
    inner scope exits — callers that want a shared ceiling across
    nested runs (the fallback ladder's wall clock) must split it into
    the sub-budgets themselves. *)
let with_budget b f =
  match b with
  | None -> f ()
  | Some b ->
      let now = Unix.gettimeofday () in
      let st =
        {
          st_budget = b;
          st_deadline = Option.map (fun s -> now +. s) b.g_timeout;
          st_t0 = now;
          st_row_limit = Option.value ~default:max_int b.g_max_rows;
          st_pair_limit = Option.value ~default:max_int b.g_max_pairs;
          st_rows = Atomic.make 0;
          st_pairs = Atomic.make 0;
          st_alloc = Atomic.make 0;
        }
      in
      let r = Domain.DLS.get tls in
      let saved = !r in
      r := Some (mk_view st);
      Fun.protect ~finally:(fun () -> r := saved) f

(* ------------------------------------------------------------------ *)
(* Scope adoption across domains                                       *)
(* ------------------------------------------------------------------ *)

type scope = state option

let no_scope : scope = None
let current_scope () : scope = Option.map (fun dv -> dv.dv_state) (cur ())

(* [with_scope sc f] runs [f] ticking against [sc] from the calling
   domain: a fresh view (own fuel, own allocation baseline) over the
   shared totals, flushed at exit so the coordinator's barrier-time
   counters include this domain's contribution. Re-adopting the scope a
   domain is already viewing is a no-op wrapper — the existing view
   keeps the allocation baseline chain intact. *)
let with_scope (sc : scope) f =
  match sc with
  | None -> f ()
  | Some st -> (
      let r = Domain.DLS.get tls in
      match !r with
      | Some dv when dv.dv_state == st -> f ()
      | saved ->
          let dv = mk_view st in
          r := Some dv;
          Fun.protect
            ~finally:(fun () ->
              flush dv;
              r := saved)
            f)

(* ------------------------------------------------------------------ *)
(* Budget pool                                                         *)
(* ------------------------------------------------------------------ *)

(* A server-wide allowance from which concurrent requests lease
   per-request budgets. The pool is sized for [slots] concurrent
   requests at the template budget; while the pool is oversubscribed
   (more outstanding leases than slots) the leased wall-clock allowance
   shrinks proportionally — total in-flight wall-clock stays bounded by
   [slots × template timeout] — while row/pair/allocation ceilings are
   per-request invariants and lease out unchanged. Mutex-protected:
   leases are taken from the accept loop and connection domains
   concurrently. *)
module Pool = struct
  type t = {
    p_template : budget;
    p_slots : int;
    p_mu : Mutex.t;
    mutable p_active : int;
    mutable p_leased : int;  (* total leases ever granted *)
  }

  let create ?(slots = 1) template =
    {
      p_template = template;
      p_slots = max 1 slots;
      p_mu = Mutex.create ();
      p_active = 0;
      p_leased = 0;
    }

  let lease t =
    Mutex.lock t.p_mu;
    t.p_active <- t.p_active + 1;
    t.p_leased <- t.p_leased + 1;
    let active = t.p_active in
    Mutex.unlock t.p_mu;
    let g_timeout =
      Option.map
        (fun s ->
          if active <= t.p_slots then s
          else Float.max 0.05 (s *. float_of_int t.p_slots /. float_of_int active))
        t.p_template.g_timeout
    in
    { t.p_template with g_timeout }

  let release t =
    Mutex.lock t.p_mu;
    t.p_active <- max 0 (t.p_active - 1);
    Mutex.unlock t.p_mu

  let with_lease t f =
    let b = lease t in
    Fun.protect ~finally:(fun () -> release t) (fun () -> f b)

  let active t =
    Mutex.lock t.p_mu;
    let a = t.p_active in
    Mutex.unlock t.p_mu;
    a

  let leased t =
    Mutex.lock t.p_mu;
    let n = t.p_leased in
    Mutex.unlock t.p_mu;
    n

  let slots t = t.p_slots
end

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

module Faults = struct
  type site = Scan | Join | Sublink

  type trigger = Countdown of int | At_path of string | Seeded of int

  exception Injected of { i_site : site; i_path : string list }

  let site_to_string = function
    | Scan -> "scan"
    | Join -> "join"
    | Sublink -> "sublink"

  type config = {
    f_sites : site list;
    f_trigger : trigger;
    mutable f_remaining : int;
    mutable f_rng : int;
    mutable f_events : int;
    mutable f_fired : int;
  }

  let state : config option ref = ref None
  let armed_flag = ref false

  let arm ?(sites = [ Scan; Join; Sublink ]) trigger =
    state :=
      Some
        {
          f_sites = sites;
          f_trigger = trigger;
          f_remaining = (match trigger with Countdown n -> n | _ -> 0);
          f_rng = (match trigger with Seeded s -> s land 0x3FFFFFFF | _ -> 0);
          f_events = 0;
          f_fired = 0;
        };
    armed_flag := true

  let disarm () =
    state := None;
    armed_flag := false

  let armed () = !armed_flag
  let events () = match !state with None -> 0 | Some c -> c.f_events
  let fired () = match !state with None -> 0 | Some c -> c.f_fired

  let fire_slow site path =
    match !state with
    | None -> ()
    | Some c ->
        if List.mem site c.f_sites then begin
          c.f_events <- c.f_events + 1;
          let fire =
            match c.f_trigger with
            | Countdown _ ->
                c.f_remaining <- c.f_remaining - 1;
                c.f_remaining = 0
            | At_path p ->
                let r = Algebra.Path.to_string path in
                String.equal r p
                || String.length r > String.length p
                   && String.sub r 0 (String.length p + 1) = p ^ "/"
            | Seeded _ ->
                c.f_rng <- ((c.f_rng * 1103515245) + 12345) land 0x3FFFFFFF;
                (c.f_rng lsr 7) mod 10 = 0
          in
          if fire then begin
            c.f_fired <- c.f_fired + 1;
            raise (Injected { i_site = site; i_path = path })
          end
        end

  let fire_point site path = if !armed_flag then fire_slow site path
end
