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

    Domain safety: a scope belongs to the domain that entered it. The
    scope registry is [Domain.DLS]-backed, so server connection
    domains each run their own scope concurrently without sharing
    counters, and a checkpoint is plain loads and stores on the
    calling domain's own record. Nothing adopts another domain's
    scope: every query runs on the domain that called it. *)

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

(* One [with_budget] scope: immutable ceilings, deadline and
   allocation baseline, plus the counters its checkpoints advance.
   Only the domain that entered the scope ever touches it. *)
type scope = {
  s_budget : budget;
  s_deadline : float option;
  s_t0 : float;
  (* ceilings flattened to ints ([max_int] = none) so the per-push
     checkpoint compares without an option match *)
  s_row_limit : int;
  s_pair_limit : int;
  s_alloc0 : float;  (* [allocated_words] at entry *)
  mutable s_rows : int;
  mutable s_pairs : int;
  mutable s_fuel : int;
}

(* The calling domain's innermost active scope. *)
let tls : scope option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let cur () = !(Domain.DLS.get tls)

(* Words the calling domain has allocated: every word allocated in the
   minor heap, plus the words allocated directly in the major heap (its
   allocations that are not promotions). [Gc.allocated_bytes] is not
   used: on OCaml 5.1 it counts the minor heap's uncollected part in
   words, not bytes, so it was off by up to the minor heap's size. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let alloc_mb sc =
  (allocated_words () -. sc.s_alloc0)
  *. float_of_int (Sys.word_size / 8)
  /. 1_048_576.0

let snapshot sc =
  {
    c_rows = sc.s_rows;
    c_pairs = sc.s_pairs;
    c_elapsed = Unix.gettimeofday () -. sc.s_t0;
    c_alloc_mb = alloc_mb sc;
  }

let trip sc path reason =
  raise (Budget_exceeded { t_path = path; t_reason = reason; t_counters = snapshot sc })

let is_active () = cur () <> None

(* Bulk row counting walks an O(n) [Relation.cardinality] at every
   operator exit, so call sites skip it unless a row ceiling is armed;
   per-push counting (streaming operators) stays on under any budget. *)
let counts_rows () =
  match cur () with
  | Some sc -> sc.s_budget.g_max_rows <> None
  | None -> false

let observed () =
  match cur () with
  | None -> { c_rows = 0; c_pairs = 0; c_elapsed = 0.0; c_alloc_mb = 0.0 }
  | Some sc -> snapshot sc

let charged_rows () = match cur () with None -> 0 | Some sc -> sc.s_rows

(* Re-check the clock and the allocation counter; called once every
   [fuel_interval] cheap checkpoints, and on every bulk checkpoint. *)
let slow_check sc path =
  sc.s_fuel <- fuel_interval;
  (match sc.s_deadline with
  | Some d when Unix.gettimeofday () > d ->
      trip sc path (Timed_out (Option.get sc.s_budget.g_timeout))
  | _ -> ());
  match sc.s_budget.g_max_alloc_mb with
  | Some mb when alloc_mb sc > mb -> trip sc path (Alloc_exceeded mb)
  | _ -> ()

let count_rows path n =
  match cur () with
  | None -> ()
  | Some sc ->
      sc.s_rows <- sc.s_rows + n;
      if sc.s_rows > sc.s_row_limit then trip sc path (Rows_exceeded sc.s_row_limit);
      slow_check sc path

let count_pairs path n =
  match cur () with
  | None -> ()
  | Some sc ->
      sc.s_pairs <- sc.s_pairs + n;
      if sc.s_pairs > sc.s_pair_limit then trip sc path (Pairs_exceeded sc.s_pair_limit);
      sc.s_fuel <- sc.s_fuel - 1;
      if sc.s_fuel <= 0 then slow_check sc path

let cross_guard path ~left ~right =
  match cur () with
  | None -> ()
  | Some sc -> (
      match sc.s_budget.g_max_pairs with
      | Some m
        when float_of_int left *. float_of_int right
             > float_of_int (max 0 (m - sc.s_pairs)) ->
          trip sc path (Pairs_exceeded m)
      | _ -> ())

let tick path =
  match cur () with
  | None -> ()
  | Some sc ->
      sc.s_fuel <- sc.s_fuel - 1;
      if sc.s_fuel <= 0 then slow_check sc path

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
      let sc =
        {
          s_budget = b;
          s_deadline = Option.map (fun s -> now +. s) b.g_timeout;
          s_t0 = now;
          s_row_limit = Option.value ~default:max_int b.g_max_rows;
          s_pair_limit = Option.value ~default:max_int b.g_max_pairs;
          s_alloc0 = allocated_words ();
          s_rows = 0;
          s_pairs = 0;
          s_fuel = fuel_interval;
        }
      in
      let r = Domain.DLS.get tls in
      let saved = !r in
      r := Some sc;
      Fun.protect ~finally:(fun () -> r := saved) f

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
