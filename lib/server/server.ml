(** The provenance server: a domain-per-connection accept loop with
    admission control and graceful degradation.

    Connections are handled one domain each, because Guard budget
    scopes are [Domain.DLS]-keyed — giving every in-flight request its
    own domain is what lets every request run under its own budget
    without interference.

    Admission control has two layers. (1) A session cap: accepted
    connections beyond [c_max_sessions] get a typed [Overloaded]
    response and are closed before a domain is spawned. (2) A token
    bucket on concurrent {e evaluations}: [c_eval_slots] tokens; a
    request finding none waits in a bounded queue, and beyond
    [c_queue_limit] waiters the request is shed with [Overloaded] and a
    retry-after hint. An admitted request runs under its session's
    budget override, else the server's [c_budget]; a blown budget
    degrades through {!Resilience.run_ladder} (Unn → Move → Left → Gen)
    instead of killing the connection.

    Deterministic wire-fault injection ([c_faults]) fires at the
    accept/read/write boundaries from a seeded PRNG, modelling peer
    resets; the bench harness uses it to prove the server never wedges,
    never leaks sessions and never returns a wrong answer under faults.

    Graceful drain: {!drain} stops accepting, lets in-flight requests
    finish under a deadline, then force-closes what remains; every
    handler domain is joined before it returns, so no session can
    leak past it. *)

open Relalg
open Core

(* ------------------------------------------------------------------ *)
(* Deterministic wire faults                                           *)
(* ------------------------------------------------------------------ *)

(* A plan is its seed; every boundary fires with one probability. *)
type fault_plan = int

let fault_plan seed = seed
let fault_rate = 0.05

(* Shared seeded LCG behind a mutex: boundary crossings from any domain
   draw from one deterministic stream, so a pinned seed pins the total
   fault mix (though not its assignment to connections, which depends
   on scheduling). *)
type fault_state = {
  fs_mu : Mutex.t;
  mutable fs_lcg : int;
  mutable fs_fired : int;
}

let fault_state seed =
  {
    fs_mu = Mutex.create ();
    fs_lcg = ((seed * 0x9E3779B1) lor 1) land 0x3FFFFFFF;
    fs_fired = 0;
  }

let fault_fires st =
  Mutex.lock st.fs_mu;
  st.fs_lcg <- (st.fs_lcg * 1103515245 + 12345) land 0x3FFFFFFF;
  let u = float_of_int st.fs_lcg /. float_of_int 0x40000000 in
  let fire = u < fault_rate in
  if fire then st.fs_fired <- st.fs_fired + 1;
  Mutex.unlock st.fs_mu;
  fire

exception Wire_fault

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  c_host : string;
  c_port : int;  (** 0 picks an ephemeral port; see {!port} *)
  c_snapshot : Database.t;
  c_snapshots : (string * (unit -> Database.t)) list;
      (** named snapshots servable via [Load_snapshot] *)
  c_max_sessions : int;
  c_eval_slots : int;
  c_queue_limit : int;
  c_budget : Guard.budget option;
      (** every request's budget; a session's own budget override wins *)
  c_drain_deadline : float;
  c_max_result_rows : int;
  c_faults : fault_plan option;
  c_on_eval : (unit -> unit) option;
      (** test hook, called while holding an eval token *)
}

let config ?(host = "127.0.0.1") ?(port = 0) ?(snapshots = [])
    ?(max_sessions = 64) ?(eval_slots = 4) ?(queue_limit = 16) ?budget
    ?(drain_deadline = 5.0) ?(max_result_rows = 10_000) ?faults
    ?on_eval snapshot =
  {
    c_host = host;
    c_port = port;
    c_snapshot = snapshot;
    c_snapshots = snapshots;
    c_max_sessions = max_sessions;
    c_eval_slots = max 1 eval_slots;
    c_queue_limit = max 0 queue_limit;
    c_budget = budget;
    c_drain_deadline = drain_deadline;
    c_max_result_rows = max_result_rows;
    c_faults = faults;
    c_on_eval = on_eval;
  }

(* ------------------------------------------------------------------ *)
(* Admission gate: token bucket + bounded wait queue                   *)
(* ------------------------------------------------------------------ *)

type gate = {
  ga_mu : Mutex.t;
  ga_cond : Condition.t;
  ga_slots : int;
  ga_queue_limit : int;
  mutable ga_tokens : int;
  mutable ga_waiting : int;
  mutable ga_open : bool;  (* closed during forced drain: waiters shed *)
}

let gate ~slots ~queue_limit =
  {
    ga_mu = Mutex.create ();
    ga_cond = Condition.create ();
    ga_slots = slots;
    ga_queue_limit = queue_limit;
    ga_tokens = slots;
    ga_waiting = 0;
    ga_open = true;
  }

(* Deterministic hint: half a slot-time guess per queued request ahead
   of the shed one. Clients treat it as a floor for their backoff. *)
let retry_after_hint g = 0.02 *. float_of_int (g.ga_waiting + 1)

let gate_admit g =
  Mutex.lock g.ga_mu;
  let r =
    if not g.ga_open then `Shed 0.1
    else if g.ga_tokens > 0 then begin
      g.ga_tokens <- g.ga_tokens - 1;
      `Admitted
    end
    else if g.ga_waiting >= g.ga_queue_limit then `Shed (retry_after_hint g)
    else begin
      g.ga_waiting <- g.ga_waiting + 1;
      while g.ga_tokens = 0 && g.ga_open do
        Condition.wait g.ga_cond g.ga_mu
      done;
      g.ga_waiting <- g.ga_waiting - 1;
      if not g.ga_open then `Shed 0.1
      else begin
        g.ga_tokens <- g.ga_tokens - 1;
        `Admitted
      end
    end
  in
  Mutex.unlock g.ga_mu;
  r

let gate_release g =
  Mutex.lock g.ga_mu;
  g.ga_tokens <- min g.ga_slots (g.ga_tokens + 1);
  Condition.signal g.ga_cond;
  Mutex.unlock g.ga_mu

(* Forced drain: shed every queued waiter so handler domains can be
   joined even if a token never frees. *)
let gate_close g =
  Mutex.lock g.ga_mu;
  g.ga_open <- false;
  Condition.broadcast g.ga_cond;
  Mutex.unlock g.ga_mu

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type counters = {
  mutable n_accepted : int;
  mutable n_rejected_cap : int;
  mutable n_sessions_opened : int;
  mutable n_sessions_closed : int;
  mutable n_requests : int;
  mutable n_queries_ok : int;
  mutable n_queries_err : int;
  mutable n_shed : int;
  mutable n_degraded : int;  (* answered only after ladder fallback *)
  mutable n_violations : int;
  mutable n_faults : int;  (* wire faults actually applied *)
  mutable n_internal : int;  (* unexpected handler exceptions *)
}

type t = {
  sv_cfg : config;
  sv_listen : Unix.file_descr;
  sv_port : int;
  sv_store : Session.store;
  sv_gate : gate;
  sv_faults : fault_state option;
  sv_mu : Mutex.t;
  sv_done : Condition.t;  (* signalled when a handler exits *)
  sv_ctr : counters;
  mutable sv_draining : bool;
  mutable sv_next_id : int;
  mutable sv_live : (int * Unix.file_descr) list;  (* open connections *)
  mutable sv_domains : unit Domain.t list;
  mutable sv_accept : unit Domain.t option;
}

let locked sv f =
  Mutex.lock sv.sv_mu;
  let r = f () in
  Mutex.unlock sv.sv_mu;
  r

let port sv = sv.sv_port
let store sv = sv.sv_store

let stats sv =
  locked sv (fun () ->
      let c = sv.sv_ctr in
      [
        ("accepted", float_of_int c.n_accepted);
        ("rejected_cap", float_of_int c.n_rejected_cap);
        ("sessions_opened", float_of_int c.n_sessions_opened);
        ("sessions_closed", float_of_int c.n_sessions_closed);
        ("sessions_active", float_of_int (c.n_sessions_opened - c.n_sessions_closed));
        ("requests", float_of_int c.n_requests);
        ("queries_ok", float_of_int c.n_queries_ok);
        ("queries_err", float_of_int c.n_queries_err);
        ("shed", float_of_int c.n_shed);
        ("degraded", float_of_int c.n_degraded);
        ("violations", float_of_int c.n_violations);
        ("faults_injected", float_of_int c.n_faults);
        ("internal_errors", float_of_int c.n_internal);
        ("epoch", float_of_int (Session.epoch sv.sv_store));
        ("epoch_swaps", float_of_int (Session.swaps sv.sv_store));
      ])

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let detail_kind = function
  | Resilience.Message _ -> "message"
  | Resilience.Budget _ -> "budget"
  | Resilience.Fault _ -> "fault"
  | Resilience.Lint _ -> "lint"
  | Resilience.Unsupported _ -> "unsupported"
  | Resilience.Overloaded _ -> "overloaded"
  | Resilience.Violation _ -> "violation"

let error_response (e : Resilience.error) =
  match e.Resilience.e_detail with
  | Resilience.Overloaded { retry_after } -> Protocol.Overloaded { retry_after }
  | d ->
      Protocol.Error_msg
        {
          e_phase = Resilience.phase_to_string e.Resilience.e_phase;
          e_kind = detail_kind d;
          e_msg = Resilience.error_to_string e;
        }

let bump sv f = locked sv (fun () -> f sv.sv_ctr)

(* The reply to a query that was answered. *)
let answered sv resp =
  bump sv (fun c -> c.n_queries_ok <- c.n_queries_ok + 1);
  Protocol.encode_response resp

(* The [Result] frame of [r], written straight from its values. An
   answer whose frame would pass the frame limit gets a typed error
   instead, and the connection stays usable. *)
let result_frame sv (r : Perm.result) =
  let rel = r.Perm.relation in
  let max_rows = sv.sv_cfg.c_max_result_rows in
  let ladder =
    match r.Perm.ladder with
    | Some l when l.Resilience.lad_abandoned <> [] ->
        Some (Resilience.ladder_to_string l)
    | _ -> None
  in
  match Protocol.encode_result ~max_rows ~ladder rel with
  | Ok frame ->
      bump sv (fun c -> c.n_queries_ok <- c.n_queries_ok + 1);
      frame
  | Error bytes ->
      bump sv (fun c -> c.n_queries_err <- c.n_queries_err + 1);
      Protocol.encode_response
        (Protocol.Error_msg
           {
             e_phase = "protocol";
             e_kind = "oversized";
             e_msg =
               Printf.sprintf
                 "result of %d rows encodes to %d bytes, over the %d-byte frame limit"
                 (Int.min max_rows (Relation.cardinality rel))
                 bytes Protocol.max_frame;
           })

(* Evaluate one SQL statement for [session] under admission control;
   the reply's frame. *)
let eval_query sv session sql =
  match gate_admit sv.sv_gate with
  | `Shed retry_after ->
      bump sv (fun c -> c.n_shed <- c.n_shed + 1);
      Protocol.encode_response (Protocol.Overloaded { retry_after })
  | `Admitted ->
      Fun.protect
        ~finally:(fun () -> gate_release sv.sv_gate)
        (fun () ->
          (match sv.sv_cfg.c_on_eval with Some h -> h () | None -> ());
          let db, _epoch = Session.pin session in
          (* A session's own budget wins over the server's. *)
          let budget =
            match Session.budget session with
            | Some _ as b -> b
            | None -> sv.sv_cfg.c_budget
          in
          let res =
            Perm.exec db ~strategy:(Session.strategy session) ?budget
              ~fallback:true sql
          in
          Session.note session res;
          match res with
          | Perm.Rows r ->
              (match r.Perm.ladder with
              | Some l when l.Resilience.lad_abandoned <> [] ->
                  bump sv (fun c -> c.n_degraded <- c.n_degraded + 1)
              | _ -> ());
              result_frame sv r
          | Perm.Created_view n -> answered sv (Protocol.Ok_msg ("created view " ^ n))
          | Perm.Created_table (n, k) ->
              answered sv
                (Protocol.Ok_msg (Printf.sprintf "created table %s (%d rows)" n k))
          | Perm.Dropped n -> answered sv (Protocol.Ok_msg ("dropped " ^ n)))

(* The reply's frame. *)
let handle_request sv session (req : Protocol.request) =
  let reply = Protocol.encode_response in
  match req with
  | Protocol.Ping -> reply Protocol.Pong
  | Protocol.Stats -> reply (Protocol.Stats_msg (stats sv))
  | Protocol.Set_strategy s -> (
      match Strategy.of_string s with
      | st ->
          Session.set_strategy session st;
          reply (Protocol.Ok_msg ("strategy " ^ s))
      | exception Invalid_argument m ->
          reply (Protocol.Error_msg { e_phase = "protocol"; e_kind = "message"; e_msg = m }))
  | Protocol.Set_budget b ->
      Session.set_budget session
        (if Guard.is_unlimited b then None else Some b);
      reply (Protocol.Ok_msg ("budget " ^ Guard.budget_to_string b))
  | Protocol.Load_snapshot name -> (
      match List.assoc_opt name sv.sv_cfg.c_snapshots with
      | None ->
          reply
            (Protocol.Error_msg
               {
                 e_phase = "protocol";
                 e_kind = "message";
                 e_msg = "unknown snapshot " ^ name;
               })
      | Some build -> (
          match build () with
          | db ->
              let e = Session.swap sv.sv_store db in
              reply (Protocol.Ok_msg (Printf.sprintf "snapshot %s at epoch %d" name e))
          | exception exn ->
              reply
                (Protocol.Error_msg
                   {
                     e_phase = "load";
                     e_kind = "message";
                     e_msg = Printexc.to_string exn;
                   })))
  | Protocol.Query sql -> (
      match eval_query sv session sql with
      | frame -> frame
      | exception Resilience.Perm_error e ->
          bump sv (fun c -> c.n_queries_err <- c.n_queries_err + 1);
          reply (error_response e))

(* ------------------------------------------------------------------ *)
(* Connection handler                                                  *)
(* ------------------------------------------------------------------ *)

let faulty_recv sv fd =
  match sv.sv_faults with
  | Some fs when fault_fires fs ->
      bump sv (fun c -> c.n_faults <- c.n_faults + 1);
      raise Wire_fault
  | _ -> Protocol.recv_request fd

let faulty_send sv fd frame =
  match sv.sv_faults with
  | Some fs when fault_fires fs ->
      bump sv (fun c -> c.n_faults <- c.n_faults + 1);
      raise Wire_fault
  | _ -> Protocol.send_frame fd frame

let handle_connection sv id fd =
  let session = Session.create sv.sv_store ~id in
  bump sv (fun c -> c.n_sessions_opened <- c.n_sessions_opened + 1);
  let rec loop () =
    match faulty_recv sv fd with
    | Protocol.Closed -> ()
    | Protocol.Violated v ->
        bump sv (fun c -> c.n_violations <- c.n_violations + 1);
        let resp =
          Protocol.Error_msg
            {
              e_phase = "protocol";
              e_kind = "violation";
              e_msg = Protocol.violation_to_string v;
            }
        in
        (* Best effort even on fatal violations — the peer may already
           be gone. *)
        (try faulty_send sv fd (Protocol.encode_response resp) with _ -> ());
        if not (Protocol.fatal v) then loop ()
    | Protocol.Got req ->
        bump sv (fun c -> c.n_requests <- c.n_requests + 1);
        let frame =
          match handle_request sv session req with
          | frame -> frame
          | exception Wire_fault -> raise Wire_fault
          | exception exn ->
              (* A handler bug must cost one request, not the server. *)
              bump sv (fun c ->
                  c.n_internal <- c.n_internal + 1;
                  c.n_queries_err <- c.n_queries_err + 1);
              Protocol.encode_response
                (Protocol.Error_msg
                   {
                     e_phase = "eval";
                     e_kind = "internal";
                     e_msg = Printexc.to_string exn;
                   })
        in
        faulty_send sv fd frame;
        loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with _ -> ());
      locked sv (fun () ->
          sv.sv_ctr.n_sessions_closed <- sv.sv_ctr.n_sessions_closed + 1;
          sv.sv_live <- List.filter (fun (i, _) -> i <> id) sv.sv_live;
          Condition.broadcast sv.sv_done))
    (fun () ->
      try loop () with
      | Wire_fault -> () (* injected reset: drop the connection *)
      | Unix.Unix_error _ | Sys_error _ -> () (* real peer reset *))

(* ------------------------------------------------------------------ *)
(* Accept loop and lifecycle                                           *)
(* ------------------------------------------------------------------ *)

let accept_loop sv =
  let rec loop () =
    match Unix.accept sv.sv_listen with
    | exception
        Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
      ->
        () (* listener shut down: drain started *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | fd, _addr ->
        if sv.sv_draining then (try Unix.close fd with _ -> ())
        else begin
          bump sv (fun c -> c.n_accepted <- c.n_accepted + 1);
          (match sv.sv_faults with
          | Some fs when fault_fires fs ->
              (* Injected accept-time reset. *)
              bump sv (fun c -> c.n_faults <- c.n_faults + 1);
              (try Unix.close fd with _ -> ())
          | _ ->
              let active =
                locked sv (fun () -> List.length sv.sv_live)
              in
              if active >= sv.sv_cfg.c_max_sessions then begin
                bump sv (fun c -> c.n_rejected_cap <- c.n_rejected_cap + 1);
                (try
                   Protocol.send_response fd
                     (Protocol.Overloaded { retry_after = 0.1 })
                 with _ -> ());
                try Unix.close fd with _ -> ()
              end
              else begin
                let id =
                  locked sv (fun () ->
                      let id = sv.sv_next_id in
                      sv.sv_next_id <- id + 1;
                      sv.sv_live <- (id, fd) :: sv.sv_live;
                      id)
                in
                let d = Domain.spawn (fun () -> handle_connection sv id fd) in
                locked sv (fun () -> sv.sv_domains <- d :: sv.sv_domains)
              end);
          loop ()
        end
  in
  loop ()

let start cfg =
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string cfg.c_host, cfg.c_port) in
  Unix.bind listen addr;
  Unix.listen listen 64;
  let sv_port =
    match Unix.getsockname listen with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.c_port
  in
  let sv =
    {
      sv_cfg = cfg;
      sv_listen = listen;
      sv_port;
      sv_store = Session.store cfg.c_snapshot;
      sv_gate = gate ~slots:cfg.c_eval_slots ~queue_limit:cfg.c_queue_limit;
      sv_faults = Option.map fault_state cfg.c_faults;
      sv_mu = Mutex.create ();
      sv_done = Condition.create ();
      sv_ctr =
        {
          n_accepted = 0;
          n_rejected_cap = 0;
          n_sessions_opened = 0;
          n_sessions_closed = 0;
          n_requests = 0;
          n_queries_ok = 0;
          n_queries_err = 0;
          n_shed = 0;
          n_degraded = 0;
          n_violations = 0;
          n_faults = 0;
          n_internal = 0;
        };
      sv_draining = false;
      sv_next_id = 1;
      sv_live = [];
      sv_domains = [];
      sv_accept = None;
    }
  in
  sv.sv_accept <- Some (Domain.spawn (fun () -> accept_loop sv));
  sv

let faults_injected sv =
  match sv.sv_faults with
  | Some fs ->
      Mutex.lock fs.fs_mu;
      let n = fs.fs_fired in
      Mutex.unlock fs.fs_mu;
      n
  | None -> 0

(* [drain sv] stops accepting and waits for in-flight sessions under
   the drain deadline; leftovers are force-closed (their handlers exit
   on the resulting I/O error). Returns [true] when everything finished
   within the deadline. All handler domains are joined either way. *)
let drain sv =
  locked sv (fun () -> sv.sv_draining <- true);
  (* shutdown (not close) wakes the blocked accept on Linux; the fd is
     closed only after the acceptor has been joined, so it cannot race
     with fd reuse. *)
  (try Unix.shutdown sv.sv_listen Unix.SHUTDOWN_ALL with _ -> ());
  let acceptor = locked sv (fun () -> let a = sv.sv_accept in sv.sv_accept <- None; a) in
  Option.iter Domain.join acceptor;
  (try Unix.close sv.sv_listen with _ -> ());
  let deadline = Unix.gettimeofday () +. sv.sv_cfg.c_drain_deadline in
  let clean = ref true in
  Mutex.lock sv.sv_mu;
  while sv.sv_live <> [] && Unix.gettimeofday () < deadline do
    (* Coarse poll: Condition has no timed wait. *)
    Mutex.unlock sv.sv_mu;
    Unix.sleepf 0.02;
    Mutex.lock sv.sv_mu
  done;
  if sv.sv_live <> [] then begin
    clean := false;
    List.iter
      (fun (_, fd) -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
      sv.sv_live
  end;
  let domains = sv.sv_domains in
  sv.sv_domains <- [];
  Mutex.unlock sv.sv_mu;
  if not !clean then gate_close sv.sv_gate;
  List.iter Domain.join domains;
  !clean

let stop sv = ignore (drain sv)
