(** Blocking client for the provenance server, with per-call timeouts
    and jittered-exponential-backoff reconnect.

    A connection failure (refused, reset, closed, a send that timed
    out, protocol violation from the server side) tears the socket down
    and retries after a pause of [base * 2^k] capped at [cap] and scaled
    by a seeded jitter factor in [0.5, 1.0) — deterministic under test,
    desynchronized between clients via the seed. Requests are retried
    transparently up to [retries] times; all protocol requests here are
    idempotent except [Query] of DDL, which callers should not blindly
    retry through a failure — {!request} therefore reports the retry
    count so harnesses can account for duplicates.

    A request that was sent whole and got no reply within the timeout
    is not retried: the server may still be evaluating it, and a resend
    would start a second evaluation beside the first. *)

type t = {
  cl_addr : Unix.sockaddr;
  cl_timeout : float;
  cl_retries : int;
  cl_base : float;
  cl_cap : float;
  mutable cl_jitter : int;
  mutable cl_fd : Unix.file_descr option;
  mutable cl_reconnects : int;
}

exception Client_error of string

let next_jitter cl =
  cl.cl_jitter <- (cl.cl_jitter * 1103515245 + 12345) land 0x3FFFFFFF;
  0.5 +. (0.5 *. (float_of_int cl.cl_jitter /. float_of_int 0x40000000))

(* Accept dotted quads and hostnames alike; resolution failures become
   Client_error rather than an untyped Failure from Unix. *)
let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception _ -> (
      match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
      | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ -> addr
      | _ -> raise (Client_error ("cannot resolve host " ^ host)))

let create ?(timeout = 10.0) ?(retries = 5) ?(base = 0.02) ?(cap = 1.0)
    ?(seed = 0) ~host ~port () =
  {
    cl_addr = Unix.ADDR_INET (resolve host, port);
    cl_timeout = timeout;
    cl_retries = max 0 retries;
    cl_base = base;
    cl_cap = cap;
    cl_jitter = ((seed * 0x9E3779B1) lor 1) land 0x3FFFFFFF;
    cl_fd = None;
    cl_reconnects = 0;
  }

let disconnect cl =
  match cl.cl_fd with
  | Some fd ->
      (try Unix.close fd with _ -> ());
      cl.cl_fd <- None
  | None -> ()

let close = disconnect
let reconnects cl = cl.cl_reconnects

let ensure_connected cl =
  match cl.cl_fd with
  | Some fd -> fd
  | None ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         if cl.cl_timeout > 0. then begin
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO cl.cl_timeout;
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO cl.cl_timeout
         end;
         Unix.connect fd cl.cl_addr
       with e ->
         (try Unix.close fd with _ -> ());
         raise e);
      cl.cl_fd <- Some fd;
      fd

(* One attempt: connect if needed, send, await the response. Any
   failure mode maps to [Error reason] with the socket torn down; a
   receive timeout after a complete send raises {!Client_error}, since
   retrying it would evaluate the request again. *)
let attempt cl req =
  match
    let fd = ensure_connected cl in
    Protocol.send_request fd req;
    match Protocol.recv_response fd with
    | r -> r
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        disconnect cl;
        raise
          (Client_error
             (Printf.sprintf
                "no reply within %g s; the request was sent and may still \
                 be running on the server"
                cl.cl_timeout))
  with
  | Protocol.Got resp -> Ok resp
  | Protocol.Closed ->
      disconnect cl;
      Error "connection closed by server"
  | Protocol.Violated v ->
      (* The server broke framing towards us — do not trust the stream. *)
      disconnect cl;
      Error (Protocol.violation_to_string v)
  | exception Unix.Unix_error (e, _, _) ->
      disconnect cl;
      Error (Unix.error_message e)
  | exception Sys_error m ->
      disconnect cl;
      Error m

let request cl req =
  let rec go k last =
    if k > cl.cl_retries then
      raise
        (Client_error
           (Printf.sprintf "request failed after %d attempts: %s" k last))
    else begin
      if k > 0 then begin
        cl.cl_reconnects <- cl.cl_reconnects + 1;
        let pause =
          Float.min cl.cl_cap (cl.cl_base *. (2. ** float_of_int (k - 1)))
          *. next_jitter cl
        in
        if pause > 0. then Unix.sleepf pause
      end;
      match attempt cl req with
      | Ok resp -> (resp, k)
      | Error reason -> go (k + 1) reason
    end
  in
  go 0 "no attempt made"

let session_setup ~strategy budget =
  List.concat
    [
      (if strategy = "gen" || strategy = "auto" then []
       else [ Protocol.Set_strategy strategy ]);
      (if Relalg.Guard.is_unlimited budget then [] else [ Protocol.Set_budget budget ]);
    ]
