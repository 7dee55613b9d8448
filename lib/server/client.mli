(** Blocking client with per-call timeouts and jittered-exponential
    reconnect (seeded, deterministic under test). *)

type t

exception Client_error of string

(** [create ?timeout ?retries ?base ?cap ?seed ~host ~port ()] builds a
    lazily connecting client: [timeout] bounds each send/receive,
    reconnect pause [k] is [base * 2^k] capped at [cap] and jittered by
    the PRNG seeded with [seed]. *)
val create :
  ?timeout:float ->
  ?retries:int ->
  ?base:float ->
  ?cap:float ->
  ?seed:int ->
  host:string ->
  port:int ->
  unit ->
  t

(** [request cl req] sends [req], reconnecting and retrying on
    connection failure; returns the response and the number of retries
    it took (0 = first attempt). Raises {!Client_error} once [retries]
    attempts are exhausted, and at once when [req] was sent whole but
    no reply came within the timeout: the request may still be running
    on the server, and is not sent again. Note a retried [Query]
    carrying DDL may execute twice if the failure hit after the server
    applied it. *)
val request : t -> Protocol.request -> Protocol.response * int

(** Total reconnect attempts so far. *)
val reconnects : t -> int

val close : t -> unit

(** [session_setup ~strategy budget] — the requests that put a fresh
    session into a client's command-line state before its first
    statement: the strategy unless it is the server's [gen] default (or
    [auto]), and the budget unless unlimited. *)
val session_setup : strategy:string -> Relalg.Guard.budget -> Protocol.request list
