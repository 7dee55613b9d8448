(** Length-prefixed request/response wire protocol for the provenance
    server: 4-byte big-endian frame length, then a versioned tagged
    payload. See protocol.ml for the layout. The decoder never raises
    on peer input: every deviation becomes a typed {!violation},
    {!fatal} ones costing the connection, recoverable ones costing one
    error response. *)

open Relalg

(** Current protocol version byte. *)
val version : int

(** Hard ceiling on payload size; larger declared frames are rejected
    before allocation. *)
val max_frame : int

type request =
  | Ping
  | Query of string  (** SQL, [SELECT PROVENANCE] included *)
  | Set_strategy of string  (** ["gen"|"left"|"move"|"unn"] *)
  | Set_budget of Guard.budget  (** session budget override *)
  | Load_snapshot of string  (** named snapshot — swaps the epoch *)
  | Stats

type response =
  | Pong
  | Ok_msg of string
  | Result of {
      r_cols : string list;
      r_rows : string list list;  (** values rendered as strings *)
      r_ladder : string option;
          (** how the fallback ladder concluded, when one ran *)
    }
  | Error_msg of { e_phase : string; e_kind : string; e_msg : string }
  | Overloaded of { retry_after : float }  (** admission control shed *)
  | Stats_msg of (string * float) list

type violation =
  | Oversized of int
  | Truncated
  | Bad_version of int
  | Bad_tag of int
  | Malformed of string

(** Whether the violation desynchronized the stream (connection must
    close). Recoverable violations consumed exactly one frame. *)
val fatal : violation -> bool

val violation_to_string : violation -> string

type 'a recv = Got of 'a | Violated of violation | Closed

(** {1 Pure encode/decode} — shared with the protocol fuzzer. *)

(** [encode_request r] / [encode_response r] is the complete frame
    (header included). *)
val encode_request : request -> bytes

val encode_response : response -> bytes

(** [encode_result ~max_rows ~ladder rel] is the [Result] frame of the
    first [max_rows] tuples of [rel], each cell written straight from
    its value: the bytes of [encode_response] on the same rows rendered
    by {!Relalg.Tuple.render}, with no string built per cell.
    [Error n] when the payload would take [n] bytes, over
    {!max_frame}; the frame is then never allocated. *)
val encode_result :
  max_rows:int -> ladder:string option -> Relation.t -> (bytes, int) result

(** [decode_request payload] / [decode_response payload] parse a frame
    payload (header already stripped). *)
val decode_request : bytes -> (request, violation) result

val decode_response : bytes -> (response, violation) result

(** {1 Socket I/O} — blocking, [EINTR]-safe. *)

val send_frame : Unix.file_descr -> bytes -> unit

(** [recv_frame fd] is [Closed] on clean EOF at a frame boundary,
    [Violated Truncated] on EOF mid-frame, [Violated (Oversized _)] on
    an absurd length prefix. *)
val recv_frame : Unix.file_descr -> bytes recv

val send_request : Unix.file_descr -> request -> unit
val send_response : Unix.file_descr -> response -> unit
val recv_request : Unix.file_descr -> request recv
val recv_response : Unix.file_descr -> response recv
