(** Length-prefixed request/response wire protocol for the provenance
    server.

    Frame layout: a 4-byte big-endian payload length, then the payload.
    Payload layout: one version byte ({!version}), one tag byte, then
    tag-specific fields (strings are 4-byte-length-prefixed, floats are
    IEEE-754 bits big-endian, options are a presence byte). The frame
    length is bounded by {!max_frame}; anything larger is rejected
    before allocation.

    The decoder is tolerant by construction: every way a peer can
    deviate — truncated stream, oversized or absurd length prefix,
    unknown version or tag, fields overrunning the payload — maps to a
    typed {!violation} instead of an exception. Violations that leave
    the framing intact (the frame was fully consumed) are {e
    recoverable}: the server answers with a typed error and keeps the
    connection. Violations that desynchronize the stream ([Oversized],
    [Truncated]) are fatal to the connection, never to the server. *)

open Relalg

let version = 1
let max_frame = 1 lsl 20 (* 1 MiB *)

type request =
  | Ping
  | Query of string
  | Set_strategy of string
  | Set_budget of Guard.budget
  | Load_snapshot of string
  | Stats

type response =
  | Pong
  | Ok_msg of string
  | Result of {
      r_cols : string list;
      r_rows : string list list;
      r_ladder : string option;
    }
  | Error_msg of { e_phase : string; e_kind : string; e_msg : string }
  | Overloaded of { retry_after : float }
  | Stats_msg of (string * float) list

type violation =
  | Oversized of int  (** declared frame length beyond {!max_frame} *)
  | Truncated  (** the peer vanished mid-frame *)
  | Bad_version of int
  | Bad_tag of int
  | Malformed of string  (** fields inconsistent with the frame length *)

(* A violation is fatal when the byte stream can no longer be framed:
   an oversized declaration or a mid-frame disconnect leaves no safe
   resynchronization point. Everything else consumed exactly one frame
   and the next frame can be parsed normally. *)
let fatal = function
  | Oversized _ | Truncated -> true
  | Bad_version _ | Bad_tag _ | Malformed _ -> false

let violation_to_string = function
  | Oversized n -> Printf.sprintf "frame of %d bytes exceeds %d" n max_frame
  | Truncated -> "stream truncated mid-frame"
  | Bad_version v -> Printf.sprintf "unknown protocol version %d" v
  | Bad_tag t -> Printf.sprintf "unknown message tag 0x%02x" t
  | Malformed m -> "malformed frame: " ^ m

type 'a recv = Got of 'a | Violated of violation | Closed

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* A frame is written into one buffer of its exact final size. Each
   message's layout is described once, as a function over a writer:
   [frame] runs it first over a counting writer, which only advances
   its position, then over a writer into the frame it allocated from
   that count. The frame is the only copy of the message. *)

type writer = { w_buf : bytes; mutable w_pos : int; w_counting : bool }

let put_u8 w n =
  if not w.w_counting then Bytes.set_uint8 w.w_buf w.w_pos (n land 0xff);
  w.w_pos <- w.w_pos + 1

let put_u32 w n =
  if not w.w_counting then Bytes.set_int32_be w.w_buf w.w_pos (Int32.of_int n);
  w.w_pos <- w.w_pos + 4

let put_f64 w f =
  if not w.w_counting then Bytes.set_int64_be w.w_buf w.w_pos (Int64.bits_of_float f);
  w.w_pos <- w.w_pos + 8

let put_string w s =
  let n = String.length s in
  put_u32 w n;
  if not w.w_counting then Bytes.blit_string s 0 w.w_buf w.w_pos n;
  w.w_pos <- w.w_pos + n

(* A value as the string field of its text: written in place behind
   its length, which the write itself returns. *)
let put_value w v =
  if w.w_counting then w.w_pos <- w.w_pos + 4 + Value.text_length v
  else begin
    let n = Value.write_text v w.w_buf (w.w_pos + 4) in
    put_u32 w n;
    w.w_pos <- w.w_pos + n
  end

let put_opt w put = function
  | None -> put_u8 w 0
  | Some v ->
      put_u8 w 1;
      put w v

let rec put_all w put = function
  | [] -> ()
  | x :: rest ->
      put w x;
      put_all w put rest

let put_list w put xs =
  put_u32 w (List.length xs);
  put_all w put xs

(* The one [Result] layout, over any row type: the first [max_rows] of
   [rows] are sent, and [put_row] puts one row's cells. *)
let put_result w ~put_row ~max_rows ~cols ~ladder rows =
  let rec count k = function _ :: rest when k < max_rows -> count (k + 1) rest | _ -> k in
  let rec put_rows k = function
    | row :: rest when k > 0 ->
        put_row w row;
        put_rows (k - 1) rest
    | _ -> ()
  in
  let n = count 0 rows in
  put_u8 w 0x83;
  put_list w put_string cols;
  put_u32 w n;
  put_rows n rows;
  put_opt w put_string ladder

(* The payload length of [body]'s message, by a counting run. *)
let payload_length body =
  let counter = { w_buf = Bytes.empty; w_pos = 0; w_counting = true } in
  body counter;
  1 + counter.w_pos

let fill len body =
  let w = { w_buf = Bytes.create (4 + len); w_pos = 0; w_counting = false } in
  put_u32 w len;
  put_u8 w version;
  body w;
  w.w_buf

let frame body = fill (payload_length body) body

let encode_request r =
  frame (fun w ->
      match r with
      | Ping -> put_u8 w 0x01
      | Query sql ->
          put_u8 w 0x02;
          put_string w sql
      | Set_strategy s ->
          put_u8 w 0x03;
          put_string w s
      | Set_budget g ->
          put_u8 w 0x05;
          put_opt w put_f64 g.Guard.g_timeout;
          put_opt w put_u32 g.Guard.g_max_rows;
          put_opt w put_u32 g.Guard.g_max_pairs;
          put_opt w put_f64 g.Guard.g_max_alloc_mb
      | Load_snapshot name ->
          put_u8 w 0x06;
          put_string w name
      | Stats -> put_u8 w 0x07)

let encode_response r =
  frame (fun w ->
      match r with
      | Pong -> put_u8 w 0x81
      | Ok_msg m ->
          put_u8 w 0x82;
          put_string w m
      | Result { r_cols; r_rows; r_ladder } ->
          put_result w
            ~put_row:(fun w row -> put_list w put_string row)
            ~max_rows:max_int ~cols:r_cols ~ladder:r_ladder r_rows
      | Error_msg { e_phase; e_kind; e_msg } ->
          put_u8 w 0x84;
          put_string w e_phase;
          put_string w e_kind;
          put_string w e_msg
      | Overloaded { retry_after } ->
          put_u8 w 0x85;
          put_f64 w retry_after
      | Stats_msg kvs ->
          put_u8 w 0x86;
          put_list w
            (fun w (k, v) ->
              put_string w k;
              put_f64 w v)
            kvs)

let put_tuple w (t : Tuple.t) =
  put_u32 w (Array.length t);
  for i = 0 to Array.length t - 1 do
    put_value w (Array.unsafe_get t i)
  done

let encode_result ~max_rows ~ladder rel =
  let body w =
    put_result w ~put_row:put_tuple ~max_rows
      ~cols:(Schema.names (Relation.schema rel))
      ~ladder (Relation.tuples rel)
  in
  let len = payload_length body in
  if len > max_frame then Error len else Ok (fill len body)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Bad of violation

(* Each field is read after one check that it fits in the payload,
   which is what makes the unchecked byte and string reads safe. *)
type cursor = { c_buf : bytes; mutable c_pos : int }

let need c n =
  if n > Bytes.length c.c_buf - c.c_pos then
    raise (Bad (Malformed "field overruns frame"))

let get_u8 c =
  need c 1;
  let v = Char.code (Bytes.unsafe_get c.c_buf c.c_pos) in
  c.c_pos <- c.c_pos + 1;
  v

let get_u32 c =
  need c 4;
  let b = c.c_buf and p = c.c_pos in
  c.c_pos <- p + 4;
  (Char.code (Bytes.unsafe_get b p) lsl 24)
  lor (Char.code (Bytes.unsafe_get b (p + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (p + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get b (p + 3))

let get_f64 c =
  need c 8;
  let v = Int64.float_of_bits (Bytes.get_int64_be c.c_buf c.c_pos) in
  c.c_pos <- c.c_pos + 8;
  v

let get_string c =
  let n = get_u32 c in
  if n > max_frame then raise (Bad (Malformed "string length absurd"));
  need c n;
  let s = Bytes.create n in
  Bytes.unsafe_blit c.c_buf c.c_pos s 0 n;
  c.c_pos <- c.c_pos + n;
  Bytes.unsafe_to_string s

let get_opt c get = if get_u8 c = 0 then None else Some (get c)

(* [k] elements read in order into a list built front to back, one
   cons per element. *)
let[@tail_mod_cons] rec get_n c get k =
  if k = 0 then []
  else
    let x = get c in
    x :: get_n c get (k - 1)

let get_list c get =
  let n = get_u32 c in
  if n > max_frame then raise (Bad (Malformed "list length absurd"));
  get_n c get n

let finish c v =
  if c.c_pos <> Bytes.length c.c_buf then
    raise (Bad (Malformed "trailing bytes after message"));
  v

let with_cursor payload k =
  let c = { c_buf = payload; c_pos = 0 } in
  match
    let v = get_u8 c in
    if v <> version then Error (Bad_version v) else Result.Ok (k c)
  with
  | r -> r
  | exception Bad viol -> Error viol

let decode_request payload =
  with_cursor payload (fun c ->
      let tag = get_u8 c in
      finish c
        (match tag with
        | 0x01 -> Ping
        | 0x02 -> Query (get_string c)
        | 0x03 -> Set_strategy (get_string c)
        (* 0x04 is retired, never reused: it decodes as [Bad_tag 0x04] *)
        | 0x05 ->
            let g_timeout = get_opt c get_f64 in
            let g_max_rows = get_opt c get_u32 in
            let g_max_pairs = get_opt c get_u32 in
            let g_max_alloc_mb = get_opt c get_f64 in
            Set_budget { Guard.g_timeout; g_max_rows; g_max_pairs; g_max_alloc_mb }
        | 0x06 -> Load_snapshot (get_string c)
        | 0x07 -> Stats
        | t -> raise (Bad (Bad_tag t))))

let decode_response payload =
  with_cursor payload (fun c ->
      let tag = get_u8 c in
      finish c
        (match tag with
        | 0x81 -> Pong
        | 0x82 -> Ok_msg (get_string c)
        | 0x83 ->
            let r_cols = get_list c get_string in
            let r_rows = get_list c (fun c -> get_list c get_string) in
            let r_ladder = get_opt c get_string in
            Result { r_cols; r_rows; r_ladder }
        | 0x84 ->
            let e_phase = get_string c in
            let e_kind = get_string c in
            let e_msg = get_string c in
            Error_msg { e_phase; e_kind; e_msg }
        | 0x85 -> Overloaded { retry_after = get_f64 c }
        | 0x86 ->
            Stats_msg
              (get_list c (fun c ->
                   let k = get_string c in
                   let v = get_f64 c in
                   (k, v)))
        | t -> raise (Bad (Bad_tag t))))

(* ------------------------------------------------------------------ *)
(* Socket I/O                                                          *)
(* ------------------------------------------------------------------ *)

(* [really_read fd buf] fills [buf] completely. [`Eof n] reports how
   many bytes had arrived before the peer vanished. *)
let really_read fd buf =
  let len = Bytes.length buf in
  let rec go off =
    if off >= len then `Full
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> `Eof off
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let really_write fd buf =
  let len = Bytes.length buf in
  let rec go off =
    if off < len then
      match Unix.write fd buf off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let send_frame fd bytes = really_write fd bytes

let recv_frame fd =
  let header = Bytes.create 4 in
  match really_read fd header with
  | `Eof 0 -> Closed
  | `Eof _ -> Violated Truncated
  | `Full -> (
      let len = Int32.to_int (Bytes.get_int32_be header 0) land 0xffffffff in
      if len > max_frame then Violated (Oversized len)
      else
        let payload = Bytes.create len in
        match really_read fd payload with
        | `Eof _ -> Violated Truncated
        | `Full -> Got payload)

let recv_with decode fd =
  match recv_frame fd with
  | Closed -> Closed
  | Violated v -> Violated v
  | Got payload -> (
      match decode payload with
      | Result.Ok r -> Got r
      | Result.Error v -> Violated v)

let recv_request fd = recv_with decode_request fd
let recv_response fd = recv_with decode_response fd
let send_request fd r = send_frame fd (encode_request r)
let send_response fd r = send_frame fd (encode_response r)
