(** Seeded malformed-frame generator for the server wire protocol.

    Each seed deterministically yields one {!case}: raw bytes to throw
    at a connection, plus the contract the server must honor afterwards
    — either the connection stays usable (recoverable violation: the
    server answered a typed protocol error and kept framing) or the
    connection is forfeit (fatal violation or deliberate mid-frame
    disconnect) but the {e server} must keep answering fresh
    connections. The serve harness ([bench serve --fuzz-proto N])
    asserts exactly that: after every case, a well-formed request gets
    a well-formed answer. *)

open Provserver

type expect =
  | Conn_alive  (** same connection must answer the next request *)
  | Conn_forfeit  (** connection may close; server must stay up *)

type kind =
  | K_garbage_tag
  | K_bad_version
  | K_empty
  | K_corrupt_body
  | K_oversized
  | K_bad_length
  | K_truncated
  | K_midframe

let kind_to_string = function
  | K_garbage_tag -> "garbage-tag"
  | K_bad_version -> "bad-version"
  | K_empty -> "empty-frame"
  | K_corrupt_body -> "corrupt-body"
  | K_oversized -> "oversized"
  | K_bad_length -> "bad-length-prefix"
  | K_truncated -> "truncated"
  | K_midframe -> "mid-frame-disconnect"

type case = {
  fz_kind : kind;
  fz_bytes : bytes;  (** what to write *)
  fz_close : bool;  (** disconnect right after writing *)
  fz_expect : expect;
}

let all_kinds =
  [
    K_garbage_tag;
    K_bad_version;
    K_empty;
    K_corrupt_body;
    K_oversized;
    K_bad_length;
    K_truncated;
    K_midframe;
  ]

(* Small deterministic PRNG (same LCG family as Qgen). *)
let mk_rng seed =
  let state = ref (((seed * 0x9E3779B1) lor 1) land 0x3FFFFFFF) in
  fun bound ->
    state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
    !state mod bound

let header len =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  b

(* A well-formed frame to mutate: vary the request so truncation points
   and body offsets differ across seeds. *)
let seed_frame rng =
  let reqs =
    [|
      Protocol.Ping;
      Protocol.Query "SELECT a FROM r WHERE a > 1";
      Protocol.Set_strategy "left";
      Protocol.Load_snapshot "synthetic";
      Protocol.Stats;
    |]
  in
  Protocol.encode_request reqs.(rng (Array.length reqs))

let case_of_seed seed =
  let rng = mk_rng seed in
  let kind = List.nth all_kinds (rng (List.length all_kinds)) in
  let good = seed_frame rng in
  let glen = Bytes.length good in
  match kind with
  | K_garbage_tag ->
      (* intact framing, unknown tag byte *)
      let b = Bytes.copy good in
      Bytes.set b 5 (Char.chr (0x40 + rng 0x30));
      { fz_kind = kind; fz_bytes = b; fz_close = false; fz_expect = Conn_alive }
  | K_bad_version ->
      let b = Bytes.copy good in
      Bytes.set b 4 (Char.chr (2 + rng 250));
      { fz_kind = kind; fz_bytes = b; fz_close = false; fz_expect = Conn_alive }
  | K_empty ->
      (* zero-length payload: malformed but framed *)
      { fz_kind = kind; fz_bytes = header 0; fz_close = false; fz_expect = Conn_alive }
  | K_corrupt_body ->
      (* flip bytes inside the body of a framed request; the frame is
         consumed whole, so whatever the decoder thinks, the connection
         must survive *)
      let b = Bytes.copy good in
      let n = 1 + rng 4 in
      for _ = 1 to n do
        if glen > 6 then begin
          let i = 6 + rng (glen - 6) in
          Bytes.set b i (Char.chr (rng 256))
        end
      done;
      { fz_kind = kind; fz_bytes = b; fz_close = false; fz_expect = Conn_alive }
  | K_oversized ->
      (* declared length beyond max_frame: fatal, connection forfeit *)
      let b = header (Protocol.max_frame + 1 + rng 1000) in
      { fz_kind = kind; fz_bytes = b; fz_close = false; fz_expect = Conn_forfeit }
  | K_bad_length ->
      (* header promises more than we ever send, then we hang up *)
      let declared = glen + 1 + rng 64 in
      let b = Bytes.cat (header declared) (Bytes.sub good 4 (glen - 4)) in
      { fz_kind = kind; fz_bytes = b; fz_close = true; fz_expect = Conn_forfeit }
  | K_truncated ->
      (* cut a valid frame short and hang up *)
      let cut = 1 + rng (max 1 (glen - 1)) in
      {
        fz_kind = kind;
        fz_bytes = Bytes.sub good 0 cut;
        fz_close = true;
        fz_expect = Conn_forfeit;
      }
  | K_midframe ->
      (* send only part of the header itself, then vanish *)
      let cut = 1 + rng 3 in
      {
        fz_kind = kind;
        fz_bytes = Bytes.sub good 0 cut;
        fz_close = true;
        fz_expect = Conn_forfeit;
      }

(* Pure check used by unit tests: the decoder must map any payload to
   a typed result, never an exception. *)
let decoder_total payload =
  match Protocol.decode_request payload with
  | Ok _ | Error _ -> true
  | exception _ -> false
