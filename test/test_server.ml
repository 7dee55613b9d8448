(* The provenance server: wire-protocol codec roundtrips, frame bytes
   equal to a reference encoder's, and decoder totality (no payload,
   truncated frame included, may make the decoder raise), session isolation
   over a shared snapshot store, epoch semantics (a swap mid-query
   serves the pinned epoch to completion; session DDL replays onto the
   new snapshot), admission control (a full queue sheds with a typed
   Overloaded, never a hang), graceful drain, a request whose reply
   timed out is not sent again, server and session budgets over the
   wire, and the ladder's handling of a fault (no retry). *)

open Relalg
open Core
open Provserver

let i n = Value.Int n

let r_schema =
  Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt ]

let s_schema =
  Schema.of_list [ Schema.attr "c" Vtype.TInt; Schema.attr "d" Vtype.TInt ]

let small_db () =
  Database.of_list
    [
      ( "r",
        Relation.of_values r_schema
          [ [ i 1; i 1 ]; [ i 2; i 1 ]; [ i 3; i 2 ] ] );
      ("s", Relation.of_values s_schema [ [ i 1; i 3 ]; [ i 2; i 4 ] ]);
    ]

(* ------------------------------------------------------------------ *)
(* Protocol codec                                                      *)
(* ------------------------------------------------------------------ *)

(* encode gives the whole frame (header included); decoders take the
   payload alone *)
let payload frame = Bytes.sub frame 4 (Bytes.length frame - 4)

let roundtrip_request r =
  match Protocol.decode_request (payload (Protocol.encode_request r)) with
  | Ok r' -> r' = r
  | Error _ -> false

let roundtrip_response r =
  match Protocol.decode_response (payload (Protocol.encode_response r)) with
  | Ok r' -> r' = r
  | Error _ -> false

let test_request_roundtrips () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "request roundtrip" true (roundtrip_request r))
    [
      Protocol.Ping;
      Protocol.Query "SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s)";
      Protocol.Query "";
      Protocol.Set_strategy "left";
      Protocol.Set_budget (Guard.budget ~timeout:2.5 ~max_rows:1000 ());
      Protocol.Set_budget (Guard.budget ());
      Protocol.Set_budget (Guard.budget ~max_pairs:7 ~max_alloc_mb:0.5 ());
      Protocol.Load_snapshot "tpch";
      Protocol.Stats;
    ]

let test_response_roundtrips () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "response roundtrip" true (roundtrip_response r))
    [
      Protocol.Pong;
      Protocol.Ok_msg "created view v";
      Protocol.Result { r_cols = []; r_rows = []; r_ladder = None };
      Protocol.Result
        {
          r_cols = [ "a"; "prov_r_a" ];
          r_rows = [ [ "1"; "1" ]; [ "2"; "" ] ];
          r_ladder = Some "left after gen: budget";
        };
      Protocol.Error_msg
        { e_phase = "analyze"; e_kind = "message"; e_msg = "unknown table" };
      Protocol.Overloaded { retry_after = 0.25 };
      Protocol.Stats_msg [ ("requests", 12.); ("shed", 0.) ];
      Protocol.Stats_msg [];
    ]

(* ------------------------------------------------------------------ *)
(* Frame bytes: the sized-frame encoder against a reference            *)
(* ------------------------------------------------------------------ *)

(* The Buffer-based encoder the protocol used before frames were
   written in one exact-size allocation. It defines the wire bytes:
   [Protocol.encode_*] must reproduce them exactly. *)
module Reference = struct
  let add_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))
  let add_u32 b n = Buffer.add_int32_be b (Int32.of_int n)
  let add_f64 b f = Buffer.add_int64_be b (Int64.bits_of_float f)

  let add_string b s =
    add_u32 b (String.length s);
    Buffer.add_string b s

  let add_opt b add = function
    | None -> add_u8 b 0
    | Some v ->
        add_u8 b 1;
        add v

  let add_list b add xs =
    add_u32 b (List.length xs);
    List.iter add xs

  let frame payload_of =
    let b = Buffer.create 64 in
    add_u8 b Protocol.version;
    payload_of b;
    let payload = Buffer.contents b in
    let out = Buffer.create (String.length payload + 4) in
    add_u32 out (String.length payload);
    Buffer.add_string out payload;
    Buffer.to_bytes out

  let encode_request r =
    frame (fun b ->
        match r with
        | Protocol.Ping -> add_u8 b 0x01
        | Protocol.Query sql ->
            add_u8 b 0x02;
            add_string b sql
        | Protocol.Set_strategy s ->
            add_u8 b 0x03;
            add_string b s
        | Protocol.Set_budget g ->
            add_u8 b 0x05;
            add_opt b (add_f64 b) g.Guard.g_timeout;
            add_opt b (fun n -> add_u32 b n) g.Guard.g_max_rows;
            add_opt b (fun n -> add_u32 b n) g.Guard.g_max_pairs;
            add_opt b (add_f64 b) g.Guard.g_max_alloc_mb
        | Protocol.Load_snapshot name ->
            add_u8 b 0x06;
            add_string b name
        | Protocol.Stats -> add_u8 b 0x07)

  let encode_response r =
    frame (fun b ->
        match r with
        | Protocol.Pong -> add_u8 b 0x81
        | Protocol.Ok_msg m ->
            add_u8 b 0x82;
            add_string b m
        | Protocol.Result { r_cols; r_rows; r_ladder } ->
            add_u8 b 0x83;
            add_list b (add_string b) r_cols;
            add_list b (fun row -> add_list b (add_string b) row) r_rows;
            add_opt b (add_string b) r_ladder
        | Protocol.Error_msg { e_phase; e_kind; e_msg } ->
            add_u8 b 0x84;
            add_string b e_phase;
            add_string b e_kind;
            add_string b e_msg
        | Protocol.Overloaded { retry_after } ->
            add_u8 b 0x85;
            add_f64 b retry_after
        | Protocol.Stats_msg kvs ->
            add_u8 b 0x86;
            add_list b
              (fun (k, v) ->
                add_string b k;
                add_f64 b v)
              kvs)
end

(* [decode_response] on the first [k] bytes of [p]: a typed violation,
   never an exception and never a message. *)
let prefix_violates p k =
  match Protocol.decode_response (Bytes.sub p 0 k) with
  | Error _ -> true
  | Ok _ -> false
  | exception _ -> false

(* The three frame properties for one response: the bytes equal the
   reference's; decoding gives back the same response (compared by
   [compare], so NaN fields count as equal, and re-encoded, so the
   float bits must survive); and the payload cut at each offset in
   [cuts] is a typed violation. *)
let frame_ok ?cuts r =
  let f = Protocol.encode_response r in
  let p = payload f in
  let n = Bytes.length p in
  let cuts = match cuts with Some c -> c n | None -> List.init n Fun.id in
  Bytes.equal f (Reference.encode_response r)
  && (match Protocol.decode_response p with
     | Ok r' -> compare r' r = 0 && Bytes.equal (Protocol.encode_response r') f
     | Error _ -> false)
  && List.for_all (prefix_violates p) cuts

let cell_gen = QCheck.Gen.(string_size ~gen:char (0 -- 10))

let response_gen =
  let open QCheck.Gen in
  let float =
    frequency
      [ (4, float); (1, oneofl [ 0.; -0.; nan; infinity; neg_infinity; 5e-324 ]) ]
  in
  frequency
    [
      ( 6,
        map3
          (fun r_cols r_rows r_ladder -> Protocol.Result { r_cols; r_rows; r_ladder })
          (list_size (0 -- 6) cell_gen)
          (list_size (0 -- 12) (list_size (0 -- 6) cell_gen))
          (opt cell_gen) );
      (2, map (fun kvs -> Protocol.Stats_msg kvs) (list_size (0 -- 8) (pair cell_gen float)));
      ( 2,
        map3
          (fun e_phase e_kind e_msg -> Protocol.Error_msg { e_phase; e_kind; e_msg })
          cell_gen cell_gen cell_gen );
      (1, map (fun retry_after -> Protocol.Overloaded { retry_after }) float);
      (1, map (fun m -> Protocol.Ok_msg m) cell_gen);
      (1, return Protocol.Pong);
    ]

let prop_frames_match_reference =
  QCheck.Test.make ~name:"frames match the reference encoder" ~count:300
    (QCheck.make response_gen ~print:(fun r ->
         Bytes.to_string (Protocol.encode_response r) |> String.escaped))
    (fun r -> frame_ok r)

(* A provenance-shaped answer: 1 000 rows of 44 columns, the width of
   a TPC-H Q15 provenance row. Its payload is about 300 KB and a cut
   costs a decode up to the cut, so its cuts are every offset of the
   first 2 KB and the last 128 bytes and every 4 099th between; the
   random responses above are cut at every offset. *)
let wide_result () =
  let st = Random.State.make [| 16 |] in
  let cell () = Value.to_string (Value.Int (Random.State.int st 1_000_000 - 1000)) in
  Protocol.Result
    {
      r_cols = List.init 44 (Printf.sprintf "prov_t%d");
      r_rows = List.init 1000 (fun _ -> List.init 44 (fun _ -> cell ()));
      r_ladder = Some "left after gen: budget";
    }

let sparse_cuts n =
  List.filter
    (fun k -> k < 2048 || k >= n - 128 || k mod 4099 = 0)
    (List.init n Fun.id)

let test_frames_fixed () =
  let check name ?cuts r = Alcotest.(check bool) name true (frame_ok ?cuts r) in
  check "empty result" (Protocol.Result { r_cols = []; r_rows = []; r_ladder = None });
  check "empty strings"
    (Protocol.Result { r_cols = [ "" ]; r_rows = [ [ "" ]; [ "" ] ]; r_ladder = Some "" });
  check "1000 x 44 result" ~cuts:sparse_cuts (wide_result ());
  check "stats" (Protocol.Stats_msg [ ("requests", 12.); ("nan", nan); ("", -0.) ]);
  check "error"
    (Protocol.Error_msg { e_phase = "analyze"; e_kind = ""; e_msg = "unknown table" });
  check "overloaded" (Protocol.Overloaded { retry_after = 0.25 });
  check "pong" Protocol.Pong;
  check "empty ok" (Protocol.Ok_msg "");
  List.iter
    (fun r ->
      Alcotest.(check bool)
        "request frame matches reference" true
        (Bytes.equal (Protocol.encode_request r) (Reference.encode_request r)))
    [
      Protocol.Ping;
      Protocol.Query "SELECT PROVENANCE * FROM r";
      Protocol.Query "";
      Protocol.Set_strategy "left";
      Protocol.Set_budget (Guard.budget ~timeout:2.5 ~max_rows:1000 ());
      Protocol.Set_budget (Guard.budget ~max_pairs:7 ~max_alloc_mb:0.5 ());
      Protocol.Load_snapshot "tpch";
      Protocol.Stats;
    ]

(* ------------------------------------------------------------------ *)
(* Result frames written straight from values                          *)
(* ------------------------------------------------------------------ *)

(* The text every value must get, from the format interpreter and
   nothing of [Value]: the wire shows it, so [Value.write_text] must
   write exactly these bytes. *)
let ref_text = function
  | Value.Null -> "NULL"
  | Value.Int n -> string_of_int n
  | Value.Float f ->
      let s = Printf.sprintf "%.6g" f in
      if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
      then s
      else s ^ ".0"
  | Value.String s -> s
  | Value.Bool b -> string_of_bool b

(* NaN, the infinities and -0.0, both sides of the 1e-4 and 1e6 bounds
   of positional rendering and of the 1e-16 and 1e27 bounds of the
   writer's exponent form, six-digit rounding ties in both forms, and
   one ulp either side of each. *)
let edge_float =
  let open QCheck.Gen in
  oneofl
    [
      0.; -0.; nan; infinity; neg_infinity; 1e-4; -1e-4; 1e6; -1e6; 999_999.5;
      999_999.4; 0.000_099_999_95; 0.000_123_456_5; 1.000_000_5; 123_456.5;
      2.5; 0.5; 5e-324; Float.max_float; 3.; -7.; 1e-5; -1.5e-5; 1e-16; 1e27;
      1e22; 1.234_565e10; 123_456_789.; 9.999_995e-5; 0.000_099_999_4; -2.5e-7;
    ]
  >>= fun f -> oneofl [ Float.pred f; f; Float.succ f ]

(* Edge values of every kind: those floats, the int extremes and every
   decimal width, NULL, the booleans, the empty string and the string
   'NULL'. *)
let edge_value_gen =
  let open QCheck.Gen in
  let width = map2 (fun e n -> n * Int.shift_left 1 e) (0 -- 62) (-10 -- 10) in
  frequency
    [
      (2, oneofl Value.[ Null; Bool true; Bool false; String ""; String "NULL"; String "3" ]);
      ( 2,
        map (fun n -> Value.Int n)
          (oneofl [ 0; 1; -1; 9; -9; 10; -10; min_int; max_int; min_int + 1; max_int - 1 ]) );
      (2, map (fun n -> Value.Int n) width);
      (1, map (fun n -> Value.Int n) int);
      (3, map (fun f -> Value.Float f) edge_float);
      (2, map (fun f -> Value.Float f) float);
      (1, map (fun f -> Value.Float f) (map2 (fun m e -> m *. (10. ** float_of_int e)) (float_bound_exclusive 10.) (-30 -- 30)));
      (1, map (fun s -> Value.String s) (string_size ~gen:printable (0 -- 12)));
    ]

let value_print v =
  match v with
  | Value.Float f -> Printf.sprintf "Float %h" f
  | Value.String s -> Printf.sprintf "String %S" s
  | v -> ref_text v

(* [write_text] at an arbitrary offset writes exactly the reference
   text, returns its length (= [text_length]) and touches no byte
   around it; [to_string] gives the same bytes. *)
let prop_write_text =
  QCheck.Test.make ~name:"write_text writes to_string's bytes" ~count:3000
    (QCheck.make QCheck.Gen.(pair edge_value_gen (0 -- 7)) ~print:(fun (v, k) ->
         Printf.sprintf "%s at %d" (value_print v) k))
    (fun (v, k) ->
      let want = ref_text v in
      let n = String.length want in
      let b = Bytes.make (k + n + 3) '#' in
      let wrote = Value.write_text v b k in
      wrote = n
      && Value.text_length v = n
      && Bytes.sub_string b k n = want
      && Bytes.sub_string b 0 k = String.make k '#'
      && Bytes.sub_string b (k + n) 3 = "###"
      && Value.to_string v = want)

let test_write_text_bounds () =
  List.iter
    (fun v ->
      let n = Value.text_length v in
      Alcotest.(check bool)
        (Printf.sprintf "%s one byte short is refused" (value_print v))
        true
        (match Value.write_text v (Bytes.create (n + 1)) 2 with
        | _ -> false
        | exception Invalid_argument _ -> true))
    Value.[ Null; Int min_int; Float 1.5; Float 1e300; String "abc"; Bool false ]

(* The frame [encode_result] must equal: the reference encoder over the
   first [max_rows] rows rendered by [Tuple.render]. *)
let rendered_rows ~max_rows rel =
  List.filteri (fun k _ -> k < max_rows) (List.map Tuple.render (Relation.tuples rel))

let reference_result ~max_rows ~ladder rel =
  Protocol.Result
    {
      r_cols = Schema.names (Relation.schema rel);
      r_rows = rendered_rows ~max_rows rel;
      r_ladder = ladder;
    }

(* [encode_result] agrees with the reference frame byte for byte, and
   decoding it gives back the rendered strings. *)
let result_frame_ok ~max_rows ~ladder rel =
  let want = reference_result ~max_rows ~ladder rel in
  match Protocol.encode_result ~max_rows ~ladder rel with
  | Error _ -> false
  | Ok f ->
      Bytes.equal f (Reference.encode_response want)
      && (match Protocol.decode_response (payload f) with
         | Ok r -> compare r want = 0
         | Error _ -> false)

let typed_gen =
  let open QCheck.Gen in
  let column =
    oneofl
      [
        (Vtype.TInt, map (fun n -> Value.Int n) int);
        (Vtype.TFloat, map (fun f -> Value.Float f) (oneof [ float; edge_float ]));
        (Vtype.TString, map (fun s -> Value.String s) (string_size ~gen:printable (0 -- 6)));
        (Vtype.TBool, map (fun b -> Value.Bool b) bool);
      ]
  in
  let cell (_, g) = frequency [ (1, return Value.Null); (4, g) ] in
  list_size (1 -- 5) column >>= fun cols ->
  list_size (0 -- 12) (flatten_l (List.map cell cols)) >>= fun rows ->
  (0 -- 14) >>= fun max_rows ->
  opt (string_size ~gen:printable (0 -- 8)) >|= fun ladder ->
  let schema =
    Schema.of_list (List.mapi (fun k (ty, _) -> Schema.attr (Printf.sprintf "c%d" k) ty) cols)
  in
  (Relation.of_values schema rows, max_rows, ladder)

let prop_encode_result =
  QCheck.Test.make ~name:"encode_result equals the reference on rendered rows" ~count:500
    (QCheck.make typed_gen ~print:(fun (rel, max_rows, ladder) ->
         Printf.sprintf "max_rows %d, ladder %s, %d rows: %s" max_rows
           (Option.value ladder ~default:"-") (Relation.cardinality rel)
           (String.concat "; "
              (List.map (fun t -> String.concat "," (List.map value_print (Array.to_list t)))
                 (Relation.tuples rel)))))
    (fun (rel, max_rows, ladder) -> result_frame_ok ~max_rows ~ladder rel)

(* Row caps below, at and above the cardinality, on a fixed relation. *)
let test_encode_result_caps () =
  let schema =
    Schema.of_list
      [ Schema.attr "a" Vtype.TInt; Schema.attr "f" Vtype.TFloat; Schema.attr "s" Vtype.TString ]
  in
  let rel =
    Relation.of_values schema
      (List.init 5 (fun k ->
           Value.[ Int (k - 2); (if k = 3 then Null else Float (float_of_int k /. 3.)); String (string_of_int k) ]))
  in
  List.iter
    (fun max_rows ->
      List.iter
        (fun ladder ->
          Alcotest.(check bool)
            (Printf.sprintf "cap %d, ladder %b" max_rows (ladder <> None))
            true
            (result_frame_ok ~max_rows ~ladder rel))
        [ None; Some "left after gen: budget" ])
    [ 0; 1; 4; 5; 6; max_int ]

(* The serve-wide answers' shapes: TPC-H Q15 (44 columns, money
   floats among them) and synthetic q2 provenance, under Left and
   Move. *)
let test_encode_result_workloads () =
  let q15_db = Tpch.Tpch_gen.generate ~seed:11 ~sf:0.01 () in
  let q15 = Tpch.Tpch_queries.with_provenance (Tpch.Tpch_queries.instantiate ~seed:3 15) in
  let q2 = Synthetic.Workload.q2 ~seed:5 ~n1:300 ~n2:100 () in
  let q2_db = Synthetic.Workload.make_db ~seed:5 ~n1:300 ~n2:100 () in
  List.iter
    (fun strategy ->
      let name = Strategy.to_string strategy in
      (match Perm.exec q15_db ~strategy q15 with
      | Perm.Rows r ->
          let rel = r.Perm.relation in
          Alcotest.(check bool) ("Q15 has rows under " ^ name) true (Relation.cardinality rel > 0);
          Alcotest.(check bool) ("Q15 frame under " ^ name) true
            (result_frame_ok ~max_rows:10_000 ~ladder:None rel)
      | _ -> Alcotest.fail "Q15 gave no rows");
      let r = Perm.run_query q2_db ~strategy ~provenance:true q2.Synthetic.Workload.query in
      let rel = r.Perm.relation in
      Alcotest.(check bool) ("q2 has rows under " ^ name) true (Relation.cardinality rel > 0);
      Alcotest.(check bool) ("q2 frame under " ^ name) true
        (result_frame_ok ~max_rows:10_000 ~ladder:None rel))
    [ Strategy.Left; Strategy.Move ]

(* Encoding allocates nothing per cell: 10 000 int cells, and ten times
   fewer, cost the same few minor words (the frame itself is allocated
   directly in the major heap); so do float cells, in positional
   ("1234.56") and exponent ("1.23456e+07") form. *)
let test_encode_result_alloc () =
  let cells ty cell rows =
    let schema = Schema.of_list (List.init 10 (fun k -> Schema.attr (Printf.sprintf "c%d" k) ty)) in
    let rel =
      Relation.of_values schema
        (List.init rows (fun r -> List.init 10 (fun c -> cell ((r * 7919) + (c * 104_729) - 50_000))))
    in
    ignore (Relation.tuples rel);
    rel
  in
  let words rel =
    let w0 = Gc.minor_words () in
    ignore (Protocol.encode_result ~max_rows:max_int ~ladder:None rel);
    Gc.minor_words () -. w0
  in
  List.iter
    (fun (what, ty, cell) ->
      let small = cells ty cell 100 and large = cells ty cell 1_000 in
      ignore (words large);
      let ws = words small and wl = words large in
      Alcotest.(check bool)
        (Printf.sprintf "10 000 %s cells take %.0f minor words, 1 000 take %.0f" what wl ws)
        true
        (wl < 200. && wl = ws))
    [
      ("int", Vtype.TInt, fun n -> Value.Int n);
      (* whole numbers and sevenths, never near a six-digit rounding
         tie, which the C formatter would decide *)
      ("positional float", Vtype.TFloat, fun n -> Value.Float (float_of_int (n mod 1_000_000) /. 7.));
      ("exponent float", Vtype.TFloat, fun n -> Value.Float (float_of_int ((7 * n) + 3) *. 1e10 /. 7.));
    ]

(* Cut in the stream instead of the payload: a frame whose sender
   vanishes after [k] bytes is [Closed] at 0, [Truncated] strictly
   inside, and the whole payload at its end. *)
let test_frame_cut_in_stream () =
  let f = Protocol.encode_response (Protocol.Error_msg { e_phase = "p"; e_kind = "k"; e_msg = "m" }) in
  let n = Bytes.length f in
  for k = 0 to n do
    let rd, wr = Unix.pipe ~cloexec:true () in
    ignore (Unix.write wr f 0 k);
    Unix.close wr;
    let got = Protocol.recv_frame rd in
    Unix.close rd;
    let ok =
      match got with
      | Protocol.Closed -> k = 0
      | Protocol.Violated Protocol.Truncated -> k > 0 && k < n
      | Protocol.Got p -> k = n && Bytes.equal p (payload f)
      | Protocol.Violated _ -> false
    in
    Alcotest.(check bool) (Printf.sprintf "stream cut at %d of %d" k n) true ok
  done

(* Every seeded malformed frame decodes to a typed result, and so does
   arbitrary garbage. *)
let test_decoder_total_seeded () =
  for seed = 0 to 499 do
    let case = Fuzz.Protofuzz.case_of_seed seed in
    let b = case.Fuzz.Protofuzz.fz_bytes in
    (* strip the header when there is one; otherwise feed raw *)
    let p = if Bytes.length b >= 4 then payload b else b in
    Alcotest.(check bool)
      (Printf.sprintf "decoder total on seed %d" seed)
      true
      (Fuzz.Protofuzz.decoder_total p)
  done

let prop_decoder_total =
  QCheck.Test.make ~name:"decoder total on random payloads" ~count:500
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s -> Fuzz.Protofuzz.decoder_total (Bytes.of_string s))

(* Tag 0x04 is retired and never reused: a well-formed version-1 frame
   carrying it, with the string field it once had. *)
let retired_tag_frame () =
  Reference.frame (fun b ->
      Reference.add_u8 b 0x04;
      Reference.add_string b "reference")

let test_violation_classes () =
  Alcotest.(check bool)
    "retired tag 0x04 decodes to a recoverable Bad_tag" true
    (Protocol.decode_request (payload (retired_tag_frame ()))
     = Error (Protocol.Bad_tag 0x04)
    && not (Protocol.fatal (Protocol.Bad_tag 0x04)));
  Alcotest.(check bool)
    "oversized is fatal" true
    (Protocol.fatal (Protocol.Oversized (Protocol.max_frame + 1)));
  Alcotest.(check bool) "truncated is fatal" true (Protocol.fatal Protocol.Truncated);
  Alcotest.(check bool) "bad tag is recoverable" false (Protocol.fatal (Protocol.Bad_tag 0x42));
  Alcotest.(check bool)
    "bad version is recoverable" false
    (Protocol.fatal (Protocol.Bad_version 9));
  Alcotest.(check bool)
    "malformed is recoverable" false
    (Protocol.fatal (Protocol.Malformed "x"))

(* ------------------------------------------------------------------ *)
(* Sessions: isolation and snapshot epochs                             *)
(* ------------------------------------------------------------------ *)

let card db name = Relation.cardinality (Database.find db name)

let test_session_isolation () =
  let st = Session.store (small_db ()) in
  let s1 = Session.create st ~id:1 in
  let s2 = Session.create st ~id:2 in
  Session.set_strategy s1 Strategy.Left;
  Session.set_budget s1 (Some (Guard.budget ~max_rows:10 ()));
  Alcotest.(check bool) "s2 strategy untouched" true (Session.strategy s2 = Strategy.Gen);
  Alcotest.(check bool) "s2 budget untouched" true (Session.budget s2 = None);
  (* DDL in s1 stays invisible to s2 *)
  let res =
    Perm.exec (Session.db s1) "CREATE VIEW v AS SELECT a FROM r WHERE a > 1"
  in
  Session.note s1 res;
  (match Perm.exec (Session.db s1) "SELECT * FROM v" with
  | Perm.Rows r ->
      Alcotest.(check int) "s1 sees its view" 2
        (Relation.cardinality r.Perm.relation)
  | _ -> Alcotest.fail "expected rows");
  (match Perm.exec (Session.db s2) "SELECT * FROM v" with
  | _ -> Alcotest.fail "s2 must not see s1's view"
  | exception Resilience.Perm_error { e_phase = Resilience.Analyze; _ } -> ())

let test_epoch_pin () =
  let st = Session.store (small_db ()) in
  let s = Session.create st ~id:1 in
  (* a view created before the swap must survive it *)
  Session.note s (Perm.exec (Session.db s) "CREATE VIEW v AS SELECT a FROM r");
  let pinned, e1 = Session.pin s in
  Alcotest.(check int) "first epoch" 1 e1;
  Alcotest.(check int) "pinned r has 3 rows" 3 (card pinned "r");
  (* swap in a shrunk snapshot while the "query" still holds [pinned] *)
  let db2 =
    Database.of_list [ ("r", Relation.of_values r_schema [ [ i 9; i 9 ] ]) ]
  in
  let e2 = Session.swap st db2 in
  Alcotest.(check bool) "swap bumps epoch" true (e2 > e1);
  (* the in-flight query's database is untouched by the swap *)
  Alcotest.(check int) "old epoch serves old data" 3 (card pinned "r");
  (match Perm.exec pinned "SELECT * FROM v" with
  | Perm.Rows r ->
      Alcotest.(check int) "old overlay still has the view" 3
        (Relation.cardinality r.Perm.relation)
  | _ -> Alcotest.fail "expected rows");
  (* the next query boundary adopts the new snapshot and replays DDL *)
  let rebased, e3 = Session.pin s in
  Alcotest.(check int) "rebase adopts new epoch" e2 e3;
  Alcotest.(check int) "new epoch serves new data" 1 (card rebased "r");
  (match Perm.exec rebased "SELECT * FROM v" with
  | Perm.Rows r ->
      Alcotest.(check int) "view replayed onto new snapshot" 1
        (Relation.cardinality r.Perm.relation)
  | _ -> Alcotest.fail "expected rows")

let test_table_ddl_replays_as_value () =
  let st = Session.store (small_db ()) in
  let s = Session.create st ~id:1 in
  Session.note s
    (Perm.exec (Session.db s) "CREATE TABLE t AS SELECT a FROM r WHERE a > 1");
  ignore (Session.swap st (small_db ()));
  let rebased, _ = Session.pin s in
  (* replayed as a stored value: same 2 rows, not re-run against
     whatever the new snapshot holds *)
  Alcotest.(check int) "materialized table replayed" 2 (card rebased "t")

(* ------------------------------------------------------------------ *)
(* Live server: admission control and drain                            *)
(* ------------------------------------------------------------------ *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.0;
  fd

let ask fd req =
  Protocol.send_request fd req;
  match Protocol.recv_response fd with
  | Protocol.Got r -> r
  | Protocol.Violated v -> Alcotest.fail (Protocol.violation_to_string v)
  | Protocol.Closed -> Alcotest.fail "connection closed"

(* One eval slot, no queue: while a slow query holds the slot, a second
   query is shed with a typed Overloaded (and a positive retry hint)
   instead of waiting or hanging. *)
let test_admission_shed () =
  let cfg =
    Server.config ~port:0 ~eval_slots:1 ~queue_limit:0
      ~on_eval:(fun () -> Unix.sleepf 0.6)
      (small_db ())
  in
  let sv = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> Server.stop sv)
    (fun () ->
      let port = Server.port sv in
      let slow_result = ref None in
      let slow =
        Thread.create
          (fun () ->
            let fd = connect port in
            slow_result := Some (ask fd (Protocol.Query "SELECT a FROM r"));
            Unix.close fd)
          ()
      in
      Unix.sleepf 0.2;
      (* slot taken *)
      let fd = connect port in
      let t0 = Unix.gettimeofday () in
      (match ask fd (Protocol.Query "SELECT a FROM r") with
      | Protocol.Overloaded { retry_after } ->
          Alcotest.(check bool) "positive retry hint" true (retry_after > 0.)
      | _ -> Alcotest.fail "expected Overloaded");
      Alcotest.(check bool)
        "shed answered promptly, not after the slot freed" true
        (Unix.gettimeofday () -. t0 < 0.35);
      Unix.close fd;
      Thread.join slow;
      match !slow_result with
      | Some (Protocol.Result { r_rows; _ }) ->
          Alcotest.(check int) "slow query still delivered" 3
            (List.length r_rows)
      | _ -> Alcotest.fail "slow query did not deliver rows")

let test_drain () =
  let cfg = Server.config ~port:0 ~drain_deadline:0.5 (small_db ()) in
  let sv = Server.start cfg in
  let port = Server.port sv in
  (* an idle session is connected when the drain starts *)
  let fd = connect port in
  (match ask fd Protocol.Ping with
  | Protocol.Pong -> ()
  | _ -> Alcotest.fail "expected Pong");
  let t0 = Unix.gettimeofday () in
  ignore (Server.drain sv);
  Alcotest.(check bool)
    "drain returns within deadline + slack" true
    (Unix.gettimeofday () -. t0 < 3.0);
  let live =
    match List.assoc_opt "sessions_active" (Server.stats sv) with
    | Some n -> int_of_float n
    | None -> -1
  in
  Alcotest.(check int) "no session leaked" 0 live;
  (try Unix.close fd with _ -> ());
  (* the drained server no longer accepts *)
  match connect port with
  | fd2 -> (
      (* accept may race the close; any write/read must fail or EOF *)
      match ask fd2 Protocol.Ping with
      | exception _ -> ()
      | _ -> Alcotest.fail "drained server answered a new connection")
  | exception _ -> ()

(* The retired tag on a live connection: the server answers it with a
   typed protocol error and the same connection serves the next
   query. *)
let test_retired_tag_served () =
  let sv = Server.start (Server.config ~port:0 (small_db ())) in
  Fun.protect
    ~finally:(fun () -> Server.stop sv)
    (fun () ->
      let fd = connect (Server.port sv) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let f = retired_tag_frame () in
          ignore (Unix.write fd f 0 (Bytes.length f));
          (match Protocol.recv_response fd with
          | Protocol.Got (Protocol.Error_msg { e_phase; e_kind; _ }) ->
              Alcotest.(check string) "typed protocol error" "protocol" e_phase;
              Alcotest.(check string) "a violation" "violation" e_kind
          | _ -> Alcotest.fail "retired tag got no typed error");
          match ask fd (Protocol.Query "SELECT a FROM r") with
          | Protocol.Result { r_rows; _ } ->
              Alcotest.(check int) "connection still serves queries" 3
                (List.length r_rows)
          | _ -> Alcotest.fail "query failed after the retired tag"))

(* A one-string-column table whose [SELECT s] answer frames to exactly
   [payload] bytes: 1 024 rows, the last one taking the remainder. The
   payload is 16 bytes of layout plus 8 bytes and the text per row. *)
let string_table payload =
  let n = 1024 in
  let text = payload - 16 - (8 * n) in
  let base = text / n in
  let rows =
    List.init n (fun k ->
        let len = if k = n - 1 then base + (text - (base * n)) else base in
        [ Value.String (String.make len (Char.chr (97 + (k mod 26)))) ])
  in
  Relation.of_values (Schema.of_list [ Schema.attr "s" Vtype.TString ]) rows

(* An answer one byte over the frame limit gets a typed error naming
   its size, the limit and its row count, and the connection serves the
   next query; one exactly at the limit is delivered. *)
(* A request sent whole whose reply does not arrive within the client's
   timeout is not sent again: the server is still evaluating it, and
   each resend would start one more evaluation beside it. Refused,
   reset and closed connections keep their retries. *)
let test_reply_timeout_not_resent () =
  let contains s sub =
    match Str.search_forward (Str.regexp_string sub) s 0 with
    | _ -> true
    | exception Not_found -> false
  in
  let evals = Atomic.make 0 in
  let cfg =
    Server.config ~port:0
      ~on_eval:(fun () ->
        Atomic.incr evals;
        Unix.sleepf 0.6)
      (small_db ())
  in
  let sv = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> Server.stop sv)
    (fun () ->
      let cl =
        Client.create ~timeout:0.2 ~retries:2 ~base:0.01 ~host:"127.0.0.1"
          ~port:(Server.port sv) ()
      in
      let outcome =
        match Client.request cl (Protocol.Query "SELECT a FROM r") with
        | _ -> "a reply"
        | exception Client.Client_error m -> m
      in
      Client.close cl;
      (* time for a resend, had there been one, to reach the server *)
      Unix.sleepf 0.3;
      Alcotest.(check int) "the server saw one evaluation" 1 (Atomic.get evals);
      Alcotest.(check bool)
        ("typed timeout: " ^ outcome) true
        (contains outcome "may still be running"))

let test_oversized_result () =
  let fits = string_table Protocol.max_frame and over = string_table (Protocol.max_frame + 1) in
  List.iter
    (fun (name, rel, want) ->
      Alcotest.(check int) (name ^ " payload") want
        (Bytes.length
           (Reference.encode_response (reference_result ~max_rows:max_int ~ladder:None rel))
        - 4))
    [ ("at the limit", fits, Protocol.max_frame); ("over the limit", over, Protocol.max_frame + 1) ];
  let db = Database.of_list [ ("fits", fits); ("over", over) ] in
  let sv = Server.start (Server.config ~port:0 db) in
  Fun.protect
    ~finally:(fun () -> Server.stop sv)
    (fun () ->
      let fd = connect (Server.port sv) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let delivered () =
            match ask fd (Protocol.Query "SELECT s FROM fits") with
            | Protocol.Result { r_rows; _ } ->
                Alcotest.(check int) "a frame at the limit is delivered" 1024 (List.length r_rows)
            | _ -> Alcotest.fail "the answer at the limit was not delivered"
          in
          delivered ();
          (match ask fd (Protocol.Query "SELECT s FROM over") with
          | Protocol.Error_msg { e_phase; e_kind; e_msg } ->
              Alcotest.(check string) "phase" "protocol" e_phase;
              Alcotest.(check string) "kind" "oversized" e_kind;
              Alcotest.(check string) "message"
                (Printf.sprintf
                   "result of 1024 rows encodes to %d bytes, over the %d-byte frame limit"
                   (Protocol.max_frame + 1) Protocol.max_frame)
                e_msg
          | _ -> Alcotest.fail "an oversized answer got no typed error");
          delivered ();
          Alcotest.(check (option (float 0.))) "counted as a failed query" (Some 1.)
            (List.assoc_opt "queries_err" (Server.stats sv))))

(* A server started with a row ceiling: each request runs the ladder
   under that budget, so the wire reply is what an in-process
   [Perm.exec] under the same budget gives: a typed [budget] error when
   every rung trips, or the answer with the ladder's verdict (and one
   more [degraded]) when a later rung answers. Over doubling ceilings
   both outcomes show. *)
let test_server_budget () =
  let sql = "SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s)" in
  let degraded sv =
    Option.value ~default:(-1.) (List.assoc_opt "degraded" (Server.stats sv))
  in
  let outcomes =
    List.map
      (fun rows ->
        let budget = Guard.budget ~max_rows:rows () in
        let local =
          match
            Perm.exec (small_db ()) ~strategy:Strategy.Gen ~budget
              ~fallback:true sql
          with
          | Perm.Rows { Perm.ladder = Some l; _ } -> `Answered l
          | _ -> Alcotest.fail "in-process run gave no ladder"
          | exception Resilience.Perm_error e -> `Failed e
        in
        let sv = Server.start (Server.config ~port:0 ~budget (small_db ())) in
        Fun.protect
          ~finally:(fun () -> Server.stop sv)
          (fun () ->
            let fd = connect (Server.port sv) in
            let reply = ask fd (Protocol.Query sql) in
            Unix.close fd;
            let ctx = Printf.sprintf "row ceiling %d" rows in
            match (local, reply) with
            | ( `Failed { Resilience.e_detail = Resilience.Budget _; _ },
                Protocol.Error_msg { e_kind = "budget"; _ } ) ->
                true
            | `Answered l, Protocol.Result { r_ladder; _ } ->
                let abandoned = l.Resilience.lad_abandoned <> [] in
                Alcotest.(check bool)
                  (ctx ^ ": the reply carries the ladder verdict")
                  abandoned (r_ladder <> None);
                Alcotest.(check (float 0.))
                  (ctx ^ ": degraded counted")
                  (if abandoned then 1. else 0.)
                  (degraded sv);
                abandoned
            | _ -> Alcotest.fail (ctx ^ ": the wire and in-process runs disagree")))
      [ 1; 2; 4; 8; 16; 32; 64; 128 ]
  in
  Alcotest.(check bool) "the smallest ceiling trips" true (List.hd outcomes);
  Alcotest.(check bool) "some ceiling trips or degrades" true
    (List.length (List.filter Fun.id outcomes) >= 2)

(* [Set_budget] overrides the server's budget for its own session
   only: under a server-wide one-row ceiling, the session that set a
   larger budget is answered while another session still trips. *)
let test_session_budget_override () =
  let sql = "SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s)" in
  let sv =
    Server.start
      (Server.config ~port:0 ~budget:(Guard.budget ~max_rows:1 ()) (small_db ()))
  in
  Fun.protect
    ~finally:(fun () -> Server.stop sv)
    (fun () ->
      let own = connect (Server.port sv) and other = connect (Server.port sv) in
      Fun.protect
        ~finally:(fun () ->
          Unix.close own;
          Unix.close other)
        (fun () ->
          let trips fd =
            match ask fd (Protocol.Query sql) with
            | Protocol.Error_msg { e_kind = "budget"; _ } -> ()
            | _ -> Alcotest.fail "expected a typed budget error"
          in
          trips own;
          (match ask own (Protocol.Set_budget (Guard.budget ~max_rows:1_000_000 ())) with
          | Protocol.Ok_msg _ -> ()
          | _ -> Alcotest.fail "Set_budget refused");
          (match ask own (Protocol.Query sql) with
          | Protocol.Result { r_rows; r_ladder; _ } ->
              Alcotest.(check bool) "answered" true (r_rows <> []);
              Alcotest.(check (option string)) "no rung abandoned" None r_ladder
          | _ -> Alcotest.fail "the session's own budget was not used");
          trips other))

(* ------------------------------------------------------------------ *)
(* Ladder                                                              *)
(* ------------------------------------------------------------------ *)

(* Only inapplicable and over-budget rungs are abandoned: an injected
   fault propagates from its first attempt, with no retry. *)
let test_ladder_fault_propagates () =
  let db = small_db () in
  let q = Algebra.Base "r" in
  let calls = ref 0 in
  let f _s =
    incr calls;
    if !calls = 1 then
      raise
        (Resilience.Perm_error
           {
             Resilience.e_phase = Resilience.Eval;
             e_detail = Resilience.Fault { f_site = "test"; f_path = [] };
           })
    else 42
  in
  (match Resilience.run_ladder db ~strategy:Strategy.Gen ~budget:None q f with
  | _ -> Alcotest.fail "expected the fault to propagate"
  | exception Resilience.Perm_error { e_detail = Resilience.Fault _; _ } -> ());
  Alcotest.(check int) "one attempt" 1 !calls

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "request roundtrips" `Quick test_request_roundtrips;
          Alcotest.test_case "response roundtrips" `Quick
            test_response_roundtrips;
          Alcotest.test_case "decoder total on fuzz cases" `Quick
            test_decoder_total_seeded;
          Alcotest.test_case "violation fatality" `Quick test_violation_classes;
          QCheck_alcotest.to_alcotest ~long:false prop_decoder_total;
          Alcotest.test_case "fixed frames match the reference" `Quick
            test_frames_fixed;
          Alcotest.test_case "frame cut in the stream" `Quick
            test_frame_cut_in_stream;
          QCheck_alcotest.to_alcotest ~long:false prop_frames_match_reference;
          QCheck_alcotest.to_alcotest ~long:false prop_write_text;
          Alcotest.test_case "write_text refuses a short buffer" `Quick
            test_write_text_bounds;
          QCheck_alcotest.to_alcotest ~long:false prop_encode_result;
          Alcotest.test_case "encode_result row caps" `Quick test_encode_result_caps;
          Alcotest.test_case "encode_result on Q15 and q2 provenance" `Quick
            test_encode_result_workloads;
          Alcotest.test_case "encode_result allocates per frame, not per cell"
            `Quick test_encode_result_alloc;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "isolation" `Quick test_session_isolation;
          Alcotest.test_case "epoch pin across swap" `Quick test_epoch_pin;
          Alcotest.test_case "table DDL replays as value" `Quick
            test_table_ddl_replays_as_value;
        ] );
      ( "server",
        [
          Alcotest.test_case "admission shed is typed and prompt" `Quick
            test_admission_shed;
          Alcotest.test_case "graceful drain" `Quick test_drain;
          Alcotest.test_case "retired tag gets a typed error" `Quick
            test_retired_tag_served;
          Alcotest.test_case "oversized answer gets a typed error" `Quick
            test_oversized_result;
          Alcotest.test_case "reply timeout is not resent" `Quick
            test_reply_timeout_not_resent;
          Alcotest.test_case "budget trips or degrades over the wire" `Quick
            test_server_budget;
          Alcotest.test_case "session budget overrides the server's" `Quick
            test_session_budget_override;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "fault propagates from its first attempt" `Quick
            test_ladder_fault_propagates;
        ] );
    ]
