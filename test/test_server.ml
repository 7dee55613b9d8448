(* The provenance server: wire-protocol codec roundtrips and decoder
   totality (no payload may make the decoder raise), session isolation
   over a shared snapshot store, epoch semantics (a swap mid-query
   serves the pinned epoch to completion; session DDL replays onto the
   new snapshot), admission control (a full queue sheds with a typed
   Overloaded, never a hang), graceful drain, and the resilience
   ladder's capped jittered backoff (deterministic per seed; transient
   faults retry the same rung before escalating). *)

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
      Protocol.Set_engine "vectorized";
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

let test_violation_classes () =
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
  Session.set_engine s1 (Some Eval.Reference);
  Alcotest.(check bool) "s2 strategy untouched" true (Session.strategy s2 = Strategy.Gen);
  Alcotest.(check bool) "s2 budget untouched" true (Session.budget s2 = None);
  Alcotest.(check bool) "s2 engine untouched" true (Session.engine s2 = None);
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

(* A client that names an engine configures its session with it: the
   client cannot know the server's default engine, so it never skips
   the request. With no engine named, the session keeps the server's.
   An engine the server does not know gets a typed error, and the
   session keeps answering. *)
let test_named_engine_reaches_session () =
  let reqs = Client.session_setup ~strategy:"gen" ~engine:"reference" Guard.unlimited in
  Alcotest.(check bool)
    "only Set_engine reference" true
    (reqs = [ Protocol.Set_engine "reference" ]);
  Alcotest.(check bool)
    "no engine named, no request" true
    (Client.session_setup ~strategy:"gen" Guard.unlimited = []);
  let sv = Server.start (Server.config ~port:0 (small_db ())) in
  Fun.protect
    ~finally:(fun () -> Server.stop sv)
    (fun () ->
      let cl = Client.create ~host:"127.0.0.1" ~port:(Server.port sv) () in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          List.iter
            (fun req ->
              match Client.request cl req with
              | Protocol.Ok_msg m, _ ->
                  Alcotest.(check string) "session switched" "engine reference" m
              | _ -> Alcotest.fail "Set_engine was not acknowledged")
            reqs;
          (match Client.request cl (Protocol.Set_engine "compiled") with
          | Protocol.Error_msg { e_phase; e_msg; _ }, _ ->
              Alcotest.(check string) "typed protocol error" "protocol" e_phase;
              Alcotest.(check bool)
                "names the unknown engine" true
                (String.starts_with ~prefix:"unknown engine" e_msg)
          | _ -> Alcotest.fail "Set_engine compiled was not refused");
          match Client.request cl (Protocol.Query "SELECT a FROM r") with
          | Protocol.Result { r_rows; _ }, _ ->
              Alcotest.(check int) "query runs on the session's engine" 3
                (List.length r_rows)
          | _ -> Alcotest.fail "query failed after Set_engine"))

(* ------------------------------------------------------------------ *)
(* Ladder backoff                                                      *)
(* ------------------------------------------------------------------ *)

let fault_error =
  Resilience.Perm_error
    {
      Resilience.e_phase = Resilience.Eval;
      e_detail = Resilience.Fault { f_site = "test"; f_path = [] };
    }

let quick_backoff seed =
  Resilience.backoff ~base:0.001 ~cap:0.004 ~retries:2 ~seed ()

(* A transient fault on the first attempt retries the same rung (no
   strategy abandoned); without backoff it propagates immediately. *)
let test_backoff_retries_same_rung () =
  let db = small_db () in
  let q = Algebra.Base "r" in
  let calls = ref 0 in
  let f _s =
    incr calls;
    if !calls = 1 then raise fault_error else 42
  in
  let v, lad =
    Resilience.run_ladder db ~strategy:Strategy.Gen ~budget:None
      ~backoff:(quick_backoff 7) q f
  in
  Alcotest.(check int) "value delivered" 42 v;
  Alcotest.(check int) "retried once" 2 !calls;
  Alcotest.(check bool) "same strategy answered" true
    (lad.Resilience.lad_strategy = Strategy.Gen);
  Alcotest.(check int) "nothing abandoned" 0
    (List.length lad.Resilience.lad_abandoned);
  (* without backoff the same fault is fatal on the spot *)
  let calls = ref 0 in
  let f _s =
    incr calls;
    if !calls = 1 then raise fault_error else 42
  in
  (match Resilience.run_ladder db ~strategy:Strategy.Gen ~budget:None q f with
  | _ -> Alcotest.fail "expected the fault to propagate"
  | exception Resilience.Perm_error { e_detail = Resilience.Fault _; _ } -> ());
  Alcotest.(check int) "no retry without backoff" 1 !calls

(* A permanent fault exhausts the same-rung retries, then escalates
   down the ladder, and finally propagates. *)
let test_backoff_exhaustion_escalates () =
  let db = small_db () in
  let q = Algebra.Base "r" in
  let calls = ref 0 in
  let f _s =
    incr calls;
    raise fault_error
  in
  (match
     Resilience.run_ladder db ~strategy:Strategy.Gen ~budget:None
       ~backoff:(quick_backoff 7) q f
   with
  | _ -> Alcotest.fail "expected the fault to propagate"
  | exception Resilience.Perm_error { e_detail = Resilience.Fault _; _ } -> ());
  (* every rung got its 1 + bo_retries attempts *)
  Alcotest.(check bool)
    (Printf.sprintf "all rungs retried (%d calls)" !calls)
    true
    (!calls >= 2 * List.length (!Resilience.strategy_ranking db q))

(* Same seed, same outcome — the jitter is deterministic. *)
let test_backoff_deterministic () =
  let db = small_db () in
  let q = Algebra.Base "r" in
  let run seed =
    let calls = ref 0 in
    let f _s =
      incr calls;
      if !calls < 3 then raise fault_error else !calls
    in
    let v, lad =
      Resilience.run_ladder db ~strategy:Strategy.Gen ~budget:None
        ~backoff:(quick_backoff seed) q f
    in
    (v, lad.Resilience.lad_strategy, List.length lad.Resilience.lad_abandoned)
  in
  Alcotest.(check bool) "same seed, same ladder" true (run 3 = run 3)

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
          Alcotest.test_case "named engine reaches the session" `Quick
            test_named_engine_reaches_session;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "transient retries same rung" `Quick
            test_backoff_retries_same_rung;
          Alcotest.test_case "exhaustion escalates then propagates" `Quick
            test_backoff_exhaustion_escalates;
          Alcotest.test_case "deterministic per seed" `Quick
            test_backoff_deterministic;
        ] );
    ]
