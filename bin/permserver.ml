(* permserver — the standalone provenance server.

   Serves the length-prefixed wire protocol from [Provserver.Protocol]
   on a TCP port: one session per connection, admission control (eval
   token bucket + bounded wait queue + session cap), a per-request
   budget with strategy degradation, and snapshot swap via
   the [\snapshot] client command. SIGTERM / SIGINT trigger a graceful
   drain: the listener stops, in-flight sessions finish up to
   --drain-deadline, stragglers are force-closed.

   Examples:
     dune exec bin/permserver.exe -- --demo --port 7654
     dune exec bin/permserver.exe -- --tpch 0.05 --slots 4 --timeout 5
     dune exec bin/permcli.exe   -- --connect localhost:7654           *)

open Relalg

let demo_db () =
  let r_schema =
    Schema.of_list [ Schema.attr "a" Vtype.TInt; Schema.attr "b" Vtype.TInt ]
  in
  let s_schema =
    Schema.of_list [ Schema.attr "c" Vtype.TInt; Schema.attr "d" Vtype.TInt ]
  in
  Database.of_list
    [
      ( "r",
        Relation.of_values r_schema
          [
            [ Value.Int 1; Value.Int 1 ];
            [ Value.Int 2; Value.Int 1 ];
            [ Value.Int 3; Value.Int 2 ];
          ] );
      ( "s",
        Relation.of_values s_schema
          [
            [ Value.Int 1; Value.Int 3 ];
            [ Value.Int 2; Value.Int 4 ];
            [ Value.Int 4; Value.Int 5 ];
          ] );
    ]

(* Named snapshots for the Load_snapshot request. Builders run lazily
   on first request, so a --demo server does not pay for TPC-H unless
   a client asks for it. *)
let snapshot_builders ~tpch_sf ~synth =
  [
    ("demo", fun () -> demo_db ());
    ("tpch", fun () -> Tpch.Tpch_gen.generate ~sf:tpch_sf ());
    ( "synthetic",
      fun () -> Synthetic.Workload.make_db ~n1:synth ~n2:synth () );
  ]

let initial_db ~tpch ~synth ~demo =
  match (tpch, synth, demo) with
  | Some sf, _, _ ->
      Printf.printf "generating TPC-H at sf=%.2f ...\n%!" sf;
      Tpch.Tpch_gen.generate ~sf ()
  | None, Some n, _ -> Synthetic.Workload.make_db ~n1:n ~n2:n ()
  | None, None, _ -> demo_db ()

let serve host port tpch synth demo slots queue_limit max_sessions timeout
    max_rows drain_deadline =
  let db = initial_db ~tpch ~synth ~demo in
  let budget =
    let b = Guard.budget ?timeout ?max_rows () in
    if Guard.is_unlimited b then None else Some b
  in
  let cfg =
    Provserver.Server.config ~host ~port
      ~snapshots:
        (snapshot_builders
           ~tpch_sf:(Option.value tpch ~default:0.01)
           ~synth:(Option.value synth ~default:2000))
      ~max_sessions ~eval_slots:slots ~queue_limit ?budget ~drain_deadline db
  in
  let sv = Provserver.Server.start cfg in
  Printf.printf "permserver listening on %s:%d (slots=%d queue=%d sessions<=%d)\n%!"
    host (Provserver.Server.port sv) slots queue_limit max_sessions;
  let stop = Atomic.make false in
  let request_stop _ = Atomic.set stop true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* sleepf returns early when a signal lands; the loop re-checks *)
  while not (Atomic.get stop) do
    Unix.sleepf 0.2
  done;
  Printf.printf "draining ...\n%!";
  let clean = Provserver.Server.drain sv in
  List.iter
    (fun (k, v) -> Printf.printf "  %-18s %.0f\n" k v)
    (Provserver.Server.stats sv);
  if clean then begin
    print_endline "drain complete";
    0
  end
  else begin
    print_endline "drain deadline hit; remaining sessions force-closed";
    1
  end

(* Command line ------------------------------------------------------ *)

open Cmdliner

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST")

let port_arg =
  Arg.(
    value & opt int 7654
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (0 picks an ephemeral one).")

let tpch_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "tpch" ] ~docv:"SF" ~doc:"Serve a TPC-H instance at scale $(docv).")

let synth_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "synthetic" ] ~docv:"N"
        ~doc:"Serve the synthetic workload database with $(docv)-row tables.")

let demo_arg =
  Arg.(
    value & flag
    & info [ "demo" ] ~doc:"Serve the two-table demo database (the default).")

let slots_arg =
  Arg.(
    value & opt int 4
    & info [ "slots" ] ~docv:"N" ~doc:"Concurrent evaluation slots.")

let queue_arg =
  Arg.(
    value & opt int 16
    & info [ "queue-limit" ] ~docv:"N"
        ~doc:
          "Requests allowed to wait for an eval slot before the server \
           sheds load with a typed Overloaded response.")

let sessions_arg =
  Arg.(
    value & opt int 64
    & info [ "max-sessions" ] ~docv:"N" ~doc:"Concurrent session cap.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-request evaluation budget; a strategy that exceeds it \
           degrades to the next one.")

let rows_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget-rows" ] ~docv:"N"
        ~doc:"Per-request intermediate-row budget.")

let drain_arg =
  Arg.(
    value & opt float 5.0
    & info [ "drain-deadline" ] ~docv:"SECONDS"
        ~doc:"Grace period for in-flight sessions on SIGTERM/SIGINT.")

let cmd =
  Cmd.v
    (Cmd.info "permserver"
       ~doc:"Provenance server for permcli --connect and bench serve")
    Term.(
      const serve $ host_arg $ port_arg $ tpch_arg $ synth_arg $ demo_arg
      $ slots_arg $ queue_arg $ sessions_arg $ timeout_arg $ rows_arg
      $ drain_arg)

let () = Stdlib.exit (Cmd.eval' ~term_err:2 cmd)
