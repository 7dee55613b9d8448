(** Vector-clock happens-before race detector. See race.mli.

    All detector state lives behind one mutex: accesses are coarse
    (operator/batch granularity, never per tuple) and only tests and
    fuzz campaigns arm the detector, so simplicity wins over a
    lock-free FastTrack. The lock is leaf-level — nothing else is
    acquired while holding it — so composing it with the engine's own
    mutexes ({!with_lock}) cannot deadlock. *)

type kind = Read | Write

type access = {
  a_loc : string;
  a_path : string;
  a_domain : int;
  a_kind : kind;
  a_clock : int;
}

type report = {
  r_loc : string;
  r_first : access;
  r_second : access;
  r_seed : int option;
}

let kind_to_string = function Read -> "read" | Write -> "write"

let access_to_string a =
  Printf.sprintf "%s by domain %d at clock %d%s" (kind_to_string a.a_kind)
    a.a_domain a.a_clock
    (if a.a_path = "" then "" else " (" ^ a.a_path ^ ")")

let report_to_string r =
  Printf.sprintf "data race on %s: %s vs %s%s" r.r_loc
    (access_to_string r.r_first)
    (access_to_string r.r_second)
    (match r.r_seed with
    | Some s -> Printf.sprintf " [schedule seed %d]" s
    | None -> "")

(* The disabled-path gate: one atomic load per entry point. An Atomic
   rather than a plain ref because other domains (server sessions, a
   test's spawned domains) read it while one domain arms/disarms. *)
let armed_flag = Atomic.make false
let is_armed () = Atomic.get armed_flag

(* ------------------------------------------------------------------ *)
(* Detector state (all under [lock])                                    *)
(* ------------------------------------------------------------------ *)

let lock = Mutex.create ()

(* Each domain gets a slot on first instrumented action; slots are
   stable for the domain's lifetime (kept in its DLS) and never reused,
   so clocks stay meaningful across [arm] calls. *)
let slot_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref (-1))
let next_slot = ref 0

(* clocks.(s) is slot [s]'s vector clock; rows and the outer array grow
   on demand. *)
let clocks : int array array ref = ref [||]

(* edge name -> published vector clock *)
let edges : (string, int array) Hashtbl.t = Hashtbl.create 64

type locstate = {
  mutable ls_write : access option;  (* last write *)
  mutable ls_reads : access list;  (* reads since, latest per domain *)
}

let locs : (string, locstate) Hashtbl.t = Hashtbl.create 64
let reports_acc : report list ref = ref []
let reported : (string * int * int, unit) Hashtbl.t = Hashtbl.create 16
let seed_ref : int option ref = ref None
let report_cap = 128

(* ---- vector-clock plumbing (callers hold [lock]) ------------------- *)

let grow_outer n =
  if Array.length !clocks < n then begin
    let b = Array.make (max n ((2 * Array.length !clocks) + 4)) [||] in
    Array.blit !clocks 0 b 0 (Array.length !clocks);
    clocks := b
  end

let vc_of_slot s =
  grow_outer (s + 1);
  let vc = !clocks.(s) in
  if Array.length vc > s then vc
  else begin
    let b = Array.make (max (s + 1) ((2 * Array.length vc) + 4)) 0 in
    Array.blit vc 0 b 0 (Array.length vc);
    !clocks.(s) <- b;
    b
  end

let vc_get vc i = if i < Array.length vc then vc.(i) else 0

(* join [src] into slot [s]'s clock *)
let vc_join_into s (src : int array) =
  let n = Array.length src in
  grow_outer (max (s + 1) n);
  (if Array.length !clocks.(s) < n then begin
     let b = Array.make n 0 in
     Array.blit !clocks.(s) 0 b 0 (Array.length !clocks.(s));
     !clocks.(s) <- b
   end);
  let dst = !clocks.(s) in
  for i = 0 to n - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

let my_slot () =
  let r = Domain.DLS.get slot_key in
  if !r >= 0 then !r
  else begin
    let s = !next_slot in
    incr next_slot;
    (* the slot's own component starts at 1, not 0: peers' clocks are
       zero-initialized, so a first-epoch access recorded at clock 0
       would satisfy [vc_get peer s >= 0] and look ordered to every
       domain — exactly the never-synchronized case that must race *)
    (vc_of_slot s).(s) <- 1;
    r := s;
    s
  end

(* ------------------------------------------------------------------ *)
(* Edges                                                                *)
(* ------------------------------------------------------------------ *)

let release_slow edge =
  Mutex.protect lock (fun () ->
      let s = my_slot () in
      let vc = vc_of_slot s in
      let old = Hashtbl.find_opt edges edge in
      let n =
        max (Array.length vc)
          (match old with Some o -> Array.length o | None -> 0)
      in
      let pub =
        Array.init n (fun i ->
            max (vc_get vc i)
              (match old with Some o -> vc_get o i | None -> 0))
      in
      Hashtbl.replace edges edge pub;
      (* new epoch: accesses after the release are not covered by it *)
      vc.(s) <- vc.(s) + 1)

let acquire_slow edge =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt edges edge with
      | None -> ()
      | Some evc -> vc_join_into (my_slot ()) evc)

let release edge = if Atomic.get armed_flag then release_slow edge
let acquire edge = if Atomic.get armed_flag then acquire_slow edge

(* ------------------------------------------------------------------ *)
(* Accesses                                                             *)
(* ------------------------------------------------------------------ *)

let record_race loc (first : access) (second : access) =
  let k = (loc, first.a_domain, second.a_domain) in
  if
    (not (Hashtbl.mem reported k))
    && List.length !reports_acc < report_cap
  then begin
    Hashtbl.replace reported k ();
    reports_acc :=
      { r_loc = loc; r_first = first; r_second = second; r_seed = !seed_ref }
      :: !reports_acc
  end

let access_slow k loc path =
  Mutex.protect lock (fun () ->
      let s = my_slot () in
      let vc = vc_of_slot s in
      let me =
        { a_loc = loc; a_path = path; a_domain = s; a_kind = k; a_clock = vc.(s) }
      in
      let ls =
        match Hashtbl.find_opt locs loc with
        | Some ls -> ls
        | None ->
            let ls = { ls_write = None; ls_reads = [] } in
            Hashtbl.add locs loc ls;
            ls
      in
      (* [prev] happens-before [me] iff me's clock has seen prev's
         epoch: the release following prev published prev's clock value
         (the domain clock only advances at releases), so an acquirer
         holds [vc.(prev.a_domain) >= prev.a_clock]. Same-domain
         accesses are always ordered. *)
      let ordered (prev : access) =
        prev.a_domain = s || vc_get vc prev.a_domain >= prev.a_clock
      in
      (match ls.ls_write with
      | Some w when not (ordered w) -> record_race loc w me
      | _ -> ());
      (match k with
      | Write ->
          List.iter
            (fun (r : access) -> if not (ordered r) then record_race loc r me)
            ls.ls_reads;
          ls.ls_write <- Some me;
          ls.ls_reads <- []
      | Read ->
          ls.ls_reads <-
            me :: List.filter (fun (r : access) -> r.a_domain <> s) ls.ls_reads))

let read loc = if Atomic.get armed_flag then access_slow Read loc ""
let write loc = if Atomic.get armed_flag then access_slow Write loc ""
let read_at loc ~path = if Atomic.get armed_flag then access_slow Read loc path

let write_at loc ~path =
  if Atomic.get armed_flag then access_slow Write loc path

(* ------------------------------------------------------------------ *)
(* Locks as edges                                                       *)
(* ------------------------------------------------------------------ *)

let with_lock m edge f =
  if not (Atomic.get armed_flag) then Mutex.protect m f
  else begin
    Mutex.lock m;
    acquire_slow edge;
    Fun.protect
      ~finally:(fun () ->
        release_slow edge;
        Mutex.unlock m)
      f
  end

(* ------------------------------------------------------------------ *)
(* Arming                                                               *)
(* ------------------------------------------------------------------ *)

let arm ?seed () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset edges;
      Hashtbl.reset locs;
      Hashtbl.reset reported;
      reports_acc := [];
      seed_ref := seed);
  Atomic.set armed_flag true

let disarm () = Atomic.set armed_flag false
let reports () = Mutex.protect lock (fun () -> List.rev !reports_acc)
