(** Typed error taxonomy and graceful degradation for the {!Perm}
    pipeline.

    The taxonomy gives every failure a pipeline phase and a structured
    detail; {!enter} converts the libraries' exceptions at each phase
    boundary. Exceptions that identify their own phase (a parse error
    raised while analyzing a string, a strategy-applicability error
    surfacing under a coarser wrapper) override the enclosing phase, so
    attribution stays precise even where one wrapper covers several
    steps.

    The fallback ladder implements the degradation discipline the issue
    calls for: a strategy that is inapplicable or blows its budget is
    abandoned and the next-ranked strategy retried under a sub-budget.
    The ranking is the static applicability order Unn → Move → Left →
    Gen (cheapest rewrites first, the paper's Section 4 ordering), the
    same in every program; it stays a ref only so that tests can
    substitute an instrumented ranking. *)

open Relalg

type phase =
  | Parse
  | Analyze
  | Typecheck
  | Rewrite
  | Optimize
  | Eval
  | Load
  | Protocol

let phase_to_string = function
  | Parse -> "parse"
  | Analyze -> "analyze"
  | Typecheck -> "typecheck"
  | Rewrite -> "rewrite"
  | Optimize -> "optimize"
  | Eval -> "eval"
  | Load -> "load"
  | Protocol -> "protocol"

type detail =
  | Message of string
  | Budget of Guard.trip
  | Fault of { f_site : string; f_path : string list }
  | Lint of Lint.diagnostic list
  | Unsupported of string
  | Overloaded of { retry_after : float }
  | Violation of string

type error = { e_phase : phase; e_detail : detail }

exception Perm_error of error

let error_to_string e =
  let detail =
    match e.e_detail with
    | Message m -> m
    | Budget t -> Guard.trip_to_string t
    | Fault { f_site; f_path } ->
        Printf.sprintf "injected %s fault at %s" f_site
          (Algebra.Path.to_string f_path)
    | Lint ds -> Lint.report ds
    | Unsupported m -> "strategy not applicable: " ^ m
    | Overloaded { retry_after } ->
        Printf.sprintf "server overloaded, retry after %.3fs" retry_after
    | Violation m -> "protocol violation: " ^ m
  in
  Printf.sprintf "[%s] %s" (phase_to_string e.e_phase) detail

let classify_opt ~default exn =
  let mk ?(phase = default) detail = { e_phase = phase; e_detail = detail } in
  match exn with
  | Perm_error e -> Some e
  | Guard.Budget_exceeded t -> Some (mk (Budget t))
  | Guard.Faults.Injected { i_site; i_path } ->
      Some
        (mk
           (Fault
              {
                f_site = Guard.Faults.site_to_string i_site;
                f_path = i_path;
              }))
  | Strategy.Unsupported m -> Some (mk ~phase:Rewrite (Unsupported m))
  | Certify.Certify_error rep ->
      Some
        (mk ~phase:Optimize
           (Message (Certify.report_to_string ~verbose:true rep)))
  | Lint.Lint_error ds -> Some (mk (Lint ds))
  | Sql_frontend.Lexer.Lex_error (m, l, c) ->
      Some
        (mk ~phase:Parse
           (Message (Printf.sprintf "%s at line %d, column %d" m l c)))
  | Sql_frontend.Parser.Parse_error (m, l, c) ->
      Some
        (mk ~phase:Parse
           (Message (Printf.sprintf "%s at line %d, column %d" m l c)))
  | Sql_frontend.Analyzer.Analyze_error m -> Some (mk ~phase:Analyze (Message m))
  | Typecheck.Type_error m -> Some (mk ~phase:Typecheck (Message m))
  | Sem.Eval_error m -> Some (mk (Message m))
  | Value.Type_clash m -> Some (mk (Message m))
  | Schema.Schema_error m -> Some (mk (Message m))
  | Relation.Relation_error m -> Some (mk (Message m))
  | Database.Unknown_relation n -> Some (mk (Message ("unknown relation " ^ n)))
  | Builtin.Unknown_function n -> Some (mk (Message ("unknown function " ^ n)))
  | Csv.Csv_error { file; line; msg } ->
      Some (mk ~phase:Load (Message (Csv.error_to_string ~file ~line ~msg)))
  | Sys_error m -> Some (mk ~phase:Load (Message m))
  | Failure m -> Some (mk (Message m))
  | Invalid_argument m -> Some (mk (Message m))
  | Division_by_zero -> Some (mk (Message "division by zero"))
  | Not_found -> Some (mk (Message "internal lookup failed (Not_found)"))
  | _ -> None

let classify ~default exn =
  match classify_opt ~default exn with
  | Some e -> e
  | None -> raise Not_found

let classified phase f =
  try f () with
  | Perm_error _ as e -> raise e
  | (Out_of_memory | Stack_overflow | Assert_failure _) as e -> raise e
  | exn -> (
      match classify_opt ~default:phase exn with
      | Some err -> raise (Perm_error err)
      | None -> raise exn)

(* ------------------------------------------------------------------ *)
(* Phase meter                                                         *)
(* ------------------------------------------------------------------ *)

(* Armed, every [enter] adds the words its phase allocated
   ({!Guard.allocated_words}) and the wall time it took to the calling
   domain's totals, each phase without the phases entered inside it, so
   the totals of one statement sum to what the statement cost inside
   its phases. Disarmed, a phase pays one [Atomic.get]. *)
let metering = Atomic.make false

let phases = [| Parse; Analyze; Typecheck; Rewrite; Optimize; Eval; Load; Protocol |]

let phase_index p =
  let rec go i = if phases.(i) = p then i else go (i + 1) in
  go 0

type meter = {
  m_words : float array;  (** per phase, indexed as [phases] *)
  m_seconds : float array;
  mutable m_inner_words : float;  (** spent in phases inside the current one *)
  mutable m_inner_seconds : float;
}

let meter_key =
  Domain.DLS.new_key (fun () ->
      {
        m_words = Array.make (Array.length phases) 0.0;
        m_seconds = Array.make (Array.length phases) 0.0;
        m_inner_words = 0.0;
        m_inner_seconds = 0.0;
      })

let arm_meter () = Atomic.set metering true
let disarm_meter () = Atomic.set metering false

let phase_totals () =
  let m = Domain.DLS.get meter_key in
  List.filter_map
    (fun p ->
      let i = phase_index p in
      if m.m_words.(i) = 0.0 && m.m_seconds.(i) = 0.0 then None
      else Some (p, m.m_words.(i), m.m_seconds.(i)))
    (Array.to_list phases)

let reset_phase_totals () =
  let m = Domain.DLS.get meter_key in
  Array.fill m.m_words 0 (Array.length phases) 0.0;
  Array.fill m.m_seconds 0 (Array.length phases) 0.0

let metered phase f =
  let m = Domain.DLS.get meter_key in
  let outer_words = m.m_inner_words and outer_seconds = m.m_inner_seconds in
  m.m_inner_words <- 0.0;
  m.m_inner_seconds <- 0.0;
  let w0 = Guard.allocated_words () and t0 = Unix.gettimeofday () in
  let finish () =
    let w = Guard.allocated_words () -. w0 and t = Unix.gettimeofday () -. t0 in
    let i = phase_index phase in
    m.m_words.(i) <- m.m_words.(i) +. (w -. m.m_inner_words);
    m.m_seconds.(i) <- m.m_seconds.(i) +. (t -. m.m_inner_seconds);
    m.m_inner_words <- outer_words +. w;
    m.m_inner_seconds <- outer_seconds +. t
  in
  match classified phase f with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let enter phase f = if Atomic.get metering then metered phase f else classified phase f

(* ------------------------------------------------------------------ *)
(* Fallback ladder                                                     *)
(* ------------------------------------------------------------------ *)

(* Static default: the paper's strategies ordered by rewrite cost, kept
   to the ones whose applicability conditions [q] satisfies. *)
let default_ranking db q =
  List.filter (fun s -> Rewrite.applies db s q) Strategy.[ Unn; Move; Left; Gen ]

let strategy_ranking = ref default_ranking

type attempt = { att_strategy : Strategy.t; att_error : error }
type ladder = { lad_strategy : Strategy.t; lad_abandoned : attempt list }

let ladder_to_string l =
  match l.lad_abandoned with
  | [] -> Printf.sprintf "strategy %s answered" (Strategy.to_string l.lad_strategy)
  | ab ->
      Printf.sprintf "strategy %s answered after %s"
        (Strategy.to_string l.lad_strategy)
        (String.concat "; "
           (List.map
              (fun a ->
                Printf.sprintf "%s was abandoned: %s"
                  (Strategy.to_string a.att_strategy)
                  (error_to_string a.att_error))
              ab))

let retryable e =
  match e.e_detail with Unsupported _ | Budget _ -> true | _ -> false

let run_ladder db ~strategy ~budget q f =
  (* The rungs after [strategy]. Ranking costs trial rewrites, so it is
     deferred to the first abandoned rung — unless a budget must be
     split across the rungs up front. *)
  let later =
    lazy
      (List.filter
         (fun s -> s <> strategy)
         (match !strategy_ranking db q with
         | r -> r
         | exception _ -> default_ranking db q))
  in
  if budget <> None then ignore (Lazy.force later);
  let deadline =
    match budget with
    | Some b -> Option.map (fun t -> Unix.gettimeofday () +. t) b.Guard.g_timeout
    | None -> None
  in
  (* The remaining wall-clock allowance is re-split before each attempt,
     so time an early strategy did not use flows to the later ones. *)
  let sub_budget rest =
    match budget with
    | None -> None
    | Some b ->
        let n_remaining = List.length (Lazy.force rest) + 1 in
        let g_timeout =
          Option.map
            (fun d ->
              Float.max 0.05
                ((d -. Unix.gettimeofday ()) /. float_of_int n_remaining))
            deadline
        in
        Some { b with Guard.g_timeout }
  in
  let rec go abandoned s rest =
    match Guard.with_budget (sub_budget rest) (fun () -> f s) with
    | r -> (r, { lad_strategy = s; lad_abandoned = List.rev abandoned })
    | exception Perm_error e when retryable e && Lazy.force rest <> [] -> (
        match Lazy.force rest with
        | next :: rest' ->
            go
              ({ att_strategy = s; att_error = e } :: abandoned)
              next (Lazy.from_val rest')
        | [] -> assert false (* excluded by the guard *))
  in
  go [] strategy later
