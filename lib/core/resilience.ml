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

let enter phase f =
  try f () with
  | Perm_error _ as e -> raise e
  | (Out_of_memory | Stack_overflow | Assert_failure _) as e -> raise e
  | exn -> (
      match classify_opt ~default:phase exn with
      | Some err -> raise (Perm_error err)
      | None -> raise exn)

(* ------------------------------------------------------------------ *)
(* Fallback ladder                                                     *)
(* ------------------------------------------------------------------ *)

(* Static default: the paper's strategies ordered by rewrite cost, kept
   to the ones whose applicability conditions [q] satisfies. *)
let default_ranking db q =
  List.filter
    (fun s ->
      match Rewrite.rewrite db ~strategy:s q with
      | _ -> true
      | exception Strategy.Unsupported _ -> false)
    [ Strategy.Unn; Strategy.Move; Strategy.Left; Strategy.Gen ]

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

let transient e = match e.e_detail with Fault _ -> true | _ -> false

type backoff = {
  bo_base : float;
  bo_cap : float;
  bo_retries : int;
  bo_seed : int;
}

let backoff ?(base = 0.05) ?(cap = 1.0) ?(retries = 2) ?(seed = 0) () =
  { bo_base = Float.max 0. base; bo_cap = Float.max 0. cap;
    bo_retries = max 0 retries; bo_seed = seed }

(* Deterministic jitter: an LCG stream seeded per ladder run. The k-th
   pause is [min cap (base * 2^k)] scaled by a uniform factor in
   [0.5, 1.0), so same seed → same pause sequence. *)
let jitter_stream seed =
  let state = ref (((seed * 0x9E3779B1) lor 1) land 0x3FFFFFFF) in
  fun () ->
    state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
    0.5 +. (0.5 *. (float_of_int !state /. float_of_int 0x40000000))

let run_ladder db ~strategy ~budget ?backoff q f =
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
  (* Backoff pauses sleep real wall-clock, so they draw down the same
     remaining allowance [sub_budget] re-splits before each attempt:
     pausing never extends the overall deadline, it only shrinks what
     later attempts receive (floored at 50 ms per attempt). A pause is
     clamped so it cannot sleep past the deadline itself. *)
  let uniform =
    match backoff with
    | Some b -> jitter_stream b.bo_seed
    | None -> fun () -> 1.0
  in
  let pause k =
    match backoff with
    | None -> ()
    | Some b ->
        let d = Float.min b.bo_cap (b.bo_base *. (2. ** float_of_int k)) in
        let d = d *. uniform () in
        let d =
          match deadline with
          | None -> d
          | Some dl -> Float.min d (Float.max 0. (dl -. Unix.gettimeofday ()))
        in
        if d > 0. then Unix.sleepf d
  in
  (* With backoff configured, a transient injected fault first retries
     the {e same} strategy (up to [bo_retries] times) before escalating
     to the next rung; without backoff it is not retried at all. *)
  let max_retries = match backoff with Some b -> b.bo_retries | None -> 0 in
  let rec go abandoned n_pauses retries s rest =
    match Guard.with_budget (sub_budget rest) (fun () -> f s) with
    | r -> (r, { lad_strategy = s; lad_abandoned = List.rev abandoned })
    | exception Perm_error e when transient e && retries < max_retries ->
        (* same-rung retry: the strategy is not abandoned — if it
           delivers on a later try the ladder reports a clean run *)
        pause n_pauses;
        go abandoned (n_pauses + 1) (retries + 1) s rest
    | exception Perm_error e
      when (retryable e || (transient e && max_retries > 0))
           && Lazy.force rest <> [] -> (
        pause n_pauses;
        match Lazy.force rest with
        | next :: rest' ->
            go
              ({ att_strategy = s; att_error = e } :: abandoned)
              (n_pauses + 1) 0 next (Lazy.from_val rest')
        | [] -> assert false (* excluded by the guard *))
  in
  go [] 0 0 strategy later
