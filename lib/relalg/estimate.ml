(** Cardinality and cost estimation: an abstract interpretation over
    {!Algebra.query} run as a {!Dataflow} domain.

    The fact of a subplan is its estimated output row count plus
    per-attribute distinct-value counts and null fractions (seeded from
    {!Stats} at base relations and propagated through every operator),
    and the cumulative cost — in tuples touched — of evaluating the
    subtree.

    Selectivity of a predicate routes each conjunct through the
    {!Symbolic} interval solver first — a proved-unsatisfiable
    condition estimates exactly 0 rows, a proved tautology passes the
    input through — and falls back to histogram lookups (equality and
    range comparisons against constants), NDV containment (equality
    between attributes), null fractions ([IS NULL]) and fixed guesses
    for the opaque remainder.

    Sublinks cost one evaluation of their query per distinct binding of
    their free attributes (mirroring the evaluator's memoization):
    uncorrelated sublinks are paid once, correlated ones
    [min(rows, Π ndv(free))] times. The per-strategy cost differences
    the Advisor ranks — Gen's CrossBase pair count, Left's outer-join
    fanout, Move/Unn's rewrite sizes — all fall out of estimating each
    strategy's rewritten plan with these operator formulas.

    Everything is total: unknown relations and attributes fall back to
    defaults; no plan makes the estimator raise.

    A per-process feedback table maps plan fingerprints to observed
    outcomes (actual row counts, or Guard budget trips): the Advisor
    consults it to re-rank repeated queries whose estimates proved
    wrong — re-ranking only, never mid-query re-optimization. *)

open Algebra

type colinfo = {
  ci_ndv : float;  (** estimated distinct values of this attribute *)
  ci_null : float;  (** estimated null fraction *)
  ci_stats : Stats.column option;
      (** histogram-bearing base statistics, where still traceable *)
}

type fact = {
  e_names : string list;
  e_cols : colinfo list;
  e_rows : float;  (** estimated output rows *)
  e_cost : float;  (** cumulative tuples-touched cost of the subtree *)
}

let top_col = { ci_ndv = 1000.0; ci_null = 0.5; ci_stats = None }
let default_rows = 1000.0

(* Selectivity guesses for predicates outside the statistics theory —
   the classic System R defaults. *)
let sel_range = 1.0 /. 3.0
let sel_opaque = 1.0 /. 3.0
let sel_like = 0.25
let sel_sublink = 0.5

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

let col_of_stats (c : Stats.column) =
  { ci_ndv = c.Stats.c_ndv; ci_null = c.Stats.c_null_frac; ci_stats = Some c }

let fact_of_table (t : Stats.table) =
  let rows = float_of_int t.Stats.t_rows in
  {
    e_names = List.map (fun c -> c.Stats.c_name) t.Stats.t_cols;
    e_cols = List.map col_of_stats t.Stats.t_cols;
    e_rows = rows;
    e_cost = rows;
  }

(* ------------------------------------------------------------------ *)
(* The domain                                                          *)
(* ------------------------------------------------------------------ *)

module Est_domain = struct
  type nonrec fact = fact
  type col = colinfo

  let join a b =
    let widen x y =
      {
        ci_ndv = Float.max x.ci_ndv y.ci_ndv;
        ci_null = Float.max x.ci_null y.ci_null;
        ci_stats = x.ci_stats;
      }
    in
    {
      a with
      e_cols = Dataflow.map2_padded widen top_col a.e_cols b.e_cols;
      e_rows = Float.max a.e_rows b.e_rows;
      e_cost = Float.max a.e_cost b.e_cost;
    }

  let concat a b =
    {
      e_names = a.e_names @ b.e_names;
      e_cols = a.e_cols @ b.e_cols;
      e_rows = a.e_rows;
      e_cost = a.e_cost;
    }

  let lookup env name =
    let rec go = function
      | [] -> top_col
      | f :: rest -> (
          match Dataflow.column name f.e_names f.e_cols with
          | c -> c
          | exception Not_found -> go rest)
    in
    go env

  (* Histograms compare by identity: equal ones from different
     collections only cost a re-transfer. *)
  let same_col a b =
    Float.equal a.ci_ndv b.ci_ndv
    && Float.equal a.ci_null b.ci_null
    && Option.equal ( == ) a.ci_stats b.ci_stats

  let to_num = function
    | Value.Int i -> Some (float_of_int i)
    | Value.Float f -> Some f
    | Value.Bool b -> Some (if b then 1.0 else 0.0)
    | _ -> None

  (* Selectivity of one conjunct against an environment of facts
     (innermost scope first). Sublink queries are estimated through
     [recurse]; their evaluation cost is accounted separately by
     [sublinks_cost], not here. *)
  let rec conjunct_sel ~recurse ~env c =
    let sel e = conjunct_sel ~recurse ~env e in
    let eq_sel ci v =
      (1.0 -. ci.ci_null)
      *.
      match (ci.ci_stats, Option.bind v to_num) with
      | Some st, Some x -> Stats.frac_eq st x
      | _ -> 1.0 /. Float.max 1.0 ci.ci_ndv
    in
    let cmp_const op ci v =
      match (op, ci.ci_stats, Option.bind v to_num) with
      | (Eq | EqNull), _, _ -> eq_sel ci v
      | Neq, _, _ -> clamp01 ((1.0 -. ci.ci_null) *. (1.0 -. (1.0 /. Float.max 1.0 ci.ci_ndv)))
      | Leq, Some st, Some x -> (1.0 -. ci.ci_null) *. Stats.frac_le st x
      | Lt, Some st, Some x ->
          (1.0 -. ci.ci_null)
          *. Float.max 0.0 (Stats.frac_le st x -. Stats.frac_eq st x)
      | Gt, Some st, Some x ->
          (1.0 -. ci.ci_null) *. (1.0 -. Stats.frac_le st x)
      | Geq, Some st, Some x ->
          (1.0 -. ci.ci_null)
          *. Float.min 1.0 (1.0 -. Stats.frac_le st x +. Stats.frac_eq st x)
      | _ -> (1.0 -. ci.ci_null) *. sel_range
    in
    match c with
    | Const (Value.Bool true) -> 1.0
    | Const (Value.Bool false) | Const Value.Null | TypedNull _ -> 0.0
    | And (a, b) -> sel a *. sel b
    | Or (a, b) ->
        let sa = sel a and sb = sel b in
        clamp01 (sa +. sb -. (sa *. sb))
    | Not (IsNull (Attr n)) -> clamp01 (1.0 -. (lookup env n).ci_null)
    | Not a -> clamp01 (1.0 -. sel a)
    | IsNull (Attr n) -> (lookup env n).ci_null
    | IsNull _ -> 0.1
    | Cmp (op, Attr n, Const v) -> cmp_const op (lookup env n) (Some v)
    | Cmp (op, Const v, Attr n) ->
        let flip = function
          | Lt -> Gt
          | Leq -> Geq
          | Gt -> Lt
          | Geq -> Leq
          | o -> o
        in
        cmp_const (flip op) (lookup env n) (Some v)
    | Cmp ((Eq | EqNull), Attr a, Attr b) ->
        (* NDV containment: the smaller domain is assumed contained in
           the larger, so each pairing matches with 1/max(ndv) *)
        let ca = lookup env a and cb = lookup env b in
        (1.0 -. ca.ci_null) *. (1.0 -. cb.ci_null)
        /. Float.max 1.0 (Float.max ca.ci_ndv cb.ci_ndv)
    | Cmp (_, Attr _, Attr _) -> sel_range
    | Cmp ((Eq | EqNull), _, _) -> sel_opaque /. 3.0
    | Cmp (_, _, _) -> sel_range
    | InList (Attr n, es) ->
        let ci = lookup env n in
        clamp01 (float_of_int (List.length es) *. (1.0 /. Float.max 1.0 ci.ci_ndv))
        *. (1.0 -. ci.ci_null)
    | InList (_, es) ->
        clamp01 (float_of_int (List.length es) *. (sel_opaque /. 3.0))
    | Like (_, _) -> sel_like
    | Sublink s -> (
        match s.kind with
        | Exists ->
            (* nonempty estimate ⇒ most outer rows find a witness *)
            if (recurse ~env s.query).e_rows >= 1.0 then 0.75 else 0.1
        | Scalar -> sel_sublink
        | AnyOp ((Eq | EqNull), lhs) ->
            (* containment: the outer value hits the sublink's value
               set with probability min(1, ndv_sub / ndv_lhs) *)
            let sub = recurse ~env s.query in
            if sub.e_rows = 0.0 then 0.0
            else
              let sub_ndv =
                match sub.e_cols with
                | c :: _ -> Float.min c.ci_ndv sub.e_rows
                | [] -> sub.e_rows
              in
              let lhs_ndv =
                match lhs with
                | Attr n -> (lookup env n).ci_ndv
                | Const _ -> 1.0
                | _ -> default_rows
              in
              clamp01 (sub_ndv /. Float.max 1.0 lhs_ndv)
        | AnyOp (_, _) -> if (recurse ~env s.query).e_rows = 0.0 then 0.0 else sel_sublink
        | AllOp (_, _) ->
            (* vacuously true on an empty sublink *)
            if (recurse ~env s.query).e_rows = 0.0 then 1.0 else sel_sublink)
    | Case _ | FunCall _ | Binop _ | Attr _ | Const _ -> sel_opaque

  (* Selectivity of a whole condition: the Symbolic solver first (its
     verdicts are theorems — see symbolic.mli), then the per-conjunct
     product. A cross-conjunct contradiction ([x < 1 AND x > 2]) is
     caught by the whole-condition query even though each conjunct
     alone looks innocent. *)
  let selectivity ~recurse ~env cond =
    let sctx = Symbolic.ctx () in
    match Symbolic.never_true sctx cond with
    | Symbolic.Proved -> 0.0
    | _ -> (
        match Symbolic.always_true sctx cond with
        | Symbolic.Proved -> 1.0
        | _ -> (
            match conjuncts cond with
            | [ c ] when c == cond ->
                (* the condition is its own only conjunct: the solver
                   (deterministic on a fresh context) already answered
                   both questions about it *)
                conjunct_sel ~recurse ~env c
            | cs ->
                List.fold_left
                  (fun acc c ->
                    let s =
                      match Symbolic.never_true sctx c with
                      | Symbolic.Proved -> 0.0
                      | _ -> (
                          match Symbolic.always_true sctx c with
                          | Symbolic.Proved -> 1.0
                          | _ -> conjunct_sel ~recurse ~env c)
                    in
                    acc *. s)
                  1.0 cs))

  (* Evaluation cost of the sublinks of [exprs]: one evaluation of the
     sublink plan per distinct binding of its free attributes, capped
     at [rows] (the evaluator memoizes per binding); an uncorrelated
     sublink has no frees and is paid exactly once. *)
  let sublinks_cost db ~frees:memo ~recurse ~env ~rows exprs =
    List.fold_left
      (fun acc (s : sublink) ->
        let sub = recurse ~env s.query in
        let frees = Scope.body_frees memo db s.query in
        let bindings =
          if frees = [] then Float.min 1.0 rows
          else
            Float.min rows
              (List.fold_left
                 (fun acc n -> acc *. Float.max 1.0 (lookup env n).ci_ndv)
                 1.0 frees)
        in
        acc +. (bindings *. sub.e_cost) +. rows)
      0.0
      (List.concat_map sublinks_of_expr exprs)

  (* Scale a column's NDV down when the operator keeps [kept] of [of_]
     input rows (no value correlation assumed: min(ndv, kept)). *)
  let shrink rows cols =
    let bound = Float.max 1.0 rows in
    map_shared
      (fun c -> if c.ci_ndv <= bound then c else { c with ci_ndv = Float.min c.ci_ndv bound })
      cols

  let has_equi_conjunct db left_names right_names cond =
    let all_in names e =
      List.for_all (fun n -> List.mem n names) (Scope.refs_of_expr db e)
    in
    List.exists
      (fun c ->
        match c with
        | Cmp ((Eq | EqNull), a, b) when not (has_sublink c) ->
            (all_in left_names a && all_in right_names b)
            || (all_in right_names a && all_in left_names b)
        | _ -> false)
      (conjuncts cond)

  let transfer db ~frees ~recurse ~env ~inputs q =
    let input_fact () =
      match inputs with
      | [] -> { e_names = []; e_cols = []; e_rows = default_rows; e_cost = 0.0 }
      | [ f ] -> f
      | f :: rest -> List.fold_left concat f rest
    in
    let pair () =
      match inputs with
      | [ a; b ] -> (a, b)
      | _ -> (input_fact (), input_fact ())
    in
    match q with
    | Base name -> (
        let stats = Stats.of_db db in
        match Stats.table stats name with
        | Some t -> fact_of_table t
        | None ->
            { e_names = []; e_cols = []; e_rows = default_rows; e_cost = default_rows })
    | TableExpr r -> fact_of_table (Stats.of_relation r)
    | Select (cond, _) ->
        let f = input_fact () in
        let env' = f :: env in
        let s = selectivity ~recurse ~env:env' cond in
        let rows = f.e_rows *. s in
        let sub =
          sublinks_cost db ~frees ~recurse ~env:env' ~rows:f.e_rows [ cond ]
        in
        {
          e_names = f.e_names;
          e_cols = shrink rows f.e_cols;
          e_rows = rows;
          e_cost = f.e_cost +. f.e_rows +. sub;
        }
    | Project p ->
        let f = input_fact () in
        let env' = f :: env in
        let cols =
          List.map
            (fun (e, _) ->
              match e with
              | Attr n -> lookup env' n
              | Const _ | TypedNull _ -> { ci_ndv = 1.0; ci_null = 0.0; ci_stats = None }
              | _ ->
                  { ci_ndv = Float.max 1.0 f.e_rows; ci_null = 0.0; ci_stats = None })
            p.cols
        in
        let rows =
          if not p.distinct then f.e_rows
          else
            (* distinct groups bounded by the product of column NDVs *)
            Float.min f.e_rows
              (List.fold_left (fun acc c -> acc *. Float.max 1.0 c.ci_ndv) 1.0 cols)
        in
        let sub =
          sublinks_cost db ~frees ~recurse ~env:env' ~rows:f.e_rows
            (List.map fst p.cols)
        in
        {
          e_names = List.map snd p.cols;
          e_cols = shrink rows cols;
          e_rows = rows;
          e_cost = f.e_cost +. f.e_rows +. sub;
        }
    | Cross (_, _) ->
        let a, b = pair () in
        let rows = a.e_rows *. b.e_rows in
        {
          e_names = a.e_names @ b.e_names;
          e_cols = a.e_cols @ b.e_cols;
          e_rows = rows;
          e_cost = a.e_cost +. b.e_cost +. rows;
        }
    | Join (cond, _, _) ->
        let a, b = pair () in
        let joined = concat a b in
        let env' = joined :: env in
        let s = selectivity ~recurse ~env:env' cond in
        let rows = a.e_rows *. b.e_rows *. s in
        let pairs =
          if has_equi_conjunct db a.e_names b.e_names cond then
            (* hash join: build + probe + output *)
            a.e_rows +. b.e_rows +. rows
          else a.e_rows *. b.e_rows
        in
        let sub =
          sublinks_cost db ~frees ~recurse ~env:env' ~rows:(a.e_rows *. b.e_rows)
            [ cond ]
        in
        {
          e_names = joined.e_names;
          e_cols = shrink rows joined.e_cols;
          e_rows = rows;
          e_cost = a.e_cost +. b.e_cost +. pairs +. sub;
        }
    | LeftJoin (cond, _, _) ->
        let a, b = pair () in
        let joined = concat a b in
        let env' = joined :: env in
        let s = selectivity ~recurse ~env:env' cond in
        let matched = a.e_rows *. b.e_rows *. s in
        (* every left row survives at least once — the outer-join
           fanout the Left strategy pays *)
        let rows = Float.max a.e_rows matched in
        let match_prob = Float.min 1.0 (b.e_rows *. s) in
        let right_cols =
          List.map
            (fun c -> { c with ci_null = Float.max c.ci_null (1.0 -. match_prob) })
            b.e_cols
        in
        let pairs =
          if has_equi_conjunct db a.e_names b.e_names cond then
            a.e_rows +. b.e_rows +. rows
          else a.e_rows *. b.e_rows
        in
        let sub =
          sublinks_cost db ~frees ~recurse ~env:env' ~rows:(a.e_rows *. b.e_rows)
            [ cond ]
        in
        {
          e_names = joined.e_names;
          e_cols = shrink rows (a.e_cols @ right_cols);
          e_rows = rows;
          e_cost = a.e_cost +. b.e_cost +. pairs +. sub;
        }
    | Agg ag ->
        let f = input_fact () in
        let env' = f :: env in
        let group_cols =
          List.map
            (fun (e, _) ->
              match e with Attr n -> lookup env' n | _ -> top_col)
            ag.group_by
        in
        let rows =
          if ag.group_by = [] then 1.0
          else
            Float.min (Float.max 1.0 f.e_rows)
              (List.fold_left
                 (fun acc c -> acc *. Float.max 1.0 c.ci_ndv)
                 1.0 group_cols)
        in
        let agg_cols =
          List.map
            (fun c ->
              {
                ci_ndv = Float.max 1.0 rows;
                ci_null = (if String.equal c.agg_func "count" then 0.0 else 0.1);
                ci_stats = None;
              })
            ag.aggs
        in
        let sub =
          sublinks_cost db ~frees ~recurse ~env:env' ~rows:f.e_rows
            (List.map fst ag.group_by
            @ List.filter_map (fun c -> c.agg_arg) ag.aggs)
        in
        {
          e_names =
            List.map snd ag.group_by @ List.map (fun c -> c.agg_name) ag.aggs;
          e_cols = shrink rows group_cols @ agg_cols;
          e_rows = rows;
          e_cost = f.e_cost +. f.e_rows +. sub;
        }
    | Union (sem, _, _) ->
        let a, b = pair () in
        let rows =
          match sem with
          | Bag -> a.e_rows +. b.e_rows
          | SetSem ->
              Float.max a.e_rows b.e_rows +. (0.5 *. Float.min a.e_rows b.e_rows)
        in
        {
          e_names = a.e_names;
          e_cols = Dataflow.map2_padded
              (fun x y ->
                {
                  ci_ndv = Float.max x.ci_ndv y.ci_ndv;
                  ci_null = Float.max x.ci_null y.ci_null;
                  ci_stats = None;
                })
              top_col a.e_cols b.e_cols;
          e_rows = rows;
          e_cost = a.e_cost +. b.e_cost +. a.e_rows +. b.e_rows;
        }
    | Inter (_, _, _) ->
        let a, b = pair () in
        let rows = 0.5 *. Float.min a.e_rows b.e_rows in
        {
          e_names = a.e_names;
          e_cols = shrink rows a.e_cols;
          e_rows = rows;
          e_cost = a.e_cost +. b.e_cost +. a.e_rows +. b.e_rows;
        }
    | Diff (_, _, _) ->
        let a, b = pair () in
        let rows = Float.max 0.0 (a.e_rows -. (0.5 *. Float.min a.e_rows b.e_rows)) in
        {
          e_names = a.e_names;
          e_cols = shrink rows a.e_cols;
          e_rows = rows;
          e_cost = a.e_cost +. b.e_cost +. a.e_rows +. b.e_rows;
        }
    | Order (keys, _) ->
        let f = input_fact () in
        let sub =
          sublinks_cost db ~frees ~recurse ~env:(f :: env) ~rows:f.e_rows
            (List.map fst keys)
        in
        { f with e_cost = f.e_cost +. f.e_rows +. sub }
    | Limit (n, _) ->
        let f = input_fact () in
        let rows = Float.min (float_of_int n) f.e_rows in
        { f with e_rows = rows; e_cols = shrink rows f.e_cols }
end

module Est_engine = Dataflow.Engine (Est_domain)

type t = Est_engine.t

let create ?frees db = Est_engine.create ?frees db
let query t ?env q = Est_engine.query t ?env q
let transfers = Est_engine.transfers
let rows t q = (query t q).e_rows
let cost t q = (query t q).e_cost

(* ------------------------------------------------------------------ *)
(* Per-operator annotation (\explain, Lint's estimate rules)           *)
(* ------------------------------------------------------------------ *)

type annot = {
  a_path : string list;  (** plan path ({!Algebra.Path}), root first *)
  a_query : query;  (** the operator this annotation describes *)
  a_rows : float;
  a_cost : float;  (** cumulative cost of the subtree *)
}

let concat_facts = function
  | [] -> { e_names = []; e_cols = []; e_rows = 0.0; e_cost = 0.0 }
  | x :: rest -> List.fold_left Est_domain.concat x rest

(** [annotate t q]: every operator of [q] (sublink queries included)
    with its estimated rows and cumulative subtree cost, on its plan
    path — root first. *)
let annotate t q : annot list =
  let acc = ref [] in
  Path.walk
    (fun here env q ->
      let f = query t ~env q in
      acc :=
        { a_path = here; a_query = q; a_rows = f.e_rows; a_cost = f.e_cost }
        :: !acc;
      concat_facts (List.map (fun i -> query t ~env i) (inputs q)) :: env)
    [] q;
  List.rev !acc

let report t q =
  let buf = Buffer.create 256 in
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "%-60s rows≈%-12.6g cost≈%.6g\n"
           (Path.to_string a.a_path)
           a.a_rows a.a_cost))
    (annotate t q);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Feedback: observed outcomes keyed by plan fingerprint               *)
(* ------------------------------------------------------------------ *)

type feedback = {
  fb_est_rows : float;  (** what the estimator predicted *)
  fb_obs_rows : float;  (** rows actually observed (at trip time if tripped) *)
  fb_tripped : bool;  (** the Guard budget tripped on this plan *)
}

(* Fingerprints hash the pretty-printed plan, which is stable across
   re-parses (sublink ids are not printed), so a repeated query maps to
   the same entry. *)
let fingerprint q = Digest.to_hex (Digest.string (Pp.query_to_string q))

let feedback_tbl : (string, feedback) Hashtbl.t = Hashtbl.create 32
let feedback_mu = Mutex.create ()

let note_feedback ~fingerprint ~est_rows ~obs_rows ~tripped =
  Mutex.lock feedback_mu;
  Hashtbl.replace feedback_tbl fingerprint
    { fb_est_rows = est_rows; fb_obs_rows = obs_rows; fb_tripped = tripped };
  Mutex.unlock feedback_mu

let feedback ~fingerprint =
  Mutex.lock feedback_mu;
  let r = Hashtbl.find_opt feedback_tbl fingerprint in
  Mutex.unlock feedback_mu;
  r

let reset_feedback () =
  Mutex.lock feedback_mu;
  Hashtbl.reset feedback_tbl;
  Mutex.unlock feedback_mu

(** [corrected_cost ~fingerprint cost]: the estimate-correction the
    Advisor applies before ranking — a tripped plan is pushed to the
    back of the ranking, a completed plan's cost is scaled by the
    observed/estimated row ratio (clamped to [\[0.1, 100\]] so one
    noisy observation cannot invert the whole ranking). *)
let corrected_cost ~fingerprint cost =
  match feedback ~fingerprint with
  | None -> cost
  | Some fb when fb.fb_tripped -> cost *. 1e6
  | Some fb ->
      let ratio =
        fb.fb_obs_rows /. Float.max 1.0 fb.fb_est_rows
        |> Float.max 0.1 |> Float.min 100.0
      in
      cost *. ratio
