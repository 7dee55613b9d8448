(** Query execution: the production engine. A type-checked
    {!Algebra.query} is lowered once into batch-at-a-time operators over
    columnar {!Vector} batches, and every scalar expression into a
    closure with its attribute references resolved to frame offsets.

    Operators materialize their outputs as batch lists, evaluate
    selection predicates as columnar masks (unboxed three-valued bytes
    over a selection vector), probe uncorrelated [ANY]/[ALL] sublinks
    against an unboxed integer set specialized from the {!Sem} summary,
    and parallelize leaf scan filtering and hash-join probing across
    OCaml 5 domains with the morsel scheduler ({!Morsel}).

    Everything without a columnar kernel — residual join predicates,
    projection expressions, aggregation, ordering — runs the compiled
    closures of the expression compiler below: every [Attr] resolved at
    lowering time to a [(frame_depth, column_offset)] pair, predicates
    as unboxed three-valued tests. A sublink's body is lowered by the
    same {!lower} as the enclosing plan and runs sequentially on the
    enclosing execution's context, memoized per binding of its
    correlated attributes; inside a correlated body, a subtree that
    does not depend on the binding and cannot touch the counters runs
    once per execution and is replayed for later bindings.

    Results match the reference walker ({!Eval}) row for row (schema
    names, row order, error messages) and the {!Sem.stats} counters
    reflect the same plan events at batch granularity.

    Determinism and domain safety: worker domains only read frozen
    structures (columnar batches, prepped probe sets, a built hash
    table) and write to per-task result slots. Workers adopt the
    coordinator's {!Guard} scope per task ({!Guard.with_scope}), so
    row/pair/time/allocation budgets aggregate across domains and trip
    on whichever domain crosses a ceiling. Shared mutable cells are
    registered in {!Share_lint}'s inventory and instrumented for the
    {!Race} detector: the columnar cache under its lock, probe prep and
    the context's memo tables as coordinator-prepped state that workers
    may only read after the scheduler's publish edge. *)

open Algebra

(** Workers per query (1 = sequential). Set via [--domains]. *)
let domains = ref 1

(** Rows per columnar batch. Set via [--batch-rows]. At 256 a batch's
    per-row scratch arrays (selection vectors, masks, row arrays) stay
    within OCaml's minor-heap size limit (256 words); larger ones are
    allocated directly in the major heap, where short-lived garbage is
    far more expensive to reclaim. *)
let batch_rows = ref 256

(** Test-only: run on this pool regardless of [domains] and of the
    core-count clamp in {!Morsel.get}. The race-fuzz campaign and the
    multi-domain tests need genuinely parallel schedules even on hosts
    where [Domain.recommended_domain_count () = 1]. *)
let pool_override : Morsel.pool option ref = ref None

(* ---- columnar base-relation cache --------------------------------- *)

(* Base relations are converted to columnar batches once and reused
   across executions (keyed on physical identity plus the batch size
   they were split with — a DDL'd catalog entry is a fresh relation and
   misses). Guarded by a mutex: executions on different domains may
   race on the cache even though one query's conversion happens on the
   coordinator. *)
let cache_lock = Mutex.create ()
let cache : (Relation.t * int * Vector.t array) list ref = ref []
let cache_cap = 32

let clear_cache () =
  Race.with_lock cache_lock "vexec.cache_lock" (fun () ->
      Race.write "vexec.cache";
      cache := [])

let rec take_n n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take_n (n - 1) rest

let columnar_batches rel : Vector.t array =
  let br = max 1 !batch_rows in
  let hit =
    Race.with_lock cache_lock "vexec.cache_lock" (fun () ->
        Race.read "vexec.cache";
        List.find_opt (fun (r, b, _) -> r == rel && b = br) !cache)
  in
  match hit with
  | Some (_, _, bats) -> bats
  | None ->
      let bats = Vector.of_relation ~batch_rows:br rel in
      Race.with_lock cache_lock "vexec.cache_lock" (fun () ->
          Race.write "vexec.cache";
          cache :=
            take_n cache_cap
              ((rel, br, bats)
              :: List.filter (fun (r, b, _) -> not (r == rel && b = br)) !cache));
      bats

(* ---- runtime ------------------------------------------------------- *)

(** Per-execution context: sublink memo tables and counters, exactly
    mirroring the reference evaluator's. *)
type ctx = {
  ctx_tag : int;
      (* process-unique, for per-execution race-detector locations *)
  db : Database.t;
  sub_results : (int * Value.t list, Relation.t) Hashtbl.t;
  sub_summaries : (int * Value.t list, Sem.summary) Hashtbl.t;
  stats : Sem.stats;
}

let ctx_counter = Atomic.make 0

let mk_ctx db =
  {
    ctx_tag = Atomic.fetch_and_add ctx_counter 1;
    db;
    sub_results = Hashtbl.create 64;
    sub_summaries = Hashtbl.create 64;
    stats = Sem.fresh_stats ();
  }

(* The sublink memo tables (and the replay slots) are per-execution and
   coordinator-confined: probes are prepped before any fan-out and
   sublink bodies run sequentially, so a worker-domain access here is a
   bug the armed race detector reports. The location is per-ctx — two
   concurrent executions own disjoint tables and must not alias. *)
let memo_loc ctx = "vexec.ctx[" ^ string_of_int ctx.ctx_tag ^ "].memo"
let memo_read ctx = if Race.is_armed () then Race.read (memo_loc ctx)
let memo_write ctx = if Race.is_armed () then Race.write (memo_loc ctx)

(** Runtime environment: tuple frames, innermost first. *)
type renv = Tuple.t list

(** A compiled scalar expression. *)
type cexpr = ctx -> renv -> Value.t

(* The operator path under lowering — read (at lowering time only) by
   [compile_sublink] to place sublink boundaries without threading a
   path through every expression-compiler signature. Set by the
   [*_at here] helpers before an operator's own expressions compile. *)
let cur_compile_path : string list ref = ref []

(** Per-execution runtime: the context, the outer tuple frames, and the
    worker pool. *)
type rt = { cctx : ctx; renv : renv; pool : Morsel.pool option }

(** A lowered operator: batches out, in the reference row order. *)
type vop = { v_schema : Schema.t; v_run : rt -> Vector.t list }

(* Batch-granularity governor checkpoints: tick at operator entry, row
   accounting per produced batch at operator exit. *)
let guarded here (v : vop) : vop =
  {
    v_schema = v.v_schema;
    v_run =
      (fun rt ->
        Guard.tick here;
        let bats = v.v_run rt in
        if Guard.counts_rows () then
          List.iter (fun b -> Guard.count_rows here (Vector.length b)) bats
        else Guard.tick here;
        bats);
  }

(* [par_run here pool ~tasks f] — run [f 0..tasks-1] on the pool.
   Every worker adopts the coordinator's governor scope for its tasks
   ({!Guard.with_scope}): ticks and allocation account into the shared
   scope totals from whichever domain runs the morsel, and a ceiling
   crossed on a worker raises [Budget_exceeded] there — the scheduler
   re-raises it from the coordinator's barrier. The coordinator
   (worker 0) already holds its own view of the scope, so it ticks
   directly. *)
let par_run here pool ~tasks (f : int -> unit) =
  if tasks > 0 then begin
    let scope = Guard.current_scope () in
    Morsel.run pool ~tasks (fun w t ->
        if w = 0 then begin
          Guard.tick here;
          f t
        end
        else
          Guard.with_scope scope (fun () ->
              Guard.tick here;
              f t))
  end

(* ---- batch utilities ----------------------------------------------- *)

(* [0; 1; ...; n-1], filled through a typed store ([Array.init]
   stores through the polymorphic write barrier). *)
let iota n : int array =
  let a = Array.make n 0 in
  for i = 1 to n - 1 do
    Array.unsafe_set a i i
  done;
  a

(* Physical indices of a batch's surviving rows, in order. *)
let idx_of (b : Vector.t) : int array =
  match b with
  | Vector.Cols { sel = Some s; _ } -> s
  | Vector.Cols { n; _ } -> iota n
  | Vector.Rows _ | Vector.CrossB _ -> iota (Vector.length b)

let col_of (b : Vector.t) j : Vector.column option =
  match b with
  | Vector.Cols { cols; _ } -> Some cols.(j)
  | Vector.Rows _ | Vector.CrossB _ -> None

(* Split a materialized row list into [Rows] batches, filling each
   batch's array straight from the list. *)
let chunk_rows schema (rows : Tuple.t list) : Vector.t list =
  let br = max 1 !batch_rows in
  let rec go left rows acc =
    match rows with
    | [] -> List.rev acc
    | first :: _ ->
        let chunk = Array.make (min br left) first in
        let rec fill i rows =
          if i = Array.length chunk then rows
          else
            match rows with
            | t :: rest ->
                Array.unsafe_set chunk i t;
                fill (i + 1) rest
            | [] -> []
        in
        let rest = fill 0 rows in
        go (left - Array.length chunk) rest (Vector.rows_batch schema chunk :: acc)
  in
  go (List.length rows) rows []

(* ---- attribute access and plan analyses ----------------------------- *)

(* Resolution happens once, here; execution touches no strings. *)
let resolve_attr (cenv : Schema.t list) name : int * int =
  let rec go depth = function
    | [] -> Sem.eval_error "unknown attribute %S at evaluation time" name
    | s :: rest -> (
        match Schema.find s name with
        | Some i -> (depth, i)
        | None -> go (depth + 1) rest)
  in
  go 0 cenv

let attr_access (depth, off) : cexpr =
  match depth with
  | 0 -> (
      fun _ env ->
        match env with
        | t :: _ -> Tuple.get t off
        | [] -> Sem.eval_error "empty environment at depth 0")
  | 1 -> (
      fun _ env ->
        match env with
        | _ :: t :: _ -> Tuple.get t off
        | _ -> Sem.eval_error "missing frame at depth 1")
  | d -> fun _ env -> Tuple.get (List.nth env d) off

(* Syntactically boolean-valued expressions: the top constructor alone
   guarantees a [Bool]/[Null] result on well-typed input. *)
let is_boolean_shape = function
  | Cmp _ | And _ | Or _ | Not _ | IsNull _ | Like _ | InList _
  | Const (Value.Bool _)
  | Sublink { kind = Exists | AnyOp _ | AllOp _; _ } ->
      true
  | _ -> false

let const_of = function
  | Const v -> Some v
  | TypedNull _ -> Some Value.Null
  | _ -> None

(* Attribute names an expression's evaluation can read: its own [Attr]
   nodes plus the free (correlated) variables of its sublink queries.
   Sublink query *internals* resolve inside their own scopes and cannot
   reach a frame their free-variable set does not mention. *)
let expr_deps db (e : expr) : string list =
  let rec go acc = function
    | Attr n -> n :: acc
    | Const _ | TypedNull _ -> acc
    | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
        go (go acc a) b
    | Not a | IsNull a | Like (a, _) -> go acc a
    | Case (whens, els) ->
        let acc =
          List.fold_left (fun acc (c, e) -> go (go acc c) e) acc whens
        in
        (match els with Some e -> go acc e | None -> acc)
    | InList (a, es) -> List.fold_left go (go acc a) es
    | FunCall (_, args) -> List.fold_left go acc args
    | Sublink s -> (
        let acc = List.rev_append (Scope.free_of_query db s.query) acc in
        match s.kind with
        | AnyOp (_, l) | AllOp (_, l) -> go acc l
        | Exists | Scalar -> acc)
  in
  go [] e

(* Whether re-evaluating [e] more or fewer times (with an unchanged
   binding of its dependencies) leaves the execution counters untouched:
   ANY/ALL sublinks answer repeat evaluations from the summary cache
   silently, while EXISTS/scalar sublinks count a memo hit on each
   evaluation. Evaluation-frequency rewrites are only allowed for the
   former. *)
let counter_silent (e : expr) : bool =
  let rec go = function
    | Attr _ | Const _ | TypedNull _ -> true
    | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
        go a && go b
    | Not a | IsNull a | Like (a, _) -> go a
    | Case (whens, els) ->
        List.for_all (fun (c, e) -> go c && go e) whens
        && (match els with Some e -> go e | None -> true)
    | InList (a, es) -> go a && List.for_all go es
    | FunCall (_, args) -> List.for_all go args
    | Sublink s -> (
        match s.kind with
        | Exists | Scalar -> false
        | AnyOp (_, l) | AllOp (_, l) -> go l)
  in
  go e

(* Whether running [q] leaves the execution counters untouched: joins
   count themselves, their pairs and emitted rows, and sublinks their
   evaluations and memo hits; no other operator touches {!Sem.stats}. *)
let rec counter_free q =
  (not (List.exists has_sublink (root_exprs q)))
  &&
  match q with
  | Base _ | TableExpr _ -> true
  | Join _ | LeftJoin _ | Cross _ -> false
  | Select (_, c) | Order (_, c) | Limit (_, c) -> counter_free c
  | Project { proj_input = c; _ } | Agg { agg_input = c; _ } -> counter_free c
  | Union (_, a, b) | Inter (_, a, b) | Diff (_, a, b) ->
      counter_free a && counter_free b

(* Offsets of a projection list that only reads the input frame's own
   columns; [None] as soon as any item is not a bare in-frame [Attr]. *)
let own_offsets (schema : Schema.t) cols : int array option =
  let resolve = function
    | Attr name, _ -> Schema.find schema name
    | _ -> None
  in
  let offs = List.map resolve cols in
  if List.for_all Option.is_some offs then
    Some (Array.of_list (List.map Option.get offs))
  else None

(* Projection-into-join fusion: [Project] of bare attributes directly
   over a join (or a select-over-product that lowers into one) gathers
   output rows straight from the two input tuples inside the join's emit
   step — the concatenated intermediate tuple is never built. Returns
   the join's [(outer, cond, left, right)] and the fused projection's
   output offsets and schema. Offsets are checked against the join's
   inferred output schema so correlated names (resolving to an outer
   frame) fall back to the generic path. *)
let fused_join db cenv cols proj_input =
  let parts =
    match proj_input with
    | Join (c, a, b) -> Some (false, c, a, b)
    | LeftJoin (c, a, b) -> Some (true, c, a, b)
    | Select (c, Cross (a, b)) -> Some (false, c, a, b)
    | Select (c, Join (jc, a, b)) -> Some (false, And (jc, c), a, b)
    | _ -> None
  in
  Option.bind parts (fun (outer, cond, a, b) ->
      let joint =
        Schema.concat
          (Typecheck.infer_query_env db cenv a)
          (Typecheck.infer_query_env db cenv b)
      in
      Option.map
        (fun offs ->
          (outer, cond, a, b, (offs, Typecheck.projection_schema db (joint :: cenv) cols)))
        (own_offsets joint cols))

(* Evaluate an array of compiled expressions into a fresh tuple with an
   explicit loop — [Array.map] would allocate a closure per row. *)
let eval_row (cexprs : cexpr array) ctx env : Tuple.t =
  let n = Array.length cexprs in
  let out = Array.make n Value.Null in
  for j = 0 to n - 1 do
    Array.unsafe_set out j ((Array.unsafe_get cexprs j) ctx env)
  done;
  out

(* ---- three-valued scalar kernels ----------------------------------- *)

(* 0 = false, 1 = true, 2 = unknown — the unboxed predicate encoding of
   masks and compiled predicates alike. *)
let b3_of_value v =
  if Value.is_true v then 1 else if Value.is_null v then 2 else 0

let icmp op (x : int) (y : int) =
  match op with
  | Eq | EqNull -> x = y
  | Neq -> x <> y
  | Lt -> x < y
  | Leq -> x <= y
  | Gt -> x > y
  | Geq -> x >= y

let ctest op c =
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Leq -> c <= 0
  | Gt -> c > 0
  | Geq -> c >= 0
  | EqNull -> assert false

(* One three-valued comparison: [=n] is two-valued, anything else is
   unknown on NULL or incomparable; integer pairs compare unboxed. *)
let cmp_b3 op (va : Value.t) (vb : Value.t) : int =
  match op with
  | EqNull -> if Value.equal_null va vb then 1 else 0
  | _ -> (
      match (va, vb) with
      | Value.Int x, Value.Int y -> if icmp op x y then 1 else 0
      | Value.Null, _ | _, Value.Null -> 2
      | _ -> (
          match Value.cmp_sql va vb with
          | None -> 2
          | Some c -> if ctest op c then 1 else 0))

(* ---- vectorized predicate masks ------------------------------------ *)

(* An uncorrelated ANY/ALL sublink probe. The summary accessor shares
   the per-execution memo tables and counters; [pr_prep] caches the
   per-execution specialization (keyed on the context by identity).
   When every distinct summary value is an [Int], equality-style
   membership is answered from an unboxed int set — sound only then,
   because the summary's own set equates [Int 3] with [Float 3.] and
   the int set would not. *)
type prep = {
  p_sum : Sem.summary;
  p_empty : bool;
  p_has_null : bool;
  p_iset : (int, unit) Hashtbl.t option;
}

type probe = {
  pr_id : int;  (** process-unique, for race-detector locations *)
  pr_get : ctx -> Tuple.t list -> Sem.summary;
  pr_any : bool;
  pr_op : cmpop;
  pr_lhs : int;  (** depth-0 column offset of the lhs attribute *)
  pr_env0 : Tuple.t;  (** NULL frame standing in for the input row *)
  mutable pr_prep : (ctx * prep) option;
}

let probe_counter = Atomic.make 0

(* [pr_prep] is coordinator-prepped, worker-read: the scheduler's
   publish edge orders the write before the reads; an armed detector
   reports a worker that writes it. Per-probe location — probes are
   execution-private, and distinct probes must not alias. *)
let probe_loc pr = "vexec.probe[" ^ string_of_int pr.pr_id ^ "].prep"
let probe_mark_read pr = if Race.is_armed () then Race.read (probe_loc pr)
let probe_mark_write pr = if Race.is_armed () then Race.write (probe_loc pr)

type leaf =
  | LAttr of int  (** boolean-position column read *)
  | LIsNull of int
  | LCmpCC of cmpop * int * Value.t  (** column op constant *)
  | LCmpRev of cmpop * Value.t * int  (** constant op column *)
  | LCmpCols of cmpop * int * int
  | LCmpOuter of cmpop * int * (int * int)
      (** column op outer column, the latter at (frame depth, offset) of
          the runtime environment *)
  | LCmpOuterRev of cmpop * (int * int) * int  (** outer column op column *)
  | LProbe of probe

(* Mask AST: the vectorizable fragment of predicate expressions, with
   the compiled predicates' evaluation rules — [MAnd]/[MOr] evaluate their
   second operand only on the rows whose first operand does not already
   decide the result, preserving short-circuit evaluation frequency
   (and thus error behavior and sublink materialization timing). *)
type mask =
  | MConst of int
  | MNot of mask
  | MAnd of mask * mask
  | MOr of mask * mask
  | MBoolEq of mask * bool  (** [p =n TRUE/FALSE] over a boolean shape *)
  | MLeaf of leaf

let rec mask_probes acc = function
  | MConst _
  | MLeaf
      ( LAttr _ | LIsNull _ | LCmpCC _ | LCmpRev _ | LCmpCols _ | LCmpOuter _
      | LCmpOuterRev _ ) ->
      acc
  | MNot a | MBoolEq (a, _) -> mask_probes acc a
  | MAnd (a, b) | MOr (a, b) -> mask_probes (mask_probes acc a) b
  | MLeaf (LProbe p) -> p :: acc

let prepped rt pr =
  probe_mark_read pr;
  match pr.pr_prep with Some (c, _) -> c == rt.cctx | None -> false

let prep_probe rt pr : prep =
  probe_mark_read pr;
  match pr.pr_prep with
  | Some (c, p) when c == rt.cctx -> p
  | _ ->
      let sum = pr.pr_get rt.cctx (pr.pr_env0 :: rt.renv) in
      let memberish =
        (pr.pr_any && (pr.pr_op = Eq || pr.pr_op = EqNull))
        || ((not pr.pr_any) && pr.pr_op = Neq)
      in
      let iset =
        if not memberish then None
        else
          let vs = Sem.summary_distinct_values sum in
          if List.for_all (function Value.Int _ -> true | _ -> false) vs
          then begin
            let h = Hashtbl.create (max 16 (2 * List.length vs)) in
            List.iter
              (function Value.Int x -> Hashtbl.replace h x () | _ -> ())
              vs;
            Some h
          end
          else None
      in
      let p =
        {
          p_sum = sum;
          p_empty = Sem.summary_is_empty sum;
          p_has_null = Sem.summary_has_null sum;
          p_iset = iset;
        }
      in
      probe_mark_write pr;
      pr.pr_prep <- Some (rt.cctx, p);
      p

(* Per-value probe result; must coincide with {!Sem.any_of_summary} /
   {!Sem.all_of_summary} on the membership-style operators the int set
   covers, and falls back to them otherwise. *)
let probe_b3 pr prep (lhs : Value.t) : int =
  let generic () =
    b3_of_value
      ((if pr.pr_any then Sem.any_of_summary else Sem.all_of_summary)
         pr.pr_op lhs prep.p_sum)
  in
  match (prep.p_iset, lhs) with
  | Some iset, Value.Int x ->
      if prep.p_empty then if pr.pr_any then 0 else 1
      else
        let mem = Hashtbl.mem iset x in
        if pr.pr_any then
          if pr.pr_op = EqNull then if mem then 1 else 0
          else if mem then 1
          else if prep.p_has_null then 2
          else 0
        else if mem then 0
        else if prep.p_has_null then 2
        else 1
  | Some _, Value.Null when not (pr.pr_any && pr.pr_op = EqNull) ->
      if prep.p_empty then if pr.pr_any then 0 else 1 else 2
  | _ -> generic ()

(* ---- leaf kernels --------------------------------------------------- *)

let eval_attr b idx j : Bytes.t =
  let m = Array.length idx in
  let out = Bytes.create m in
  for k = 0 to m - 1 do
    Bytes.unsafe_set out k
      (Char.unsafe_chr (b3_of_value (Vector.value_at b j (Array.unsafe_get idx k))))
  done;
  out

let eval_isnull b idx j : Bytes.t =
  let m = Array.length idx in
  let out = Bytes.create m in
  let generic () =
    for k = 0 to m - 1 do
      Bytes.unsafe_set out k
        (if Value.is_null (Vector.value_at b j (Array.unsafe_get idx k)) then '\001'
         else '\000')
    done
  in
  (match col_of b j with
  | Some col -> (
      match (col.data, col.valid) with
      | Vector.DVal _, _ -> generic ()
      | _, None -> Bytes.fill out 0 m '\000'
      | _, Some bm ->
          for k = 0 to m - 1 do
            Bytes.unsafe_set out k
              (if Vector.bit_get bm (Array.unsafe_get idx k) then '\000'
               else '\001')
          done)
  | None -> generic ());
  out

let eval_cmp_cc b idx op j (cv : Value.t) : Bytes.t =
  let m = Array.length idx in
  let out = Bytes.create m in
  let generic () =
    for k = 0 to m - 1 do
      Bytes.unsafe_set out k
        (Char.unsafe_chr (cmp_b3 op (Vector.value_at b j (Array.unsafe_get idx k)) cv))
    done
  in
  (match (col_of b j, cv) with
  | Some col, Value.Int c -> (
      match col.data with
      | Vector.DInt a -> (
          match col.valid with
          | None ->
              for k = 0 to m - 1 do
                let x = Bigarray.Array1.unsafe_get a (Array.unsafe_get idx k) in
                Bytes.unsafe_set out k (if icmp op x c then '\001' else '\000')
              done
          | Some bm ->
              let null_r = if op = EqNull then '\000' else '\002' in
              for k = 0 to m - 1 do
                let i = Array.unsafe_get idx k in
                Bytes.unsafe_set out k
                  (if Vector.bit_get bm i then
                     if icmp op (Bigarray.Array1.unsafe_get a i) c then '\001'
                     else '\000'
                   else null_r)
              done)
      | _ -> generic ())
  | _ -> generic ());
  out

let eval_cmp_rev b idx op (cv : Value.t) j : Bytes.t =
  let m = Array.length idx in
  let out = Bytes.create m in
  let generic () =
    for k = 0 to m - 1 do
      Bytes.unsafe_set out k
        (Char.unsafe_chr (cmp_b3 op cv (Vector.value_at b j (Array.unsafe_get idx k))))
    done
  in
  (match (col_of b j, cv) with
  | Some col, Value.Int c -> (
      match col.data with
      | Vector.DInt a -> (
          match col.valid with
          | None ->
              for k = 0 to m - 1 do
                let x = Bigarray.Array1.unsafe_get a (Array.unsafe_get idx k) in
                Bytes.unsafe_set out k (if icmp op c x then '\001' else '\000')
              done
          | Some bm ->
              let null_r = if op = EqNull then '\000' else '\002' in
              for k = 0 to m - 1 do
                let i = Array.unsafe_get idx k in
                Bytes.unsafe_set out k
                  (if Vector.bit_get bm i then
                     if icmp op c (Bigarray.Array1.unsafe_get a i) then '\001'
                     else '\000'
                   else null_r)
              done)
      | _ -> generic ())
  | _ -> generic ());
  out

let eval_cmp_cols b idx op j1 j2 : Bytes.t =
  let m = Array.length idx in
  let out = Bytes.create m in
  let generic () =
    for k = 0 to m - 1 do
      let i = Array.unsafe_get idx k in
      Bytes.unsafe_set out k
        (Char.unsafe_chr (cmp_b3 op (Vector.value_at b j1 i) (Vector.value_at b j2 i)))
    done
  in
  (match (col_of b j1, col_of b j2) with
  | Some c1, Some c2 -> (
      match (c1.data, c2.data, c1.valid, c2.valid) with
      | Vector.DInt a1, Vector.DInt a2, None, None ->
          for k = 0 to m - 1 do
            let i = Array.unsafe_get idx k in
            Bytes.unsafe_set out k
              (if
                 icmp op
                   (Bigarray.Array1.unsafe_get a1 i)
                   (Bigarray.Array1.unsafe_get a2 i)
               then '\001'
               else '\000')
          done
      | _ -> generic ())
  | _ -> generic ());
  out

let eval_probe rt b idx pr : Bytes.t =
  let prep = prep_probe rt pr in
  let m = Array.length idx in
  let out = Bytes.create m in
  let generic () =
    for k = 0 to m - 1 do
      Bytes.unsafe_set out k
        (Char.unsafe_chr
           (probe_b3 pr prep (Vector.value_at b pr.pr_lhs (Array.unsafe_get idx k))))
    done
  in
  (match (col_of b pr.pr_lhs, prep.p_iset) with
  | Some col, Some iset -> (
      match col.data with
      | Vector.DInt a ->
          if prep.p_empty then
            Bytes.fill out 0 m (if pr.pr_any then '\000' else '\001')
          else begin
            let any = pr.pr_any
            and eqn = pr.pr_op = EqNull
            and hn = prep.p_has_null in
            let hit (x : int) =
              let mem = Hashtbl.mem iset x in
              if any then
                if eqn then if mem then 1 else 0
                else if mem then 1
                else if hn then 2
                else 0
              else if mem then 0
              else if hn then 2
              else 1
            in
            match col.valid with
            | None ->
                for k = 0 to m - 1 do
                  Bytes.unsafe_set out k
                    (Char.unsafe_chr
                       (hit
                          (Bigarray.Array1.unsafe_get a
                             (Array.unsafe_get idx k))))
                done
            | Some bm ->
                let null_r =
                  if any && eqn then if hn then 1 else 0 else 2
                in
                for k = 0 to m - 1 do
                  let i = Array.unsafe_get idx k in
                  Bytes.unsafe_set out k
                    (Char.unsafe_chr
                       (if Vector.bit_get bm i then
                          hit (Bigarray.Array1.unsafe_get a i)
                        else null_r))
                done
          end
      | _ -> generic ())
  | _ -> generic ());
  out

(* ---- mask evaluation ------------------------------------------------ *)

(* An enclosing frame's column: one read per batch, so a correlated
   comparison runs the constant kernels. *)
let outer_value rt (depth, off) = Tuple.get (List.nth rt.renv depth) off

(* [eval_mask rt b idx m] — three-valued results, one byte per entry of
   [idx] (physical indices). AND/OR evaluate the second operand only on
   the undecided subset, mirroring the compiled predicates' per-row
   short-circuit exactly (per row, not just per batch). *)
let rec eval_mask rt (b : Vector.t) (idx : int array) (m : mask) : Bytes.t =
  match m with
  | MConst v -> Bytes.make (Array.length idx) (Char.chr v)
  | MLeaf l -> eval_leaf rt b idx l
  | MNot a ->
      let r = eval_mask rt b idx a in
      for k = 0 to Bytes.length r - 1 do
        let v = Char.code (Bytes.unsafe_get r k) in
        Bytes.unsafe_set r k
          (Char.unsafe_chr (if v = 0 then 1 else if v = 1 then 0 else 2))
      done;
      r
  | MBoolEq (a, bv) ->
      let r = eval_mask rt b idx a in
      for k = 0 to Bytes.length r - 1 do
        let v = Char.code (Bytes.unsafe_get r k) in
        Bytes.unsafe_set r k
          (if v = 2 then '\000' else if (v = 1) = bv then '\001' else '\000')
      done;
      r
  | MAnd (x, y) ->
      let rx = eval_mask rt b idx x in
      let mlen = Array.length idx in
      let cnt = ref 0 in
      for k = 0 to mlen - 1 do
        if Bytes.unsafe_get rx k <> '\000' then incr cnt
      done;
      if !cnt = 0 then rx
      else begin
        let sub = Array.make !cnt 0 and pos = Array.make !cnt 0 in
        let p = ref 0 in
        for k = 0 to mlen - 1 do
          if Bytes.unsafe_get rx k <> '\000' then begin
            sub.(!p) <- Array.unsafe_get idx k;
            pos.(!p) <- k;
            incr p
          end
        done;
        let ry = eval_mask rt b sub y in
        for q = 0 to !cnt - 1 do
          let k = pos.(q) in
          let va = Char.code (Bytes.unsafe_get rx k) in
          let vb = Char.code (Bytes.unsafe_get ry q) in
          Bytes.unsafe_set rx k
            (Char.unsafe_chr
               (if vb = 0 then 0 else if va = 2 || vb = 2 then 2 else 1))
        done;
        rx
      end
  | MOr (x, y) ->
      let rx = eval_mask rt b idx x in
      let mlen = Array.length idx in
      let cnt = ref 0 in
      for k = 0 to mlen - 1 do
        if Bytes.unsafe_get rx k <> '\001' then incr cnt
      done;
      if !cnt = 0 then rx
      else begin
        let sub = Array.make !cnt 0 and pos = Array.make !cnt 0 in
        let p = ref 0 in
        for k = 0 to mlen - 1 do
          if Bytes.unsafe_get rx k <> '\001' then begin
            sub.(!p) <- Array.unsafe_get idx k;
            pos.(!p) <- k;
            incr p
          end
        done;
        let ry = eval_mask rt b sub y in
        for q = 0 to !cnt - 1 do
          let k = pos.(q) in
          let va = Char.code (Bytes.unsafe_get rx k) in
          let vb = Char.code (Bytes.unsafe_get ry q) in
          Bytes.unsafe_set rx k
            (Char.unsafe_chr
               (if vb = 1 then 1 else if va = 2 || vb = 2 then 2 else 0))
        done;
        rx
      end

and eval_leaf rt b idx = function
  | LAttr j -> eval_attr b idx j
  | LIsNull j -> eval_isnull b idx j
  | LCmpCC (op, j, cv) -> eval_cmp_cc b idx op j cv
  | LCmpRev (op, cv, j) -> eval_cmp_rev b idx op cv j
  | LCmpCols (op, j1, j2) -> eval_cmp_cols b idx op j1 j2
  | LCmpOuter (op, j, at) -> eval_cmp_cc b idx op j (outer_value rt at)
  | LCmpOuterRev (op, at, j) -> eval_cmp_rev b idx op (outer_value rt at) j
  | LProbe pr -> eval_probe rt b idx pr

(* Apply a computed mask: surviving rows become the batch's selection
   vector ([Cols], zero-copy) or a filtered [Rows] batch; an all-kept
   batch passes through unchanged and an emptied one is dropped. *)
let apply_mask (b : Vector.t) (idx : int array) (r : Bytes.t) :
    Vector.t option =
  let m = Array.length idx in
  let cnt = ref 0 in
  for k = 0 to m - 1 do
    if Bytes.unsafe_get r k = '\001' then incr cnt
  done;
  if !cnt = 0 then None
  else if !cnt = m then Some b
  else
    match b with
    | Vector.Cols _ ->
        let keep = Array.make !cnt 0 in
        let p = ref 0 in
        for k = 0 to m - 1 do
          if Bytes.unsafe_get r k = '\001' then begin
            keep.(!p) <- Array.unsafe_get idx k;
            incr p
          end
        done;
        Some (Vector.with_sel b (Some keep))
    | Vector.Rows { schema; rows } ->
        let keep = Array.make !cnt rows.(0) in
        let p = ref 0 in
        for k = 0 to m - 1 do
          if Bytes.unsafe_get r k = '\001' then begin
            keep.(!p) <- rows.(Array.unsafe_get idx k);
            incr p
          end
        done;
        Some (Vector.rows_batch schema keep)
    | Vector.CrossB _ ->
        let schema = Vector.schema b in
        let keep = Array.make !cnt (Vector.tuple_at b idx.(0)) in
        let p = ref 0 in
        for k = 0 to m - 1 do
          if Bytes.unsafe_get r k = '\001' then begin
            keep.(!p) <- Vector.tuple_at b (Array.unsafe_get idx k);
            incr p
          end
        done;
        Some (Vector.rows_batch schema keep)

(* Whether a vectorized boolean expression yields exactly the compiled
   expression's {e scalar} value (not just its truth), and cannot raise:
   the scalar AND/OR/NOT raise on non-boolean operands where a
   predicate reads them as false, so bare attributes and non-boolean
   constants are excluded; comparisons of attributes and constants,
   NULL tests and ANY/ALL probes are total. *)
let rec scalar_safe = function
  | Const (Value.Bool _ | Value.Null) | IsNull _ | Sublink _ -> true
  | Cmp (EqNull, p, Const (Value.Bool _)) when is_boolean_shape p -> scalar_safe p
  | Cmp (EqNull, Const (Value.Bool _), p) when is_boolean_shape p -> scalar_safe p
  | Cmp _ -> true
  | And (a, b) | Or (a, b) -> scalar_safe a && scalar_safe b
  | Not a -> scalar_safe a
  | _ -> false

(* One output column of a projection computed batch-at-a-time: an input
   column, or a boolean expression evaluated as a mask. *)
type pcol = PAttr of int | PMask of mask

let value_of_b3 = function 0 -> Value.vfalse | 1 -> Value.vtrue | _ -> Value.Null

(* A replayed subtree's batches as kept in its slot: projected columnar
   batches and factored cross blocks are boxed once here, instead of on
   every replay. *)
let keep_rows (b : Vector.t) =
  match b with
  | Vector.Cols { src = { offs = Some _; _ }; _ } | Vector.CrossB _ ->
      Vector.rows_batch (Vector.schema b) (Vector.rows_arr b)
  | Vector.Cols _ | Vector.Rows _ -> b

(* ---- expression compilation and lowering ----------------------------- *)

(* Expressions, predicates and sublinks compile to closures, operators
   lower to batch kernels, and a sublink's body is lowered by the same
   [lower] — one recursive group. *)

let rec compile_expr db (cenv : Schema.t list) (e : expr) : cexpr =
  match e with
  | Const v -> fun _ _ -> v
  | TypedNull _ -> fun _ _ -> Value.Null
  | Attr name -> attr_access (resolve_attr cenv name)
  | Binop (op, a, b) ->
      let ca = compile_expr db cenv a and cb = compile_expr db cenv b in
      let f =
        match op with
        | Add -> Value.add
        | Sub -> Value.sub
        | Mul -> Value.mul
        | Div -> Value.div
        | Mod -> Value.modulo
        | Concat -> Value.concat
      in
      fun ctx env -> f (ca ctx env) (cb ctx env)
  | Cmp (op, a, b) ->
      let ca = compile_expr db cenv a and cb = compile_expr db cenv b in
      fun ctx env -> Sem.cmp3 op (ca ctx env) (cb ctx env)
  | And (a, b) ->
      let ca = compile_expr db cenv a and cb = compile_expr db cenv b in
      fun ctx env ->
        let va = ca ctx env in
        if Value.is_false va then Value.vfalse else Value.and3 va (cb ctx env)
  | Or (a, b) ->
      let ca = compile_expr db cenv a and cb = compile_expr db cenv b in
      fun ctx env ->
        let va = ca ctx env in
        if Value.is_true va then Value.vtrue else Value.or3 va (cb ctx env)
  | Not a ->
      let ca = compile_expr db cenv a in
      fun ctx env -> Value.not3 (ca ctx env)
  | IsNull a ->
      let ca = compile_expr db cenv a in
      fun ctx env -> Value.Bool (Value.is_null (ca ctx env))
  | Case (whens, els) ->
      let cwhens =
        List.map
          (fun (c, e) -> (compile_expr db cenv c, compile_expr db cenv e))
          whens
      in
      let cels = Option.map (compile_expr db cenv) els in
      fun ctx env ->
        let rec go = function
          | (cc, ce) :: rest ->
              if Value.is_true (cc ctx env) then ce ctx env else go rest
          | [] -> ( match cels with Some ce -> ce ctx env | None -> Value.Null)
        in
        go cwhens
  | Like (a, pattern) -> (
      let ca = compile_expr db cenv a in
      fun ctx env ->
        match ca ctx env with
        | Value.Null -> Value.Null
        | Value.String s -> Value.Bool (Builtin.like_match ~pattern s)
        | v -> Sem.eval_error "LIKE over non-string %s" (Value.to_string v))
  | InList (a, es) ->
      let ca = compile_expr db cenv a in
      let ces = List.map (compile_expr db cenv) es in
      fun ctx env ->
        let x = ca ctx env in
        let rec go acc = function
          | [] -> acc
          | ce :: rest ->
              let r = Sem.cmp3 Eq x (ce ctx env) in
              if Value.is_true r then Value.vtrue else go (Value.or3 acc r) rest
        in
        go Value.vfalse ces
  | FunCall (name, args) ->
      if Builtin.is_aggregate name then
        Sem.eval_error "aggregate function %s in scalar context" name
      else
        let cargs = List.map (compile_expr db cenv) args in
        fun ctx env ->
          Builtin.apply_scalar name (List.map (fun ce -> ce ctx env) cargs)
  | Sublink s -> compile_sublink db cenv s

(* Selection and join conditions compile to unboxed three-valued
   predicates (the {!b3_of_value} encoding), so the boolean skeleton
   evaluates without allocating a [Value.t] per node. Truth tables and
   short-circuiting mirror the reference evaluator exactly, including
   {e which} operand subexpressions are evaluated — sublink memo
   counters depend on that. *)
and compile_pred db (cenv : Schema.t list) (e : expr) : ctx -> renv -> int =
  match e with
  | Const v ->
      let b = b3_of_value v in
      fun _ _ -> b
  (* [p =n TRUE/FALSE] over a boolean-valued operand — the shape the
     provenance rewrites wrap around moved sublink tests — reduces to a
     truth-table check on the operand's unboxed value. *)
  | Cmp (EqNull, p, Const (Value.Bool b)) when is_boolean_shape p ->
      let pp = compile_pred db cenv p in
      fun ctx env ->
        let v = pp ctx env in
        if v = 2 then 0 else if (v = 1) = b then 1 else 0
  | Cmp (EqNull, Const (Value.Bool b), p) when is_boolean_shape p ->
      let pp = compile_pred db cenv p in
      fun ctx env ->
        let v = pp ctx env in
        if v = 2 then 0 else if (v = 1) = b then 1 else 0
  | Cmp (op, a, b) ->
      let ca = compile_expr db cenv a and cb = compile_expr db cenv b in
      fun ctx env -> cmp_b3 op (ca ctx env) (cb ctx env)
  | And (a, b) ->
      let pa = compile_pred db cenv a and pb = compile_pred db cenv b in
      fun ctx env ->
        let va = pa ctx env in
        if va = 0 then 0
        else
          let vb = pb ctx env in
          if vb = 0 then 0 else if va = 2 || vb = 2 then 2 else 1
  | Or (a, b) ->
      let pa = compile_pred db cenv a and pb = compile_pred db cenv b in
      fun ctx env ->
        let va = pa ctx env in
        if va = 1 then 1
        else
          let vb = pb ctx env in
          if vb = 1 then 1 else if va = 2 || vb = 2 then 2 else 0
  | Not a ->
      let pa = compile_pred db cenv a in
      fun ctx env -> (
        match pa ctx env with 0 -> 1 | 1 -> 0 | _ -> 2)
  | IsNull a ->
      let ca = compile_expr db cenv a in
      fun ctx env -> if Value.is_null (ca ctx env) then 1 else 0
  | _ ->
      let ce = compile_expr db cenv e in
      fun ctx env -> b3_of_value (ce ctx env)

(* An operator's own expressions, compiled at its path [here]. *)
and scalar_at here db cenv e : cexpr =
  cur_compile_path := here;
  compile_expr db cenv e

and pred_at here db cenv e : ctx -> renv -> int =
  cur_compile_path := here;
  compile_pred db cenv e

(* A sublink's memoized result and ANY/ALL summary per key
   [(id, binding of the correlated attributes)]. The body is lowered
   under the full environment at the expression's location, exactly the
   scope the reference evaluator gives it, with replay on when it is
   correlated. *)
and sublink_memo db cenv (s : sublink) ~correlated =
  let spath = !cur_compile_path @ [ Printf.sprintf "sublink[%d]" s.id ] in
  let body = lower db ~replay:correlated spath cenv s.query in
  (* Bodies run sequentially on the enclosing execution's context. An
     empty result, the common one of a correlated EXISTS body, is one
     shared relation instead of a fresh one per binding. *)
  let empty = Relation.empty body.v_schema in
  let run ctx env =
    match body.v_run { cctx = ctx; renv = env; pool = None } with
    | [] -> empty
    | bats -> Vector.relation_of body.v_schema bats
  in
  let materialize ctx env k =
    memo_read ctx;
    match Hashtbl.find_opt ctx.sub_results k with
    | Some rel ->
        ctx.stats.Sem.st_sublink_hits <- ctx.stats.Sem.st_sublink_hits + 1;
        rel
    | None ->
        ctx.stats.Sem.st_sublink_evals <- ctx.stats.Sem.st_sublink_evals + 1;
        Guard.Faults.fire_point Guard.Faults.Sublink spath;
        let rel = run ctx env in
        memo_write ctx;
        Hashtbl.add ctx.sub_results k rel;
        rel
  in
  let summary ctx env k =
    memo_read ctx;
    match Hashtbl.find_opt ctx.sub_summaries k with
    | Some sm -> sm
    | None ->
        let rel = materialize ctx env k in
        let sm =
          Sem.summarize (List.map (fun t -> Tuple.get t 0) (Relation.tuples rel))
        in
        memo_write ctx;
        Hashtbl.add ctx.sub_summaries k sm;
        sm
  in
  (materialize, summary)

(* The correlated attributes are resolved to offset accessors once, so
   the per-binding memo key is assembled without any name resolution. *)
and compile_sublink db (cenv : Schema.t list) (s : sublink) : cexpr =
  let saved_path = !cur_compile_path in
  let free = Scope.free_of_query db s.query in
  let free_getters =
    Array.of_list (List.map (fun n -> attr_access (resolve_attr cenv n)) free)
  in
  let correlated = free <> [] in
  let materialize, summary = sublink_memo db cenv s ~correlated in
  cur_compile_path := saved_path;
  let key ctx env =
    (s.id, Array.to_list (Array.map (fun g -> g ctx env) free_getters))
  in
  (* An uncorrelated sublink has a constant memo key, so its result for
     the current execution is held in a local slot instead of paying a
     key allocation plus a structural hash per evaluation. The slot is
     keyed on the [ctx] by physical identity — a fresh execution gets a
     fresh context and recomputes — and the first fill still goes
     through the shared memo tables, so the counters ({!Sem.stats})
     advance exactly as the reference evaluator's do: relation reuse
     counts a hit, summary reuse is silent. *)
  let k0 = (s.id, []) in
  let cached_rel =
    let cache = ref None in
    fun ctx env ->
      match !cache with
      | Some (c, rel) when c == ctx ->
          ctx.stats.Sem.st_sublink_hits <- ctx.stats.Sem.st_sublink_hits + 1;
          rel
      | _ ->
          let rel = materialize ctx env k0 in
          cache := Some (ctx, rel);
          rel
  in
  let cached_summary =
    let cache = ref None in
    fun ctx env ->
      match !cache with
      | Some (c, sm) when c == ctx -> sm
      | _ ->
          let sm = summary ctx env k0 in
          cache := Some (ctx, sm);
          sm
  in
  match s.kind with
  | Exists ->
      if correlated then fun ctx env ->
        Value.Bool (not (Relation.is_empty (materialize ctx env (key ctx env))))
      else fun ctx env ->
        Value.Bool (not (Relation.is_empty (cached_rel ctx env)))
  | Scalar ->
      let first rel =
        match Relation.tuples rel with
        | [] -> Value.Null
        | [ t ] -> Tuple.get t 0
        | _ -> Sem.eval_error "scalar sublink returned more than one row"
      in
      if correlated then fun ctx env ->
        first (materialize ctx env (key ctx env))
      else fun ctx env -> first (cached_rel ctx env)
  | AnyOp (op, lhs) ->
      let clhs = compile_expr db cenv lhs in
      if correlated then fun ctx env ->
        Sem.any_of_summary op (clhs ctx env) (summary ctx env (key ctx env))
      else fun ctx env ->
        Sem.any_of_summary op (clhs ctx env) (cached_summary ctx env)
  | AllOp (op, lhs) ->
      let clhs = compile_expr db cenv lhs in
      if correlated then fun ctx env ->
        Sem.all_of_summary op (clhs ctx env) (summary ctx env (key ctx env))
      else fun ctx env ->
        Sem.all_of_summary op (clhs ctx env) (cached_summary ctx env)

(* For an {e uncorrelated} sublink, a per-execution summary accessor on
   the shared memo tables (first call per [ctx] materializes and counts
   one eval; later calls are silent summary reuse, as the per-row path
   behaves); [None] when [s] is correlated. The ANY/ALL probe kernels
   call it once per execution, before any parallel section, so the
   summary is immutable by the time workers read it. *)
and sublink_summary here db cenv (s : sublink) :
    (ctx -> renv -> Sem.summary) option =
  if Scope.free_of_query db s.query <> [] then None
  else begin
    cur_compile_path := here;
    let _, summary = sublink_memo db cenv s ~correlated:false in
    cur_compile_path := here;
    let k0 = (s.id, []) in
    Some (fun ctx env -> summary ctx env k0)
  end

(* Lower a predicate to a mask when every node has a columnar kernel
   against the depth-0 input schema — plus comparisons of an input
   column with an enclosing frame's column; any other unsupported or
   outer-resolving node rejects the whole predicate, and the caller
   falls back to the compiled row-wise form (which preserves evaluation
   order, sublink correlation and error behavior by construction). The
   match arms mirror {!compile_pred}'s, in the same order. *)
and vectorize db here schema cenv (e : expr) : mask option =
  let find n = Schema.find schema n in
  let outer n =
    match resolve_attr cenv n with
    | at -> Some at
    | exception Sem.Eval_error _ -> None
  in
  match e with
  | Const v -> Some (MConst (b3_of_value v))
  | Cmp (EqNull, p, Const (Value.Bool bv)) when is_boolean_shape p -> (
      match vectorize db here schema cenv p with
      | Some m -> Some (MBoolEq (m, bv))
      | None -> None)
  | Cmp (EqNull, Const (Value.Bool bv), p) when is_boolean_shape p -> (
      match vectorize db here schema cenv p with
      | Some m -> Some (MBoolEq (m, bv))
      | None -> None)
  | Cmp (op, Attr n1, Attr n2) -> (
      match (find n1, find n2) with
      | Some j1, Some j2 -> Some (MLeaf (LCmpCols (op, j1, j2)))
      | Some j, None ->
          Option.map (fun at -> MLeaf (LCmpOuter (op, j, at))) (outer n2)
      | None, Some j ->
          Option.map (fun at -> MLeaf (LCmpOuterRev (op, at, j))) (outer n1)
      | None, None -> None)
  | Cmp (op, Attr n, rhs) when const_of rhs <> None -> (
      match find n with
      | Some j -> Some (MLeaf (LCmpCC (op, j, Option.get (const_of rhs))))
      | None -> None)
  | Cmp (op, lhs, Attr n) when const_of lhs <> None -> (
      match find n with
      | Some j -> Some (MLeaf (LCmpRev (op, Option.get (const_of lhs), j)))
      | None -> None)
  | And (a, b) -> (
      match
        (vectorize db here schema cenv a, vectorize db here schema cenv b)
      with
      | Some ma, Some mb -> Some (MAnd (ma, mb))
      | _ -> None)
  | Or (a, b) -> (
      match
        (vectorize db here schema cenv a, vectorize db here schema cenv b)
      with
      | Some ma, Some mb -> Some (MOr (ma, mb))
      | _ -> None)
  | Not a ->
      Option.map (fun m -> MNot m) (vectorize db here schema cenv a)
  | IsNull (Attr n) -> (
      match find n with Some j -> Some (MLeaf (LIsNull j)) | None -> None)
  | Attr n -> (
      match find n with Some j -> Some (MLeaf (LAttr j)) | None -> None)
  | Sublink ({ kind = AnyOp (op, Attr n); _ } as s) ->
      probe_of db here schema cenv ~any:true op n s
  | Sublink ({ kind = AllOp (op, Attr n); _ } as s) ->
      probe_of db here schema cenv ~any:false op n s
  | _ -> None

and probe_of db here schema cenv ~any op n s : mask option =
  match Schema.find schema n with
  | None -> None
  | Some j -> (
      match sublink_summary here db (schema :: cenv) s with
      | None -> None (* correlated: row-wise fallback *)
      | Some get ->
          Some
            (MLeaf
               (LProbe
                  {
                    pr_id = Atomic.fetch_and_add probe_counter 1;
                    pr_get = get;
                    pr_any = any;
                    pr_op = op;
                    pr_lhs = j;
                    pr_env0 = Tuple.nulls (Schema.arity schema);
                    pr_prep = None;
                  })))

(* The projection list as [pcol]s, when every item is an input attribute
   or a total, vectorizable boolean expression, and at most one item
   probes a sublink — so materializing the sublinks column by column
   happens in the per-row path's row-by-row order. *)
and mask_projection db here schema cenv cols : pcol array option =
  let item (e, _) =
    match e with
    | Attr n -> Option.map (fun j -> PAttr j) (Schema.find schema n)
    | e when is_boolean_shape e && scalar_safe e ->
        Option.map (fun m -> PMask m) (vectorize db here schema cenv e)
    | _ -> None
  in
  let items = List.map item cols in
  let probing = function Some (PMask m) -> mask_probes [] m <> [] | _ -> false in
  if List.exists Option.is_none items || List.length (List.filter probing items) > 1
  then None
  else Some (Array.of_list (List.map Option.get items))

(* [lower db ~replay path cenv q] — [replay] holds inside the body of a
   correlated sublink, which runs once per binding. There a subtree
   that reads nothing from the enclosing frames and touches no counter
   yields the same batches for every binding, so it runs once per
   execution ([lower_replayed]). A bare scan already returns stored
   batches: nothing to save. *)
and lower db ~replay path (cenv : Schema.t list) (q : query) : vop =
  match q with
  | Base _ | TableExpr _ -> lower_node db ~replay path cenv q
  | _ when replay && counter_free q && Scope.free_of_query db q = [] ->
      lower_replayed db path q
  | _ -> lower_node db ~replay path cenv q

(* The subtree is lowered without the outer frames, so nothing below it
   is replayed again. Its batches are kept in a slot keyed on the [ctx]
   by physical identity, as [cached_rel] keeps an uncorrelated
   sublink's. Later bindings replay them and charge the governor the
   rows the first run charged, at the subtree's path, so row totals
   match a run that re-executes it. The slot is coordinator-confined
   like the memo tables. *)
and lower_replayed db path q : vop =
  let v = lower_node db ~replay:false path [] q in
  let here = path @ [ Guard.op_label q ] in
  let slot = ref None in
  {
    v_schema = v.v_schema;
    v_run =
      (fun rt ->
        memo_read rt.cctx;
        match !slot with
        | Some (c, bats, charged) when c == rt.cctx ->
            if charged > 0 then Guard.count_rows here charged;
            bats
        | _ ->
            let before = Guard.charged_rows () in
            let bats = List.map keep_rows (v.v_run { rt with renv = [] }) in
            memo_write rt.cctx;
            slot := Some (rt.cctx, bats, Guard.charged_rows () - before);
            bats);
  }

(* [lower_node] lowers one operator: child paths carry the
   rev-last-segment [left]/[right] qualifiers for joins (Lint's path
   vocabulary), selections over products/joins and attribute
   projections over joins are fused, join inputs run right before left
   as in the reference walker, and stats updates count the walker's
   plan events. *)
and lower_node db ~replay path (cenv : Schema.t list) (q : query) : vop =
  let here = path @ [ Guard.op_label q ] in
  let cpath qual = path @ [ Guard.op_label q ^ qual ] in
  guarded here
  @@
  match q with
  | Base name ->
      let schema = Relation.schema (Database.find db name) in
      {
        v_schema = schema;
        v_run =
          (fun rt ->
            Guard.Faults.fire_point Guard.Faults.Scan here;
            Array.to_list
              (columnar_batches (Database.find rt.cctx.db name)));
      }
  | TableExpr rel ->
      (* Plan constants (the rewrites' NULL padding rows, folded empty
         inputs) are fresh relations on every rewrite: converting them
         would churn the columnar cache and evict the base tables, so
         they stream their own tuples. *)
      let schema = Relation.schema rel in
      {
        v_schema = schema;
        v_run =
          (fun _rt ->
            Guard.Faults.fire_point Guard.Faults.Scan here;
            chunk_rows schema (Relation.tuples rel));
      }
  | Select (cond, Cross (a, b)) -> lower_join db ~replay here cenv ~outer:false cond a b
  | Select (cond, Join (c, a, b)) ->
      lower_join db ~replay here cenv ~outer:false (And (c, cond)) a b
  | Select (cond, input) -> (
      let vin = lower db ~replay (cpath "") cenv input in
      let schema = vin.v_schema in
      match vectorize db here schema cenv cond with
      | Some m ->
          let probes = mask_probes [] m in
          {
            v_schema = schema;
            v_run =
              (fun rt ->
                let bats = Array.of_list (vin.v_run rt) in
                let nb = Array.length bats in
                let out = Array.make nb None in
                let work i =
                  let b = bats.(i) in
                  let idx = idx_of b in
                  let r = eval_mask rt b idx m in
                  out.(i) <- apply_mask b idx r
                in
                (* Probe preparation materializes the sublink (memo
                   counters, fault points, possible errors) — it must
                   happen on the coordinator, so batches run
                   sequentially until every probe is prepped, then the
                   rest fan out over the pool. *)
                let start = ref 0 in
                if probes <> [] then
                  while
                    !start < nb && not (List.for_all (prepped rt) probes)
                  do
                    Guard.tick here;
                    work !start;
                    incr start
                  done;
                (match rt.pool with
                | Some pool when nb - !start > 1 ->
                    par_run here pool ~tasks:(nb - !start) (fun t ->
                        work (!start + t))
                | _ ->
                    for i = !start to nb - 1 do
                      Guard.tick here;
                      work i
                    done);
                List.filter_map Fun.id (Array.to_list out));
          }
      | None ->
          let pcond =
            pred_at here db (schema :: cenv) cond
          in
          {
            v_schema = schema;
            v_run =
              (fun rt ->
                List.filter_map
                  (fun b ->
                    Guard.tick here;
                    let keep = ref [] in
                    Vector.iter_tuples b (fun t ->
                        if pcond rt.cctx (t :: rt.renv) = 1 then
                          keep := t :: !keep);
                    match !keep with
                    | [] -> None
                    | l ->
                        Some
                          (Vector.rows_batch schema (Array.of_list (List.rev l))))
                  (vin.v_run rt));
          })
  | Project { distinct; cols; proj_input } -> (
      match if distinct then None else fused_join db cenv cols proj_input with
      | Some (outer, cond, a, b, project) ->
          lower_join db ~replay here cenv ~outer ~project cond a b
      | None -> lower_project db ~replay here (cpath "") cenv ~distinct cols proj_input)
  | Cross (a, b) ->
      let va = lower db ~replay (cpath "[left]") cenv a
      and vb = lower db ~replay (cpath "[right]") cenv b in
      let schema = Schema.concat va.v_schema vb.v_schema in
      {
        v_schema = schema;
        v_run =
          (fun rt ->
            Guard.Faults.fire_point Guard.Faults.Join here;
            let tbs = List.concat_map Vector.to_tuples (vb.v_run rt) in
            let card_b = List.length tbs in
            let acc = ref [] in
            List.iter
              (fun ba ->
                Guard.tick here;
                Vector.iter_tuples ba (fun ta ->
                    Guard.count_pairs here card_b;
                    List.iter (fun tb -> acc := Tuple.concat ta tb :: !acc) tbs))
              (va.v_run rt);
            chunk_rows schema (List.rev !acc));
      }
  | Join (cond, a, b) -> lower_join db ~replay here cenv ~outer:false cond a b
  | LeftJoin (cond, a, b) -> lower_join db ~replay here cenv ~outer:true cond a b
  | Agg { group_by; aggs; agg_input } ->
      (* Child lowered at [here] itself (no qualifier): aggregation's
         input shares its operator path. *)
      let vin = lower db ~replay here cenv agg_input in
      let ienv = vin.v_schema :: cenv in
      let out_schema = Typecheck.aggregation_schema db ienv group_by aggs in
      let group_cexprs =
        Array.of_list
          (List.map
             (fun (e, _) -> scalar_at here db ienv e)
             group_by)
      in
      let agg_specs =
        List.map
          (fun call ->
            ( call.agg_func,
              call.agg_distinct,
              Option.map (scalar_at here db ienv) call.agg_arg
            ))
          aggs
      in
      let grouped = group_by <> [] in
      {
        v_schema = out_schema;
        v_run =
          (fun rt ->
            let groups = Tuple.Tbl.create 64 in
            let order = ref [] in
            let saw_input = ref false in
            List.iter
              (fun b ->
                Guard.tick here;
                Vector.iter_tuples b (fun t ->
                    saw_input := true;
                    let key =
                      eval_row group_cexprs rt.cctx (t :: rt.renv)
                    in
                    match Tuple.Tbl.find_opt groups key with
                    | Some members -> Tuple.Tbl.replace groups key (t :: members)
                    | None ->
                        Tuple.Tbl.add groups key [ t ];
                        order := key :: !order))
              (vin.v_run rt);
            let keys =
              if (not grouped) && not !saw_input then [ Tuple.of_list [] ]
              else List.rev !order
            in
            let compute_group key =
              let members =
                match Tuple.Tbl.find_opt groups key with
                | Some ms -> List.rev ms
                | None -> []
              in
              let agg_values =
                List.map
                  (fun (func, distinct, carg) ->
                    let raw =
                      match carg with
                      | None -> List.map (fun _ -> Value.Int 1) members
                      | Some ce ->
                          List.filter_map
                            (fun t ->
                              let v = ce rt.cctx (t :: rt.renv) in
                              if Value.is_null v then None else Some v)
                            members
                    in
                    Builtin.apply_aggregate func ~distinct raw)
                  agg_specs
              in
              Tuple.concat key (Tuple.of_list agg_values)
            in
            chunk_rows out_schema (List.map compute_group keys));
      }
  | Union (Bag, a, b) ->
      let va = lower db ~replay (cpath "[left]") cenv a
      and vb = lower db ~replay (cpath "[right]") cenv b in
      if not (Schema.equal_types va.v_schema vb.v_schema) then
        setop_of va vb Relation.union_bag
      else
        (* A bag union is its inputs' batches in order: nothing is
           copied, and base-table batches stay columnar. *)
        {
          v_schema = va.v_schema;
          v_run =
            (fun rt ->
              let rb = vb.v_run rt in
              let ra = va.v_run rt in
              List.map (Vector.with_schema va.v_schema) (ra @ rb));
        }
  | Union (SetSem, a, b) ->
      lower_setop db ~replay (cpath "[left]") (cpath "[right]") cenv Relation.union_set a b
  | Inter (sem, a, b) ->
      let op =
        match sem with Bag -> Relation.inter_bag | SetSem -> Relation.inter_set
      in
      lower_setop db ~replay (cpath "[left]") (cpath "[right]") cenv op a b
  | Diff (sem, a, b) ->
      let op =
        match sem with Bag -> Relation.diff_bag | SetSem -> Relation.diff_set
      in
      lower_setop db ~replay (cpath "[left]") (cpath "[right]") cenv op a b
  | Order (keys, input) ->
      let vin = lower db ~replay (cpath "") cenv input in
      let ienv = vin.v_schema :: cenv in
      let ckeys =
        Array.of_list
          (List.map
             (fun (e, d) -> (scalar_at here db ienv e, d))
             keys)
      in
      let nkeys = Array.length ckeys in
      let kexprs = Array.map fst ckeys in
      {
        v_schema = vin.v_schema;
        v_run =
          (fun rt ->
            let decorated = ref [] in
            List.iter
              (fun b ->
                Guard.tick here;
                Vector.iter_tuples b (fun t ->
                    decorated :=
                      (eval_row kexprs rt.cctx (t :: rt.renv), t)
                      :: !decorated))
              (vin.v_run rt);
            let cmp (ka, _) (kb, _) =
              let rec go i =
                if i >= nkeys then 0
                else
                  let _, d = ckeys.(i) in
                  let c = Value.compare_total ka.(i) kb.(i) in
                  let c = match d with Asc -> c | Desc -> -c in
                  if c <> 0 then c else go (i + 1)
              in
              go 0
            in
            chunk_rows vin.v_schema
              (List.map snd (List.stable_sort cmp (List.rev !decorated))));
      }
  | Limit (n, input) ->
      let vin = lower db ~replay (cpath "") cenv input in
      {
        v_schema = vin.v_schema;
        v_run =
          (fun rt ->
            (* The child is fully materialized before slicing, as the
               reference walker does — counters depend on the drain. *)
            let bats = vin.v_run rt in
            let taken = ref 0 in
            List.filter_map
              (fun b ->
                let len = Vector.length b in
                if !taken >= n then None
                else if !taken + len <= n then begin
                  taken := !taken + len;
                  Some b
                end
                else begin
                  let need = n - !taken in
                  taken := n;
                  match b with
                  | Vector.Cols _ ->
                      let idx = idx_of b in
                      Some (Vector.with_sel b (Some (Array.sub idx 0 need)))
                  | Vector.Rows { schema; rows } ->
                      Some (Vector.rows_batch schema (Array.sub rows 0 need))
                  | Vector.CrossB _ ->
                      Some
                        (Vector.rows_batch (Vector.schema b)
                           (Array.init need (fun i -> Vector.tuple_at b i)))
                end)
              bats);
      }

and lower_project db ~replay here cpath cenv ~distinct cols proj_input : vop =
  let vin = lower db ~replay cpath cenv proj_input in
  let ienv = vin.v_schema :: cenv in
  let out_schema = Typecheck.projection_schema db ienv cols in
  let distinct_rows rows =
    chunk_rows out_schema
      (Relation.tuples (Relation.distinct (Relation.make_unchecked out_schema rows)))
  in
  match own_offsets vin.v_schema cols with
  | Some offs when not distinct ->
      (* Attribute-only projection: per-batch column gather, sharing
         storage and selection vectors — no row data moves. *)
      {
        v_schema = out_schema;
        v_run =
          (fun rt ->
            List.map (fun b -> Vector.select_cols out_schema b offs) (vin.v_run rt));
      }
  | Some offs ->
      {
        v_schema = out_schema;
        v_run =
          (fun rt ->
            distinct_rows
              (List.concat_map
                 (fun b ->
                   Guard.tick here;
                   Vector.to_tuples (Vector.select_cols out_schema b offs))
                 (vin.v_run rt)));
      }
  | None -> (
      match if distinct then None else mask_projection db here vin.v_schema cenv cols with
      | Some pcols ->
          (* Attribute and boolean-mask items: masks are computed per
             batch over the input columns, and output rows gather the
             input values with no per-row expression closures. *)
          let ncols = Array.length pcols in
          {
            v_schema = out_schema;
            v_run =
              (fun rt ->
                List.map
                  (fun b ->
                    Guard.tick here;
                    let idx = idx_of b in
                    let masks =
                      Array.map
                        (function
                          | PMask m -> eval_mask rt b idx m | PAttr _ -> Bytes.empty)
                        pcols
                    in
                    Vector.rows_batch out_schema
                      (Array.mapi
                         (fun k p ->
                           let row = Array.make ncols Value.Null in
                           for c = 0 to ncols - 1 do
                             Array.unsafe_set row c
                               (match Array.unsafe_get pcols c with
                               | PAttr j -> Vector.value_at b j p
                               | PMask _ ->
                                   value_of_b3
                                     (Char.code (Bytes.unsafe_get masks.(c) k)))
                           done;
                           (row : Tuple.t))
                         idx))
                  (vin.v_run rt));
          }
      | None ->
          let cexprs =
            Array.of_list
              (List.map
                 (fun (e, _) -> scalar_at here db ienv e)
                 cols)
          in
          let eval_rows rt =
            List.concat_map
              (fun b ->
                Guard.tick here;
                let acc = ref [] in
                Vector.iter_tuples b (fun t ->
                    acc := eval_row cexprs rt.cctx (t :: rt.renv) :: !acc);
                List.rev !acc)
              (vin.v_run rt)
          in
          {
            v_schema = out_schema;
            v_run =
              (fun rt ->
                if distinct then distinct_rows (eval_rows rt)
                else chunk_rows out_schema (eval_rows rt));
          })

and lower_setop db ~replay lpath rpath cenv op a b : vop =
  setop_of (lower db ~replay lpath cenv a) (lower db ~replay rpath cenv b) op

and setop_of va vb op : vop =
  {
    v_schema = va.v_schema;
    v_run =
      (fun rt ->
        (* The reference walker applies [op (eval a) (eval b)]; OCaml
           evaluates the arguments right to left, so the right child
           runs first — mirrored for error-order parity. *)
        let rb = Vector.relation_of vb.v_schema (vb.v_run rt) in
        let ra = Vector.relation_of va.v_schema (va.v_run rt) in
        chunk_rows va.v_schema (Relation.tuples (op ra rb)));
  }

(* [?project] is the fused attribute projection (output offsets into
   the concatenated schema, output schema): rows are gathered from the
   (left, right) pair instead of concatenated, and factored cross blocks
   just remap their sources. *)
and lower_join db ~replay here cenv ~outer ?project cond a b : vop =
  let qual s =
    match List.rev here with
    | last :: rest -> List.rev ((last ^ s) :: rest)
    | [] -> [ s ]
  in
  let va = lower db ~replay (qual "[left]") cenv a
  and vb = lower db ~replay (qual "[right]") cenv b in
  let sa = va.v_schema and sb = vb.v_schema in
  let joint = Schema.concat sa sb in
  let arity_a = Schema.arity sa and arity_b = Schema.arity sb in
  let out_schema = match project with None -> joint | Some (_, s) -> s in
  let mk_row =
    match project with
    | None -> Tuple.concat
    | Some (offs, _) ->
        let n = Array.length offs in
        fun ta tb ->
          let out = Array.make n Value.Null in
          for j = 0 to n - 1 do
            let i = Array.unsafe_get offs j in
            Array.unsafe_set out j
              (if i < arity_a then Tuple.get ta i else Tuple.get tb (i - arity_a))
          done;
          (out : Tuple.t)
  in
  let project_block blk =
    match project with
    | None -> blk
    | Some (offs, s) -> Vector.select_cols s blk offs
  in
  let pairs, residual =
    Scope.split_equi db ~left:(Schema.names sa) ~right:(Schema.names sb) cond
  in
  if pairs = [] then begin
    (* Nested loop. Left-only hoisting: when the first operand of a
       top-level OR/AND reads nothing from the right input, evaluate it
       once per left tuple instead of once per pair. The reference
       walker computes the same (left-determined) value for every pair
       and short-circuits the second operand on it, so emitted rows are
       identical; [counter_silent] guarantees the changed evaluation
       frequency is invisible in the stats, and the second operand keeps
       running exactly when the reference's short-circuit rules run it
       (including the AND-unknown case, where it is evaluated per pair
       and every pair is dropped). *)
    let hoistable x =
      counter_silent x
      &&
      let sbn = Schema.names sb in
      List.for_all (fun n -> not (List.mem n sbn)) (expr_deps db x)
    in
    let penv = sb :: sa :: cenv in
    let split =
      match cond with
      | Const (Value.Bool true) -> `All
      | Or (x, y) when hoistable x ->
          `Or
            ( pred_at here db (sa :: cenv) x,
              pred_at here db penv y )
      | And (x, y) when hoistable x ->
          `And
            ( pred_at here db (sa :: cenv) x,
              pred_at here db penv y )
      | _ -> `Whole (pred_at here db penv cond)
    in
    {
      v_schema = out_schema;
      v_run =
        (fun rt ->
          Guard.Faults.fire_point Guard.Faults.Join here;
          let stats = rt.cctx.stats in
          stats.Sem.st_nested_loop_joins <- stats.Sem.st_nested_loop_joins + 1;
          let tbs = List.concat_map Vector.to_tuples (vb.v_run rt) in
          let tb_arr = Array.of_list tbs in
          let card_b = Array.length tb_arr in
          let pad = Tuple.nulls arity_b in
          let nleft = ref 0 and emitted = ref 0 in
          (* Output is a batch list in left-row order: row-wise runs
             (filtered matches, outer padding) interleaved with columnar
             cross blocks (the all-match case of the hoisted OR). At most
             one of [acc]/[pending] is nonempty at any point. *)
          let out = ref [] in
          let acc = ref [] and n_acc = ref 0 in
          let pending = ref [] and n_pending = ref 0 in
          let right_cols = lazy (Vector.transpose tb_arr ~arity:arity_b) in
          let flush_acc () =
            if !n_acc > 0 then begin
              let rows = Array.make !n_acc pad in
              let rec fill i = function
                | [] -> ()
                | t :: rest ->
                    Array.unsafe_set rows i t;
                    fill (i - 1) rest
              in
              fill (!n_acc - 1) !acc;
              acc := [];
              n_acc := 0;
              out := Vector.rows_batch out_schema rows :: !out
            end
          in
          let flush_pending () =
            if !n_pending > 0 then begin
              let lefts = Array.make !n_pending pad in
              let rec fill i = function
                | [] -> ()
                | t :: rest ->
                    Array.unsafe_set lefts i t;
                    fill (i - 1) rest
              in
              fill (!n_pending - 1) !pending;
              pending := [];
              n_pending := 0;
              out :=
                project_block
                  (Vector.cross_block joint ~lefts
                     ~right_cols:(Lazy.force right_cols) ~card_b)
                :: !out
            end
          in
          let push t =
            flush_pending ();
            acc := t :: !acc;
            incr n_acc
          in
          let emit_pad ta =
            incr emitted;
            push (mk_row ta pad)
          in
          (* Every pair of [ta × tbs] is emitted with no per-pair
             predicate, so the block is built columnarly — left values
             repeated, right columns tiled, zero per-pair allocation.
             Runs of such rows coalesce into one block, flushed at a
             size cap so the governor still sees batch granularity. *)
          let emit_all ta =
            flush_acc ();
            emitted := !emitted + card_b;
            pending := ta :: !pending;
            incr n_pending;
            if !n_pending * card_b >= 65536 then flush_pending ()
          in
          let emit_filtered ta aenv p =
            let hit = ref false in
            List.iter
              (fun tb ->
                if p rt.cctx (tb :: aenv) = 1 then begin
                  hit := true;
                  incr emitted;
                  push (mk_row ta tb)
                end)
              tbs;
            if outer && not !hit then emit_pad ta
          in
          let drain_drop ta aenv p =
            List.iter (fun tb -> ignore (p rt.cctx (tb :: aenv))) tbs;
            if outer then emit_pad ta
          in
          List.iter
            (fun ba ->
              Guard.tick here;
              Vector.iter_tuples ba (fun ta ->
                  incr nleft;
                  Guard.count_pairs here card_b;
                  let aenv = ta :: rt.renv in
                  match tbs with
                  | [] -> if outer then emit_pad ta
                  | _ -> (
                      match split with
                      | `All -> emit_all ta
                      | `Whole p -> emit_filtered ta aenv p
                      | `Or (px, py) ->
                          if px rt.cctx aenv = 1 then emit_all ta
                          else emit_filtered ta aenv py
                      | `And (px, py) -> (
                          match px rt.cctx aenv with
                          | 0 -> if outer then emit_pad ta
                          | 1 -> emit_filtered ta aenv py
                          | _ -> drain_drop ta aenv py))))
            (va.v_run rt);
          flush_acc ();
          flush_pending ();
          stats.Sem.st_nested_pairs <-
            stats.Sem.st_nested_pairs + (!nleft * card_b);
          stats.Sem.st_rows_emitted <- stats.Sem.st_rows_emitted + !emitted;
          List.rev !out);
    }
  end
  else begin
    let left_keys =
      Array.of_list
        (List.map
           (fun (e, _, _) -> scalar_at here db (sa :: cenv) e)
           pairs)
    in
    let right_keys =
      Array.of_list
        (List.map
           (fun (_, e, _) -> scalar_at here db (sb :: cenv) e)
           pairs)
    in
    let safe = Array.of_list (List.map (fun (_, _, s) -> s) pairs) in
    let nkeys = Array.length safe in
    let cresidual =
      match residual with
      | [] -> None
      | r -> Some (pred_at here db (sb :: sa :: cenv) (conj r))
    in
    let usable (key : Tuple.t) =
      let rec go i =
        i >= nkeys || ((safe.(i) || not (Value.is_null key.(i))) && go (i + 1))
      in
      go 0
    in
    (* Bare depth-0 attribute keys on both sides and no residual: the
       probe phase then reads only tuple offsets and a frozen hash
       table, so left batches can fan out over worker domains. *)
    let bare_offsets =
      match cresidual with
      | Some _ -> None
      | None ->
          let rec go l r = function
            | [] -> Some (Array.of_list (List.rev l))
            | (Attr ln, Attr rn, _) :: rest -> (
                match (Schema.find sa ln, Schema.find sb rn) with
                | Some li, Some _ -> go (li :: l) r rest
                | _ -> None)
            | _ :: _ -> None
          in
          go [] [] pairs
    in
    {
      v_schema = out_schema;
      v_run =
        (fun rt ->
          Guard.Faults.fire_point Guard.Faults.Join here;
          let stats = rt.cctx.stats in
          stats.Sem.st_hash_joins <- stats.Sem.st_hash_joins + 1;
          let rbats = vb.v_run rt in
          let card_b = List.fold_left (fun n b -> n + Vector.length b) 0 rbats in
          let table = Tuple.Tbl.create (max 16 card_b) in
          List.iter
            (fun bb ->
              Guard.tick here;
              Vector.iter_tuples bb (fun tb ->
                  let key =
                    eval_row right_keys rt.cctx (tb :: rt.renv)
                  in
                  if usable key then
                    let existing =
                      try Tuple.Tbl.find table key with Not_found -> []
                    in
                    Tuple.Tbl.replace table key (tb :: existing)))
            rbats;
          let pad = Tuple.nulls arity_b in
          let abats = Array.of_list (va.v_run rt) in
          let nb = Array.length abats in
          let emitted = ref 0 in
          match (bare_offsets, rt.pool) with
          | Some loffs, Some pool when nb > 1 ->
              let out_rows = Array.make nb [] in
              let out_emitted = Array.make nb 0 in
              let work i =
                let acc = ref [] and em = ref 0 in
                Vector.iter_tuples abats.(i) (fun ta ->
                    let key = Tuple.project_arr ta loffs in
                    let matches =
                      if usable key then
                        match Tuple.Tbl.find_opt table key with
                        | Some tbs -> List.rev tbs
                        | None -> []
                      else []
                    in
                    let hit = ref false in
                    List.iter
                      (fun tb ->
                        hit := true;
                        incr em;
                        acc := mk_row ta tb :: !acc)
                      matches;
                    if outer && not !hit then begin
                      incr em;
                      acc := mk_row ta pad :: !acc
                    end);
                out_rows.(i) <- List.rev !acc;
                out_emitted.(i) <- !em
              in
              par_run here pool ~tasks:nb work;
              Array.iter (fun e -> emitted := !emitted + e) out_emitted;
              stats.Sem.st_rows_emitted <- stats.Sem.st_rows_emitted + !emitted;
              chunk_rows out_schema (List.concat (Array.to_list out_rows))
          | _ ->
              let acc = ref [] in
              Array.iter
                (fun ba ->
                  Guard.tick here;
                  Vector.iter_tuples ba (fun ta ->
                      let fenv = ta :: rt.renv in
                      let key = eval_row left_keys rt.cctx fenv in
                      let matches =
                        if usable key then
                          match Tuple.Tbl.find_opt table key with
                          | Some tbs -> List.rev tbs
                          | None -> []
                        else []
                      in
                      let hit = ref false in
                      (match cresidual with
                      | None ->
                          List.iter
                            (fun tb ->
                              hit := true;
                              incr emitted;
                              acc := mk_row ta tb :: !acc)
                            matches
                      | Some cr ->
                          List.iter
                            (fun tb ->
                              if cr rt.cctx (tb :: fenv) = 1 then begin
                                hit := true;
                                incr emitted;
                                acc := mk_row ta tb :: !acc
                              end)
                            matches);
                      if outer && not !hit then begin
                        incr emitted;
                        acc := mk_row ta pad :: !acc
                      end))
                abats;
              stats.Sem.st_rows_emitted <- stats.Sem.st_rows_emitted + !emitted;
              chunk_rows out_schema (List.rev !acc));
    }
  end

(* ---- public API ------------------------------------------------------ *)

let query_stats ?(env = []) db q : Relation.t * Sem.stats =
  let cenv = List.map fst env and renv = List.map snd env in
  cur_compile_path := [];
  let v = lower db ~replay:false [] cenv q in
  let pool =
    match !pool_override with
    | Some _ as p -> p
    | None -> if !domains > 1 then Some (Morsel.get !domains) else None
  in
  let rt = { cctx = mk_ctx db; renv; pool } in
  let bats = v.v_run rt in
  (Vector.relation_of v.v_schema bats, rt.cctx.stats)

let query ?(env = []) db q = fst (query_stats ~env db q)

let expr ?(env = []) db e =
  cur_compile_path := [];
  compile_expr db (List.map fst env) e (mk_ctx db) (List.map snd env)
