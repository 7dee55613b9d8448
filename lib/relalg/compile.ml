(** Compiled query execution: offset-resolved closures instead of
    per-tuple AST interpretation.

    The reference evaluator ({!Eval}) walks the algebra AST for every
    tuple and resolves every attribute reference by *string lookup*
    through a stack of name→position tables. On the wide plans the
    provenance rewrites produce, that interpretation overhead dominates
    runtime and hides the plan-shape differences the paper's evaluation
    measures. This module removes it by lowering a type-checked
    {!Algebra.query} once into a tree of plain OCaml closures:

    - every [Attr] is resolved at compile time to a
      [(frame_depth, column_offset)] pair, so a runtime attribute
      access is a list walk of known depth (almost always 0, i.e. a
      single array read) with no hashing and no string comparison;
    - scalar expressions, predicates, projection lists, join keys and
      aggregate arguments become pre-built closures of type
      [ctx -> renv -> Value.t];
    - per-operator analyses — equi-conjunct classification
      ({!Scope.split_equi}), sublink free-variable sets, projection and
      aggregation output schemas — run once per operator at compile
      time instead of once per evaluation;
    - execution is *push-based*: row-at-a-time operators (select,
      project, join emission, limit) stream tuples straight into their
      consumer instead of materializing a list per operator, so only
      pipeline breakers (sort, aggregation, set operations, hash-join
      build sides, sublink memo entries) allocate intermediate
      relations;
    - a projection of bare attributes sitting on top of a join is fused
      into the join's emit step: output rows are gathered directly from
      the two input tuples, never building the concatenated tuple the
      projection would immediately tear apart.

    The runtime environment mirrors the reference evaluator exactly: a
    stack of tuples, innermost frame first, with one frame pushed per
    enclosing operator (and per enclosing sublink scope). The compile
    -time environment is the corresponding stack of schemas, so a name
    that resolves to [(d, i)] at compile time denotes column [i] of the
    [d]-th runtime frame — the correlation rules of Section 2.2, decided
    statically.

    Streaming changes *when* work happens, never *what* or *in which
    row order*: every operator pushes rows in exactly the order the
    reference evaluator lists them, [Limit] drains its whole input (the
    reference evaluator evaluates the child fully before taking), and
    the execution counters ({!Sem.stats}) are accumulated so their
    final values coincide with the reference engine's.

    Sublink execution keeps the reference evaluator's performance
    features: memoization per binding of the (pre-resolved) correlated
    attributes, and constant-size summaries answering [ANY]/[ALL]
    ({!Sem}). Inside a correlated sublink's body, a subtree that does
    not depend on the binding and cannot touch the counters runs once
    per execution and is replayed for later bindings. Compiled plans
    assume the catalog schemas seen at compile time;
    {!query}/{!query_stats} compile and run atomically, so this only
    matters when a {!compiled} plan is cached across DDL. *)

open Algebra

(** {1 Runtime representation} *)

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

(* The sublink memo tables are per-execution and coordinator-confined:
   the vectorized engine preps every probe before fanning out, so a
   worker-domain access here is a bug the armed race detector reports.
   The location is per-ctx — two concurrent executions own disjoint
   tables and must not alias. *)
let memo_loc ctx = "compile.ctx[" ^ string_of_int ctx.ctx_tag ^ "].memo"
let memo_read ctx = if Race.is_armed () then Race.read (memo_loc ctx)
let memo_write ctx = if Race.is_armed () then Race.write (memo_loc ctx)

(** Runtime environment: tuple frames, innermost first. *)
type renv = Tuple.t list

(** A compiled scalar expression. *)
type cexpr = ctx -> renv -> Value.t

(** A compiled operator. [c_stream] pushes output rows, in the exact
    order the reference evaluator produces them, into a consumer;
    [c_run] materializes them as a relation. Each operator natively
    provides whichever form matches its execution shape and derives
    the other ({!streaming} / {!materialized}). *)
type cop = {
  c_schema : Schema.t;
  c_stream : ctx -> renv -> (Tuple.t -> unit) -> unit;
  c_run : ctx -> renv -> Relation.t;
}

let streaming c_schema c_stream =
  {
    c_schema;
    c_stream;
    c_run =
      (fun ctx env ->
        let acc = ref [] in
        c_stream ctx env (fun t -> acc := t :: !acc);
        Relation.make_unchecked c_schema (List.rev !acc));
  }

let materialized c_schema c_run =
  {
    c_schema;
    c_run;
    c_stream =
      (fun ctx env push ->
        List.iter push (Relation.tuples (c_run ctx env)));
  }

type compiled = { top : cop; cdb : Database.t }

(* ---- governor integration ----------------------------------------- *)

(* [Guard] checkpoints are baked into every operator at compile time:
   the operator's Lint-style path is a compile-time constant captured by
   the wrapper closures, so the run-time cost with no budget installed
   is one flag load per operator entry and one per emitted row. Exactly
   one of [c_stream]/[c_run] of the wrapped operator executes per
   operator run (the derived form delegates to the native one, which is
   captured unwrapped), so each produced row is counted exactly once per
   operator. *)
let guarded here (c : cop) : cop =
  {
    c_schema = c.c_schema;
    c_stream =
      (fun ctx env push ->
        Guard.tick here;
        c.c_stream ctx env (fun t ->
            Guard.count_row here;
            push t));
    c_run =
      (fun ctx env ->
        Guard.tick here;
        let rel = c.c_run ctx env in
        if Guard.counts_rows () then
          Guard.count_rows here (Relation.cardinality rel);
        rel);
  }

(* The operator path under compilation — read (at compile time only) by
   [compile_sublink] to place sublink boundaries without threading a
   path through every expression-compiler signature. [compile_query]
   updates it before compiling an operator's own expressions. *)
let cur_compile_path : string list ref = ref []

(** {1 Attribute access} *)

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
   over a join (or a select-over-product that compiles into one) gathers
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

(** {1 Expression compilation} *)

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

(** {1 Predicate compilation}

    Selection and join conditions are compiled to *unboxed* three-valued
    predicates — [0] false, [1] true, [2] unknown — so the boolean
    skeleton (AND/OR/NOT over comparisons) evaluates without allocating
    a [Value.t] per node. Truth tables and short-circuiting mirror the
    reference evaluator ([Value.and3]/[or3]/[not3] plus its skip rules)
    exactly, including *which* operand subexpressions are evaluated —
    sublink memo counters depend on that. Integer-integer comparison,
    the ubiquitous case on the synthetic and TPC-H workloads, is a
    direct unboxed compare; everything else falls back to
    {!Value.cmp_sql} / the general expression compiler. *)

and compile_pred db (cenv : Schema.t list) (e : expr) : ctx -> renv -> int =
  let b3_of_value v =
    if Value.is_true v then 1 else if Value.is_null v then 2 else 0
  in
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
  | Cmp (EqNull, a, b) ->
      let ca = compile_expr db cenv a and cb = compile_expr db cenv b in
      fun ctx env ->
        if Value.equal_null (ca ctx env) (cb ctx env) then 1 else 0
  | Cmp (op, a, b) ->
      let ca = compile_expr db cenv a and cb = compile_expr db cenv b in
      let test =
        match op with
        | Eq -> fun c -> c = 0
        | Neq -> fun c -> c <> 0
        | Lt -> fun c -> c < 0
        | Leq -> fun c -> c <= 0
        | Gt -> fun c -> c > 0
        | Geq -> fun c -> c >= 0
        | EqNull -> assert false
      in
      let itest : int -> int -> bool =
        match op with
        | Eq -> fun x y -> x = y
        | Neq -> fun x y -> x <> y
        | Lt -> fun x y -> x < y
        | Leq -> fun x y -> x <= y
        | Gt -> fun x y -> x > y
        | Geq -> fun x y -> x >= y
        | EqNull -> assert false
      in
      fun ctx env ->
        let va = ca ctx env and vb = cb ctx env in
        (match (va, vb) with
        | Value.Int x, Value.Int y -> if itest x y then 1 else 0
        | Value.Null, _ | _, Value.Null -> 2
        | _ -> (
            match Value.cmp_sql va vb with
            | None -> 2
            | Some c -> if test c then 1 else 0))
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

(** Sublinks: the correlated attributes are resolved to offset accessors
    once, so the per-binding memo key is assembled without any name
    resolution; the sublink query itself is compiled under the full
    environment at the expression's location, exactly the scope the
    reference evaluator gives it. *)
and compile_sublink db (cenv : Schema.t list) (s : sublink) : cexpr =
  let saved_path = !cur_compile_path in
  let spath = saved_path @ [ Printf.sprintf "sublink[%d]" s.id ] in
  let free = Scope.free_of_query db s.query in
  let free_getters =
    Array.of_list (List.map (fun n -> attr_access (resolve_attr cenv n)) free)
  in
  let csub = compile_query db ~replay:(free <> []) spath cenv s.query in
  cur_compile_path := saved_path;
  let key ctx env =
    (s.id, Array.to_list (Array.map (fun g -> g ctx env) free_getters))
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
        let rel = csub.c_run ctx env in
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
  (* An uncorrelated sublink has a constant memo key, so its result for
     the current execution is held in a local slot instead of paying a
     key allocation plus a structural hash per evaluation. The slot is
     keyed on the [ctx] by physical identity — a fresh execution gets a
     fresh context and recomputes — and the first fill still goes
     through the shared memo tables, so the counters ({!Sem.stats})
     advance exactly as the reference evaluator's do: relation reuse
     counts a hit, summary reuse is silent. *)
  let correlated = Array.length free_getters > 0 in
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

(** {1 Query compilation} *)

(* [replay] holds inside the body of a correlated sublink, which runs
   once per binding. There a subtree that reads nothing from the
   enclosing frames and touches no counter yields the same relation for
   every binding, so it runs once per execution ([compile_replayed]).
   A bare scan already returns a stored relation: nothing to save. *)
and compile_query db ~replay path (cenv : Schema.t list) (q : query) : cop =
  match q with
  | Base _ | TableExpr _ -> compile_node db ~replay path cenv q
  | _ when replay && counter_free q && Scope.free_of_query db q = [] ->
      compile_replayed db path q
  | _ -> compile_node db ~replay path cenv q

(* The subtree is compiled without the outer frames, so nothing below it
   is replayed again. Its first run in an execution streams to the
   consumer as it always did, and its relation is kept in a slot keyed
   on the [ctx] by physical identity, as [cached_rel] keeps an
   uncorrelated sublink's. Later bindings replay the relation and charge
   the governor the rows the first run charged, at the subtree's path,
   so row totals match a run that re-executes it. The slot is
   coordinator-confined like the memo tables. *)
and compile_replayed db path q : cop =
  let c = compile_node db ~replay:false path [] q in
  let here = path @ [ Guard.op_label q ] in
  let slot = ref None in
  let replayed ctx =
    memo_read ctx;
    match !slot with
    | Some (c', rel, charged) when c' == ctx ->
        if charged > 0 then Guard.count_rows here charged;
        Some rel
    | _ -> None
  in
  (* [run] returns the relation and the rows its consumer charged
     meanwhile, which are not the subtree's. *)
  let record ctx run =
    let before = Guard.charged_rows () in
    let rel, downstream = run () in
    memo_write ctx;
    slot := Some (ctx, rel, Guard.charged_rows () - before - downstream);
    rel
  in
  {
    c_schema = c.c_schema;
    c_run =
      (fun ctx _ ->
        match replayed ctx with
        | Some rel -> rel
        | None -> record ctx (fun () -> (c.c_run ctx [], 0)));
    c_stream =
      (fun ctx _ push ->
        match replayed ctx with
        | Some rel -> List.iter push (Relation.tuples rel)
        | None ->
            ignore
              (record ctx (fun () ->
                   let acc = ref [] and downstream = ref 0 in
                   c.c_stream ctx [] (fun t ->
                       acc := t :: !acc;
                       let b = Guard.charged_rows () in
                       push t;
                       downstream := !downstream + Guard.charged_rows () - b);
                   ( Relation.make_unchecked c.c_schema (List.rev !acc),
                     !downstream ))));
  }

and compile_node db ~replay path (cenv : Schema.t list) (q : query) : cop =
  (* [here] mirrors Lint's diagnostic paths; children extend the parent
     segment with a [left]/[right] qualifier exactly like Lint does. *)
  let here = path @ [ Guard.op_label q ] in
  let cpath qual = path @ [ Guard.op_label q ^ qual ] in
  guarded here
  @@
  match q with
  | Base name ->
      let schema = Relation.schema (Database.find db name) in
      materialized schema (fun ctx _ ->
          Guard.Faults.fire_point Guard.Faults.Scan here;
          Database.find ctx.db name)
  | TableExpr rel ->
      materialized (Relation.schema rel) (fun _ _ ->
          Guard.Faults.fire_point Guard.Faults.Scan here;
          rel)
  (* Fuse a selection over a product/join so pairs stream instead of the
     product being materialized first (mirrors the reference engine). *)
  | Select (cond, Cross (a, b)) -> compile_join db ~replay here cenv ~outer:false cond a b
  | Select (cond, Join (c, a, b)) ->
      compile_join db ~replay here cenv ~outer:false (And (c, cond)) a b
  | Select (cond, input) ->
      let cin = compile_query db ~replay (cpath "") cenv input in
      cur_compile_path := here;
      let pcond = compile_pred db (cin.c_schema :: cenv) cond in
      streaming cin.c_schema (fun ctx env push ->
          cin.c_stream ctx env (fun t ->
              if pcond ctx (t :: env) = 1 then push t))
  | Project { distinct; cols; proj_input } -> (
      match if distinct then None else fused_join db cenv cols proj_input with
      | Some (outer, cond, a, b, project) ->
          compile_join db ~replay here cenv ~outer ~project cond a b
      | None ->
          let cin = compile_query db ~replay (cpath "") cenv proj_input in
          let ienv = cin.c_schema :: cenv in
          let out_schema = Typecheck.projection_schema db ienv cols in
          cur_compile_path := here;
          (* Projections that only reorder/duplicate input columns — the
             common case on rewritten plans, whose projection lists are
             wide but attribute-only — become a direct offset gather
             with no closure dispatch and no environment push. *)
          let row_fn =
            match own_offsets cin.c_schema cols with
            | Some offs ->
                let n = Array.length offs in
                fun _ctx _env t ->
                  let out = Array.make n Value.Null in
                  for j = 0 to n - 1 do
                    Array.unsafe_set out j
                      (Tuple.get t (Array.unsafe_get offs j))
                  done;
                  (out : Tuple.t)
            | None ->
                let cexprs =
                  Array.of_list
                    (List.map (fun (e, _) -> compile_expr db ienv e) cols)
                in
                fun ctx env t -> eval_row cexprs ctx (t :: env)
          in
          if distinct then
            materialized out_schema (fun ctx env ->
                let acc = ref [] in
                cin.c_stream ctx env (fun t ->
                    acc := row_fn ctx env t :: !acc);
                Relation.distinct
                  (Relation.make_unchecked out_schema (List.rev !acc)))
          else
            streaming out_schema (fun ctx env push ->
                cin.c_stream ctx env (fun t -> push (row_fn ctx env t))))
  | Cross (a, b) ->
      let ca = compile_query db ~replay (cpath "[left]") cenv a
      and cb = compile_query db ~replay (cpath "[right]") cenv b in
      let schema = Schema.concat ca.c_schema cb.c_schema in
      streaming schema (fun ctx env push ->
          Guard.Faults.fire_point Guard.Faults.Join here;
          let rb = cb.c_run ctx env in
          let tbs = Relation.tuples rb in
          let card_b = Relation.cardinality rb in
          ca.c_stream ctx env (fun ta ->
              Guard.count_pairs here card_b;
              List.iter (fun tb -> push (Tuple.concat ta tb)) tbs))
  | Join (cond, a, b) -> compile_join db ~replay here cenv ~outer:false cond a b
  | LeftJoin (cond, a, b) -> compile_join db ~replay here cenv ~outer:true cond a b
  | Agg { group_by; aggs; agg_input } ->
      compile_agg db ~replay here cenv group_by aggs agg_input
  | Union (sem, a, b) ->
      let op =
        match sem with Bag -> Relation.union_bag | SetSem -> Relation.union_set
      in
      compile_setop db ~replay (cpath "[left]") (cpath "[right]") cenv op a b
  | Inter (sem, a, b) ->
      let op =
        match sem with Bag -> Relation.inter_bag | SetSem -> Relation.inter_set
      in
      compile_setop db ~replay (cpath "[left]") (cpath "[right]") cenv op a b
  | Diff (sem, a, b) ->
      let op =
        match sem with Bag -> Relation.diff_bag | SetSem -> Relation.diff_set
      in
      compile_setop db ~replay (cpath "[left]") (cpath "[right]") cenv op a b
  | Order (keys, input) ->
      let cin = compile_query db ~replay (cpath "") cenv input in
      let ienv = cin.c_schema :: cenv in
      cur_compile_path := here;
      let ckeys =
        Array.of_list
          (List.map (fun (e, d) -> (compile_expr db ienv e, d)) keys)
      in
      let nkeys = Array.length ckeys in
      let kexprs = Array.map fst ckeys in
      materialized cin.c_schema (fun ctx env ->
          let decorated = ref [] in
          cin.c_stream ctx env (fun t ->
              decorated := (eval_row kexprs ctx (t :: env), t) :: !decorated);
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
          Relation.make_unchecked cin.c_schema
            (List.map snd (List.stable_sort cmp (List.rev !decorated))))
  | Limit (n, input) ->
      let cin = compile_query db ~replay (cpath "") cenv input in
      (* The input is drained even once [n] rows are out: the reference
         evaluator materializes the child fully before taking, so an
         early exit would skew the shared execution counters. *)
      streaming cin.c_schema (fun ctx env push ->
          let k = ref 0 in
          cin.c_stream ctx env (fun t ->
              if !k < n then begin
                incr k;
                push t
              end))

(* ---------------- joins ---------------- *)

(* Equi-conjunct classification, key-closure building and residual
   compilation all happen here, once; execution only hashes values.
   [?project] is the fused projection: output rows are gathered from
   the (left, right) tuple pair by offset instead of concatenation. *)
and compile_join db ~replay here cenv ~outer ?project cond a b : cop =
  let qual s =
    match List.rev here with
    | last :: rest -> List.rev ((last ^ s) :: rest)
    | [] -> [ s ]
  in
  let ca = compile_query db ~replay (qual "[left]") cenv a
  and cb = compile_query db ~replay (qual "[right]") cenv b in
  cur_compile_path := here;
  let sa = ca.c_schema and sb = cb.c_schema in
  let joint = Schema.concat sa sb in
  let schema = match project with None -> joint | Some (_, s) -> s in
  let arity_a = Schema.arity sa and arity_b = Schema.arity sb in
  let mk_row =
    match project with
    | None -> Tuple.concat
    | Some (offs, _) ->
        (* explicit loop: [Array.map] would allocate a fresh closure
           capturing (ta, tb) on every emitted row *)
        let n = Array.length offs in
        fun ta tb ->
          let out = Array.make n Value.Null in
          for j = 0 to n - 1 do
            let i = Array.unsafe_get offs j in
            Array.unsafe_set out j
              (if i < arity_a then Tuple.get ta i
               else Tuple.get tb (i - arity_a))
          done;
          (out : Tuple.t)
  in
  let pairs, residual =
    Scope.split_equi db ~left:(Schema.names sa) ~right:(Schema.names sb) cond
  in
  (* Join conditions are compiled against the two input frames rather
     than the concatenated tuple: [sa] and [sb] are disjoint (enforced
     by [Schema.concat]), so a name resolves to the same cell whether
     the frames are stacked or concatenated — but stacking means a
     non-matching pair costs two list cells instead of an array copy.
     Output rows are only built for pairs that survive. *)
  if pairs = [] then
    (* Left-only hoisting: when the first operand of a top-level OR/AND
       reads nothing from the right input, evaluate it once per left
       tuple instead of once per pair. The reference evaluator computes
       the same (left-determined) value for every pair and short
       -circuits the second operand on it, so emitted rows are
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
      | Or (x, y) when hoistable x ->
          `Or (compile_pred db (sa :: cenv) x, compile_pred db penv y)
      | And (x, y) when hoistable x ->
          `And (compile_pred db (sa :: cenv) x, compile_pred db penv y)
      | _ -> `Whole (compile_pred db penv cond)
    in
    streaming schema (fun ctx env push ->
        Guard.Faults.fire_point Guard.Faults.Join here;
        ctx.stats.Sem.st_nested_loop_joins <-
          ctx.stats.Sem.st_nested_loop_joins + 1;
        let rb = cb.c_run ctx env in
        let tbs = Relation.tuples rb in
        let card_b = Relation.cardinality rb in
        let pad = Tuple.nulls arity_b in
        let nleft = ref 0 and emitted = ref 0 in
        let emit_pad ta =
          incr emitted;
          push (mk_row ta pad)
        in
        let emit_all ta =
          List.iter
            (fun tb ->
              incr emitted;
              push (mk_row ta tb))
            tbs
        in
        let emit_filtered ta aenv p =
          let hit = ref false in
          List.iter
            (fun tb ->
              if p ctx (tb :: aenv) = 1 then begin
                hit := true;
                incr emitted;
                push (mk_row ta tb)
              end)
            tbs;
          if outer && not !hit then emit_pad ta
        in
        let drain_drop ta aenv p =
          List.iter (fun tb -> ignore (p ctx (tb :: aenv))) tbs;
          if outer then emit_pad ta
        in
        ca.c_stream ctx env (fun ta ->
            incr nleft;
            Guard.count_pairs here card_b;
            let aenv = ta :: env in
            match tbs with
            | [] -> if outer then emit_pad ta
            | _ -> (
                match split with
                | `Whole p -> emit_filtered ta aenv p
                | `Or (px, py) ->
                    if px ctx aenv = 1 then emit_all ta
                    else emit_filtered ta aenv py
                | `And (px, py) -> (
                    match px ctx aenv with
                    | 0 -> if outer then emit_pad ta
                    | 1 -> emit_filtered ta aenv py
                    | _ -> drain_drop ta aenv py)));
        ctx.stats.Sem.st_nested_pairs <-
          ctx.stats.Sem.st_nested_pairs + (!nleft * card_b);
        ctx.stats.Sem.st_rows_emitted <-
          ctx.stats.Sem.st_rows_emitted + !emitted)
  else
    let left_keys =
      Array.of_list
        (List.map (fun (e, _, _) -> compile_expr db (sa :: cenv) e) pairs)
    in
    let right_keys =
      Array.of_list
        (List.map (fun (_, e, _) -> compile_expr db (sb :: cenv) e) pairs)
    in
    let safe = Array.of_list (List.map (fun (_, _, s) -> s) pairs) in
    let nkeys = Array.length safe in
    let cresidual =
      match residual with
      | [] -> None
      | r -> Some (compile_pred db (sb :: sa :: cenv) (conj r))
    in
    (* A NULL in a non-null-safe key position can never match. *)
    let usable (key : Tuple.t) =
      let rec go i =
        i >= nkeys || ((safe.(i) || not (Value.is_null key.(i))) && go (i + 1))
      in
      go 0
    in
    streaming schema (fun ctx env push ->
        Guard.Faults.fire_point Guard.Faults.Join here;
        ctx.stats.Sem.st_hash_joins <- ctx.stats.Sem.st_hash_joins + 1;
        let rb = cb.c_run ctx env in
        let table = Tuple.Tbl.create (max 16 (Relation.cardinality rb)) in
        List.iter
          (fun tb ->
            let key = eval_row right_keys ctx (tb :: env) in
            if usable key then begin
              let existing =
                try Tuple.Tbl.find table key with Not_found -> []
              in
              Tuple.Tbl.replace table key (tb :: existing)
            end)
          (Relation.tuples rb);
        let pad = Tuple.nulls arity_b in
        let emitted = ref 0 in
        ca.c_stream ctx env (fun ta ->
            let fenv = ta :: env in
            let key = eval_row left_keys ctx fenv in
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
                    push (mk_row ta tb))
                  matches
            | Some cr ->
                List.iter
                  (fun tb ->
                    if cr ctx (tb :: fenv) = 1 then begin
                      hit := true;
                      incr emitted;
                      push (mk_row ta tb)
                    end)
                  matches);
            if outer && not !hit then begin
              incr emitted;
              push (mk_row ta pad)
            end);
        ctx.stats.Sem.st_rows_emitted <-
          ctx.stats.Sem.st_rows_emitted + !emitted)

(* ---------------- aggregation ---------------- *)

and compile_agg db ~replay here cenv group_by aggs agg_input : cop =
  let cin = compile_query db ~replay (here : string list) cenv agg_input in
  let ienv = cin.c_schema :: cenv in
  cur_compile_path := here;
  let out_schema = Typecheck.aggregation_schema db ienv group_by aggs in
  let group_cexprs =
    Array.of_list (List.map (fun (e, _) -> compile_expr db ienv e) group_by)
  in
  let agg_specs =
    List.map
      (fun call ->
        ( call.agg_func,
          call.agg_distinct,
          Option.map (compile_expr db ienv) call.agg_arg ))
      aggs
  in
  let grouped = group_by <> [] in
  materialized out_schema (fun ctx env ->
      let groups = Tuple.Tbl.create 64 in
      let order = ref [] in
      let saw_input = ref false in
      cin.c_stream ctx env (fun t ->
          saw_input := true;
          let fenv = t :: env in
          let key : Tuple.t = eval_row group_cexprs ctx fenv in
          match Tuple.Tbl.find_opt groups key with
          | Some members -> Tuple.Tbl.replace groups key (t :: members)
          | None ->
              Tuple.Tbl.add groups key [ t ];
              order := key :: !order);
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
                | None -> List.map (fun _ -> Value.Int 1) members (* COUNT( * ) *)
                | Some ce ->
                    List.filter_map
                      (fun t ->
                        let v = ce ctx (t :: env) in
                        if Value.is_null v then None else Some v)
                      members
              in
              Builtin.apply_aggregate func ~distinct raw)
            agg_specs
        in
        Tuple.concat key (Tuple.of_list agg_values)
      in
      Relation.make_unchecked out_schema (List.map compute_group keys))

(* ---------------- set operations ---------------- *)

and compile_setop db ~replay lpath rpath cenv op a b : cop =
  let ca = compile_query db ~replay lpath cenv a
  and cb = compile_query db ~replay rpath cenv b in
  materialized ca.c_schema (fun ctx env ->
      op (ca.c_run ctx env) (cb.c_run ctx env))

(** {1 Public API} *)

(** [compile ?env db q] lowers [q] to an executable plan; [env] supplies
    the schemas of outer frames for correlated compilation. *)
let compile ?(env = []) db q =
  cur_compile_path := [];
  { top = compile_query db ~replay:false [] env q; cdb = db }

let schema c = c.top.c_schema

(** [run ?env c] executes a compiled plan with a fresh memoization
    context; [env] supplies the outer frames' tuples, innermost first,
    matching the schema stack given to {!compile}. *)
let run ?(env = []) c = c.top.c_run (mk_ctx c.cdb) env

let run_stats ?(env = []) c =
  let ctx = mk_ctx c.cdb in
  let rel = c.top.c_run ctx env in
  (rel, ctx.stats)

(** [stream ?env c push] runs a compiled plan push-based: [push]
    receives each output row in order, before the next is produced —
    the observation point the governor tests use to check that rows
    emitted before a budget trip agree with an untripped run. *)
let stream ?(env = []) c push = c.top.c_stream (mk_ctx c.cdb) env push

(** [query db q] compiles and runs in one step — the compiled engine's
    equivalent of [Eval.query]. [env] pairs each outer frame's schema
    with its tuple. *)
let query ?(env = []) db q =
  let c = compile ~env:(List.map fst env) db q in
  run ~env:(List.map snd env) c

let query_stats ?(env = []) db q =
  let c = compile ~env:(List.map fst env) db q in
  run_stats ~env:(List.map snd env) c

(** [expr db e] compiles and evaluates a scalar expression (sublinks
    allowed). *)
let expr ?(env = []) db e =
  cur_compile_path := [];
  let ce = compile_expr db (List.map fst env) e in
  ce (mk_ctx db) (List.map snd env)

(** {1 Engine-internal surface}

    The vectorized engine ({!Vexec}) lowers the same type-checked
    algebra but executes batch-at-a-time; for everything that is not a
    columnar kernel — row-wise fallback expressions, join residuals,
    aggregate arguments — it reuses this module's compiled closures so
    the two engines share one semantics (and one sublink memo/summary
    cache per execution context). *)

let ctx_stats (ctx : ctx) = ctx.stats
let ctx_db (ctx : ctx) = ctx.db

let compile_scalar ?(path = []) db cenv e : cexpr =
  cur_compile_path := path;
  compile_expr db cenv e

let compile_predicate ?(path = []) db cenv e : ctx -> renv -> int =
  cur_compile_path := path;
  compile_pred db cenv e

let eval_exprs = eval_row
let offsets_of_projection = own_offsets

(** [sublink_summary db cenv s] — for an {e uncorrelated} sublink, a
    per-execution summary accessor sharing the compiled engine's memo
    tables and counter behavior (first call per [ctx] materializes and
    counts one eval; later calls are silent summary reuse, exactly as
    the compiled engine's per-row path behaves). [None] when [s] is
    correlated. The vectorized ANY/ALL probe kernels call this once
    per execution, before any parallel section, so the summary is
    immutable by the time workers read it. *)
let sublink_summary ?(path = []) db cenv (s : sublink) :
    (ctx -> renv -> Sem.summary) option =
  if Scope.free_of_query db s.query <> [] then None
  else begin
    cur_compile_path := path;
    let spath = path @ [ Printf.sprintf "sublink[%d]" s.id ] in
    let csub = compile_query db ~replay:false spath cenv s.query in
    cur_compile_path := path;
    let k0 = (s.id, []) in
    Some
      (fun ctx env ->
        memo_read ctx;
        match Hashtbl.find_opt ctx.sub_summaries k0 with
        | Some sm -> sm
        | None ->
            let rel =
              match Hashtbl.find_opt ctx.sub_results k0 with
              | Some rel ->
                  ctx.stats.Sem.st_sublink_hits <-
                    ctx.stats.Sem.st_sublink_hits + 1;
                  rel
              | None ->
                  ctx.stats.Sem.st_sublink_evals <-
                    ctx.stats.Sem.st_sublink_evals + 1;
                  Guard.Faults.fire_point Guard.Faults.Sublink spath;
                  let rel = csub.c_run ctx env in
                  memo_write ctx;
                  Hashtbl.add ctx.sub_results k0 rel;
                  rel
            in
            let sm =
              Sem.summarize
                (List.map (fun t -> Tuple.get t 0) (Relation.tuples rel))
            in
            memo_write ctx;
            Hashtbl.add ctx.sub_summaries k0 sm;
            sm)
  end
