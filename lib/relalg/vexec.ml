(** Query execution: the production engine. A type-checked
    {!Algebra.query} is lowered once into batch-at-a-time operators over
    {!Vector} batches of boxed tuples, and every scalar expression into
    a closure with its attribute references resolved to frame offsets.

    Operators materialize their outputs as batch lists, evaluate
    selection predicates as masks (three-valued bytes, one per row of a
    batch, applied as the batch's selection vector), and probe
    uncorrelated [ANY]/[ALL] sublinks against the {!Sem} summary, or an
    integer set specialized from it. A query runs on the domain that
    called it.

    Everything without a mask kernel — residual join predicates,
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

    Domain safety: server sessions run executions on concurrent
    domains over shared snapshot relations. Each execution's context,
    memo tables, probe sets and batches are its own and touched only
    by the executing domain. The only state executions share is the
    snapshot relations' own memos (the row array a scan slices, the
    multiplicity table), published once by {!Relation}; this module
    keeps no cache across executions. Toplevel mutables are registered
    in {!Share_lint}'s inventory. *)

open Algebra

(** Rows per batch. Set via [--batch-rows]. At 256 a batch's
    per-row scratch arrays (selection vectors, masks, row arrays) stay
    within OCaml's minor-heap size limit (256 words); larger ones are
    allocated directly in the major heap, where short-lived garbage is
    far more expensive to reclaim. *)
let batch_rows = ref 256

(* ---- runtime ------------------------------------------------------- *)

(* A binding of a sublink's correlated attributes, in the order of its
   free names; bindings are equal when [compare] says so, as the
   reference evaluator's memo keys are. *)
module Binding_key = struct
  type t = Value.t array

  let equal a b = compare a b = 0
  let hash = Hashtbl.hash
end

module Binding = Hashtbl.Make (Binding_key)

(* One sublink's memo for one execution: its result and its ANY/ALL
   summary per binding. The copies of a sublink that the provenance
   rewrite embeds share an id, and so share the memo. *)
type memo = { results : Relation.t Binding.t; summaries : Sem.summary Binding.t }

(** Per-execution context: sublink memo tables (per sublink id) and
    counters, exactly mirroring the reference evaluator's, and the
    execution's index array [0; 1; 2; ...] ({!iota}). *)
type ctx = {
  db : Database.t;
  memos : (int, memo) Hashtbl.t;
  stats : Sem.stats;
  mutable iota : int array;
}

let mk_ctx db = { db; memos = Hashtbl.create 8; stats = Sem.fresh_stats (); iota = [||] }

(* A sublink sees a few bindings per execution: its tables start small. *)
let memo_of ctx id =
  match Hashtbl.find ctx.memos id with
  | m -> m
  | exception Not_found ->
      let m = { results = Binding.create 4; summaries = Binding.create 4 } in
      Hashtbl.add ctx.memos id m;
      m

(** Runtime environment: tuple frames, innermost first. *)
type renv = Tuple.t list

(** A compiled scalar expression. *)
type cexpr = ctx -> renv -> Value.t

(* A lowered sublink body: its memoized result and ANY/ALL summary per
   binding of its free names, and, for an uncorrelated body, the
   current execution's result and summary, each kept with the [ctx] it
   belongs to. *)
type body = {
  materialize : ctx -> Value.t array -> Relation.t;
  summary : ctx -> Value.t array -> Sem.summary;
  mutable rel_slot : (ctx * Relation.t) option;
  mutable sum_slot : (ctx * Sem.summary) option;
}

(* A lowered body, found again by the sublink id (the memo it shares),
   the body query (by identity), its free names' types and its path. *)
type lowered = {
  l_id : int;
  l_query : query;
  l_types : Vtype.t array;
  l_path : Path.t;
  l_body : body;
}

(* One lowering's static context: the free names of the subplans met so
   far are kept, so a sublink body that the provenance rewrite embeds
   several times, or that several sites read, is walked once; the
   bodies lowered so far are kept, so every copy of a body runs the one
   lowered first ({!sublink_body}). Plan paths name operators in budget
   trips and fault triggers only, so they are built only while a budget
   scope is active or a fault armed ([paths]); otherwise every operator
   gets the empty path. *)
type lx = { db : Database.t; frees : Scope.memo; paths : bool; mutable bodies : lowered list }

let lx_of db =
  { db; frees = Scope.memo (); paths = Guard.is_active () || Guard.Faults.armed (); bodies = [] }

let here_of lx path q = if lx.paths then Path.here path q else path
let child_of lx path q side = if lx.paths then Path.child path q side else path

let rec find_lowered (s : sublink) types path = function
  | [] -> None
  | l :: rest ->
      if l.l_id = s.id && l.l_query == s.query && l.l_types = types && l.l_path = path then
        Some l.l_body
      else find_lowered s types path rest

(** Per-execution runtime: the context and the outer tuple frames. *)
type rt = { cctx : ctx; renv : renv }

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

(* ---- batch utilities ----------------------------------------------- *)

(* The kernels below read the rows of a batch as [idx], [base] and
   [m]: row [k < m] is physical row [base + idx.(k)]. A batch with a
   selection vector reads it from [0]; any other batch reads the
   execution's [0; 1; 2; ...] from its first row, so no index array is
   built per batch. *)

(* [0; 1; ...], at least [n] long: built once per execution, grown by
   doubling, filled through a typed store ([Array.init] stores through
   the polymorphic write barrier). *)
let iota ctx n : int array =
  if Array.length ctx.iota < n then begin
    let a = Array.make (max n (2 * Array.length ctx.iota)) 0 in
    for i = 1 to Array.length a - 1 do
      Array.unsafe_set a i i
    done;
    ctx.iota <- a
  end;
  ctx.iota

let idx_of ctx (b : Vector.t) : int array =
  match b with
  | Vector.Rows { sel = Some s; _ } -> s
  | Vector.Rows { len; _ } -> iota ctx len
  | Vector.CrossB _ -> iota ctx (Vector.length b)

let base_of (b : Vector.t) = match b with Vector.Rows { sel = None; lo; _ } -> lo | _ -> 0

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
let expr_deps lx (e : expr) : string list =
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
        let acc = List.rev_append (Scope.body_frees lx.frees lx.db s.query) acc in
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
  match q with
  | Join _ | LeftJoin _ | Cross _ -> false
  | Base _ | TableExpr _ -> true
  | Select (_, i) | Project { proj_input = i; _ } | Agg { agg_input = i; _ } | Order (_, i) | Limit (_, i)
    ->
      (not (root_has_sublink q)) && counter_free i
  | Union (_, a, b) | Inter (_, a, b) | Diff (_, a, b) -> counter_free a && counter_free b

(* The operator at [here] as the one owner of the sublinks its
   expressions compile ({!Path.locate}); only read when paths are
   built. *)
let owner lx here q = if lx.paths then [ (here, root_exprs q) ] else []

(* Offsets of a projection list that only reads the input frame's own
   columns; [None] as soon as any item is not a bare in-frame [Attr]. *)
let own_offsets (schema : Schema.t) cols : int array option =
  let own = function Attr name, _ -> Schema.mem schema name | _ -> false in
  if not (List.for_all own cols) then None
  else
    let offs = Array.make (List.length cols) 0 in
    List.iteri
      (fun i (e, _) ->
        match e with Attr name -> offs.(i) <- Schema.position_exn schema name | _ -> ())
      cols;
    Some offs

(* A projection item's output attribute when it is a bare attribute of
   the input: the input column's type under the item's name (the input
   attribute itself when the name is unchanged). *)
let own_attr (input : Schema.t) i name =
  let a = Schema.attr_at input i in
  if String.equal a.Schema.name name then a else Schema.attr name a.Schema.ty

(* The output schema of an attribute-only projection, [offs] being its
   items' offsets into [input]. *)
let attr_projection (input : Schema.t) offs cols =
  let i = ref (-1) in
  Schema.map_of_list
    (fun (_, name) ->
      incr i;
      own_attr input offs.(!i) name)
    cols

(* The output schema of a projection over [input] under the outer
   frames [cenv], as {!Typecheck.projection_schema} infers it: a bare
   attribute of the input keeps its column's type without re-inferring
   it, and every other item is typed by {!Typecheck.infer_expr}. *)
let projection_schema (lx : lx) (input : Schema.t) cenv cols =
  Schema.map_of_list
    (fun (e, name) ->
         match e with
         | Attr n when Schema.mem input n -> own_attr input (Schema.position_exn input n) name
         | _ ->
          Schema.attr name
            (Option.value ~default:Vtype.TString (Typecheck.infer_expr lx.db (input :: cenv) e)))
    cols

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
   membership of an [Int] input is answered from an int set — sound
   only then, because the summary's own set equates [Int 3] with
   [Float 3.] and the int set would not. *)
type prep = {
  p_sum : Sem.summary;
  p_empty : bool;
  p_has_null : bool;
  p_iset : (int, unit) Hashtbl.t option;
}

type probe = {
  pr_get : ctx -> Sem.summary;
  pr_any : bool;
  pr_op : cmpop;
  pr_lhs : int;  (** depth-0 column offset of the lhs attribute *)
  mutable pr_prep : (ctx * prep) option;
}

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

let prep_probe rt pr : prep =
  match pr.pr_prep with
  | Some (c, p) when c == rt.cctx -> p
  | _ ->
      let sum = pr.pr_get rt.cctx in
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

(* Each kernel writes one three-valued byte per row [k < m] of
   physical row [base + idx.(k)] (see {!iota}). *)

let eval_attr b idx base m j : Bytes.t =
  let out = Bytes.create m in
  for k = 0 to m - 1 do
    Bytes.unsafe_set out k
      (Char.unsafe_chr (b3_of_value (Vector.value_at b j (base + Array.unsafe_get idx k))))
  done;
  out

let eval_isnull b idx base m j : Bytes.t =
  let out = Bytes.create m in
  for k = 0 to m - 1 do
    Bytes.unsafe_set out k
      (if Value.is_null (Vector.value_at b j (base + Array.unsafe_get idx k)) then '\001'
       else '\000')
  done;
  out

let eval_cmp_cc b idx base m op j (cv : Value.t) : Bytes.t =
  let out = Bytes.create m in
  for k = 0 to m - 1 do
    Bytes.unsafe_set out k
      (Char.unsafe_chr (cmp_b3 op (Vector.value_at b j (base + Array.unsafe_get idx k)) cv))
  done;
  out

let eval_cmp_rev b idx base m op (cv : Value.t) j : Bytes.t =
  let out = Bytes.create m in
  for k = 0 to m - 1 do
    Bytes.unsafe_set out k
      (Char.unsafe_chr (cmp_b3 op cv (Vector.value_at b j (base + Array.unsafe_get idx k))))
  done;
  out

let eval_cmp_cols b idx base m op j1 j2 : Bytes.t =
  let out = Bytes.create m in
  for k = 0 to m - 1 do
    let i = base + Array.unsafe_get idx k in
    Bytes.unsafe_set out k
      (Char.unsafe_chr (cmp_b3 op (Vector.value_at b j1 i) (Vector.value_at b j2 i)))
  done;
  out

let eval_probe rt b idx base m pr : Bytes.t =
  let prep = prep_probe rt pr in
  let out = Bytes.create m in
  for k = 0 to m - 1 do
    Bytes.unsafe_set out k
      (Char.unsafe_chr
         (probe_b3 pr prep (Vector.value_at b pr.pr_lhs (base + Array.unsafe_get idx k))))
  done;
  out

(* ---- mask evaluation ------------------------------------------------ *)

(* An enclosing frame's column: one read per batch, so a correlated
   comparison runs the constant kernels. *)
let outer_value rt (depth, off) = Tuple.get (List.nth rt.renv depth) off

(* The rows of [idx] (read from [base]) whose byte in [r] is not [skip],
   as a fresh index array, their positions in [idx] in [pos]. *)
let undecided idx r m skip cnt =
  let sub = Array.make cnt 0 and pos = Array.make cnt 0 in
  let p = ref 0 in
  for k = 0 to m - 1 do
    if Bytes.unsafe_get r k <> skip then begin
      Array.unsafe_set sub !p (Array.unsafe_get idx k);
      Array.unsafe_set pos !p k;
      incr p
    end
  done;
  (sub, pos)

let count_not r m c =
  let cnt = ref 0 in
  for k = 0 to m - 1 do
    if Bytes.unsafe_get r k <> c then incr cnt
  done;
  !cnt

(* [eval_mask rt b idx base m mask] — three-valued results, one byte
   per row. AND/OR evaluate the second operand only on the undecided
   subset, mirroring the compiled predicates' per-row short-circuit
   exactly (per row, not just per batch). *)
let rec eval_mask rt (b : Vector.t) idx base m (mask : mask) : Bytes.t =
  match mask with
  | MConst v -> Bytes.make m (Char.chr v)
  | MLeaf l -> eval_leaf rt b idx base m l
  | MNot a ->
      let r = eval_mask rt b idx base m a in
      for k = 0 to m - 1 do
        let v = Char.code (Bytes.unsafe_get r k) in
        Bytes.unsafe_set r k
          (Char.unsafe_chr (if v = 0 then 1 else if v = 1 then 0 else 2))
      done;
      r
  | MBoolEq (a, bv) ->
      let r = eval_mask rt b idx base m a in
      for k = 0 to m - 1 do
        let v = Char.code (Bytes.unsafe_get r k) in
        Bytes.unsafe_set r k
          (if v = 2 then '\000' else if (v = 1) = bv then '\001' else '\000')
      done;
      r
  | MAnd (x, y) ->
      let rx = eval_mask rt b idx base m x in
      let cnt = count_not rx m '\000' in
      if cnt = 0 then rx
      else begin
        let sub, pos = undecided idx rx m '\000' cnt in
        let ry = eval_mask rt b sub base cnt y in
        for q = 0 to cnt - 1 do
          let k = Array.unsafe_get pos q in
          let va = Char.code (Bytes.unsafe_get rx k) in
          let vb = Char.code (Bytes.unsafe_get ry q) in
          Bytes.unsafe_set rx k
            (Char.unsafe_chr
               (if vb = 0 then 0 else if va = 2 || vb = 2 then 2 else 1))
        done;
        rx
      end
  | MOr (x, y) ->
      let rx = eval_mask rt b idx base m x in
      let cnt = count_not rx m '\001' in
      if cnt = 0 then rx
      else begin
        let sub, pos = undecided idx rx m '\001' cnt in
        let ry = eval_mask rt b sub base cnt y in
        for q = 0 to cnt - 1 do
          let k = Array.unsafe_get pos q in
          let va = Char.code (Bytes.unsafe_get rx k) in
          let vb = Char.code (Bytes.unsafe_get ry q) in
          Bytes.unsafe_set rx k
            (Char.unsafe_chr
               (if vb = 1 then 1 else if va = 2 || vb = 2 then 2 else 0))
        done;
        rx
      end

and eval_leaf rt b idx base m = function
  | LAttr j -> eval_attr b idx base m j
  | LIsNull j -> eval_isnull b idx base m j
  | LCmpCC (op, j, cv) -> eval_cmp_cc b idx base m op j cv
  | LCmpRev (op, cv, j) -> eval_cmp_rev b idx base m op cv j
  | LCmpCols (op, j1, j2) -> eval_cmp_cols b idx base m op j1 j2
  | LCmpOuter (op, j, at) -> eval_cmp_cc b idx base m op j (outer_value rt at)
  | LCmpOuterRev (op, at, j) -> eval_cmp_rev b idx base m op (outer_value rt at) j
  | LProbe pr -> eval_probe rt b idx base m pr

(* A row-wise predicate's results as a mask: one byte per row, the
   rows evaluated in order. *)
let eval_pred_rows rt b idx base m pcond : Bytes.t =
  let out = Bytes.create m in
  for k = 0 to m - 1 do
    let t = Vector.tuple_phys b (base + Array.unsafe_get idx k) in
    Bytes.unsafe_set out k (if pcond rt.cctx (t :: rt.renv) = 1 then '\001' else '\000')
  done;
  out

(* Apply a computed mask that keeps [cnt] of the [m] rows, some but not
   all: surviving rows become a row batch's selection vector (no row is
   copied), or a cross block's kept rows are expanded into a row
   batch. *)
let apply_mask (b : Vector.t) idx base m (r : Bytes.t) cnt : Vector.t =
  match b with
    | Vector.Rows rb ->
        let keep = Array.make cnt 0 in
        let p = ref 0 in
        for k = 0 to m - 1 do
          if Bytes.unsafe_get r k = '\001' then begin
            Array.unsafe_set keep !p (base + Array.unsafe_get idx k);
            incr p
          end
        done;
        Vector.Rows { rb with sel = Some keep }
    | Vector.CrossB _ ->
        let schema = Vector.schema b in
        let keep = Array.make cnt [||] in
        let p = ref 0 in
        for k = 0 to m - 1 do
          if Bytes.unsafe_get r k = '\001' then begin
            Array.unsafe_set keep !p (Vector.tuple_at b (base + Array.unsafe_get idx k));
            incr p
          end
        done;
        Vector.rows_batch schema keep


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

(* A replayed subtree's batches as kept in its slot: projected row
   batches and factored cross blocks are boxed once here, instead of on
   every replay. *)
let keep_rows (b : Vector.t) =
  match b with
  | Vector.Rows { offs = Some _; _ } | Vector.CrossB _ ->
      Vector.rows_batch (Vector.schema b) (Vector.rows_arr b)
  | Vector.Rows _ -> b

(* ---- operator run state --------------------------------------------- *)

(* The runs of one lowered operator never overlap: one execution runs
   on one domain, and a sublink body does not contain its own sublink,
   so no operator is re-entered while it runs. An operator that needs
   scratch state per run therefore keeps it in one record built at
   lowering and reset when a run starts, instead of a dozen closures
   and refs per run. *)

(* [chunk_rev schema n rev] is [chunk_rows schema (List.rev rev)] for
   the [n] rows of [rev] (last row first), without the reversed copy:
   the last batch is filled first, from its end. *)
let chunk_rev schema n (rev : Tuple.t list) : Vector.t list =
  let br = max 1 !batch_rows in
  let rec fill chunk i rows =
    if i < 0 then rows
    else
      match rows with
      | t :: rest ->
          Array.unsafe_set chunk i t;
          fill chunk (i - 1) rest
      | [] -> []
  in
  let rec go left rows acc =
    match rows with
    | [] -> acc
    | last :: _ ->
        let size = if left mod br = 0 then br else left mod br in
        let chunk = Array.make size last in
        let rest = fill chunk (size - 1) rows in
        go (left - size) rest (Vector.rows_batch schema chunk :: acc)
  in
  go n rev []

(* Fill [rows] from index [i] down with the elements of a list. *)
let rec fill_down (rows : Tuple.t array) i = function
  | [] -> ()
  | t :: rest ->
      Array.unsafe_set rows i t;
      fill_down rows (i - 1) rest

(* The output row of a join pair: the two tuples concatenated, or the
   fused projection's columns gathered from them. *)
let join_row offs arity_a (ta : Tuple.t) (tb : Tuple.t) : Tuple.t =
  match offs with
  | None -> Tuple.concat ta tb
  | Some offs ->
      let n = Array.length offs in
      let out = Array.make n Value.Null in
      for j = 0 to n - 1 do
        let i = Array.unsafe_get offs j in
        Array.unsafe_set out j
          (if i < arity_a then Array.unsafe_get ta i else Array.unsafe_get tb (i - arity_a))
      done;
      out

type pred = ctx -> renv -> int

(* A nested-loop join's condition, with a left-only first operand of a
   top-level OR/AND hoisted to one evaluation per left tuple. *)
type nl_split =
  | All
  | Whole of pred
  | Or_hoisted of pred * pred
  | And_hoisted of pred * pred

(* A nested-loop join: lowering-time constants, then the run state.
   Output is a batch list in left-row order: row-wise runs (filtered
   matches, outer padding) interleaved with factored cross blocks (the
   all-match case of the hoisted OR). At most one of [acc]/[pending] is
   nonempty at any point. *)
type nl = {
  nl_here : Path.t;
  nl_outer : bool;
  nl_split : nl_split;
  nl_schema : Schema.t;  (** output *)
  nl_joint : Schema.t;  (** both inputs' columns, a cross block's *)
  nl_offs : int array option;  (** fused projection, into [nl_joint] *)
  nl_arity_a : int;
  nl_pad : Tuple.t;  (** the right side's NULL padding *)
  mutable tbs : Tuple.t array;  (** the right rows *)
  mutable right_cols : Value.t array array option;  (** [tbs] transposed *)
  mutable acc : Tuple.t list;  (** pending output rows, last first *)
  mutable n_acc : int;
  mutable pending : Tuple.t list;  (** pending all-match left rows *)
  mutable n_pending : int;
  mutable out : Vector.t list;  (** finished batches, last first *)
  mutable emitted : int;
}

let nl_start nl tbs =
  nl.tbs <- tbs;
  nl.right_cols <- None;
  nl.acc <- [];
  nl.n_acc <- 0;
  nl.pending <- [];
  nl.n_pending <- 0;
  nl.out <- [];
  nl.emitted <- 0

let nl_flush_acc nl =
  if nl.n_acc > 0 then begin
    let rows = Array.make nl.n_acc nl.nl_pad in
    fill_down rows (nl.n_acc - 1) nl.acc;
    nl.acc <- [];
    nl.n_acc <- 0;
    nl.out <- Vector.rows_batch nl.nl_schema rows :: nl.out
  end

(* Every pair of [lefts × tbs] is emitted with no per-pair predicate, so
   the block is stored factored — the left tuples and the transposed
   right side, zero per-pair allocation. *)
let nl_flush_pending nl =
  if nl.n_pending > 0 then begin
    let lefts = Array.make nl.n_pending nl.nl_pad in
    fill_down lefts (nl.n_pending - 1) nl.pending;
    nl.pending <- [];
    nl.n_pending <- 0;
    let right_cols =
      match nl.right_cols with
      | Some c -> c
      | None ->
          let c = Vector.transpose nl.tbs ~arity:(Tuple.arity nl.nl_pad) in
          nl.right_cols <- Some c;
          c
    in
    let block =
      Vector.cross_block nl.nl_joint ~lefts ~right_cols ~card_b:(Array.length nl.tbs)
    in
    let block =
      match nl.nl_offs with None -> block | Some offs -> Vector.select_cols nl.nl_schema block offs
    in
    nl.out <- block :: nl.out
  end

let nl_push nl t =
  nl_flush_pending nl;
  nl.acc <- t :: nl.acc;
  nl.n_acc <- nl.n_acc + 1

let nl_emit_pad nl ta =
  nl.emitted <- nl.emitted + 1;
  nl_push nl (join_row nl.nl_offs nl.nl_arity_a ta nl.nl_pad)

(* Runs of all-match left rows coalesce into one block, flushed at a
   size cap so the governor still sees batch granularity. *)
let nl_emit_all nl ta =
  nl_flush_acc nl;
  let card_b = Array.length nl.tbs in
  nl.emitted <- nl.emitted + card_b;
  nl.pending <- ta :: nl.pending;
  nl.n_pending <- nl.n_pending + 1;
  if nl.n_pending * card_b >= 65536 then nl_flush_pending nl

let nl_emit_filtered nl rt ta aenv (p : pred) =
  let hit = ref false in
  let tbs = nl.tbs in
  for k = 0 to Array.length tbs - 1 do
    let tb = Array.unsafe_get tbs k in
    if p rt.cctx (tb :: aenv) = 1 then begin
      hit := true;
      nl.emitted <- nl.emitted + 1;
      nl_push nl (join_row nl.nl_offs nl.nl_arity_a ta tb)
    end
  done;
  if nl.nl_outer && not !hit then nl_emit_pad nl ta

let nl_drain_drop nl rt ta aenv (p : pred) =
  let tbs = nl.tbs in
  for k = 0 to Array.length tbs - 1 do
    ignore (p rt.cctx (Array.unsafe_get tbs k :: aenv))
  done;
  if nl.nl_outer then nl_emit_pad nl ta

let nl_left nl rt ta =
  if Array.length nl.tbs = 0 then (if nl.nl_outer then nl_emit_pad nl ta)
  else
    match nl.nl_split with
    | All -> nl_emit_all nl ta
    | Whole p -> nl_emit_filtered nl rt ta (ta :: rt.renv) p
    | Or_hoisted (px, py) ->
        let aenv = ta :: rt.renv in
        if px rt.cctx aenv = 1 then nl_emit_all nl ta else nl_emit_filtered nl rt ta aenv py
    | And_hoisted (px, py) -> (
        let aenv = ta :: rt.renv in
        match px rt.cctx aenv with
        | 0 -> if nl.nl_outer then nl_emit_pad nl ta
        | 1 -> nl_emit_filtered nl rt ta aenv py
        | _ -> nl_drain_drop nl rt ta aenv py)

(* The left batches, each left row against the right rows; the number
   of left rows. *)
let rec nl_left_batches nl rt nleft = function
  | [] -> nleft
  | ba :: rest ->
      Guard.tick nl.nl_here;
      let card_b = Array.length nl.tbs in
      for i = 0 to Vector.length ba - 1 do
        let ta = Vector.tuple_at ba i in
        Guard.count_pairs nl.nl_here card_b;
        nl_left nl rt ta
      done;
      nl_left_batches nl rt (nleft + Vector.length ba) rest

(* The run's batches; the state keeps no row once a run is over. *)
let nl_finish nl =
  nl_flush_acc nl;
  nl_flush_pending nl;
  let out = List.rev nl.out in
  nl_start nl [||];
  out

(* A hash join: lowering-time constants, then the run state. The build
   table is kept from run to run and cleared, and replaced by a larger
   one when a build side outgrows it. *)
type hj = {
  hj_here : Path.t;
  hj_outer : bool;
  hj_schema : Schema.t;
  hj_offs : int array option;
  hj_arity_a : int;
  hj_pad : Tuple.t;
  hj_left_keys : cexpr array;
  hj_right_keys : cexpr array;
  hj_safe : bool array;  (** per key: [=n], so a NULL key still matches *)
  hj_residual : pred option;
  mutable table : (Tuple.t list Tuple.Tbl.t * int) option;  (** and its capacity *)
  mutable hj_acc : Tuple.t list;  (** output rows, last first *)
  mutable hj_n : int;
  mutable hj_emitted : int;
}

(* Whether a key can match: no NULL under a plain [=]. *)
let usable safe (key : Tuple.t) =
  let rec go i =
    i >= Array.length safe
    || ((Array.unsafe_get safe i || not (Value.is_null (Array.unsafe_get key i))) && go (i + 1))
  in
  go 0

let hj_table hj card_b =
  match hj.table with
  | Some (t, cap) when card_b <= cap ->
      Tuple.Tbl.clear t;
      t
  | _ ->
      let t = Tuple.Tbl.create card_b in
      hj.table <- Some (t, card_b);
      t

let hj_build hj rt rbats =
  let card_b = List.fold_left (fun n b -> n + Vector.length b) 0 rbats in
  let table = hj_table hj card_b in
  List.iter
    (fun bb ->
      Guard.tick hj.hj_here;
      for i = 0 to Vector.length bb - 1 do
        let tb = Vector.tuple_at bb i in
        let key = eval_row hj.hj_right_keys rt.cctx (tb :: rt.renv) in
        if usable hj.hj_safe key then
          let existing = try Tuple.Tbl.find table key with Not_found -> [] in
          Tuple.Tbl.replace table key (tb :: existing)
      done)
    rbats;
  hj.hj_acc <- [];
  hj.hj_n <- 0;
  hj.hj_emitted <- 0

let hj_emit hj ta tb =
  hj.hj_emitted <- hj.hj_emitted + 1;
  hj.hj_n <- hj.hj_n + 1;
  hj.hj_acc <- join_row hj.hj_offs hj.hj_arity_a ta tb :: hj.hj_acc

(* The matches of [ta] (a bucket holds them last first), in build order;
   whether any was emitted. *)
let rec hj_matches hj rt ta fenv = function
  | [] -> false
  | tb :: earlier -> (
      let hit = hj_matches hj rt ta fenv earlier in
      match hj.hj_residual with
      | None ->
          hj_emit hj ta tb;
          true
      | Some cr ->
          if cr rt.cctx (tb :: fenv) = 1 then begin
            hj_emit hj ta tb;
            true
          end
          else hit)

let hj_probe_batches hj rt lbats =
  let table = match hj.table with Some (t, _) -> t | None -> assert false in
  List.iter
    (fun ba ->
      Guard.tick hj.hj_here;
      for i = 0 to Vector.length ba - 1 do
        let ta = Vector.tuple_at ba i in
        let fenv = ta :: rt.renv in
        let key = eval_row hj.hj_left_keys rt.cctx fenv in
        let hit =
          usable hj.hj_safe key
          &&
          match Tuple.Tbl.find table key with
          | tbs -> hj_matches hj rt ta fenv tbs
          | exception Not_found -> false
        in
        if hj.hj_outer && not hit then hj_emit hj ta hj.hj_pad
      done)
    lbats

let hj_finish hj =
  let out = chunk_rev hj.hj_schema hj.hj_n hj.hj_acc in
  hj.hj_acc <- [];
  (match hj.table with Some (t, _) -> Tuple.Tbl.clear t | None -> ());
  out

(* An aggregation: lowering-time constants and the group table, kept
   from run to run and reset. *)
type ag = {
  ag_here : Path.t;
  ag_keys : cexpr array;
  ag_specs : (string * bool * cexpr option) array;  (** function, DISTINCT, argument *)
  mutable ag_groups : Tuple.t list Tuple.Tbl.t option;
}

let agg_run ag out_schema rt bats =
  let groups =
    match ag.ag_groups with
    | Some g ->
        Tuple.Tbl.reset g;
        g
    | None ->
        let g = Tuple.Tbl.create 16 in
        ag.ag_groups <- Some g;
        g
  in
  let order = ref [] and n_groups = ref 0 and saw_input = ref false in
  List.iter
    (fun b ->
      Guard.tick ag.ag_here;
      for i = 0 to Vector.length b - 1 do
        let t = Vector.tuple_at b i in
        saw_input := true;
        let key = eval_row ag.ag_keys rt.cctx (t :: rt.renv) in
        match Tuple.Tbl.find groups key with
        | members -> Tuple.Tbl.replace groups key (t :: members)
        | exception Not_found ->
            Tuple.Tbl.add groups key [ t ];
            order := key :: !order;
            incr n_groups
      done)
    bats;
  let nkeys = Array.length ag.ag_keys and naggs = Array.length ag.ag_specs in
  let compute_group key =
    let members =
      match Tuple.Tbl.find groups key with ms -> List.rev ms | exception Not_found -> []
    in
    let row = Array.make (nkeys + naggs) Value.Null in
    Array.blit key 0 row 0 nkeys;
    for a = 0 to naggs - 1 do
      let func, distinct, carg = Array.unsafe_get ag.ag_specs a in
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
      Array.unsafe_set row (nkeys + a) (Builtin.apply_aggregate func ~distinct raw)
    done;
    (row : Tuple.t)
  in
  let rows =
    if nkeys = 0 && not !saw_input then [ compute_group [||] ]
    else List.map compute_group (List.rev !order)
  in
  let out = chunk_rows out_schema rows in
  Tuple.Tbl.reset groups;
  out

(* The batches of [bats] filtered by a mask computed over each batch's
   rows by [eval]: an all-kept batch passes through unchanged and an
   emptied one is dropped. *)
let rec filter_batches rt here eval = function
  | [] -> []
  | b :: rest ->
      Guard.tick here;
      let idx = idx_of rt.cctx b and base = base_of b and m = Vector.length b in
      let r = eval rt b idx base m in
      let cnt = m - count_not r m '\001' in
      if cnt = 0 then filter_batches rt here eval rest
      else
        let b = if cnt = m then b else apply_mask b idx base m r cnt in
        b :: filter_batches rt here eval rest

let rec select_all out_schema offs = function
  | [] -> []
  | b :: rest -> Vector.select_cols out_schema b offs :: select_all out_schema offs rest

(* One projected batch of attribute and mask columns: the masks are
   computed over the input rows, then each output row gathers its
   values. *)
let project_mask_batch rt here out_schema pcols b =
  Guard.tick here;
  let idx = idx_of rt.cctx b and base = base_of b and m = Vector.length b in
  let ncols = Array.length pcols in
  let masks = Array.make ncols Bytes.empty in
  for c = 0 to ncols - 1 do
    match Array.unsafe_get pcols c with
    | PMask mk -> masks.(c) <- eval_mask rt b idx base m mk
    | PAttr _ -> ()
  done;
  let rows = Array.make m [||] in
  for k = 0 to m - 1 do
    let p = base + Array.unsafe_get idx k in
    let row = Array.make ncols Value.Null in
    for c = 0 to ncols - 1 do
      Array.unsafe_set row c
        (match Array.unsafe_get pcols c with
        | PAttr j -> Vector.value_at b j p
        | PMask _ -> value_of_b3 (Char.code (Bytes.unsafe_get (Array.unsafe_get masks c) k)))
    done;
    Array.unsafe_set rows k (row : Tuple.t)
  done;
  Vector.rows_batch out_schema rows

let rec project_masks rt here out_schema pcols = function
  | [] -> []
  | b :: rest ->
      let b = project_mask_batch rt here out_schema pcols b in
      b :: project_masks rt here out_schema pcols rest

(* The same batches under [schema]; a batch already under it is kept. *)
let rec rebrand schema bats tail =
  match bats with
  | [] -> tail
  | b :: rest ->
      (if Vector.schema b == schema then b else Vector.with_schema schema b)
      :: rebrand schema rest tail

(* A scalar sublink's value: its result's only row's only column, NULL
   when empty. *)
let scalar_value rel =
  match Relation.tuples rel with
  | [] -> Value.Null
  | [ t ] -> Tuple.get t 0
  | _ -> Sem.eval_error "scalar sublink returned more than one row"

(* ---- expression compilation and lowering ----------------------------- *)

(* Expressions, predicates and sublinks compile to closures, operators
   lower to batch kernels, and a sublink's body is lowered by the same
   [lower] — one recursive group. *)

let rec compile_expr lx at (cenv : Schema.t list) (e : expr) : cexpr =
  match e with
  | Const v -> fun _ _ -> v
  | TypedNull _ -> fun _ _ -> Value.Null
  | Attr name -> attr_access (resolve_attr cenv name)
  | Binop (op, a, b) ->
      let ca = compile_expr lx at cenv a and cb = compile_expr lx at cenv b in
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
      let ca = compile_expr lx at cenv a and cb = compile_expr lx at cenv b in
      fun ctx env -> Sem.cmp3 op (ca ctx env) (cb ctx env)
  | And (a, b) ->
      let ca = compile_expr lx at cenv a and cb = compile_expr lx at cenv b in
      fun ctx env ->
        let va = ca ctx env in
        if Value.is_false va then Value.vfalse else Value.and3 va (cb ctx env)
  | Or (a, b) ->
      let ca = compile_expr lx at cenv a and cb = compile_expr lx at cenv b in
      fun ctx env ->
        let va = ca ctx env in
        if Value.is_true va then Value.vtrue else Value.or3 va (cb ctx env)
  | Not a ->
      let ca = compile_expr lx at cenv a in
      fun ctx env -> Value.not3 (ca ctx env)
  | IsNull a ->
      let ca = compile_expr lx at cenv a in
      fun ctx env -> Value.Bool (Value.is_null (ca ctx env))
  | Case (whens, els) ->
      let cwhens =
        List.map
          (fun (c, e) -> (compile_expr lx at cenv c, compile_expr lx at cenv e))
          whens
      in
      let cels = Option.map (compile_expr lx at cenv) els in
      fun ctx env ->
        let rec go = function
          | (cc, ce) :: rest ->
              if Value.is_true (cc ctx env) then ce ctx env else go rest
          | [] -> ( match cels with Some ce -> ce ctx env | None -> Value.Null)
        in
        go cwhens
  | Like (a, pattern) -> (
      let ca = compile_expr lx at cenv a in
      fun ctx env ->
        match ca ctx env with
        | Value.Null -> Value.Null
        | Value.String s -> Value.Bool (Builtin.like_match ~pattern s)
        | v -> Sem.eval_error "LIKE over non-string %s" (Value.to_string v))
  | InList (a, es) ->
      let ca = compile_expr lx at cenv a in
      let ces = List.map (compile_expr lx at cenv) es in
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
        let cargs = List.map (compile_expr lx at cenv) args in
        fun ctx env ->
          Builtin.apply_scalar name (List.map (fun ce -> ce ctx env) cargs)
  | Sublink s -> compile_sublink lx at cenv s

(* Selection and join conditions compile to unboxed three-valued
   predicates (the {!b3_of_value} encoding), so the boolean skeleton
   evaluates without allocating a [Value.t] per node. Truth tables and
   short-circuiting mirror the reference evaluator exactly, including
   {e which} operand subexpressions are evaluated — sublink memo
   counters depend on that. *)
and compile_pred lx at (cenv : Schema.t list) (e : expr) : ctx -> renv -> int =
  match e with
  | Const v ->
      let b = b3_of_value v in
      fun _ _ -> b
  (* [p =n TRUE/FALSE] over a boolean-valued operand — the shape the
     provenance rewrites wrap around moved sublink tests — reduces to a
     truth-table check on the operand's unboxed value. *)
  | Cmp (EqNull, p, Const (Value.Bool b)) when is_boolean_shape p ->
      let pp = compile_pred lx at cenv p in
      fun ctx env ->
        let v = pp ctx env in
        if v = 2 then 0 else if (v = 1) = b then 1 else 0
  | Cmp (EqNull, Const (Value.Bool b), p) when is_boolean_shape p ->
      let pp = compile_pred lx at cenv p in
      fun ctx env ->
        let v = pp ctx env in
        if v = 2 then 0 else if (v = 1) = b then 1 else 0
  | Cmp (op, a, b) ->
      let ca = compile_expr lx at cenv a and cb = compile_expr lx at cenv b in
      fun ctx env -> cmp_b3 op (ca ctx env) (cb ctx env)
  | And (a, b) ->
      let pa = compile_pred lx at cenv a and pb = compile_pred lx at cenv b in
      fun ctx env ->
        let va = pa ctx env in
        if va = 0 then 0
        else
          let vb = pb ctx env in
          if vb = 0 then 0 else if va = 2 || vb = 2 then 2 else 1
  | Or (a, b) ->
      let pa = compile_pred lx at cenv a and pb = compile_pred lx at cenv b in
      fun ctx env ->
        let va = pa ctx env in
        if va = 1 then 1
        else
          let vb = pb ctx env in
          if vb = 1 then 1 else if va = 2 || vb = 2 then 2 else 0
  | Not a ->
      let pa = compile_pred lx at cenv a in
      fun ctx env -> (
        match pa ctx env with 0 -> 1 | 1 -> 0 | _ -> 2)
  | IsNull a ->
      let ca = compile_expr lx at cenv a in
      fun ctx env -> if Value.is_null (ca ctx env) then 1 else 0
  | _ ->
      let ce = compile_expr lx at cenv e in
      fun ctx env -> b3_of_value (ce ctx env)

(* A sublink's memoized result and ANY/ALL summary per binding of its
   free names, read at [frees] (their [(depth, offset)] accessors in
   [cenv]). The body is lowered under one frame holding just the
   binding, typed as the free names are at this occurrence, and runs on
   that frame: the reference evaluator's scope for the body, with the
   names it does not read left out. So the lowering does not depend on
   where the occurrence sits, and every copy of the body that the
   provenance rewrite embeds (they share the sublink id, and so the
   memo) runs the body lowered first, unless paths are built, where
   each copy keeps its own. Replay is on when the body is correlated. *)
and sublink_body lx at cenv (s : sublink) ~names ~frees : body =
  let spath = if lx.paths then Path.locate at s else [] in
  let types =
    Array.map (fun (d, off) -> (Schema.attr_at (List.nth cenv d) off).Schema.ty) frees
  in
  match find_lowered s types spath lx.bodies with
  | Some b -> b
  | None ->
      let frame =
        if frees = [||] then []
        else [ Schema.of_list (List.mapi (fun i n -> Schema.attr n types.(i)) names) ]
      in
      let b = lower_body lx spath frame s ~correlated:(frees <> [||]) in
      lx.bodies <-
        { l_id = s.id; l_query = s.query; l_types = types; l_path = spath; l_body = b }
        :: lx.bodies;
      b

(* The body is lowered when it first runs, as the reference evaluator
   first reads it then: a body no binding reaches costs nothing. A
   lookup takes the binding in a buffer the caller may reuse: the memo
   copies it only when it adds an entry, and the body runs on the
   copy. *)
and lower_body lx spath frame (s : sublink) ~correlated : body =
  (* the lowered body and its empty result *)
  let lowered = ref None in
  let run ctx key =
    let body, empty =
      match !lowered with
      | Some l -> l
      | None ->
          let body = lower lx ~replay:correlated spath frame s.query in
          (* An empty result, the common one of a correlated EXISTS
             body, is one shared relation instead of a fresh one per
             binding. *)
          let l = (body, Relation.empty body.v_schema) in
          lowered := Some l;
          l
    in
    (* Bodies run sequentially on the enclosing execution's context. *)
    match body.v_run { cctx = ctx; renv = (if correlated then [ key ] else []) } with
    | [] -> empty
    | bats -> Vector.relation_of body.v_schema bats
  in
  (* the memo of the current execution, looked up by id once per
     execution *)
  let slot = ref None in
  let memo ctx =
    match !slot with
    | Some (c, m) when c == ctx -> m
    | _ ->
        let m = memo_of ctx s.id in
        slot := Some (ctx, m);
        m
  in
  let materialize ctx binding =
    let results = (memo ctx).results in
    match Binding.find results binding with
    | rel ->
        ctx.stats.Sem.st_sublink_hits <- ctx.stats.Sem.st_sublink_hits + 1;
        rel
    | exception Not_found ->
        ctx.stats.Sem.st_sublink_evals <- ctx.stats.Sem.st_sublink_evals + 1;
        let key = Array.copy binding in
        Guard.Faults.fire_point Guard.Faults.Sublink spath;
        let rel = run ctx key in
        Binding.add results key rel;
        rel
  in
  let summary ctx binding =
    let summaries = (memo ctx).summaries in
    match Binding.find summaries binding with
    | sm -> sm
    | exception Not_found ->
        let key = Array.copy binding in
        let rel = materialize ctx binding in
        let sm =
          Sem.summarize (List.map (fun t -> Tuple.get t 0) (Relation.tuples rel))
        in
        Binding.add summaries key sm;
        sm
  in
  { materialize; summary; rel_slot = None; sum_slot = None }

(* An uncorrelated body has a constant memo key, so its result for the
   current execution is held in the body's slot instead of paying a
   hash per evaluation. The slot is keyed on the [ctx] by physical
   identity — a fresh execution gets a fresh context and recomputes —
   and the first fill still goes through the shared memo tables, so the
   counters ({!Sem.stats}) advance exactly as the reference evaluator's
   do: relation reuse counts a hit, summary reuse is silent. The copies
   of a body sharing the slot count as they would with a slot each: a
   later copy's first evaluation would find the memo filled. *)
and cached_rel (b : body) ctx =
  match b.rel_slot with
  | Some (c, rel) when c == ctx ->
      ctx.stats.Sem.st_sublink_hits <- ctx.stats.Sem.st_sublink_hits + 1;
      rel
  | _ ->
      let rel = b.materialize ctx [||] in
      b.rel_slot <- Some (ctx, rel);
      rel

and cached_summary (b : body) ctx =
  match b.sum_slot with
  | Some (c, sm) when c == ctx -> sm
  | _ ->
      let sm = b.summary ctx [||] in
      b.sum_slot <- Some (ctx, sm);
      sm

(* The correlated attributes are resolved to offset accessors once, so
   the per-call binding is read without any name resolution, into a
   buffer of the call site (its copies run one at a time: a body never
   contains its own sublink). *)
and compile_sublink lx at (cenv : Schema.t list) (s : sublink) : cexpr =
  let names = Scope.body_frees lx.frees lx.db s.query in
  let frees = Array.of_list (List.map (resolve_attr cenv) names) in
  let b = sublink_body lx at cenv s ~names ~frees in
  let truth v = if v then Value.vtrue else Value.vfalse in
  if frees = [||] then
    match s.kind with
    | Exists -> fun ctx _ -> truth (not (Relation.is_empty (cached_rel b ctx)))
    | Scalar -> fun ctx _ -> scalar_value (cached_rel b ctx)
    | AnyOp (op, lhs) ->
        let clhs = compile_expr lx at cenv lhs in
        fun ctx env -> Sem.any_of_summary op (clhs ctx env) (cached_summary b ctx)
    | AllOp (op, lhs) ->
        let clhs = compile_expr lx at cenv lhs in
        fun ctx env -> Sem.all_of_summary op (clhs ctx env) (cached_summary b ctx)
  else
    let getters = Array.map attr_access frees in
    let buffer = Array.make (Array.length getters) Value.Null in
    let binding ctx env =
      for i = 0 to Array.length getters - 1 do
        buffer.(i) <- getters.(i) ctx env
      done;
      buffer
    in
    match s.kind with
    | Exists ->
        fun ctx env -> truth (not (Relation.is_empty (b.materialize ctx (binding ctx env))))
    | Scalar -> fun ctx env -> scalar_value (b.materialize ctx (binding ctx env))
    | AnyOp (op, lhs) ->
        let clhs = compile_expr lx at cenv lhs in
        fun ctx env -> Sem.any_of_summary op (clhs ctx env) (b.summary ctx (binding ctx env))
    | AllOp (op, lhs) ->
        let clhs = compile_expr lx at cenv lhs in
        fun ctx env -> Sem.all_of_summary op (clhs ctx env) (b.summary ctx (binding ctx env))

(* For an {e uncorrelated} sublink, a per-execution summary accessor on
   the shared memo tables (first call per [ctx] materializes and counts
   one eval; later calls are silent summary reuse, as the per-row path
   behaves); [None] when [s] is correlated. *)
and sublink_summary lx at cenv (s : sublink) : (ctx -> Sem.summary) option =
  if Scope.body_frees lx.frees lx.db s.query <> [] then None
  else
    let b = sublink_body lx at cenv s ~names:[] ~frees:[||] in
    Some (fun ctx -> b.summary ctx [||])

(* Lower a predicate to a mask when every node has a mask kernel
   against the depth-0 input schema — plus comparisons of an input
   column with an enclosing frame's column; any other unsupported or
   outer-resolving node rejects the whole predicate, and the caller
   falls back to the compiled row-wise form (which preserves evaluation
   order, sublink correlation and error behavior by construction). The
   match arms mirror {!compile_pred}'s, in the same order. *)
and vectorize lx at schema cenv (e : expr) : mask option =
  let find n = Schema.find schema n in
  let outer n =
    match resolve_attr cenv n with
    | at -> Some at
    | exception Sem.Eval_error _ -> None
  in
  match e with
  | Const v -> Some (MConst (b3_of_value v))
  | Cmp (EqNull, p, Const (Value.Bool bv)) when is_boolean_shape p -> (
      match vectorize lx at schema cenv p with
      | Some m -> Some (MBoolEq (m, bv))
      | None -> None)
  | Cmp (EqNull, Const (Value.Bool bv), p) when is_boolean_shape p -> (
      match vectorize lx at schema cenv p with
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
  (* The second operand first, as the pair was built before; a
     fallback stops at the first operand that has no kernel. *)
  | And (a, b) -> (
      match vectorize lx at schema cenv b with
      | None -> None
      | Some mb -> Option.map (fun ma -> MAnd (ma, mb)) (vectorize lx at schema cenv a))
  | Or (a, b) -> (
      match vectorize lx at schema cenv b with
      | None -> None
      | Some mb -> Option.map (fun ma -> MOr (ma, mb)) (vectorize lx at schema cenv a))
  | Not a ->
      Option.map (fun m -> MNot m) (vectorize lx at schema cenv a)
  | IsNull (Attr n) -> (
      match find n with Some j -> Some (MLeaf (LIsNull j)) | None -> None)
  | Attr n -> (
      match find n with Some j -> Some (MLeaf (LAttr j)) | None -> None)
  | Sublink ({ kind = AnyOp (op, Attr n); _ } as s) ->
      probe_of lx at schema cenv ~any:true op n s
  | Sublink ({ kind = AllOp (op, Attr n); _ } as s) ->
      probe_of lx at schema cenv ~any:false op n s
  | _ -> None

and probe_of lx at schema cenv ~any op n s : mask option =
  match Schema.find schema n with
  | None -> None
  | Some j -> (
      match sublink_summary lx at (schema :: cenv) s with
      | None -> None (* correlated: row-wise fallback *)
      | Some get ->
          Some
            (MLeaf
               (LProbe
                  {
                    pr_get = get;
                    pr_any = any;
                    pr_op = op;
                    pr_lhs = j;
                    pr_prep = None;
                  })))

(* The projection list as [pcol]s, when every item is an input attribute
   or a total, vectorizable boolean expression, and at most one item
   probes a sublink — so materializing the sublinks column by column
   happens in the per-row path's row-by-row order. *)
and mask_projection lx at schema cenv cols : pcol array option =
  let item (e, _) =
    match e with
    | Attr n -> Option.map (fun j -> PAttr j) (Schema.find schema n)
    | e when is_boolean_shape e && scalar_safe e ->
        Option.map (fun m -> PMask m) (vectorize lx at schema cenv e)
    | _ -> None
  in
  let items = List.map item cols in
  let probing = function Some (PMask m) -> mask_probes [] m <> [] | _ -> false in
  if List.exists Option.is_none items || List.length (List.filter probing items) > 1
  then None
  else Some (Array.of_list (List.map Option.get items))

(* [lower lx ~replay path cenv q] — [replay] holds inside the body of a
   correlated sublink, which runs once per binding. There a subtree
   that reads nothing from the enclosing frames and touches no counter
   yields the same batches for every binding, so it runs once per
   execution ([lower_replayed]). A bare scan already returns stored
   batches: nothing to save. *)
and lower lx ~replay path (cenv : Schema.t list) (q : query) : vop =
  match q with
  | Base _ | TableExpr _ -> lower_node lx ~replay path cenv q
  | _ when replay && counter_free q && Scope.body_frees lx.frees lx.db q = [] ->
      lower_replayed lx path q
  | _ -> lower_node lx ~replay path cenv q

(* The subtree is lowered without the outer frames, so nothing below it
   is replayed again. Its batches are kept in a slot keyed on the [ctx]
   by physical identity, as [cached_rel] keeps an uncorrelated
   sublink's. Later bindings replay them and charge the governor the
   rows the first run charged, at the subtree's path, so row totals
   match a run that re-executes it. The slot is confined to the
   executing domain like the memo tables. *)
and lower_replayed lx path q : vop =
  let v = lower_node lx ~replay:false path [] q in
  let here = here_of lx path q in
  let slot = ref None in
  {
    v_schema = v.v_schema;
    v_run =
      (fun rt ->
        match !slot with
        | Some (c, bats, charged) when c == rt.cctx ->
            if charged > 0 then Guard.count_rows here charged;
            bats
        | _ ->
            let before = Guard.charged_rows () in
            let bats = List.map keep_rows (v.v_run { rt with renv = [] }) in
            slot := Some (rt.cctx, bats, Guard.charged_rows () - before);
            bats);
  }

(* [lower_node] lowers one operator at its plan path ({!Path}):
   selections over products/joins and attribute projections over joins
   are fused, each fused node keeping its own path; binary inputs run
   right before left, and stats updates count the walker's plan
   events. An operator's expressions compile with [at], the operators
   they belong to, where their sublinks' body paths are found. *)
and lower_node lx ~replay path (cenv : Schema.t list) (q : query) : vop =
  let here = here_of lx path q in
  guarded here
  @@
  match q with
  | Base name ->
      let schema = Relation.schema (Database.find lx.db name) in
      {
        v_schema = schema;
        v_run =
          (fun rt ->
            Guard.Faults.fire_point Guard.Faults.Scan here;
            Vector.of_relation ~batch_rows:!batch_rows
              (Database.find rt.cctx.db name));
      }
  | TableExpr rel ->
      (* Plan constants (the rewrites' NULL padding rows, folded empty
         inputs) are small and fresh on every rewrite: they are split
         into batches here, without a row-array memo, and every run
         returns these batches (nothing writes a batch's rows). *)
      let schema = Relation.schema rel in
      let bats = chunk_rows schema (Relation.tuples rel) in
      {
        v_schema = schema;
        v_run =
          (fun _rt ->
            Guard.Faults.fire_point Guard.Faults.Scan here;
            bats);
      }
  | Select (_, (Cross _ | Join _)) | Join _ | LeftJoin _ ->
      let j = Option.get (Sem.join_of ~paths:lx.paths path q) in
      let va, vb = join_inputs lx ~replay cenv j in
      join_over lx cenv ~joint:(Schema.concat va.v_schema vb.v_schema) j va vb
  | Select (cond, input) ->
      let vin = lower lx ~replay (child_of lx path q Path.Input) cenv input in
      let schema = vin.v_schema in
      let at = owner lx here q in
      let eval =
        match vectorize lx at schema cenv cond with
        | Some m -> fun rt b idx base n -> eval_mask rt b idx base n m
        | None ->
            let pcond = compile_pred lx at (schema :: cenv) cond in
            fun rt b idx base n -> eval_pred_rows rt b idx base n pcond
      in
      { v_schema = schema; v_run = (fun rt -> filter_batches rt here eval (vin.v_run rt)) }
  | Project { distinct; cols; proj_input } -> (
      let ipath = child_of lx path q Path.Input in
      match if distinct then None else Sem.join_of ~paths:lx.paths ipath proj_input with
      | Some j -> (
          (* Projection-into-join fusion: [Project] of bare attributes
             directly over a join (or a select-over-product that lowers
             into one) gathers output rows straight from the two input
             tuples inside the join's emit step — the concatenated
             intermediate tuple is never built. The offsets are checked
             against the join's lowered input schemas, so correlated
             names (resolving to an outer frame) fall back to the
             generic path. *)
          let va, vb = join_inputs lx ~replay cenv j in
          let joint = Schema.concat va.v_schema vb.v_schema in
          match own_offsets joint cols with
          | Some offs ->
              join_over lx cenv ~joint ~project:(offs, attr_projection joint offs cols) j va vb
          | None ->
              project_over lx here q cenv ~distinct cols
                (guarded (here_of lx ipath proj_input) (join_over lx cenv ~joint j va vb)))
      | None -> project_over lx here q cenv ~distinct cols (lower lx ~replay ipath cenv proj_input))
  | Cross (a, b) ->
      let va = lower lx ~replay (child_of lx path q Path.Left) cenv a
      and vb = lower lx ~replay (child_of lx path q Path.Right) cenv b in
      let schema = Schema.concat va.v_schema vb.v_schema in
      {
        v_schema = schema;
        v_run =
          (fun rt ->
            Guard.Faults.fire_point Guard.Faults.Join here;
            let tbs = Vector.tuples_of (vb.v_run rt) in
            let card_b = Array.length tbs in
            let acc = ref [] and n = ref 0 in
            List.iter
              (fun ba ->
                Guard.tick here;
                for i = 0 to Vector.length ba - 1 do
                  let ta = Vector.tuple_at ba i in
                  Guard.count_pairs here card_b;
                  for k = 0 to card_b - 1 do
                    acc := Tuple.concat ta (Array.unsafe_get tbs k) :: !acc
                  done;
                  n := !n + card_b
                done)
              (va.v_run rt);
            chunk_rev schema !n !acc);
      }
  | Agg { group_by; aggs; agg_input } ->
      let vin = lower lx ~replay (child_of lx path q Path.Input) cenv agg_input in
      let ienv = vin.v_schema :: cenv in
      let out_schema = Typecheck.aggregation_schema lx.db ienv group_by aggs in
      let at = owner lx here q in
      let ag =
        {
          ag_here = here;
          ag_keys = Array.of_list (List.map (fun (e, _) -> compile_expr lx at ienv e) group_by);
          ag_specs =
            Array.of_list
              (List.map
                 (fun call ->
                   (call.agg_func, call.agg_distinct, Option.map (compile_expr lx at ienv) call.agg_arg))
                 aggs);
          ag_groups = None;
        }
      in
      { v_schema = out_schema; v_run = (fun rt -> agg_run ag out_schema rt (vin.v_run rt)) }
  | Union (Bag, a, b) ->
      let va = lower lx ~replay (child_of lx path q Path.Left) cenv a
      and vb = lower lx ~replay (child_of lx path q Path.Right) cenv b in
      if not (Schema.equal_types va.v_schema vb.v_schema) then
        setop_of va vb Relation.union_bag
      else
        (* A bag union is its inputs' batches in order: nothing is
           copied. *)
        let schema = va.v_schema in
        {
          v_schema = schema;
          v_run =
            (fun rt ->
              let rb = vb.v_run rt in
              let ra = va.v_run rt in
              rebrand schema ra (rebrand schema rb []));
        }
  | Union (SetSem, a, b) -> lower_setop lx ~replay path q cenv Relation.union_set a b
  | Inter (sem, a, b) ->
      let op =
        match sem with Bag -> Relation.inter_bag | SetSem -> Relation.inter_set
      in
      lower_setop lx ~replay path q cenv op a b
  | Diff (sem, a, b) ->
      let op =
        match sem with Bag -> Relation.diff_bag | SetSem -> Relation.diff_set
      in
      lower_setop lx ~replay path q cenv op a b
  | Order (keys, input) ->
      let vin = lower lx ~replay (child_of lx path q Path.Input) cenv input in
      let ienv = vin.v_schema :: cenv in
      let at = owner lx here q in
      let ckeys =
        Array.of_list
          (List.map (fun (e, d) -> (compile_expr lx at ienv e, d)) keys)
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
      let vin = lower lx ~replay (child_of lx path q Path.Input) cenv input in
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
                  | Vector.Rows ({ sel = Some s; _ } as r) ->
                      Some (Vector.Rows { r with sel = Some (Array.sub s 0 need) })
                  | Vector.Rows r -> Some (Vector.Rows { r with len = need })
                  | Vector.CrossB _ ->
                      Some
                        (Vector.rows_batch (Vector.schema b)
                           (Array.init need (fun i -> Vector.tuple_at b i)))
                end)
              bats);
      }

and project_over lx here q cenv ~distinct cols (vin : vop) : vop =
  let ienv = vin.v_schema :: cenv in
  let out_schema = projection_schema lx vin.v_schema cenv cols in
  let distinct_rows rows =
    chunk_rows out_schema
      (Relation.tuples (Relation.distinct (Relation.make_unchecked out_schema rows)))
  in
  match own_offsets vin.v_schema cols with
  | Some offs when not distinct ->
      (* Attribute-only projection: per-batch column gather, sharing
         storage and selection vectors — no row data moves. *)
      { v_schema = out_schema; v_run = (fun rt -> select_all out_schema offs (vin.v_run rt)) }
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
      let at = owner lx here q in
      match
        if distinct then None else mask_projection lx at vin.v_schema cenv cols
      with
      | Some pcols ->
          (* Attribute and boolean-mask items: masks are computed per
             batch over the input columns, and output rows gather the
             input values with no per-row expression closures. *)
          {
            v_schema = out_schema;
            v_run = (fun rt -> project_masks rt here out_schema pcols (vin.v_run rt));
          }
      | None ->
          let cexprs =
            Array.of_list
              (List.map (fun (e, _) -> compile_expr lx at ienv e) cols)
          in
          {
            v_schema = out_schema;
            v_run =
              (fun rt ->
                let acc = ref [] and n = ref 0 in
                List.iter
                  (fun b ->
                    Guard.tick here;
                    for i = 0 to Vector.length b - 1 do
                      acc := eval_row cexprs rt.cctx (Vector.tuple_at b i :: rt.renv) :: !acc
                    done;
                    n := !n + Vector.length b)
                  (vin.v_run rt);
                if distinct then distinct_rows (List.rev !acc) else chunk_rev out_schema !n !acc);
          })

and lower_setop lx ~replay path q cenv op a b : vop =
  setop_of
    (lower lx ~replay (child_of lx path q Path.Left) cenv a)
    (lower lx ~replay (child_of lx path q Path.Right) cenv b)
    op

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

and join_inputs lx ~replay cenv (j : Sem.join) : vop * vop =
  let va = lower lx ~replay (child_of lx j.j_prefix j.j_node Path.Left) cenv j.j_left
  and vb =
    lower lx ~replay (child_of lx j.j_prefix j.j_node Path.Right) cenv j.j_right
  in
  (va, vb)

(* The join [j] over its lowered inputs, [joint] being both inputs'
   columns. [?project] is the fused attribute projection (output offsets
   into [joint], output schema): rows are gathered from the (left,
   right) pair instead of concatenated, and factored cross blocks just
   remap their sources. *)
and join_over lx cenv ~joint ?project (j : Sem.join) va vb : vop =
  let here = here_of lx j.j_prefix j.j_node in
  let at = if lx.paths then Sem.join_owners j here else [] in
  let outer = j.j_outer and cond = j.j_cond in
  let sa = va.v_schema and sb = vb.v_schema in
  let arity_a = Schema.arity sa in
  let out_schema, offs =
    match project with None -> (joint, None) | Some (offs, s) -> (s, Some offs)
  in
  let pad = Tuple.nulls (Schema.arity sb) in
  let pairs, residual = Scope.split_equi ~left:sa ~right:sb cond in
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
      counter_silent x && List.for_all (fun n -> not (Schema.mem sb n)) (expr_deps lx x)
    in
    let penv = sb :: sa :: cenv in
    let split =
      match cond with
      | Const (Value.Bool true) -> All
      | Or (x, y) when hoistable x ->
          Or_hoisted (compile_pred lx at (sa :: cenv) x, compile_pred lx at penv y)
      | And (x, y) when hoistable x ->
          And_hoisted (compile_pred lx at (sa :: cenv) x, compile_pred lx at penv y)
      | _ -> Whole (compile_pred lx at penv cond)
    in
    let nl =
      {
        nl_here = here;
        nl_outer = outer;
        nl_split = split;
        nl_schema = out_schema;
        nl_joint = joint;
        nl_offs = offs;
        nl_arity_a = arity_a;
        nl_pad = pad;
        tbs = [||];
        right_cols = None;
        acc = [];
        n_acc = 0;
        pending = [];
        n_pending = 0;
        out = [];
        emitted = 0;
      }
    in
    {
      v_schema = out_schema;
      v_run =
        (fun rt ->
          Guard.Faults.fire_point Guard.Faults.Join here;
          let stats = rt.cctx.stats in
          stats.Sem.st_nested_loop_joins <- stats.Sem.st_nested_loop_joins + 1;
          nl_start nl (Vector.tuples_of (vb.v_run rt));
          let nleft = nl_left_batches nl rt 0 (va.v_run rt) in
          stats.Sem.st_nested_pairs <-
            stats.Sem.st_nested_pairs + (nleft * Array.length nl.tbs);
          stats.Sem.st_rows_emitted <- stats.Sem.st_rows_emitted + nl.emitted;
          nl_finish nl);
    }
  end
  else begin
    let left_keys =
      Array.of_list (List.map (fun (e, _, _) -> compile_expr lx at (sa :: cenv) e) pairs)
    in
    let right_keys =
      Array.of_list (List.map (fun (_, e, _) -> compile_expr lx at (sb :: cenv) e) pairs)
    in
    let residual =
      match residual with
      | [] -> None
      | r -> Some (compile_pred lx at (sb :: sa :: cenv) (conj r))
    in
    let hj =
      {
        hj_here = here;
        hj_outer = outer;
        hj_schema = out_schema;
        hj_offs = offs;
        hj_arity_a = arity_a;
        hj_pad = pad;
        hj_left_keys = left_keys;
        hj_right_keys = right_keys;
        hj_safe = Array.of_list (List.map (fun (_, _, s) -> s) pairs);
        hj_residual = residual;
        table = None;
        hj_acc = [];
        hj_n = 0;
        hj_emitted = 0;
      }
    in
    {
      v_schema = out_schema;
      v_run =
        (fun rt ->
          Guard.Faults.fire_point Guard.Faults.Join here;
          let stats = rt.cctx.stats in
          stats.Sem.st_hash_joins <- stats.Sem.st_hash_joins + 1;
          hj_build hj rt (vb.v_run rt);
          hj_probe_batches hj rt (va.v_run rt);
          stats.Sem.st_rows_emitted <- stats.Sem.st_rows_emitted + hj.hj_emitted;
          hj_finish hj);
    }
  end

(* ---- public API ------------------------------------------------------ *)

let query_stats ?(env = []) db q : Relation.t * Sem.stats =
  let cenv = List.map fst env and renv = List.map snd env in
  let v = lower (lx_of db) ~replay:false [] cenv q in
  let rt = { cctx = mk_ctx db; renv } in
  let bats = v.v_run rt in
  (Vector.relation_of v.v_schema bats, rt.cctx.stats)

let query ?(env = []) db q = fst (query_stats ~env db q)

let expr ?(env = []) db e =
  compile_expr (lx_of db) [ ([], [ e ]) ] (List.map fst env) e
    (mk_ctx db)
    (List.map snd env)
