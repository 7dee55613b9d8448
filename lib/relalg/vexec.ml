(** Query execution: the production engine. A type-checked
    {!Algebra.query} is lowered once into batch-at-a-time operators over
    {!Vector} batches of boxed tuples, and every scalar expression into
    a closure with its attribute references resolved to frame offsets.
    A query runs on the domain that called it.

    Operators materialize their outputs as batch lists. Selections, join
    residuals and the comparisons of projection items run one predicate
    compiler: a predicate becomes an unboxed three-valued test of one
    row under the enclosing frames, its comparisons of columns and
    constants specialized at lowering, and an uncorrelated [ANY]/[ALL]
    sublink a probe of the {!Sem} summary, or of an integer array
    specialized from it. A selection tests each batch in one pass and
    keeps its survivors as the batch's selection vector.

    A sublink's body is lowered by the same {!lower} as the enclosing
    plan and runs sequentially on the enclosing execution's context,
    memoized per binding of its correlated attributes; inside a
    correlated body, a subtree that does not depend on the binding and
    cannot touch the counters runs once per execution and is replayed
    for later bindings.

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
    per-row arrays (selection vectors, row arrays) stay
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
    counters, exactly mirroring the reference evaluator's. *)
type ctx = { db : Database.t; memos : (int, memo) Hashtbl.t; stats : Sem.stats }

let mk_ctx db = { db; memos = Hashtbl.create 8; stats = Sem.fresh_stats () }

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

(** A compiled scalar expression: its value on the row [t] (frame
    depth 0) under the enclosing frames [outer] (depth 1 on), so
    evaluating it conses no frame. *)
type cexpr = ctx -> Tuple.t -> renv -> Value.t

(** A compiled predicate, a row test: its three-valued truth (0 =
    false, 1 = true, 2 = unknown, unboxed) on the row [t] under the
    enclosing frames [outer]. *)
type test = ctx -> Tuple.t -> renv -> int

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

(* [resolve_attr] for code that reads stored rows in place behind an
   offset map [offs] ({!Vector}): a column of the row is the stored
   tuple's column [offs.(j)]. *)
let resolve cenv offs name =
  match (resolve_attr cenv name, offs) with
  | (0, j), Some o -> (0, o.(j))
  | at, _ -> at

(* Frame [d >= 1]: the enclosing frames start at depth 1. *)
let outer_frame (outer : renv) d : Tuple.t =
  match outer with
  | t :: _ when d = 1 -> t
  | _ -> (
      match List.nth_opt outer (d - 1) with
      | Some t -> t
      | None -> Sem.eval_error "missing frame at depth %d" d)

let attr_access (depth, off) : cexpr =
  if depth = 0 then fun _ t _ -> Tuple.get t off
  else fun _ _ outer -> Tuple.get (outer_frame outer depth) off

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
let eval_row (cexprs : cexpr array) ctx t outer : Tuple.t =
  let n = Array.length cexprs in
  let out = Array.make n Value.Null in
  for j = 0 to n - 1 do
    Array.unsafe_set out j ((Array.unsafe_get cexprs j) ctx t outer)
  done;
  out

(* ---- three-valued scalar kernels ----------------------------------- *)

(* 0 = false, 1 = true, 2 = unknown — the unboxed encoding of compiled
   predicates. *)
let b3_of_value v =
  if Value.is_true v then 1 else if Value.is_null v then 2 else 0

let value_of_b3 = function 0 -> Value.vfalse | 1 -> Value.vtrue | _ -> Value.Null

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

(* ---- compiled row tests --------------------------------------------- *)

(* A comparison operand as a test reads it: a column of the row under
   test, a column of an enclosing frame, a constant, or anything else,
   which is compiled as an expression. *)
type operand = Col of int | Outer of int * int | Lit of Value.t | Computed

let operand cenv offs = function
  | Const v -> Lit v
  | TypedNull _ -> Lit Value.Null
  | Attr n -> ( match resolve cenv offs n with 0, j -> Col j | d, j -> Outer (d, j))
  | _ -> Computed

let flip = function Lt -> Gt | Gt -> Lt | Leq -> Geq | Geq -> Leq | (Eq | Neq | EqNull) as op -> op

(* Column [j] of the row against the constant [c]: an [Int], [Float]
   or [String] cell of a comparable type is compared unboxed, any other
   (NULL, another type) by [slow], which keeps the operands' order for
   {!cmp_b3}'s errors. On a non-NULL cell [=n] is [=]. *)
let col_const op j (c : Value.t) (slow : Value.t -> int) : test =
  let op = if op = EqNull then Eq else op in
  match c with
  | Value.Int c -> (
      match op with
      | Eq | EqNull ->
          fun _ t _ -> (
            match Array.unsafe_get t j with Value.Int x -> Bool.to_int (x = c) | v -> slow v)
      | Neq ->
          fun _ t _ -> (
            match Array.unsafe_get t j with Value.Int x -> Bool.to_int (x <> c) | v -> slow v)
      | Lt ->
          fun _ t _ -> (
            match Array.unsafe_get t j with Value.Int x -> Bool.to_int (x < c) | v -> slow v)
      | Leq ->
          fun _ t _ -> (
            match Array.unsafe_get t j with Value.Int x -> Bool.to_int (x <= c) | v -> slow v)
      | Gt ->
          fun _ t _ -> (
            match Array.unsafe_get t j with Value.Int x -> Bool.to_int (x > c) | v -> slow v)
      | Geq ->
          fun _ t _ -> (
            match Array.unsafe_get t j with Value.Int x -> Bool.to_int (x >= c) | v -> slow v))
  | Value.Float f ->
      fun _ t _ -> (
        match Array.unsafe_get t j with
        | Value.Float x -> Bool.to_int (ctest op (Float.compare x f))
        | Value.Int x -> Bool.to_int (ctest op (Float.compare (float_of_int x) f))
        | v -> slow v)
  | Value.String s ->
      fun _ t _ -> (
        match Array.unsafe_get t j with
        | Value.String x -> Bool.to_int (ctest op (String.compare x s))
        | v -> slow v)
  | _ -> fun _ t _ -> slow (Array.unsafe_get t j)

(* A comparison whose operands are columns of the row or of enclosing
   frames, or constants, read without evaluating an expression; [None]
   when an operand is computed, or both are constants or outer
   columns. *)
let cmp_leaf cenv offs op a b : test option =
  match (operand cenv offs a, operand cenv offs b) with
  | Col j, Lit c -> Some (col_const op j c (fun v -> cmp_b3 op v c))
  | Lit c, Col j -> Some (col_const (flip op) j c (fun v -> cmp_b3 op c v))
  | Col j1, Col j2 -> Some (fun _ t _ -> cmp_b3 op (Array.unsafe_get t j1) (Array.unsafe_get t j2))
  | Col j, Outer (d, o) ->
      Some (fun _ t outer -> cmp_b3 op (Array.unsafe_get t j) (Tuple.get (outer_frame outer d) o))
  | Outer (d, o), Col j ->
      Some (fun _ t outer -> cmp_b3 op (Tuple.get (outer_frame outer d) o) (Array.unsafe_get t j))
  | _ -> None

(* [Some (j, lo, hi)] when [e] compares column [j] of the row with an
   integer constant and holds for an [Int] cell exactly when the cell is
   in [lo .. hi]. *)
let int_range cenv offs e =
  let bound op c =
    match op with
    | Eq -> Some (c, c)
    | Geq -> Some (c, max_int)
    | Leq -> Some (min_int, c)
    | Gt when c < max_int -> Some (c + 1, max_int)
    | Lt when c > min_int -> Some (min_int, c - 1)
    | _ -> None
  in
  let on op a c =
    match operand cenv offs a with
    | Col j -> Option.map (fun (lo, hi) -> (j, lo, hi)) (bound op c)
    | _ -> None
  in
  match e with
  | Cmp (op, a, Const (Value.Int c)) -> on op a c
  | Cmp (op, Const (Value.Int c), a) -> on (flip op) a c
  | _ -> None

(* ---- uncorrelated ANY/ALL probes ------------------------------------ *)

(* An uncorrelated body has a constant memo key, so its result for the
   current execution is held in the body's slot instead of paying a
   hash per evaluation. The slot is keyed on the [ctx] by physical
   identity — a fresh execution gets a fresh context and recomputes —
   and the first fill still goes through the shared memo tables, so the
   counters ({!Sem.stats}) advance exactly as the reference evaluator's
   do: relation reuse counts a hit, summary reuse is silent. The copies
   of a body sharing the slot count as they would with a slot each: a
   later copy's first evaluation would find the memo filled. *)
let cached_rel (b : body) ctx =
  match b.rel_slot with
  | Some (c, rel) when c == ctx ->
      ctx.stats.Sem.st_sublink_hits <- ctx.stats.Sem.st_sublink_hits + 1;
      rel
  | _ ->
      let rel = b.materialize ctx [||] in
      b.rel_slot <- Some (ctx, rel);
      rel

let cached_summary (b : body) ctx =
  match b.sum_slot with
  | Some (c, sm) when c == ctx -> sm
  | _ ->
      let sm = b.summary ctx [||] in
      b.sum_slot <- Some (ctx, sm);
      sm

(* An uncorrelated ANY/ALL probe's summary, specialized once per
   execution (kept with the [ctx] it belongs to, by identity) when the
   probe first runs. When every distinct summary value is an [Int],
   equality-style membership of an [Int] input is answered from the
   sorted array of those ints — sound only then, because the summary's
   own set equates [Int 3] with [Float 3.] and the int array would
   not. *)
type prep = {
  p_sum : Sem.summary;
  p_empty : bool;
  p_has_null : bool;
  p_ints : int array option;
  p_bound : Value.t option;
      (** for an ordering operator, the summary's extreme that decides
          it: the max for [< ANY] and [> ALL], the min for [> ANY] and
          [< ALL] *)
}

type probe = { pr_any : bool; pr_op : cmpop; mutable pr_prep : (ctx * prep) option }

let prep_probe ctx (b : body) pr : prep =
  match pr.pr_prep with
  | Some (c, p) when c == ctx -> p
  | _ ->
      let sum = cached_summary b ctx in
      let memberish =
        (pr.pr_any && (pr.pr_op = Eq || pr.pr_op = EqNull))
        || ((not pr.pr_any) && pr.pr_op = Neq)
      in
      let ints =
        if not memberish then None
        else
          let vs = Sem.summary_distinct_values sum in
          if List.for_all (function Value.Int _ -> true | _ -> false) vs then begin
            let a = Array.of_list (List.map (function Value.Int x -> x | _ -> 0) vs) in
            Array.sort Int.compare a;
            Some a
          end
          else None
      in
      let p =
        {
          p_sum = sum;
          p_empty = Sem.summary_is_empty sum;
          p_has_null = Sem.summary_has_null sum;
          p_ints = ints;
          p_bound =
            (match (pr.pr_op, pr.pr_any) with
            | (Lt | Leq), true | (Gt | Geq), false -> Sem.summary_max sum
            | (Gt | Geq), true | (Lt | Leq), false -> Sem.summary_min sum
            | (Eq | Neq | EqNull), _ -> None);
        }
      in
      pr.pr_prep <- Some (ctx, p);
      p

let is_order = function Lt | Leq | Gt | Geq -> true | Eq | Neq | EqNull -> false

let rec mem_sorted (a : int array) x lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let v = Array.unsafe_get a mid in
  v = x || if v < x then mem_sorted a x (mid + 1) hi else mem_sorted a x lo mid

(* Per-value probe result; must coincide with {!Sem.any_of_summary} /
   {!Sem.all_of_summary} on the membership-style operators the int array
   covers, and falls back to them otherwise. *)
let probe_b3 pr prep (lhs : Value.t) : int =
  let generic () =
    b3_of_value
      ((if pr.pr_any then Sem.any_of_summary else Sem.all_of_summary)
         pr.pr_op lhs prep.p_sum)
  in
  match (prep.p_ints, lhs) with
  | Some ints, Value.Int x ->
      if prep.p_empty then if pr.pr_any then 0 else 1
      else
        let mem = mem_sorted ints x 0 (Array.length ints) in
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
  | None, _ when (not prep.p_empty) && (not (Value.is_null lhs)) && is_order pr.pr_op -> (
      (* the extreme alone decides: an ANY holds when it holds there,
         an ALL fails when it fails there *)
      match prep.p_bound with
      | Some m ->
          let c = cmp_b3 pr.pr_op lhs m in
          if pr.pr_any then if c = 1 then 1 else if prep.p_has_null then 2 else 0
          else if c = 0 then 0
          else if prep.p_has_null then 2
          else 1
      | None -> if pr.pr_any then if prep.p_has_null then 2 else 0 else 2)
  | _ -> generic ()

(* [p =n b] for a boolean-shaped [p]. *)
let bool_eq (p : test) b : test =
 fun ctx t outer ->
  let v = p ctx t outer in
  if v = 2 then 0 else if (v = 1) = b then 1 else 0

(* A test as a compiled expression. *)
let of_test (p : test) : cexpr = fun ctx t outer -> value_of_b3 (p ctx t outer)

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

(* A nested-loop join's condition, with a left-only first operand of a
   top-level OR/AND hoisted to one evaluation per left tuple. The pair
   tests read the right row as the row under test and the left row as
   the first enclosing frame; the hoisted test reads the left row. *)
type nl_split =
  | All
  | Whole of test
  | Or_hoisted of test * test
  | And_hoisted of test * test

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

let nl_emit_filtered nl rt ta aenv (p : test) =
  let hit = ref false in
  let tbs = nl.tbs in
  for k = 0 to Array.length tbs - 1 do
    let tb = Array.unsafe_get tbs k in
    if p rt.cctx tb aenv = 1 then begin
      hit := true;
      nl.emitted <- nl.emitted + 1;
      nl_push nl (join_row nl.nl_offs nl.nl_arity_a ta tb)
    end
  done;
  if nl.nl_outer && not !hit then nl_emit_pad nl ta

let nl_drain_drop nl rt ta aenv (p : test) =
  let tbs = nl.tbs in
  for k = 0 to Array.length tbs - 1 do
    ignore (p rt.cctx (Array.unsafe_get tbs k) aenv)
  done;
  if nl.nl_outer then nl_emit_pad nl ta

let nl_left nl rt ta =
  if Array.length nl.tbs = 0 then (if nl.nl_outer then nl_emit_pad nl ta)
  else
    match nl.nl_split with
    | All -> nl_emit_all nl ta
    | Whole p -> nl_emit_filtered nl rt ta (ta :: rt.renv) p
    | Or_hoisted (px, py) ->
        if px rt.cctx ta rt.renv = 1 then nl_emit_all nl ta
        else nl_emit_filtered nl rt ta (ta :: rt.renv) py
    | And_hoisted (px, py) -> (
        match px rt.cctx ta rt.renv with
        | 0 -> if nl.nl_outer then nl_emit_pad nl ta
        | 1 -> nl_emit_filtered nl rt ta (ta :: rt.renv) py
        | _ -> nl_drain_drop nl rt ta (ta :: rt.renv) py)

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
  hj_residual : test option;  (** the right row under the left row's frames *)
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
        let key = eval_row hj.hj_right_keys rt.cctx tb rt.renv in
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
          if cr rt.cctx tb fenv = 1 then begin
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
        let key = eval_row hj.hj_left_keys rt.cctx ta rt.renv in
        let hit =
          usable hj.hj_safe key
          &&
          match Tuple.Tbl.find table key with
          | tbs ->
              let fenv = if hj.hj_residual = None then rt.renv else ta :: rt.renv in
              hj_matches hj rt ta fenv tbs
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
        let key = eval_row ag.ag_keys rt.cctx t rt.renv in
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
                let v = ce rt.cctx t rt.renv in
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

(* Code compiled for each layout of the stored rows an operator's
   batches bring — no offset map, or one — when the first batch of that
   layout arrives: a batch behind a map is read in place, through the
   map resolved into the code, and an operator whose input is empty
   compiles nothing. *)
type 'a layouts = { compile : int array option -> 'a; mutable met : (int array option * 'a) list }

let layouts compile = { compile; met = [] }

let same_layout a b =
  match (a, b) with Some x, Some y -> x == y || x = y | None, None -> true | _ -> false

let for_layout l offs =
  match l.met with
  | (o, code) :: _ when same_layout o offs -> code
  | met -> (
      match List.find (fun (o, _) -> same_layout o offs) met with
      | _, code -> code
      | exception Not_found ->
          let code = l.compile offs in
          l.met <- (offs, code) :: met;
          code)

(* A cross block's scratch row of [arity] columns, in [row] when it
   has one. *)
let scratch_row (row : Tuple.t) arity =
  if Array.length row = arity then row else Array.make arity Value.Null

(* A selection: its row test per layout, and the scratch state of the
   batch under test. *)
type sel = {
  s_here : Path.t;
  s_tests : test layouts;
  mutable s_keep : int array;  (** the survivors' row indices *)
  mutable s_row : Tuple.t;  (** a cross block's row under test *)
}

(* Test every row of [b] in one pass, writing the survivors' physical
   indices (logical ones for a cross block) to [s_keep]; their
   number. A cross block's rows are assembled in turn in [s_row], so a
   dropped pair builds no tuple. *)
let sel_pass sl rt (b : Vector.t) =
  let ctx = rt.cctx and outer = rt.renv in
  let m = Vector.length b in
  if Array.length sl.s_keep < m then sl.s_keep <- Array.make m 0;
  let keep = sl.s_keep and n = ref 0 in
  (match b with
  | Vector.Rows { rows; lo; len; offs; sel; _ } -> (
      let test = for_layout sl.s_tests offs in
      match sel with
      (* every row is written past the survivors, which the test's
         result moves on by one: there is no branch to mispredict *)
      | None ->
          for p = lo to lo + len - 1 do
            Array.unsafe_set keep !n p;
            n := !n + Bool.to_int (test ctx (Array.unsafe_get rows p) outer = 1)
          done
      | Some s ->
          for k = 0 to m - 1 do
            let p = Array.unsafe_get s k in
            Array.unsafe_set keep !n p;
            n := !n + Bool.to_int (test ctx (Array.unsafe_get rows p) outer = 1)
          done)
  | Vector.CrossB { lefts; right_cols; card_b; srcs; _ } ->
      let row = scratch_row sl.s_row (Array.length srcs) in
      sl.s_row <- row;
      let test = for_layout sl.s_tests None in
      for k = 0 to Array.length lefts - 1 do
        let ta = Array.unsafe_get lefts k in
        for i = 0 to card_b - 1 do
          Vector.fill_cross ta right_cols srcs i row;
          Array.unsafe_set keep !n ((k * card_b) + i);
          n := !n + Bool.to_int (test ctx row outer = 1)
        done
      done);
  !n

(* The [n] survivors of [b], some but not all of its rows: a row batch
   gets them as an exact-size selection vector (no row is copied); a
   cross block's kept rows are built into a row batch. *)
let survivors sl (b : Vector.t) n =
  match b with
  | Vector.Rows r -> Vector.Rows { r with sel = Some (Array.sub sl.s_keep 0 n) }
  | Vector.CrossB _ ->
      let rows = Array.make n [||] in
      for q = 0 to n - 1 do
        Array.unsafe_set rows q (Vector.tuple_at b (Array.unsafe_get sl.s_keep q))
      done;
      Vector.rows_batch (Vector.schema b) rows

(* The batches of [bats] filtered by the selection: an all-kept batch
   passes through unchanged and an emptied one is dropped. *)
let rec select_batches sl rt = function
  | [] -> []
  | b :: rest ->
      Guard.tick sl.s_here;
      let n = sel_pass sl rt b in
      if n = 0 then select_batches sl rt rest
      else
        (* before the next batch overwrites the survivors *)
        let b = if n = Vector.length b then b else survivors sl b n in
        b :: select_batches sl rt rest

let rec select_all out_schema offs = function
  | [] -> []
  | b :: rest -> Vector.select_cols out_schema b offs :: select_all out_schema offs rest

(* A projection's items per layout, and a cross block's scratch row. *)
type pj = { p_items : cexpr array layouts; mutable p_row : Tuple.t }

(* The projected rows of [b], pushed onto [acc] (last first). *)
let project_rows pj rt (acc : Tuple.t list ref) (b : Vector.t) =
  let ctx = rt.cctx and outer = rt.renv in
  match b with
  | Vector.Rows { rows; lo; len; offs; sel; _ } -> (
      let items = for_layout pj.p_items offs in
      match sel with
      | None ->
          for p = lo to lo + len - 1 do
            acc := eval_row items ctx (Array.unsafe_get rows p) outer :: !acc
          done
      | Some s ->
          for k = 0 to Array.length s - 1 do
            acc := eval_row items ctx (Array.unsafe_get rows (Array.unsafe_get s k)) outer :: !acc
          done)
  | Vector.CrossB { lefts; right_cols; card_b; srcs; _ } ->
      let row = scratch_row pj.p_row (Array.length srcs) in
      pj.p_row <- row;
      let items = for_layout pj.p_items None in
      for k = 0 to Array.length lefts - 1 do
        for i = 0 to card_b - 1 do
          Vector.fill_cross (Array.unsafe_get lefts k) right_cols srcs i row;
          acc := eval_row items ctx row outer :: !acc
        done
      done

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
   [lower] — one recursive group. A comparison, NULL test or ANY/ALL
   probe in an expression compiles to the predicate compiler's test, so
   a boolean projection item runs the same specialized code as a
   selection. *)

let rec compile_expr lx at ?offs (cenv : Schema.t list) (e : expr) : cexpr =
  match e with
  | Const v -> fun _ _ _ -> v
  | TypedNull _ -> fun _ _ _ -> Value.Null
  | Attr name -> attr_access (resolve cenv offs name)
  | Binop (op, a, b) ->
      let ca = compile_expr lx at ?offs cenv a and cb = compile_expr lx at ?offs cenv b in
      let f =
        match op with
        | Add -> Value.add
        | Sub -> Value.sub
        | Mul -> Value.mul
        | Div -> Value.div
        | Mod -> Value.modulo
        | Concat -> Value.concat
      in
      fun ctx t outer -> f (ca ctx t outer) (cb ctx t outer)
  | Cmp (op, a, b) -> (
      match cmp_leaf cenv offs op a b with
      | Some p -> of_test p
      | None ->
          let ca = compile_expr lx at ?offs cenv a and cb = compile_expr lx at ?offs cenv b in
          fun ctx t outer -> Sem.cmp3 op (ca ctx t outer) (cb ctx t outer))
  | And (a, b) ->
      let ca = compile_expr lx at ?offs cenv a and cb = compile_expr lx at ?offs cenv b in
      fun ctx t outer ->
        let va = ca ctx t outer in
        if Value.is_false va then Value.vfalse else Value.and3 va (cb ctx t outer)
  | Or (a, b) ->
      let ca = compile_expr lx at ?offs cenv a and cb = compile_expr lx at ?offs cenv b in
      fun ctx t outer ->
        let va = ca ctx t outer in
        if Value.is_true va then Value.vtrue else Value.or3 va (cb ctx t outer)
  | Not a ->
      let ca = compile_expr lx at ?offs cenv a in
      fun ctx t outer -> Value.not3 (ca ctx t outer)
  | IsNull a ->
      let ca = compile_expr lx at ?offs cenv a in
      fun ctx t outer -> if Value.is_null (ca ctx t outer) then Value.vtrue else Value.vfalse
  | Case (whens, els) ->
      let cwhens =
        List.map
          (fun (c, e) -> (compile_expr lx at ?offs cenv c, compile_expr lx at ?offs cenv e))
          whens
      in
      let cels = Option.map (compile_expr lx at ?offs cenv) els in
      fun ctx t outer ->
        let rec go = function
          | (cc, ce) :: rest -> if Value.is_true (cc ctx t outer) then ce ctx t outer else go rest
          | [] -> ( match cels with Some ce -> ce ctx t outer | None -> Value.Null)
        in
        go cwhens
  | Like (a, pattern) -> (
      let ca = compile_expr lx at ?offs cenv a in
      fun ctx t outer ->
        match ca ctx t outer with
        | Value.Null -> Value.Null
        | Value.String s -> Value.Bool (Builtin.like_match ~pattern s)
        | v -> Sem.eval_error "LIKE over non-string %s" (Value.to_string v))
  | InList (a, es) ->
      let ca = compile_expr lx at ?offs cenv a in
      let ces = List.map (compile_expr lx at ?offs cenv) es in
      fun ctx t outer ->
        let x = ca ctx t outer in
        let rec go acc = function
          | [] -> acc
          | ce :: rest ->
              let r = Sem.cmp3 Eq x (ce ctx t outer) in
              if Value.is_true r then Value.vtrue else go (Value.or3 acc r) rest
        in
        go Value.vfalse ces
  | FunCall (name, args) ->
      if Builtin.is_aggregate name then
        Sem.eval_error "aggregate function %s in scalar context" name
      else
        let cargs = List.map (compile_expr lx at ?offs cenv) args in
        fun ctx t outer -> Builtin.apply_scalar name (List.map (fun ce -> ce ctx t outer) cargs)
  | Sublink s -> compile_sublink lx at offs cenv s

(* Selection and join conditions compile to row tests ({!test}) on the
   unboxed three-valued encoding, so the boolean skeleton evaluates
   without allocating a [Value.t] per node. Truth tables and
   short-circuiting mirror the reference evaluator exactly, including
   {e which} operand subexpressions are evaluated — sublink memo
   counters and the rows that raise depend on that. Comparisons of
   columns and constants, NULL tests and uncorrelated ANY/ALL probes
   are specialized here, at lowering; any other operand is compiled by
   {!compile_expr}. [offs] is the offset map of stored rows tested in
   place. *)
and compile_pred lx at ?offs (cenv : Schema.t list) (e : expr) : test =
  match e with
  | Const v ->
      let b = b3_of_value v in
      fun _ _ _ -> b
  (* [p =n TRUE/FALSE] over a boolean-valued operand — the shape the
     provenance rewrites wrap around moved sublink tests — reduces to a
     truth-table check on the operand's unboxed value. *)
  | Cmp (EqNull, p, Const (Value.Bool b)) when is_boolean_shape p ->
      bool_eq (compile_pred lx at ?offs cenv p) b
  | Cmp (EqNull, Const (Value.Bool b), p) when is_boolean_shape p ->
      bool_eq (compile_pred lx at ?offs cenv p) b
  | Cmp (op, a, b) -> (
      match cmp_leaf cenv offs op a b with
      | Some p -> p
      | None ->
          let ca = compile_expr lx at ?offs cenv a and cb = compile_expr lx at ?offs cenv b in
          fun ctx t outer -> cmp_b3 op (ca ctx t outer) (cb ctx t outer))
  | And (a, b) -> (
      let pa = compile_pred lx at ?offs cenv a and pb = compile_pred lx at ?offs cenv b in
      let both ctx t outer =
        let va = pa ctx t outer in
        if va = 0 then 0
        else
          let vb = pb ctx t outer in
          if vb = 0 then 0 else if va = 2 || vb = 2 then 2 else 1
      in
      (* Two integer bounds on one column: an [Int] cell is tested
         against both at once, with no branch on the first (neither
         operand can raise or touch a counter on it); any other cell
         runs the two tests in order. *)
      match (int_range cenv offs a, int_range cenv offs b) with
      | Some (j, lo1, hi1), Some (j', lo2, hi2) when j = j' ->
          let lo = max lo1 lo2 and hi = min hi1 hi2 in
          fun ctx t outer -> (
            match Array.unsafe_get t j with
            | Value.Int x -> Bool.to_int (x >= lo) land Bool.to_int (x <= hi)
            | _ -> both ctx t outer)
      | _ -> both)
  | Or (a, b) ->
      let pa = compile_pred lx at ?offs cenv a and pb = compile_pred lx at ?offs cenv b in
      fun ctx t outer ->
        let va = pa ctx t outer in
        if va = 1 then 1
        else
          let vb = pb ctx t outer in
          if vb = 1 then 1 else if va = 2 || vb = 2 then 2 else 0
  | Not a ->
      let pa = compile_pred lx at ?offs cenv a in
      fun ctx t outer -> ( match pa ctx t outer with 0 -> 1 | 1 -> 0 | _ -> 2)
  | IsNull a -> (
      match operand cenv offs a with
      | Col j -> fun _ t _ -> Bool.to_int (Value.is_null (Array.unsafe_get t j))
      | _ ->
          let ca = compile_expr lx at ?offs cenv a in
          fun ctx t outer -> Bool.to_int (Value.is_null (ca ctx t outer)))
  | Attr _ -> (
      match operand cenv offs e with
      | Col j -> fun _ t _ -> b3_of_value (Array.unsafe_get t j)
      | _ -> generic_pred lx at offs cenv e)
  | Sublink ({ kind = AnyOp _ | AllOp _; _ } as s)
    when Scope.body_frees lx.frees lx.db s.query = [] ->
      compile_probe lx at offs cenv s
  | _ -> generic_pred lx at offs cenv e

and generic_pred lx at offs cenv e : test =
  let ce = compile_expr lx at ?offs cenv e in
  fun ctx t outer -> b3_of_value (ce ctx t outer)

(* An uncorrelated ANY/ALL sublink as a probe of its body's summary,
   specialized once per execution when first reached ({!prep_probe}).
   The summary is read before the left operand, as {!compile_sublink}
   reads a correlated one. *)
and compile_probe lx at offs cenv (s : sublink) : test =
  let any, op, lhs =
    match s.kind with
    | AnyOp (op, l) -> (true, op, l)
    | AllOp (op, l) -> (false, op, l)
    | Exists | Scalar -> invalid_arg "compile_probe"
  in
  let b = sublink_body lx at cenv s ~names:[] ~frees:[||] in
  let pr = { pr_any = any; pr_op = op; pr_prep = None } in
  match operand cenv offs lhs with
  | Col j ->
      fun ctx t _ ->
        let p = prep_probe ctx b pr in
        probe_b3 pr p (Array.unsafe_get t j)
  | Outer (d, o) ->
      fun ctx _ outer ->
        let p = prep_probe ctx b pr in
        probe_b3 pr p (Tuple.get (outer_frame outer d) o)
  | Lit _ | Computed ->
      let cl = compile_expr lx at ?offs cenv lhs in
      fun ctx t outer ->
        let p = prep_probe ctx b pr in
        probe_b3 pr p (cl ctx t outer)

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

(* The correlated attributes are resolved to offset accessors once, so
   the per-call binding is read without any name resolution, into a
   buffer of the call site (its copies run one at a time: a body never
   contains its own sublink). *)
and compile_sublink lx at offs (cenv : Schema.t list) (s : sublink) : cexpr =
  let names = Scope.body_frees lx.frees lx.db s.query in
  let frees = Array.of_list (List.map (resolve_attr cenv) names) in
  let truth v = if v then Value.vtrue else Value.vfalse in
  if frees = [||] then
    match s.kind with
    | Exists ->
        let b = sublink_body lx at cenv s ~names ~frees in
        fun ctx _ _ -> truth (not (Relation.is_empty (cached_rel b ctx)))
    | Scalar ->
        let b = sublink_body lx at cenv s ~names ~frees in
        fun ctx _ _ -> scalar_value (cached_rel b ctx)
    | AnyOp _ | AllOp _ -> of_test (compile_probe lx at offs cenv s)
  else
    let b = sublink_body lx at cenv s ~names ~frees in
    let getters = Array.of_list (List.map (fun n -> attr_access (resolve cenv offs n)) names) in
    let buffer = Array.make (Array.length getters) Value.Null in
    let binding ctx t outer =
      for i = 0 to Array.length getters - 1 do
        buffer.(i) <- getters.(i) ctx t outer
      done;
      buffer
    in
    match s.kind with
    | Exists ->
        fun ctx t outer ->
          truth (not (Relation.is_empty (b.materialize ctx (binding ctx t outer))))
    | Scalar -> fun ctx t outer -> scalar_value (b.materialize ctx (binding ctx t outer))
    | AnyOp (op, lhs) ->
        let clhs = compile_expr lx at ?offs cenv lhs in
        fun ctx t outer ->
          Sem.any_of_summary op (clhs ctx t outer) (b.summary ctx (binding ctx t outer))
    | AllOp (op, lhs) ->
        let clhs = compile_expr lx at ?offs cenv lhs in
        fun ctx t outer ->
          Sem.all_of_summary op (clhs ctx t outer) (b.summary ctx (binding ctx t outer))

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
      let senv = vin.v_schema :: cenv in
      let at = owner lx here q in
      let sl =
        {
          s_here = here;
          s_tests = layouts (fun offs -> compile_pred lx at ?offs senv cond);
          s_keep = [||];
          s_row = [||];
        }
      in
      { v_schema = vin.v_schema; v_run = (fun rt -> select_batches sl rt (vin.v_run rt)) }
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
                      (eval_row kexprs rt.cctx t rt.renv, t)
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
  | None ->
      (* Items are evaluated per row, in item order, as the reference
         walker evaluates them. *)
      let at = owner lx here q in
      let pj =
        {
          p_items =
            layouts (fun offs ->
                Array.of_list (List.map (fun (e, _) -> compile_expr lx at ?offs ienv e) cols));
          p_row = [||];
        }
      in
      {
        v_schema = out_schema;
        v_run =
          (fun rt ->
            let acc = ref [] and n = ref 0 in
            List.iter
              (fun b ->
                Guard.tick here;
                project_rows pj rt acc b;
                n := !n + Vector.length b)
              (vin.v_run rt);
            if distinct then distinct_rows (List.rev !acc) else chunk_rev out_schema !n !acc);
      }

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
    (* the pair tests read the right row under the left row's frame *)
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
  let ce = compile_expr (lx_of db) [ ([], [ e ]) ] (List.map fst env) e in
  match List.map snd env with
  | t :: outer -> ce (mk_ctx db) t outer
  | [] -> ce (mk_ctx db) [||] []
