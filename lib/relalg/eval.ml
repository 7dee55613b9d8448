(** Evaluation entry points and the reference tree-walking evaluator
    for the extended algebra of Figure 1.

    Two engines implement the same semantics:

    - the {e vectorized} engine ({!Vexec}), the only production
      engine, lowers the plan once into batch kernels and
      offset-resolved closures and only moves values at run time;
      {!query}, {!query_stats} and {!expr} run it;
    - the {e reference} engine (this module's tree walker) interprets
      the AST per tuple, resolving attributes by name. It is the
      executable specification the vectorized engine is
      property-tested against, reachable only through
      {!query_reference}, {!query_stats_reference} and
      {!expr_reference}.

    Design points that matter for reproducing the paper's performance
    shape (these mirror what PostgreSQL gives the original Perm, and
    hold for both engines):
    - equi-join conjuncts (including the null-aware [=n]) are executed
      as hash joins;
    - sublink results are memoized per binding of their correlated
      attributes (PostgreSQL's hashed/materialized subplans);
    - [ANY]/[ALL] sublinks are answered from a constant-size summary
      (value set, min/max, null flags) instead of re-scanning the
      materialized sublink;
    - a selection directly above a cross product is evaluated as a join,
      streaming pairs instead of materializing the product.

    Everything else is naive: cross products enumerate, non-equi joins
    are nested loops — which is exactly why the Gen strategy's
    [CrossBase] plans are expensive here, as they are in the paper. *)

open Algebra

exception Eval_error = Sem.Eval_error

let eval_error fmt = Sem.eval_error fmt

(** {1 Environments} *)

type frame = { f_schema : Schema.t; f_tuple : Tuple.t }

type env = frame list

let frame schema tuple = { f_schema = schema; f_tuple = tuple }
let schemas_of_env env = List.map (fun f -> f.f_schema) env

(** [lookup env name] resolves an attribute innermost-first. *)
let lookup (env : env) name =
  let rec go = function
    | [] -> eval_error "unknown attribute %S at evaluation time" name
    | f :: rest -> (
        match Schema.find f.f_schema name with
        | Some i -> Tuple.get f.f_tuple i
        | None -> go rest)
  in
  go env

(** {1 Shared semantics} — re-exported from {!Sem} so existing callers
    keep their [Eval.]-qualified names. *)

let cmp3 = Sem.cmp3
let naive_any = Sem.naive_any
let naive_all = Sem.naive_all

type summary = Sem.summary

let summarize = Sem.summarize
let any_of_summary = Sem.any_of_summary
let all_of_summary = Sem.all_of_summary

type stats = Sem.stats = {
  mutable st_hash_joins : int;
  mutable st_nested_loop_joins : int;
  mutable st_nested_pairs : int;
  mutable st_sublink_evals : int;
  mutable st_sublink_hits : int;
  mutable st_rows_emitted : int;
}

let fresh_stats = Sem.fresh_stats
let stats_to_string = Sem.stats_to_string

(** {1 Evaluation context} *)

type ctx = {
  db : Database.t;
  sub_results : (int * Value.t list, Relation.t) Hashtbl.t;
  sub_summaries : (int * Value.t list, summary) Hashtbl.t;
  stats : stats;
  mutable cur_subs : (Path.t * expr list) list;
      (** the operators whose expressions are being evaluated, with
          their paths: where {!Path.locate} finds a sublink's body path *)
}

let mk_ctx db =
  {
    db;
    sub_results = Hashtbl.create 64;
    sub_summaries = Hashtbl.create 64;
    stats = fresh_stats ();
    cur_subs = [];
  }

(* Computed per occurrence, not cached per [s.id]: the optimizer's
   context-sensitive rules (e.g. unsat-fold under implied predicates)
   can rewrite one occurrence of a duplicated sublink body while an
   equivalent same-id copy elsewhere keeps its correlated form. The
   vectorized engine resolves each occurrence's free variables at
   lowering time, so the reference evaluator must key its memo the same
   way or the two engines' eval/hit counters drift apart. *)
let free_names ctx (s : sublink) = Scope.free_of_query ctx.db s.query

(** {1 Expression evaluation (reference engine)} *)

let rec eval_expr ctx (env : env) (e : expr) : Value.t =
  match e with
  | Const v -> v
  | TypedNull _ -> Value.Null
  | Attr name -> lookup env name
  | Binop (op, a, b) -> (
      let va = eval_expr ctx env a and vb = eval_expr ctx env b in
      match op with
      | Add -> Value.add va vb
      | Sub -> Value.sub va vb
      | Mul -> Value.mul va vb
      | Div -> Value.div va vb
      | Mod -> Value.modulo va vb
      | Concat -> Value.concat va vb)
  | Cmp (op, a, b) -> cmp3 op (eval_expr ctx env a) (eval_expr ctx env b)
  | And (a, b) ->
      let va = eval_expr ctx env a in
      if Value.is_false va then Value.vfalse else Value.and3 va (eval_expr ctx env b)
  | Or (a, b) ->
      let va = eval_expr ctx env a in
      if Value.is_true va then Value.vtrue else Value.or3 va (eval_expr ctx env b)
  | Not a -> Value.not3 (eval_expr ctx env a)
  | IsNull a -> Value.Bool (Value.is_null (eval_expr ctx env a))
  | Case (whens, els) -> (
      let rec go = function
        | (c, e) :: rest ->
            if Value.is_true (eval_expr ctx env c) then eval_expr ctx env e
            else go rest
        | [] -> ( match els with Some e -> eval_expr ctx env e | None -> Value.Null)
      in
      go whens)
  | Like (a, pattern) -> (
      match eval_expr ctx env a with
      | Value.Null -> Value.Null
      | Value.String s -> Value.Bool (Builtin.like_match ~pattern s)
      | v -> eval_error "LIKE over non-string %s" (Value.to_string v))
  | InList (a, es) ->
      let x = eval_expr ctx env a in
      let rec go acc = function
        | [] -> acc
        | e :: rest ->
            let r = cmp3 Eq x (eval_expr ctx env e) in
            if Value.is_true r then Value.vtrue else go (Value.or3 acc r) rest
      in
      go Value.vfalse es
  | FunCall (name, args) ->
      if Builtin.is_aggregate name then
        eval_error "aggregate function %s in scalar context" name
      else Builtin.apply_scalar name (List.map (eval_expr ctx env) args)
  | Sublink s -> eval_sublink ctx env s

and eval_sublink ctx env (s : sublink) : Value.t =
  let key = (s.id, List.map (lookup env) (free_names ctx s)) in
  match s.kind with
  | Exists -> Value.Bool (not (Relation.is_empty (materialize ctx env key s)))
  | Scalar -> (
      let rel = materialize ctx env key s in
      match Relation.tuples rel with
      | [] -> Value.Null
      | [ t ] -> Tuple.get t 0
      | _ -> eval_error "scalar sublink returned more than one row")
  | AnyOp (op, lhs) ->
      any_of_summary op (eval_expr ctx env lhs) (summary ctx env key s)
  | AllOp (op, lhs) ->
      all_of_summary op (eval_expr ctx env lhs) (summary ctx env key s)

and materialize ctx env key (s : sublink) : Relation.t =
  match Hashtbl.find_opt ctx.sub_results key with
  | Some rel ->
      ctx.stats.st_sublink_hits <- ctx.stats.st_sublink_hits + 1;
      rel
  | None ->
      ctx.stats.st_sublink_evals <- ctx.stats.st_sublink_evals + 1;
      let saved = ctx.cur_subs in
      let spath = Path.locate saved s in
      Guard.Faults.fire_point Guard.Faults.Sublink spath;
      let rel = eval_query ctx spath env s.query in
      ctx.cur_subs <- saved;
      Hashtbl.add ctx.sub_results key rel;
      rel

and summary ctx env key s : summary =
  match Hashtbl.find_opt ctx.sub_summaries key with
  | Some sm -> sm
  | None ->
      let rel = materialize ctx env key s in
      let sm =
        summarize (List.map (fun t -> Tuple.get t 0) (Relation.tuples rel))
      in
      Hashtbl.add ctx.sub_summaries key sm;
      sm

(** {1 Query evaluation (reference engine)} *)

and eval_query ctx path (env : env) (q : query) : Relation.t =
  let here = Path.here path q in
  let child ?(side = Path.Input) i =
    eval_query ctx (Path.child path q side) env i
  in
  let own () = ctx.cur_subs <- [ (here, root_exprs q) ] in
  Guard.tick here;
  let rel =
    match q with
    | Base name ->
        Guard.Faults.fire_point Guard.Faults.Scan here;
        Database.find ctx.db name
    | TableExpr rel ->
        Guard.Faults.fire_point Guard.Faults.Scan here;
        rel
    (* Fuse a selection over a product/join so pairs stream instead of
       the product being materialized first. *)
    | Select (_, (Cross _ | Join _)) | Join _ | LeftJoin _ ->
        eval_join ctx env (Option.get (Sem.join_of ~paths:true path q))
    | Select (cond, input) ->
        let rel = child input in
        let schema = Relation.schema rel in
        own ();
        let keep =
          List.filter
            (fun t ->
              Guard.tick here;
              Value.is_true (eval_expr ctx (frame schema t :: env) cond))
            (Relation.tuples rel)
        in
        Relation.make schema keep
    | Project { distinct; cols; proj_input } ->
        let rel = child proj_input in
        let in_schema = Relation.schema rel in
        let out_schema =
          Typecheck.projection_schema ctx.db (in_schema :: schemas_of_env env) cols
        in
        let exprs = List.map fst cols in
        own ();
        let rows =
          List.map
            (fun t ->
              Guard.tick here;
              let fenv = frame in_schema t :: env in
              Tuple.of_list (List.map (eval_expr ctx fenv) exprs))
            (Relation.tuples rel)
        in
        let out = Relation.make out_schema rows in
        if distinct then Relation.distinct out else out
    | Cross (a, b) ->
        Guard.Faults.fire_point Guard.Faults.Join here;
        let ra = child ~side:Path.Left a and rb = child ~side:Path.Right b in
        if Guard.is_active () then begin
          let ca = Relation.cardinality ra and cb = Relation.cardinality rb in
          Guard.cross_guard here ~left:ca ~right:cb;
          Guard.count_pairs here (ca * cb)
        end;
        let schema = Schema.concat (Relation.schema ra) (Relation.schema rb) in
        let rows =
          List.concat_map
            (fun ta ->
              List.map
                (fun tb ->
                  Guard.tick here;
                  Tuple.concat ta tb)
                (Relation.tuples rb))
            (Relation.tuples ra)
        in
        Relation.make schema rows
    | Agg spec -> eval_agg ctx here env spec
    | Union (sem, a, b) ->
        let op = match sem with Bag -> Relation.union_bag | SetSem -> Relation.union_set in
        op (child ~side:Path.Left a) (child ~side:Path.Right b)
    | Inter (sem, a, b) ->
        let op = match sem with Bag -> Relation.inter_bag | SetSem -> Relation.inter_set in
        op (child ~side:Path.Left a) (child ~side:Path.Right b)
    | Diff (sem, a, b) ->
        let op = match sem with Bag -> Relation.diff_bag | SetSem -> Relation.diff_set in
        op (child ~side:Path.Left a) (child ~side:Path.Right b)
    | Order (keys, input) ->
        let rel = child input in
        let schema = Relation.schema rel in
        own ();
        let decorated =
          List.map
            (fun t ->
              Guard.tick here;
              let fenv = frame schema t :: env in
              (List.map (fun (e, d) -> (eval_expr ctx fenv e, d)) keys, t))
            (Relation.tuples rel)
        in
        let cmp (ka, _) (kb, _) =
          let rec go = function
            | [] -> 0
            | ((va, d), (vb, _)) :: rest ->
                let c = Value.compare_total va vb in
                let c = match d with Asc -> c | Desc -> -c in
                if c <> 0 then c else go rest
          in
          go (List.combine ka kb)
        in
        Relation.make schema (List.map snd (List.stable_sort cmp decorated))
    | Limit (n, input) -> eval_limit ctx here env n input
  in
  if Guard.counts_rows () then
    Guard.count_rows here (Relation.cardinality rel);
  rel

and eval_limit ctx here env n input =
  let rel = eval_query ctx (here : string list) env input in
      (* tail-recursive: a large LIMIT must not overflow the stack *)
      let take n l =
        let rec go n acc = function
          | [] -> List.rev acc
          | _ when n = 0 -> List.rev acc
          | t :: rest -> go (n - 1) (t :: acc) rest
        in
        if n <= 0 then [] else go n [] l
      in
      Relation.make (Relation.schema rel) (take n (Relation.tuples rel))

(* ---------------- joins ---------------- *)

(* Checkpoints report at the join node's own path, also when a
   selection is fused into it. *)
and eval_join ctx env (j : Sem.join) : Relation.t =
  let here = Path.here j.j_prefix j.j_node in
  let outer = j.j_outer and cond = j.j_cond in
  Guard.Faults.fire_point Guard.Faults.Join here;
  let ra = eval_query ctx (Path.child j.j_prefix j.j_node Path.Left) env j.j_left
  and rb =
    eval_query ctx (Path.child j.j_prefix j.j_node Path.Right) env j.j_right
  in
  let sa = Relation.schema ra and sb = Relation.schema rb in
  let schema = Schema.concat sa sb in
  let pairs, residual =
    Scope.split_equi ~left:sa ~right:sb cond
  in
  ctx.cur_subs <- Sem.join_owners j here;
  let rows =
    if pairs = [] then begin
      ctx.stats.st_nested_loop_joins <- ctx.stats.st_nested_loop_joins + 1;
      let ca = Relation.cardinality ra and cb = Relation.cardinality rb in
      ctx.stats.st_nested_pairs <- ctx.stats.st_nested_pairs + (ca * cb);
      Guard.cross_guard here ~left:ca ~right:cb;
      Guard.count_pairs here (ca * cb);
      nested_loop ctx here env ~outer schema sa sb ra rb cond
    end
    else begin
      ctx.stats.st_hash_joins <- ctx.stats.st_hash_joins + 1;
      hash_join ctx here env ~outer schema sa sb ra rb pairs residual
    end
  in
  ctx.stats.st_rows_emitted <- ctx.stats.st_rows_emitted + List.length rows;
  Relation.make schema rows

and hash_join ctx path env ~outer schema sa sb ra rb pairs residual =
  let residual_cond = conj residual in
  let key_of fschema t exprs =
    let fenv = frame fschema t :: env in
    List.map (fun e -> eval_expr ctx fenv e) exprs
  in
  let left_exprs = List.map (fun (e, _, _) -> e) pairs in
  let right_exprs = List.map (fun (_, e, _) -> e) pairs in
  let safe_flags = List.map (fun (_, _, s) -> s) pairs in
  (* A NULL in a non-null-safe key position can never match. *)
  let usable key = List.for_all2 (fun v safe -> safe || not (Value.is_null v)) key safe_flags in
  let table = Tuple.Tbl.create (max 16 (Relation.cardinality rb)) in
  List.iter
    (fun tb ->
      Guard.tick path;
      let key = key_of sb tb right_exprs in
      if usable key then begin
        let k = Tuple.of_list key in
        let existing = try Tuple.Tbl.find table k with Not_found -> [] in
        Tuple.Tbl.replace table k (tb :: existing)
      end)
    (Relation.tuples rb);
  let pad = Tuple.nulls (Schema.arity sb) in
  let emit_left acc ta =
    Guard.tick path;
    let key = key_of sa ta left_exprs in
    let matches =
      if usable key then
        match Tuple.Tbl.find_opt table (Tuple.of_list key) with
        | Some tbs -> List.rev tbs
        | None -> []
      else []
    in
    let hits =
      List.filter_map
        (fun tb ->
          Guard.tick path;
          let combined = Tuple.concat ta tb in
          if Value.is_true (eval_expr ctx (frame schema combined :: env) residual_cond)
          then Some combined
          else None)
        matches
    in
    match hits with
    | [] -> if outer then Tuple.concat ta pad :: acc else acc
    | hs -> List.rev_append hs acc
  in
  List.rev (List.fold_left emit_left [] (Relation.tuples ra))

and nested_loop ctx path env ~outer schema sa sb ra rb cond =
  ignore sa;
  let pad = Tuple.nulls (Schema.arity sb) in
  ignore sb;
  let emit_left acc ta =
    let hits =
      List.filter_map
        (fun tb ->
          Guard.tick path;
          let combined = Tuple.concat ta tb in
          if Value.is_true (eval_expr ctx (frame schema combined :: env) cond) then
            Some combined
          else None)
        (Relation.tuples rb)
    in
    match hits with
    | [] -> if outer then Tuple.concat ta pad :: acc else acc
    | hs -> List.rev_append hs acc
  in
  List.rev (List.fold_left emit_left [] (Relation.tuples ra))

(* ---------------- aggregation ---------------- *)

and eval_agg ctx here env ({ group_by; aggs; agg_input } as spec) : Relation.t =
  let rel = eval_query ctx (here : string list) env agg_input in
  ctx.cur_subs <- [ (here, root_exprs (Agg spec)) ];
  let in_schema = Relation.schema rel in
  let out_schema =
    Typecheck.aggregation_schema ctx.db
      (in_schema :: schemas_of_env env)
      group_by aggs
  in
  let group_exprs = List.map fst group_by in
  let groups = Tuple.Tbl.create 64 in
  let order = ref [] in
  List.iter
    (fun t ->
      Guard.tick here;
      let fenv = frame in_schema t :: env in
      let key = Tuple.of_list (List.map (eval_expr ctx fenv) group_exprs) in
      match Tuple.Tbl.find_opt groups key with
      | Some members -> Tuple.Tbl.replace groups key (t :: members)
      | None ->
          Tuple.Tbl.add groups key [ t ];
          order := key :: !order)
    (Relation.tuples rel);
  let keys =
    if group_by = [] && Relation.is_empty rel then [ Tuple.of_list [] ]
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
        (fun call ->
          let raw =
            match call.agg_arg with
            | None -> List.map (fun _ -> Value.Int 1) members (* COUNT( * ) *)
            | Some e ->
                List.filter_map
                  (fun t ->
                    let v = eval_expr ctx (frame in_schema t :: env) e in
                    if Value.is_null v then None else Some v)
                  members
          in
          Builtin.apply_aggregate call.agg_func ~distinct:call.agg_distinct raw)
        aggs
    in
    Tuple.concat key (Tuple.of_list agg_values)
  in
  Relation.make out_schema (List.map compute_group keys)

(** {1 Public API} *)

let compile_env env = List.map (fun f -> (f.f_schema, f.f_tuple)) env

(** [query db q] executes [q] with the vectorized engine ({!Vexec};
    batch size from {!Vexec.batch_rows}) on the calling domain; [env]
    supplies outer frames for correlated evaluation. *)
let query ?(env = []) db q = Vexec.query ~env:(compile_env env) db q

(** [query_reference db q] evaluates [q] with the reference tree walker. *)
let query_reference ?(env = []) db q = eval_query (mk_ctx db) [] env q

(** [query_stats db q] additionally reports the execution counters —
    an EXPLAIN-ANALYZE-style summary of how the plan ran. *)
let query_stats ?(env = []) db q = Vexec.query_stats ~env:(compile_env env) db q

let query_stats_reference ?(env = []) db q =
  let ctx = mk_ctx db in
  let rel = eval_query ctx [] env q in
  (rel, ctx.stats)

(** [expr db e] evaluates a scalar expression with the production
    engine's expression compiler. *)
let expr ?(env = []) db e = Vexec.expr ~env:(compile_env env) db e

let expr_reference ?(env = []) db e =
  let ctx = mk_ctx db in
  ctx.cur_subs <- [ ([], [ e ]) ];
  eval_expr ctx env e
