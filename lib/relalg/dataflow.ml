(** Plan dataflow: a bottom-up fact framework over {!Algebra.query}.

    The framework runs per-operator transfer functions over a plan,
    memoizing facts per physical subplan (the provenance rewriter shares
    subtrees — e.g. [Csub+] embeds the original sublink query both under
    its [EXISTS] member test and its empty-case — so plans are DAGs, not
    trees). Facts are propagated {e sublink-aware}: when a transfer
    function meets a sublink inside a condition or projection it analyses
    the sublink query under an environment extended with the operator's
    input fact, so correlated references resolve to facts of the scope
    that binds them, exactly mirroring the evaluator's scoping rules.

    Queries are structurally acyclic, so the fixpoint of the transfer
    functions degenerates to a single bottom-up pass. A subplan's fact
    reads its environment only through the facts of its free names, so
    a subplan reached again under another environment keeps its
    memoized fact when those reads are equal. Otherwise it is
    re-analysed and the lattice [join] widens the memoized fact to cover
    both environments (a sound over-approximation for the may-facts
    computed here).

    Three client analyses are provided:
    - {b nullability} — per-attribute maybe-null flags, modelling the
      null introduction of left outer joins (Left/Move rewrites) and of
      Gen's all-NULL [CrossBase] extension tuple;
    - {b attribute lineage} — which base-relation columns each output
      attribute transitively depends on;
    - {b cardinality} — zero/one/many row-count intervals per subplan.

    Every transfer function is total: unknown relations or unresolvable
    attributes yield top elements (maybe-null, empty lineage, unbounded
    cardinality) instead of raising, so the analyses can run on the same
    broken plans the linter tolerates. *)

open Algebra

(** Sets of [(relation, column)] provenance sources. *)
module Deps = Set.Make (struct
  type t = string * string

  let compare = Stdlib.compare
end)

(** {1 Fact lattices} *)

type null_fact = {
  n_names : string list;  (** output attribute names, in schema order *)
  n_maybe : bool list;  (** pointwise: may this attribute be NULL? *)
}

type lin_fact = {
  l_names : string list;
  l_deps : Deps.t list;  (** pointwise base-column dependency sets *)
}

type bound = Fin of int | Inf

type card = { c_lo : int; c_hi : bound }
(** Row-count interval; [c_lo] is clamped to {0, 1} (zero/one/many). *)

let card_top = { c_lo = 0; c_hi = Inf }
let card_exactly n = { c_lo = (if n = 0 then 0 else 1); c_hi = Fin n }

let bound_min a b =
  match (a, b) with
  | Inf, x | x, Inf -> x
  | Fin a, Fin b -> Fin (min a b)

let bound_max a b =
  match (a, b) with
  | Inf, _ | _, Inf -> Inf
  | Fin a, Fin b -> Fin (max a b)

let bound_add a b =
  match (a, b) with Fin a, Fin b -> Fin (a + b) | _ -> Inf

let bound_mul a b =
  match (a, b) with
  | Fin 0, _ | _, Fin 0 -> Fin 0
  | Fin a, Fin b -> Fin (a * b)
  | _ -> Inf

let pp_bound ppf = function
  | Fin n -> Format.pp_print_int ppf n
  | Inf -> Format.pp_print_string ppf "*"

let pp_card ppf c = Format.fprintf ppf "%d..%a" c.c_lo pp_bound c.c_hi

(** {1 The generic engine} *)

(** A client analysis: one lattice of per-subplan facts plus a transfer
    function. [transfer] receives the already-computed facts of the
    operator's direct input queries and a [recurse] callback for
    analysing sublink queries under an extended environment. [lookup]
    is what a transfer reads of the environment for one name, so equal
    reads for every free name of a subplan give it the same fact. *)
module type DOMAIN = sig
  type fact
  type col

  val lookup : fact list -> string -> col
  val same_col : col -> col -> bool
  val join : fact -> fact -> fact
  (** Widen two facts for the same physical subplan reached under
      different correlation environments. *)

  val transfer :
    Database.t ->
    frees:Scope.memo ->
    recurse:(env:fact list -> query -> fact) ->
    env:fact list ->
    inputs:fact list ->
    query ->
    fact
end

module Engine (D : DOMAIN) : sig
  type t

  val create : ?frees:Scope.memo -> Database.t -> t
  val query : t -> ?env:D.fact list -> query -> D.fact
  val transfers : unit -> int
end = struct
  (* Memoization is keyed on physical node identity: a hash of the
     node's bounded prefix narrows the bucket, pointer equality
     decides. *)
  type t = {
    db : Database.t;
    frees : Scope.memo;
    memo : (D.fact list * D.fact) Qtbl.t;
  }

  let create ?(frees = Scope.memo ()) db = { db; frees; memo = Qtbl.create 64 }

  (* Transfers run by the engines of this analysis on the calling
     domain: a domain-local count, so concurrent sessions never contend
     for it. *)
  let count = Domain.DLS.new_key (fun () -> ref 0)
  let transfers () = !(Domain.DLS.get count)

  let same_env a b =
    List.length a = List.length b && List.for_all2 ( == ) a b

  (* [q]'s fact reads [env] only where a free name of [q] resolves, so
     [q] analysed under [env0] needs no second transfer under [env]
     when every free name reads the same there. The memo keeps [env0]:
     the reads of [q]'s subplans agree between the two as well. A plan
     whose free names cannot be computed (an unknown relation) is
     re-analysed. *)
  let same_reads t q env0 env =
    match Scope.body_frees t.frees t.db q with
    | frees ->
        List.for_all (fun n -> D.same_col (D.lookup env0 n) (D.lookup env n)) frees
    | exception _ -> false

  let rec query t ?(env = []) q =
    match Qtbl.find t.memo q with
    | env0, fact when same_env env0 env || same_reads t q env0 env -> fact
    | exception Not_found -> transfer t env q None
    | entry -> transfer t env q (Some entry)

  (* [previous]: the memo entry of [q] whose reads differ, which the
     new fact widens *)
  and transfer t env q previous =
    incr (Domain.DLS.get count);
    let recurse ~env q = query t ~env q in
    let inputs = List.map (fun i -> query t ~env i) (inputs q) in
    let fact = D.transfer t.db ~frees:t.frees ~recurse ~env ~inputs q in
    let fact =
      match previous with
      | Some (_, f0) -> D.join f0 fact
      | None -> fact
    in
    Qtbl.replace t.memo q (env, fact);
    fact
end

(* Shared helpers *)

let rec column name names cols =
  match names with
  | [] -> raise Not_found
  | n :: ns -> (
      if String.equal n name then
        match cols with c :: _ -> c | [] -> failwith "nth"
      else match cols with _ :: cs -> column name ns cs | [] -> column name ns [])

(* Combine two pointwise fact lists even when a broken plan makes the
   arities disagree: missing positions default to [top]. *)
let map2_padded f top a b =
  let rec go a b =
    match (a, b) with
    | [], [] -> []
    | x :: xs, y :: ys -> f x y :: go xs ys
    | x :: xs, [] -> f x top :: go xs []
    | [], y :: ys -> f top y :: go [] ys
  in
  go a b

(** {1 Nullability} *)

module Null_domain = struct
  type fact = null_fact
  type col = bool

  let join a b =
    { a with n_maybe = map2_padded ( || ) true a.n_maybe b.n_maybe }

  let concat a b =
    { n_names = a.n_names @ b.n_names; n_maybe = a.n_maybe @ b.n_maybe }

  let lookup env name =
    let rec go = function
      | [] -> true (* unknown attribute: conservatively maybe-null *)
      | f :: rest -> (
          match column name f.n_names f.n_maybe with
          | c -> c
          | exception Not_found -> go rest)
    in
    go env

  let same_col = Bool.equal

  (* Maybe-null of an expression under [env] (innermost fact first).
     [recurse] analyses sublink queries under the same environment. *)
  let rec expr ~recurse ~env e =
    let nullable e = expr ~recurse ~env e in
    match e with
    | Const v -> Value.is_null v
    | TypedNull _ -> true
    | Attr n -> lookup env n
    | Binop (_, a, b) -> nullable a || nullable b
    | Cmp (EqNull, _, _) -> false (* =n is two-valued by construction *)
    | Cmp (_, a, b) -> nullable a || nullable b
    | And (a, b) | Or (a, b) -> nullable a || nullable b
    | Not a -> nullable a
    | IsNull _ -> false
    | Case (whens, els) ->
        (match els with None -> true | Some e -> nullable e)
        || List.exists (fun (_, v) -> nullable v) whens
    | Like (a, _) -> nullable a
    | InList (a, es) -> nullable a || List.exists nullable es
    | FunCall _ -> true (* unknown builtin: conservative *)
    | Sublink s -> (
        match s.kind with
        | Exists -> false
        | Scalar -> (
            (* NULL on empty result — except an argument-less GROUP BY
               collapse, which returns exactly one row, so only the
               aggregate column's own nullability remains (count: never
               NULL; min/max/sum: NULL on empty input, which their
               transfer already reports) *)
            match s.query with
            | Agg { group_by = []; _ } ->
                List.exists Fun.id (recurse ~env s.query).n_maybe
            | _ -> true)
        | AnyOp (_, lhs) | AllOp (_, lhs) ->
            (* three-valued quantified comparison: NULL only if some
               comparison is NULL, i.e. an operand may be NULL *)
            nullable lhs
            || List.exists Fun.id (recurse ~env s.query).n_maybe)

  let base_fact db name =
    match Database.find_opt db name with
    | None -> { n_names = []; n_maybe = [] }
    | Some r ->
        {
          n_names = Schema.names (Relation.schema r);
          n_maybe = Array.to_list (Relation.nullable_columns r);
        }

  let relation_fact r =
    {
      n_names = Schema.names (Relation.schema r);
      n_maybe = Array.to_list (Relation.nullable_columns r);
    }

  let transfer db ~frees:_ ~recurse ~env ~inputs q =
    let input_fact () =
      match inputs with
      | [] -> { n_names = []; n_maybe = [] }
      | [ f ] -> f
      | f :: rest -> List.fold_left concat f rest
    in
    match q with
    | Base name -> base_fact db name
    | TableExpr r -> relation_fact r
    | Select (_, _) | Order (_, _) | Limit (_, _) -> input_fact ()
    | Project p ->
        let env = input_fact () :: env in
        {
          n_names = List.map snd p.cols;
          n_maybe = List.map (fun (e, _) -> expr ~recurse ~env e) p.cols;
        }
    | Cross (_, _) | Join (_, _, _) -> input_fact ()
    | LeftJoin (_, _, _) -> (
        match inputs with
        | [ a; b ] ->
            (* unmatched left rows pad the right side with NULLs *)
            concat a { b with n_maybe = List.map (fun _ -> true) b.n_maybe }
        | _ -> input_fact ())
    | Agg a ->
        let genv = input_fact () :: env in
        let group_maybe =
          List.map (fun (e, _) -> expr ~recurse ~env:genv e) a.group_by
        in
        let agg_maybe =
          List.map
            (fun c ->
              (* count never yields NULL; other aggregates do on empty or
                 all-NULL groups *)
              not (String.equal c.agg_func "count"))
            a.aggs
        in
        {
          n_names = List.map snd a.group_by @ List.map (fun c -> c.agg_name) a.aggs;
          n_maybe = group_maybe @ agg_maybe;
        }
    | Union (_, _, _) -> (
        match inputs with
        | [ a; b ] -> { a with n_maybe = map2_padded ( || ) true a.n_maybe b.n_maybe }
        | _ -> input_fact ())
    | Inter (_, _, _) -> (
        match inputs with
        (* an intersection tuple occurs in both sides, so a NULL in the
           result needs a NULL in each *)
        | [ a; b ] -> { a with n_maybe = map2_padded ( && ) true a.n_maybe b.n_maybe }
        | _ -> input_fact ())
    | Diff (_, _, _) -> (
        match inputs with [ a; _ ] -> a | _ -> input_fact ())
end

module Null_engine = Engine (Null_domain)

(** {1 Attribute lineage} *)

module Lin_domain = struct
  type fact = lin_fact
  type col = Deps.t

  let join a b =
    { a with l_deps = map2_padded Deps.union Deps.empty a.l_deps b.l_deps }

  let concat a b =
    { l_names = a.l_names @ b.l_names; l_deps = a.l_deps @ b.l_deps }

  let lookup env name =
    let rec go = function
      | [] -> Deps.empty (* unknown attribute: no traceable sources *)
      | f :: rest -> (
          match column name f.l_names f.l_deps with
          | c -> c
          | exception Not_found -> go rest)
    in
    go env

  let same_col = Deps.equal

  (* Base columns an expression's value depends on. A quantified or
     scalar sublink contributes the lineage of its output column(s);
     EXISTS contributes none (its value reflects presence, not values). *)
  let rec expr ~recurse ~env e =
    let deps e = expr ~recurse ~env e in
    match e with
    | Const _ | TypedNull _ -> Deps.empty
    | Attr n -> lookup env n
    | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
        Deps.union (deps a) (deps b)
    | Not a | IsNull a | Like (a, _) -> deps a
    | Case (whens, els) ->
        let acc =
          List.fold_left
            (fun acc (c, v) -> Deps.union acc (Deps.union (deps c) (deps v)))
            Deps.empty whens
        in
        Option.fold ~none:acc ~some:(fun e -> Deps.union acc (deps e)) els
    | InList (a, es) ->
        List.fold_left (fun acc e -> Deps.union acc (deps e)) (deps a) es
    | FunCall (_, es) ->
        List.fold_left (fun acc e -> Deps.union acc (deps e)) Deps.empty es
    | Sublink s -> (
        let sub () =
          let f = recurse ~env s.query in
          List.fold_left Deps.union Deps.empty f.l_deps
        in
        match s.kind with
        | Exists -> Deps.empty
        | Scalar -> sub ()
        | AnyOp (_, lhs) | AllOp (_, lhs) -> Deps.union (deps lhs) (sub ()))

  let transfer db ~frees:_ ~recurse ~env ~inputs q =
    let input_fact () =
      match inputs with
      | [] -> { l_names = []; l_deps = [] }
      | [ f ] -> f
      | f :: rest -> List.fold_left concat f rest
    in
    match q with
    | Base name -> (
        match Database.find_opt db name with
        | None -> { l_names = []; l_deps = [] }
        | Some r ->
            let names = Schema.names (Relation.schema r) in
            {
              l_names = names;
              l_deps = List.map (fun n -> Deps.singleton (name, n)) names;
            })
    | TableExpr r ->
        let names = Schema.names (Relation.schema r) in
        { l_names = names; l_deps = List.map (fun _ -> Deps.empty) names }
    | Select (_, _) | Order (_, _) | Limit (_, _) -> input_fact ()
    | Project p ->
        let env = input_fact () :: env in
        {
          l_names = List.map snd p.cols;
          l_deps = List.map (fun (e, _) -> expr ~recurse ~env e) p.cols;
        }
    | Cross (_, _) | Join (_, _, _) | LeftJoin (_, _, _) -> input_fact ()
    | Agg a ->
        let genv = input_fact () :: env in
        let group_deps =
          List.map (fun (e, _) -> expr ~recurse ~env:genv e) a.group_by
        in
        let agg_deps =
          List.map
            (fun c ->
              match c.agg_arg with
              | None -> Deps.empty (* COUNT( * ) *)
              | Some e -> expr ~recurse ~env:genv e)
            a.aggs
        in
        {
          l_names = List.map snd a.group_by @ List.map (fun c -> c.agg_name) a.aggs;
          l_deps = group_deps @ agg_deps;
        }
    | Union (_, _, _) -> (
        match inputs with
        | [ a; b ] ->
            { a with l_deps = map2_padded Deps.union Deps.empty a.l_deps b.l_deps }
        | _ -> input_fact ())
    | Inter (_, _, _) | Diff (_, _, _) -> (
        (* result tuples are drawn from the left input *)
        match inputs with [ a; _ ] -> a | _ -> input_fact ())
end

module Lin_engine = Engine (Lin_domain)

(** {1 Cardinality} *)

module Card_domain = struct
  type fact = card

  (* a cardinality reads nothing of its environment *)
  type col = unit

  let lookup _ _ = ()
  let same_col () () = true

  let join a b =
    { c_lo = min a.c_lo b.c_lo; c_hi = bound_max a.c_hi b.c_hi }

  let transfer db ~frees:_ ~recurse:_ ~env:_ ~inputs q =
    let one () = match inputs with [ f ] -> f | _ -> card_top in
    let two () = match inputs with [ a; b ] -> (a, b) | _ -> (card_top, card_top) in
    match q with
    | Base name -> (
        match Database.find_opt db name with
        | None -> card_top
        | Some r -> card_exactly (Relation.cardinality r))
    | TableExpr r -> card_exactly (Relation.cardinality r)
    | Select (_, _) -> { (one ()) with c_lo = 0 }
    (* bag projection preserves cardinality; DISTINCT only shrinks, and
       a nonempty input stays nonempty, so the interval carries over *)
    | Project _ -> one ()
    | Cross (_, _) ->
        let a, b = two () in
        { c_lo = min a.c_lo b.c_lo; c_hi = bound_mul a.c_hi b.c_hi }
    | Join (_, _, _) ->
        let a, b = two () in
        { c_lo = 0; c_hi = bound_mul a.c_hi b.c_hi }
    | LeftJoin (_, _, _) ->
        let a, b = two () in
        (* every left row survives at least once *)
        { c_lo = a.c_lo; c_hi = bound_mul a.c_hi (bound_max (Fin 1) b.c_hi) }
    | Agg a ->
        if a.group_by = [] then { c_lo = 1; c_hi = Fin 1 }
          (* no GROUP BY: exactly one row, even on empty input *)
        else one ()
    | Union (_, _, _) ->
        let a, b = two () in
        { c_lo = min 1 (a.c_lo + b.c_lo); c_hi = bound_add a.c_hi b.c_hi }
    | Inter (_, _, _) ->
        let a, b = two () in
        { c_lo = 0; c_hi = bound_min a.c_hi b.c_hi }
    | Diff (_, _, _) ->
        let a, _ = two () in
        { c_lo = 0; c_hi = a.c_hi }
    | Order (_, _) -> one ()
    | Limit (n, _) ->
        let f = one () in
        {
          c_lo = (if n = 0 then 0 else min f.c_lo 1);
          c_hi = bound_min (Fin n) f.c_hi;
        }
end

module Card_engine = Engine (Card_domain)

(** {1 Combined analysis handle} *)

type t = {
  db : Database.t;
  nulls : Null_engine.t;
  lins : Lin_engine.t;
  cards : Card_engine.t;
}

let create db =
  {
    db;
    nulls = Null_engine.create db;
    lins = Lin_engine.create db;
    cards = Card_engine.create db;
  }

let nullability t ?(env = []) q = Null_engine.query t.nulls ~env q
let lineage t ?(env = []) q = Lin_engine.query t.lins ~env q
let cardinality t q = Card_engine.query t.cards q

let expr_nullable t ~env e =
  Null_domain.expr ~recurse:(fun ~env q -> Null_engine.query t.nulls ~env q) ~env e

let expr_lineage t ~env e =
  Lin_domain.expr ~recurse:(fun ~env q -> Lin_engine.query t.lins ~env q) ~env e

let concat_null = Null_domain.concat
let concat_lin = Lin_domain.concat

let attr_nullable f name =
  match column name f.n_names f.n_maybe with c -> c | exception Not_found -> true

let attr_deps f name =
  match column name f.l_names f.l_deps with
  | c -> c
  | exception Not_found -> Deps.empty

(** {1 Per-operator fact dump} *)

let op_name = function
  | TableExpr r -> Printf.sprintf "TableExpr[%d]" (Relation.cardinality r)
  | Project { distinct = true; _ } -> "Project distinct"
  | Limit (n, _) -> Printf.sprintf "Limit(%d)" n
  | q -> Path.label q

let deps_to_string deps =
  match Deps.elements deps with
  | [] -> "-"
  | elems ->
      "{"
      ^ String.concat ", " (List.map (fun (r, c) -> r ^ "." ^ c) elems)
      ^ "}"

(** [dump t q] renders every operator of [q] (sublink queries included)
    with its cardinality interval and, per output attribute, the
    maybe-null flag and base-column lineage. *)
let dump t q =
  let buf = Buffer.create 1024 in
  let rec walk indent ~nenv ~lenv q =
    let pad = String.make indent ' ' in
    let nf = nullability t ~env:nenv q in
    let lf = lineage t ~env:lenv q in
    let c = cardinality t q in
    Buffer.add_string buf
      (Format.asprintf "%s%s  rows %a\n" pad (op_name q) pp_card c);
    List.iteri
      (fun i name ->
        let maybe = try List.nth nf.n_maybe i with _ -> true in
        let deps = try List.nth lf.l_deps i with _ -> Deps.empty in
        Buffer.add_string buf
          (Printf.sprintf "%s  %-24s %-9s %s\n" pad name
             (if maybe then "null?" else "not-null")
             (deps_to_string deps)))
      nf.n_names;
    let children = inputs q in
    let child_nf =
      List.fold_left
        (fun acc i -> Null_domain.concat acc (nullability t ~env:nenv i))
        { n_names = []; n_maybe = [] }
        children
    in
    let child_lf =
      List.fold_left
        (fun acc i -> Lin_domain.concat acc (lineage t ~env:lenv i))
        { l_names = []; l_deps = [] }
        children
    in
    List.iteri
      (fun k s ->
        let kind =
          match s.kind with
          | Exists -> "exists"
          | Scalar -> "scalar"
          | AnyOp (_, _) -> "any"
          | AllOp (_, _) -> "all"
        in
        Buffer.add_string buf
          (Printf.sprintf "%s  %s %s:\n" pad (Path.segment (k + 1)) kind);
        walk (indent + 4)
          ~nenv:(child_nf :: nenv)
          ~lenv:(child_lf :: lenv)
          s.query)
      (List.concat_map sublinks_of_expr (root_exprs q));
    List.iter (walk (indent + 2) ~nenv ~lenv) children
  in
  walk 0 ~nenv:[] ~lenv:[] q;
  Buffer.contents buf
