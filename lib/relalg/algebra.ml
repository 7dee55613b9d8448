(** The extended relational algebra of Figure 1: bag operators plus
    sublinks ([ANY], [ALL], [EXISTS] and scalar subqueries) embeddable in
    selection, projection and join conditions.

    Expressions and queries are mutually recursive because a sublink
    carries a whole query. Each sublink gets a unique [id] used by the
    evaluator for (hashed-subplan style) memoization. *)

type binop = Add | Sub | Mul | Div | Mod | Concat

type cmpop =
  | Eq
  | Neq
  | Lt
  | Leq
  | Gt
  | Geq
  | EqNull  (** the null-aware [=n] comparison from Section 3.3 *)

type expr =
  | Const of Value.t
  | TypedNull of Vtype.t
      (** NULL with an explicit static type — used by the provenance
          rewrites to pad provenance attributes (e.g. set operations and
          the Gen strategy's empty-sublink case). *)
  | Attr of string
      (** Attribute reference, resolved by name against the operator's
          input schema or — for correlation — an enclosing scope. *)
  | Binop of binop * expr * expr
  | Cmp of cmpop * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | IsNull of expr
  | Case of (expr * expr) list * expr option
      (** [CASE WHEN c1 THEN e1 ... ELSE e END]; missing ELSE is NULL. *)
  | Like of expr * string  (** SQL LIKE with [%] and [_] wildcards *)
  | InList of expr * expr list  (** [e IN (e1, ..., en)] over literals *)
  | FunCall of string * expr list  (** scalar builtin function *)
  | Sublink of sublink

and sublink = {
  id : int;  (** unique id, for evaluator memoization *)
  kind : sublink_kind;
  query : query;  (** the sublink query [Tsub] *)
}

and sublink_kind =
  | Exists  (** [EXISTS Tsub] *)
  | Scalar  (** bare [Tsub]: single-column; NULL on empty result *)
  | AnyOp of cmpop * expr  (** [A op ANY Tsub]; [A] evaluated in outer scope *)
  | AllOp of cmpop * expr  (** [A op ALL Tsub] *)

and agg_call = {
  agg_func : string;  (** sum, count, avg, min, max *)
  agg_distinct : bool;
  agg_arg : expr option;  (** [None] encodes [COUNT( * )] *)
  agg_name : string;  (** output attribute name *)
}

and query =
  | Base of string  (** named relation from the database catalog *)
  | TableExpr of Relation.t  (** literal relation (test fixtures, VALUES) *)
  | Select of expr * query  (** sigma *)
  | Project of projection
  | Cross of query * query
  | Join of expr * query * query
  | LeftJoin of expr * query * query
  | Agg of aggregation
  | Union of semantics * query * query
  | Inter of semantics * query * query
  | Diff of semantics * query * query
  | Order of (expr * direction) list * query
  | Limit of int * query

and projection = {
  distinct : bool;  (** true = set projection, false = bag projection *)
  cols : (expr * string) list;  (** expression and output attribute name *)
  proj_input : query;
}

and aggregation = {
  group_by : (expr * string) list;
  aggs : agg_call list;
  agg_input : query;
}

and semantics = Bag | SetSem
and direction = Asc | Desc

(** {1 Constructors} *)

let sublink_counter = ref 0

(** [mk_sublink kind query] allocates a sublink with a fresh id. *)
let mk_sublink kind query =
  incr sublink_counter;
  { id = !sublink_counter; kind; query }

let exists q = Sublink (mk_sublink Exists q)
let scalar q = Sublink (mk_sublink Scalar q)
let any_op op lhs q = Sublink (mk_sublink (AnyOp (op, lhs)) q)
let all_op op lhs q = Sublink (mk_sublink (AllOp (op, lhs)) q)

let int i = Const (Value.Int i)
let str s = Const (Value.String s)
let flt f = Const (Value.Float f)
let bool b = Const (Value.Bool b)
let attr a = Attr a
let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)
let eq a b = Cmp (Eq, a, b)
let lt a b = Cmp (Lt, a, b)
let gt a b = Cmp (Gt, a, b)

(** Conjunction of a condition list; empty list is [true]. *)
let conj = function
  | [] -> Const Value.vtrue
  | c :: cs -> List.fold_left ( &&& ) c cs

(** Split a condition into its top-level conjuncts. *)
let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | Const (Value.Bool true) -> []
  | e -> [ e ]

(** Identity projection columns for a schema (used to express renamings
    a -> pa by pairing [Attr a] with a new name). *)
let identity_cols schema = List.map (fun n -> (Attr n, n)) (Schema.names schema)

(** [project ?distinct cols q] smart constructor. *)
let project ?(distinct = false) cols q =
  Project { distinct; cols; proj_input = q }

let aggregate ~group_by ~aggs q = Agg { group_by; aggs; agg_input = q }

(** {1 Traversals} *)

(** [map_shared f l] is [List.map f l], applied left to right, and [l]
    itself when [f] returns every element physically unchanged;
    [map_fst_shared] maps the first components of pairs the same way. *)
let rec map_shared f l =
  match l with
  | [] -> l
  | x :: rest ->
      let x' = f x in
      let rest' = map_shared f rest in
      if x' == x && rest' == rest then l else x' :: rest'

let map_fst_shared f l =
  map_shared
    (fun ((x, y) as p) ->
      let x' = f x in
      if x' == x then p else (x', y))
    l

(** [map_expr_query f e] rebuilds [e], applying [f] to every embedded
    sublink query (outermost sublinks only; [f] may recurse itself).
    [f] is applied in {!sublinks_of_expr} order — the path-carrying
    rewrite passes rely on this to number sublinks the way [Lint]
    does — hence the explicit sequencing below (OCaml constructor
    argument evaluation order is unspecified). A node whose parts all
    come back physically unchanged is returned itself. *)
let rec map_expr_query f e =
  match e with
  | Const _ | TypedNull _ | Attr _ -> e
  | Binop (op, a, b) ->
      let a' = map_expr_query f a in
      let b' = map_expr_query f b in
      if a' == a && b' == b then e else Binop (op, a', b')
  | Cmp (op, a, b) ->
      let a' = map_expr_query f a in
      let b' = map_expr_query f b in
      if a' == a && b' == b then e else Cmp (op, a', b')
  | And (a, b) ->
      let a' = map_expr_query f a in
      let b' = map_expr_query f b in
      if a' == a && b' == b then e else And (a', b')
  | Or (a, b) ->
      let a' = map_expr_query f a in
      let b' = map_expr_query f b in
      if a' == a && b' == b then e else Or (a', b')
  | Not a ->
      let a' = map_expr_query f a in
      if a' == a then e else Not a'
  | IsNull a ->
      let a' = map_expr_query f a in
      if a' == a then e else IsNull a'
  | Case (whens, els) ->
      let whens' =
        map_shared
          (fun ((c, x) as w) ->
            let c' = map_expr_query f c in
            let x' = map_expr_query f x in
            if c' == c && x' == x then w else (c', x'))
          whens
      in
      let els' =
        match els with
        | None -> els
        | Some x ->
            let x' = map_expr_query f x in
            if x' == x then els else Some x'
      in
      if whens' == whens && els' == els then e else Case (whens', els')
  | Like (a, pat) ->
      let a' = map_expr_query f a in
      if a' == a then e else Like (a', pat)
  | InList (a, es) ->
      let a' = map_expr_query f a in
      let es' = map_shared (map_expr_query f) es in
      if a' == a && es' == es then e else InList (a', es')
  | FunCall (name, es) ->
      let es' = map_shared (map_expr_query f) es in
      if es' == es then e else FunCall (name, es')
  | Sublink s ->
      (* the sublink's own query first: in [sublinks_of_expr] order a
         sublink precedes the sublinks inside its ANY/ALL left operand *)
      let query = f s.query in
      let kind =
        match s.kind with
        | Exists | Scalar -> s.kind
        | AnyOp (op, lhs) ->
            let lhs' = map_expr_query f lhs in
            if lhs' == lhs then s.kind else AnyOp (op, lhs')
        | AllOp (op, lhs) ->
            let lhs' = map_expr_query f lhs in
            if lhs' == lhs then s.kind else AllOp (op, lhs')
      in
      if query == s.query && kind == s.kind then e else Sublink { s with kind; query }

(** [fold_expr f acc e] folds [f] over every sub-expression of [e]
    (including [e] itself), not descending into sublink queries. *)
let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Const _ | TypedNull _ | Attr _ -> acc
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      fold_expr f (fold_expr f acc a) b
  | Not a | IsNull a | Like (a, _) -> fold_expr f acc a
  | Case (whens, els) ->
      let acc =
        List.fold_left
          (fun acc (c, x) -> fold_expr f (fold_expr f acc c) x)
          acc whens
      in
      Option.fold ~none:acc ~some:(fold_expr f acc) els
  | InList (a, es) -> List.fold_left (fold_expr f) (fold_expr f acc a) es
  | FunCall (_, es) -> List.fold_left (fold_expr f) acc es
  | Sublink s -> (
      match s.kind with
      | Exists | Scalar -> acc
      | AnyOp (_, lhs) | AllOp (_, lhs) -> fold_expr f acc lhs)

(** Top-level sublinks of an expression, left to right. Sublinks nested
    inside another sublink's query are not included — they are handled
    when the sublink query itself is rewritten (Section 2.7). *)
let sublinks_of_expr e =
  List.rev
    (fold_expr (fun acc x -> match x with Sublink s -> s :: acc | _ -> acc) [] e)

(* Whether [e] holds a sublink outside sublink bodies; allocates
   nothing. *)
let rec has_sublink = function
  | Sublink _ -> true
  | Const _ | TypedNull _ | Attr _ -> false
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) -> has_sublink a || has_sublink b
  | Not a | IsNull a | Like (a, _) -> has_sublink a
  | Case (whens, els) -> (
      List.exists (fun (c, e) -> has_sublink c || has_sublink e) whens
      || match els with Some e -> has_sublink e | None -> false)
  | InList (a, es) -> has_sublink a || List.exists has_sublink es
  | FunCall (_, es) -> List.exists has_sublink es

(** [replace_sublinks subst e] replaces each sublink (by id) with the
    expression bound to it in [subst]; used by the Move strategy to hoist
    sublinks into projections. *)
let rec replace_sublinks subst = function
  | (Const _ | TypedNull _ | Attr _) as e -> e
  | Binop (op, a, b) -> Binop (op, replace_sublinks subst a, replace_sublinks subst b)
  | Cmp (op, a, b) -> Cmp (op, replace_sublinks subst a, replace_sublinks subst b)
  | And (a, b) -> And (replace_sublinks subst a, replace_sublinks subst b)
  | Or (a, b) -> Or (replace_sublinks subst a, replace_sublinks subst b)
  | Not a -> Not (replace_sublinks subst a)
  | IsNull a -> IsNull (replace_sublinks subst a)
  | Case (whens, els) ->
      Case
        ( List.map
            (fun (c, e) -> (replace_sublinks subst c, replace_sublinks subst e))
            whens,
          Option.map (replace_sublinks subst) els )
  | Like (a, pat) -> Like (replace_sublinks subst a, pat)
  | InList (a, es) ->
      InList (replace_sublinks subst a, List.map (replace_sublinks subst) es)
  | FunCall (name, es) -> FunCall (name, List.map (replace_sublinks subst) es)
  | Sublink s -> (
      match List.assoc_opt s.id subst with
      | Some replacement -> replacement
      | None -> Sublink s)

(** [map_queries f q] applies [f] to every direct child query of [q]
    (including sublink queries inside conditions). *)
let map_queries f = function
  | (Base _ | TableExpr _) as q -> q
  | Select (c, q) -> Select (map_expr_query f c, f q)
  | Project p ->
      Project
        {
          p with
          cols = List.map (fun (e, n) -> (map_expr_query f e, n)) p.cols;
          proj_input = f p.proj_input;
        }
  | Cross (a, b) -> Cross (f a, f b)
  | Join (c, a, b) -> Join (map_expr_query f c, f a, f b)
  | LeftJoin (c, a, b) -> LeftJoin (map_expr_query f c, f a, f b)
  | Agg a ->
      Agg
        {
          group_by = List.map (fun (e, n) -> (map_expr_query f e, n)) a.group_by;
          aggs =
            List.map
              (fun c -> { c with agg_arg = Option.map (map_expr_query f) c.agg_arg })
              a.aggs;
          agg_input = f a.agg_input;
        }
  | Union (s, a, b) -> Union (s, f a, f b)
  | Inter (s, a, b) -> Inter (s, f a, f b)
  | Diff (s, a, b) -> Diff (s, f a, f b)
  | Order (keys, q) ->
      Order (List.map (fun (e, d) -> (map_expr_query f e, d)) keys, f q)
  | Limit (n, q) -> Limit (n, f q)

(** The expressions syntactically present in the root operator of [q]
    (conditions, projection columns, group/agg/order expressions), each
    named for diagnostics. This order numbers the operator's sublinks. *)
let labelled_exprs = function
  | Select (c, _) -> [ ("the selection condition", c) ]
  | Join (c, _, _) -> [ ("the join condition", c) ]
  | LeftJoin (c, _, _) -> [ ("the outer-join condition", c) ]
  | Project { cols; _ } -> List.map (fun (e, n) -> ("column " ^ n, e)) cols
  | Agg { group_by; aggs; _ } ->
      List.map (fun (e, n) -> ("group-by column " ^ n, e)) group_by
      @ List.filter_map
          (fun c ->
            Option.map (fun e -> ("the argument of " ^ c.agg_name, e)) c.agg_arg)
          aggs
  | Order (keys, _) ->
      List.mapi (fun i (e, _) -> ("order key " ^ string_of_int (i + 1), e)) keys
  | Base _ | TableExpr _ | Cross _ | Union _ | Inter _ | Diff _ | Limit _ -> []

let root_exprs = function
  | Select (c, _) | Join (c, _, _) | LeftJoin (c, _, _) -> [ c ]
  | Project { cols; _ } -> List.map fst cols
  | Agg { group_by; aggs; _ } ->
      List.map fst group_by @ List.filter_map (fun c -> c.agg_arg) aggs
  | Order (keys, _) -> List.map fst keys
  | Base _ | TableExpr _ | Cross _ | Union _ | Inter _ | Diff _ | Limit _ -> []

let root_has_sublink = function
  | Select (c, _) | Join (c, _, _) | LeftJoin (c, _, _) -> has_sublink c
  | Project { cols; _ } -> List.exists (fun (e, _) -> has_sublink e) cols
  | Agg { group_by; aggs; _ } ->
      List.exists (fun (e, _) -> has_sublink e) group_by
      || List.exists
           (fun c -> match c.agg_arg with Some e -> has_sublink e | None -> false)
           aggs
  | Order (keys, _) -> List.exists (fun (e, _) -> has_sublink e) keys
  | Base _ | TableExpr _ | Cross _ | Union _ | Inter _ | Diff _ | Limit _ -> false

(** Direct input queries of an operator, left to right (sublink queries
    excluded). *)
let inputs = function
  | Base _ | TableExpr _ -> []
  | Select (_, i) | Order (_, i) | Limit (_, i) -> [ i ]
  | Project { proj_input; _ } -> [ proj_input ]
  | Agg { agg_input; _ } -> [ agg_input ]
  | Cross (a, b)
  | Join (_, a, b)
  | LeftJoin (_, a, b)
  | Union (_, a, b)
  | Inter (_, a, b)
  | Diff (_, a, b) ->
      [ a; b ]

(** Operator paths: the one definition of how an operator is named
    (see algebra.mli). *)
module Path = struct
  type t = string list
  type side = Input | Left | Right

  let label = function
    | Base name -> "Base(" ^ name ^ ")"
    | TableExpr _ -> "Table"
    | Select _ -> "Select"
    | Project _ -> "Project"
    | Cross _ -> "Cross"
    | Join _ -> "Join"
    | LeftJoin _ -> "LeftJoin"
    | Agg _ -> "Agg"
    | Union _ -> "Union"
    | Inter _ -> "Inter"
    | Diff _ -> "Diff"
    | Order _ -> "Order"
    | Limit _ -> "Limit"

  let to_string = function [] -> "plan" | p -> String.concat "/" p
  let here prefix q = prefix @ [ label q ]

  let child prefix q side =
    let segment =
      match side with
      | Input -> label q
      | Left -> label q ^ "[left]"
      | Right -> label q ^ "[right]"
    in
    prefix @ [ segment ]

  let segment k = "sublink[" ^ string_of_int k ^ "]"
  let sublink here k = here @ [ segment k ]

  let sublinks here exprs =
    List.mapi
      (fun i s -> (s, sublink here (i + 1)))
      (List.concat_map sublinks_of_expr exprs)

  let locate owners s =
    let rec position k = function
      | [] -> None
      | x :: _ when x == s -> Some k
      | _ :: rest -> position (k + 1) rest
    in
    let rec go = function
      | [] -> invalid_arg "Path.locate: sublink outside its operators"
      | (here, exprs) :: rest -> (
          match position 1 (List.concat_map sublinks_of_expr exprs) with
          | Some k -> sublink here k
          | None -> go rest)
    in
    go owners

  let walk visit env q =
    let rec go prefix env q =
      let here = here prefix q in
      let inner = visit here env q in
      (match inputs q with
      | [ i ] -> go (child prefix q Input) env i
      | [ a; b ] ->
          go (child prefix q Left) env a;
          go (child prefix q Right) env b
      | _ -> ());
      List.iter (fun (s, p) -> go p inner s.query) (sublinks here (root_exprs q))
    in
    go [] env q
end

(** [map_node ~expr ~input q] rebuilds operator [q] with [expr]
    applied to each of its own expressions and [input side i] to each
    of its inputs: expressions first, in {!root_exprs} order, then the
    inputs left to right — the order in which the path-carrying passes
    number sublinks. [q] itself is returned when every part comes back
    physically unchanged. *)
let map_node ~expr ~(input : Path.side -> query -> query) q =
  match q with
  | Base _ | TableExpr _ -> q
  | Select (c, i) ->
      let c' = expr c in
      let i' = input Path.Input i in
      if c' == c && i' == i then q else Select (c', i')
  | Project p ->
      let cols = map_fst_shared expr p.cols in
      let i = input Path.Input p.proj_input in
      if cols == p.cols && i == p.proj_input then q
      else Project { p with cols; proj_input = i }
  | Cross (a, b) ->
      let a' = input Path.Left a in
      let b' = input Path.Right b in
      if a' == a && b' == b then q else Cross (a', b')
  | Join (c, a, b) ->
      let c' = expr c in
      let a' = input Path.Left a in
      let b' = input Path.Right b in
      if c' == c && a' == a && b' == b then q else Join (c', a', b')
  | LeftJoin (c, a, b) ->
      let c' = expr c in
      let a' = input Path.Left a in
      let b' = input Path.Right b in
      if c' == c && a' == a && b' == b then q else LeftJoin (c', a', b')
  | Agg a ->
      let group_by = map_fst_shared expr a.group_by in
      let aggs =
        map_shared
          (fun call ->
            match call.agg_arg with
            | None -> call
            | Some e ->
                let e' = expr e in
                if e' == e then call else { call with agg_arg = Some e' })
          a.aggs
      in
      let i = input Path.Input a.agg_input in
      if group_by == a.group_by && aggs == a.aggs && i == a.agg_input then q
      else Agg { group_by; aggs; agg_input = i }
  | Union (s, a, b) ->
      let a' = input Path.Left a in
      let b' = input Path.Right b in
      if a' == a && b' == b then q else Union (s, a', b')
  | Inter (s, a, b) ->
      let a' = input Path.Left a in
      let b' = input Path.Right b in
      if a' == a && b' == b then q else Inter (s, a', b')
  | Diff (s, a, b) ->
      let a' = input Path.Left a in
      let b' = input Path.Right b in
      if a' == a && b' == b then q else Diff (s, a', b')
  | Order (keys, i) ->
      let keys' = map_fst_shared expr keys in
      let i' = input Path.Input i in
      if keys' == keys && i' == i then q else Order (keys', i')
  | Limit (n, i) ->
      let i' = input Path.Input i in
      if i' == i then q else Limit (n, i')

(** Base relation names accessed anywhere in [q] (including sublink
    queries), in the provenance rewriter's traversal order — operator
    inputs first, then each operator's sublinks left to right — with
    duplicates for multiple references: footnote 1 of the paper treats
    multiple references to one relation as distinct provenance inputs.
    This order is the provenance contract: [Rewrite.rewrite] appends one
    provenance attribute group per entry of this list. *)
let rec base_relations q =
  let from_exprs es =
    List.concat_map
      (fun e ->
        List.concat_map (fun s -> base_relations s.query) (sublinks_of_expr e))
      es
  in
  match q with
  | Base name -> [ name ]
  | TableExpr _ -> []
  | Select (c, q) -> base_relations q @ from_exprs [ c ]
  | Project p -> base_relations p.proj_input @ from_exprs (List.map fst p.cols)
  | Cross (a, b) -> base_relations a @ base_relations b
  | Join (c, a, b) | LeftJoin (c, a, b) ->
      base_relations a @ base_relations b @ from_exprs [ c ]
  | Agg a -> base_relations a.agg_input
  | Union (_, a, b) | Inter (_, a, b) | Diff (_, a, b) ->
      base_relations a @ base_relations b
  | Order (_, q) | Limit (_, q) -> base_relations q

(** Tables keyed on a query's physical identity. Plans are DAGs (the
    provenance rewrite embeds one sublink query several times), and a
    per-node memo wants one entry per shared object. The hash reads a
    bounded prefix of the node, enough to spread distinct operators,
    without walking the subtree; [==] decides. *)
module Qtbl = Hashtbl.Make (struct
  type t = query

  let equal = ( == )
  let hash q = Hashtbl.hash_param 6 16 q
end)
