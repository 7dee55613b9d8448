(** Scope analysis: output attribute names of a query and the free
    (correlated) attribute references of a query or expression.

    A name is free in a sublink query when it does not resolve against
    any scope created inside the sublink — it must be bound by an
    enclosing operator, i.e. it is a correlation (Section 2.2). The
    evaluator uses the free-name set as the memoization key for sublink
    results ("hashed subplan"). *)

open Algebra

module S = Set.Make (String)

(** Output attribute names of [q] (no type information needed). *)
let rec out_names db (q : query) : string list =
  match q with
  | Base name -> Schema.names (Relation.schema (Database.find db name))
  | TableExpr rel -> Schema.names (Relation.schema rel)
  | Select (_, input) | Order (_, input) | Limit (_, input) -> out_names db input
  | Project { cols; _ } -> List.map snd cols
  | Cross (a, b) | Join (_, a, b) | LeftJoin (_, a, b) ->
      out_names db a @ out_names db b
  | Agg { group_by; aggs; _ } ->
      List.map snd group_by @ List.map (fun c -> c.agg_name) aggs
  | Union (_, a, _) | Inter (_, a, _) | Diff (_, a, _) -> out_names db a

(* [local] is the stack of name lists bound inside the region being
   analyzed; a reference not found in any of them escapes the region. *)

let defined_in local name = List.exists (List.mem name) local

let rec free_expr db (local : string list list) (e : expr) (acc : S.t) : S.t =
  match e with
  | Const _ | TypedNull _ -> acc
  | Attr name -> if defined_in local name then acc else S.add name acc
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      free_expr db local b (free_expr db local a acc)
  | Not a | IsNull a | Like (a, _) -> free_expr db local a acc
  | Case (whens, els) ->
      let acc =
        List.fold_left
          (fun acc (c, x) -> free_expr db local x (free_expr db local c acc))
          acc whens
      in
      Option.fold ~none:acc ~some:(fun e -> free_expr db local e acc) els
  | InList (a, es) ->
      List.fold_left (fun acc e -> free_expr db local e acc) (free_expr db local a acc) es
  | FunCall (_, es) ->
      List.fold_left (fun acc e -> free_expr db local e acc) acc es
  | Sublink s ->
      let acc =
        match s.kind with
        | Exists | Scalar -> acc
        | AnyOp (_, lhs) | AllOp (_, lhs) -> free_expr db local lhs acc
      in
      free_query_acc db local s.query acc

and free_query_acc db (local : string list list) (q : query) (acc : S.t) : S.t =
  let with_input input f acc =
    let scope = out_names db input :: local in
    f scope acc
  in
  match q with
  | Base _ | TableExpr _ -> acc
  | Select (cond, input) ->
      let acc = with_input input (fun scope acc -> free_expr db scope cond acc) acc in
      free_query_acc db local input acc
  | Project { cols; proj_input; _ } ->
      let acc =
        with_input proj_input
          (fun scope acc ->
            List.fold_left (fun acc (e, _) -> free_expr db scope e acc) acc cols)
          acc
      in
      free_query_acc db local proj_input acc
  | Cross (a, b) -> free_query_acc db local b (free_query_acc db local a acc)
  | Join (cond, a, b) | LeftJoin (cond, a, b) ->
      let scope = (out_names db a @ out_names db b) :: local in
      let acc = free_expr db scope cond acc in
      free_query_acc db local b (free_query_acc db local a acc)
  | Agg { group_by; aggs; agg_input } ->
      let acc =
        with_input agg_input
          (fun scope acc ->
            let acc =
              List.fold_left (fun acc (e, _) -> free_expr db scope e acc) acc group_by
            in
            List.fold_left
              (fun acc c ->
                match c.agg_arg with
                | Some e -> free_expr db scope e acc
                | None -> acc)
              acc aggs)
          acc
      in
      free_query_acc db local agg_input acc
  | Union (_, a, b) | Inter (_, a, b) | Diff (_, a, b) ->
      free_query_acc db local b (free_query_acc db local a acc)
  | Order (keys, input) ->
      let acc =
        with_input input
          (fun scope acc ->
            List.fold_left (fun acc (e, _) -> free_expr db scope e acc) acc keys)
          acc
      in
      free_query_acc db local input acc
  | Limit (_, input) -> free_query_acc db local input acc

(** Free attribute names of [q]: correlated references that must be
    bound by enclosing scopes. Sorted, duplicate-free. *)
let free_of_query db q = S.elements (free_query_acc db [] q S.empty)

(** Free attribute names of expression [e] under an operator whose input
    schema provides [input_names]. *)
let free_of_expr db input_names e =
  S.elements (free_expr db [ input_names ] e S.empty)

(** Names referenced by [e] that are NOT bound by any scope — i.e. with
    no local scope at all. Used by the optimizer to decide pushdown. *)
let refs_of_expr db e = S.elements (free_expr db [] e S.empty)

(** [is_uncorrelated db s] holds when sublink [s] has no correlated
    references — the applicability condition of the Left, Move and Unn
    strategies (Section 3.6). *)
let is_uncorrelated db (s : sublink) = free_of_query db s.query = []

(** [split_equi db ~left ~right cond] classifies each top-level
    conjunct of a join condition as a hashable equi-pair
    [(left_expr, right_expr, null_safe)] — an [=]/[=n] comparison whose
    sides reference only the left/right input respectively — or as a
    residual condition. This is purely syntactic scope analysis, so
    both execution engines share it; the vectorized engine runs it once
    per join operator instead of once per evaluation. *)
let split_equi db ~left ~right cond =
  let touches names e =
    List.exists (fun n -> List.mem n names) (refs_of_expr db e)
  in
  List.fold_left
    (fun (pairs, residual) conjunct ->
      match conjunct with
      | Cmp (((Eq | EqNull) as op), e1, e2)
        when (not (has_sublink e1)) && not (has_sublink e2) -> (
          let null_safe = op = EqNull in
          match (touches right e1, touches left e2) with
          | false, false -> (pairs @ [ (e1, e2, null_safe) ], residual)
          | true, true when (not (touches left e1)) && not (touches right e2)
            ->
              (pairs @ [ (e2, e1, null_safe) ], residual)
          | _ -> (pairs, residual @ [ conjunct ]))
      | c -> (pairs, residual @ [ c ]))
    ([], []) (conjuncts cond)
