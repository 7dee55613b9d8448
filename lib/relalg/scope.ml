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

(* Whether [q]'s output has attribute [name]: {!out_names} without
   building the list. *)
let rec outputs db (q : query) name =
  match q with
  | Base n -> Schema.mem (Relation.schema (Database.find db n)) name
  | TableExpr rel -> Schema.mem (Relation.schema rel) name
  | Select (_, input) | Order (_, input) | Limit (_, input) -> outputs db input name
  | Project { cols; _ } -> named name cols
  | Cross (a, b) | Join (_, a, b) | LeftJoin (_, a, b) -> outputs db a name || outputs db b name
  | Agg { group_by; aggs; _ } ->
      named name group_by || List.exists (fun c -> String.equal c.agg_name name) aggs
  | Union (_, a, _) | Inter (_, a, _) | Diff (_, a, _) -> outputs db a name

and named name = function
  | [] -> false
  | (_, n) :: rest -> String.equal n name || named name rest

(* [local] is the stack of scopes bound inside the region being
   analyzed: the output of an operator's input (or of both inputs of a
   join), or a given name list; a reference found in none of them
   escapes the region. *)
type scope = Out of query | Names of string list

let rec defined_in db local name =
  match local with
  | [] -> false
  | Out q :: rest -> outputs db q name || defined_in db rest name
  | Names l :: rest -> List.mem name l || defined_in db rest name

(* Free names per physical sublink body, for the length of one caller's
   analysis. A body's names free under [local] are its names free under
   no scope at all, minus those [local] binds, so the walk below each
   body runs once however often the body is reached. *)
type memo = string list Qtbl.t

let memo () : memo = Qtbl.create 16

let rec free_expr memo db (local : scope list) (e : expr) (acc : S.t) : S.t =
  match e with
  | Const _ | TypedNull _ -> acc
  | Attr name -> if defined_in db local name then acc else S.add name acc
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      free_expr memo db local b (free_expr memo db local a acc)
  | Not a | IsNull a | Like (a, _) -> free_expr memo db local a acc
  | Case (whens, els) ->
      let acc =
        List.fold_left
          (fun acc (c, x) ->
            free_expr memo db local x (free_expr memo db local c acc))
          acc whens
      in
      Option.fold ~none:acc ~some:(fun e -> free_expr memo db local e acc) els
  | InList (a, es) ->
      List.fold_left
        (fun acc e -> free_expr memo db local e acc)
        (free_expr memo db local a acc)
        es
  | FunCall (_, es) ->
      List.fold_left (fun acc e -> free_expr memo db local e acc) acc es
  | Sublink s ->
      let acc =
        match s.kind with
        | Exists | Scalar -> acc
        | AnyOp (_, lhs) | AllOp (_, lhs) -> free_expr memo db local lhs acc
      in
      (match memo with
      | None -> free_query_acc None db local s.query acc
      | Some m ->
          List.fold_left
            (fun acc n -> if defined_in db local n then acc else S.add n acc)
            acc
            (body_frees m db s.query))

and body_frees m db q =
  match Qtbl.find_opt m q with
  | Some names -> names
  | None ->
      let names = S.elements (free_query_acc (Some m) db [] q S.empty) in
      Qtbl.add m q names;
      names

and free_query_acc memo db (local : scope list) (q : query) (acc : S.t) : S.t =
  match q with
  | Base _ | TableExpr _ -> acc
  | Select (cond, input) ->
      let acc = free_expr memo db (Out input :: local) cond acc in
      free_query_acc memo db local input acc
  | Project { cols; proj_input; _ } ->
      let scope = Out proj_input :: local in
      let acc = List.fold_left (fun acc (e, _) -> free_expr memo db scope e acc) acc cols in
      free_query_acc memo db local proj_input acc
  | Cross (a, b) ->
      free_query_acc memo db local b (free_query_acc memo db local a acc)
  | Join (cond, a, b) | LeftJoin (cond, a, b) ->
      let acc = free_expr memo db (Out q :: local) cond acc in
      free_query_acc memo db local b (free_query_acc memo db local a acc)
  | Agg { group_by; aggs; agg_input } ->
      let scope = Out agg_input :: local in
      let acc =
        List.fold_left (fun acc (e, _) -> free_expr memo db scope e acc) acc group_by
      in
      let acc =
        List.fold_left
          (fun acc c ->
            match c.agg_arg with Some e -> free_expr memo db scope e acc | None -> acc)
          acc aggs
      in
      free_query_acc memo db local agg_input acc
  | Union (_, a, b) | Inter (_, a, b) | Diff (_, a, b) ->
      free_query_acc memo db local b (free_query_acc memo db local a acc)
  | Order (keys, input) ->
      let scope = Out input :: local in
      let acc = List.fold_left (fun acc (e, _) -> free_expr memo db scope e acc) acc keys in
      free_query_acc memo db local input acc
  | Limit (_, input) -> free_query_acc memo db local input acc

(** Free attribute names of [q]: correlated references that must be
    bound by enclosing scopes. Sorted, duplicate-free. *)
let free_of_query ?memo db q = S.elements (free_query_acc memo db [] q S.empty)

(** [body_frees m db q]: {!free_of_query} of a sublink body, computed
    once per physical [q] and memo. *)
let body_frees m db q = body_frees m db q

(** Free attribute names of expression [e] under an operator whose input
    schema provides [input_names]. *)
let free_of_expr db input_names e =
  S.elements (free_expr None db [ Names input_names ] e S.empty)

(** Names referenced by [e] that are NOT bound by any scope — i.e. with
    no local scope at all. Used by the optimizer to decide pushdown. *)
let refs_of_expr ?memo db e = S.elements (free_expr memo db [] e S.empty)

let add_refs ?memo db e acc = free_expr memo db [] e acc

(** [is_uncorrelated db s] holds when sublink [s] has no correlated
    references — the applicability condition of the Left, Move and Unn
    strategies (Section 3.6). *)
let is_uncorrelated db (s : sublink) = free_of_query db s.query = []

(** [split_equi ~left ~right cond] classifies each top-level
    conjunct of a join condition as a hashable equi-pair
    [(left_expr, right_expr, null_safe)] — an [=]/[=n] comparison whose
    sides reference only the left/right input respectively — or as a
    residual condition. This is purely syntactic scope analysis, so
    both execution engines share it; the vectorized engine runs it once
    per join operator instead of once per evaluation. *)
let split_equi ~left ~right cond =
  (* [e] holds no sublink, so its free names are its attributes. *)
  let rec touches schema = function
    | Attr n -> Schema.mem schema n
    | Const _ | TypedNull _ | Sublink _ -> false
    | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
        touches schema a || touches schema b
    | Not a | IsNull a | Like (a, _) -> touches schema a
    | Case (whens, els) -> (
        List.exists (fun (c, e) -> touches schema c || touches schema e) whens
        || match els with Some e -> touches schema e | None -> false)
    | InList (a, es) -> touches schema a || List.exists (touches schema) es
    | FunCall (_, es) -> List.exists (touches schema) es
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
