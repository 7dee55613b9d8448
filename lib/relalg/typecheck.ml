(** Static checking and schema inference for algebra trees.

    An environment is a stack of schemas, innermost first. Attribute
    references resolve against the innermost schema that defines the
    name, which is exactly how correlated sublink references are bound at
    evaluation time (Section 2.2: correlation references an attribute of
    the input of the operator or of a containing sublink). *)

open Algebra

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

type env = Schema.t list

(* Damerau–Levenshtein distance (with adjacent transposition), used to
   rank candidate attribute names for error messages. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let d = Array.make_matrix (la + 1) (lb + 1) 0 in
  for i = 0 to la do
    d.(i).(0) <- i
  done;
  for j = 0 to lb do
    d.(0).(j) <- j
  done;
  for i = 1 to la do
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      d.(i).(j) <-
        min
          (min (d.(i - 1).(j) + 1) (d.(i).(j - 1) + 1))
          (d.(i - 1).(j - 1) + cost);
      if
        i > 1 && j > 1
        && a.[i - 1] = b.[j - 2]
        && a.[i - 2] = b.[j - 1]
      then d.(i).(j) <- min d.(i).(j) (d.(i - 2).(j - 2) + cost)
    done
  done;
  d.(la).(lb)

(** [did_you_mean name candidates] is the candidates closest to [name]
    (case-insensitive edit distance, qualified-name suffix matches
    first), best first, at most three. Shared by {!resolve}'s error
    message and the linter's unresolved-attribute rule. *)
let did_you_mean name candidates =
  let lname = String.lowercase_ascii name in
  let score cand =
    let lcand = String.lowercase_ascii cand in
    if lcand = lname then Some 0
    else if
      (* a qualified candidate whose column part matches, or vice versa *)
      String.length lcand > String.length lname
      && String.ends_with ~suffix:("." ^ lname) lcand
      || String.length lname > String.length lcand
         && String.ends_with ~suffix:("." ^ lcand) lname
    then Some 1
    else
      let d = edit_distance lname lcand in
      let budget = max 2 (1 + (String.length name / 4)) in
      if d <= budget then Some (1 + d) else None
  in
  List.sort_uniq compare candidates
  |> List.filter_map (fun c -> Option.map (fun s -> (s, c)) (score c))
  |> List.sort compare
  |> List.filteri (fun i _ -> i < 3)
  |> List.map snd

(** [resolve env name] is the type of [name] in the innermost schema
    defining it. *)
let resolve (env : env) name =
  let rec go = function
    | [] ->
        let in_scope = List.concat_map Schema.names env in
        let hint =
          match did_you_mean name in_scope with
          | [] -> ""
          | cands ->
              Printf.sprintf "; did you mean %s?"
                (String.concat " or " (List.map (Printf.sprintf "%S") cands))
        in
        type_error "unknown attribute %S (in scope: %s)%s" name
          (String.concat " | "
             (List.map (fun s -> String.concat "," (Schema.names s)) env))
          hint
    | schema :: rest -> (
        match Schema.find schema name with
        | Some i -> (Schema.attr_at schema i).Schema.ty
        | None -> go rest)
  in
  go env

(* Inference returns [None] for expressions of statically unknown type
   (a bare NULL literal), which unifies with every type. *)

let compatible_opt a b =
  match (a, b) with
  | None, _ | _, None -> true
  | Some x, Some y -> Vtype.compatible x y

let promote_opt a b =
  match (a, b) with
  | Some Vtype.TInt, Some Vtype.TInt -> Some Vtype.TInt
  | (Some (Vtype.TInt | Vtype.TFloat) | None), (Some (Vtype.TInt | Vtype.TFloat) | None)
    ->
      if a = None && b = None then None else Some Vtype.TFloat
  | _ ->
      type_error "arithmetic over non-numeric types"

let string_of_opt = function
  | None -> "null"
  | Some t -> Vtype.to_string t

let rec infer_expr db (env : env) (e : expr) : Vtype.t option =
  match e with
  | Const v -> Value.vtype_of v
  | TypedNull ty -> Some ty
  | Attr name -> Vtype.some (resolve env name)
  | Binop (op, a, b) -> (
      let ta = infer_expr db env a and tb = infer_expr db env b in
      match op with
      | Add | Sub | Mul | Div -> promote_opt ta tb
      | Mod -> (
          match (ta, tb) with
          | (Some Vtype.TInt | None), (Some Vtype.TInt | None) -> Some Vtype.TInt
          | _ -> type_error "%% requires integer operands")
      | Concat -> Some Vtype.TString)
  | Cmp (_, a, b) ->
      let ta = infer_expr db env a and tb = infer_expr db env b in
      if compatible_opt ta tb then Some Vtype.TBool
      else
        type_error "comparison between incompatible types %s and %s"
          (string_of_opt ta) (string_of_opt tb)
  | And (a, b) | Or (a, b) ->
      check_boolean db env a;
      check_boolean db env b;
      Some Vtype.TBool
  | Not a ->
      check_boolean db env a;
      Some Vtype.TBool
  | IsNull a ->
      ignore (infer_expr db env a);
      Some Vtype.TBool
  | Case (whens, els) ->
      if whens = [] then type_error "CASE with no WHEN branches";
      List.iter (fun (c, _) -> check_boolean db env c) whens;
      let branch_tys =
        List.map (fun (_, e) -> infer_expr db env e) whens
        @ (match els with Some e -> [ infer_expr db env e ] | None -> [])
      in
      let merged =
        List.fold_left
          (fun acc ty ->
            if compatible_opt acc ty then (if acc = None then ty else acc)
            else type_error "CASE branches have incompatible types")
          None branch_tys
      in
      merged
  | Like (a, _) -> (
      match infer_expr db env a with
      | Some Vtype.TString | None -> Some Vtype.TBool
      | Some t -> type_error "LIKE over non-string type %s" (Vtype.to_string t))
  | InList (a, es) ->
      let ta = infer_expr db env a in
      List.iter
        (fun e ->
          if not (compatible_opt ta (infer_expr db env e)) then
            type_error "IN list element type mismatch")
        es;
      Some Vtype.TBool
  | FunCall (name, args) ->
      let arg_tys = List.map (infer_expr db env) args in
      (* Unknown (NULL-typed) arguments default to string for signature
         lookup; the dynamic semantics is NULL-strict anyway. *)
      let concrete = List.map (Option.value ~default:Vtype.TString) arg_tys in
      Some (Builtin.scalar_result_type name concrete)
  | Sublink s -> infer_sublink db env s

and check_boolean db env e =
  match infer_expr db env e with
  | Some Vtype.TBool | None -> ()
  | Some t ->
      type_error "expected a boolean condition, got type %s" (Vtype.to_string t)

and infer_sublink db (env : env) (s : sublink) : Vtype.t option =
  let sub_schema = infer_query_env db env s.query in
  match s.kind with
  | Exists -> Some Vtype.TBool
  | Scalar ->
      if Schema.arity sub_schema <> 1 then
        type_error "scalar sublink must produce exactly one column (got %d)"
          (Schema.arity sub_schema);
      Some (Schema.attr_at sub_schema 0).Schema.ty
  | AnyOp (_, lhs) | AllOp (_, lhs) ->
      if Schema.arity sub_schema <> 1 then
        type_error "ANY/ALL sublink must produce exactly one column (got %d)"
          (Schema.arity sub_schema);
      let tl = infer_expr db env lhs in
      let tr = Some (Schema.attr_at sub_schema 0).Schema.ty in
      if compatible_opt tl tr then Some Vtype.TBool
      else
        type_error "ANY/ALL comparison between incompatible types %s and %s"
          (string_of_opt tl) (string_of_opt tr)

(** [projection_schema db env cols] is the output schema of a
    projection list under [env] (innermost schema first); expressions
    of statically unknown type default to string, matching evaluation.
    Shared by inference and by both execution engines, so the vectorized
    engine computes it once per operator. *)
and projection_schema db (env : env) cols : Schema.t =
  Schema.map_of_list
    (fun (e, name) ->
      let ty = Option.value ~default:Vtype.TString (infer_expr db env e) in
      Schema.attr name ty)
    cols

(** [aggregation_schema db env group_by aggs] is the output schema of
    an aggregation operator: group-by attributes followed by aggregate
    results. *)
and aggregation_schema db (env : env) group_by aggs : Schema.t =
  let group_attrs =
    List.map
      (fun (e, name) ->
        let ty = Option.value ~default:Vtype.TString (infer_expr db env e) in
        Schema.attr name ty)
      group_by
  in
  let agg_attrs =
    List.map
      (fun call ->
        let arg_ty =
          Option.map
            (fun e -> Option.value ~default:Vtype.TString (infer_expr db env e))
            call.agg_arg
        in
        Schema.attr call.agg_name
          (Builtin.aggregate_result_type call.agg_func arg_ty))
      aggs
  in
  Schema.of_list (group_attrs @ agg_attrs)

(** [infer_query_env db outer q] is the output schema of [q] evaluated
    with correlation scopes [outer] available. *)
and infer_query_env db (outer : env) (q : query) : Schema.t =
  let rec sub q = infer_node db outer ~sub q in
  sub q

(* One operator's output schema, its inputs' schemas coming from
   [sub] (each input is passed to it once). *)
and infer_node db (outer : env) ~sub (q : query) : Schema.t =
  match q with
  | Base name -> (
      match Database.find_opt db name with
      | Some rel -> Relation.schema rel
      | None -> type_error "unknown base relation %S" name)
  | TableExpr rel -> Relation.schema rel
  | Select (cond, input) ->
      let schema = sub input in
      check_boolean db (schema :: outer) cond;
      check_no_aggregate_exprs [ cond ] "WHERE/selection";
      schema
  | Project { cols; proj_input; _ } ->
      let schema = sub proj_input in
      check_no_aggregate_exprs (List.map fst cols) "projection";
      projection_schema db (schema :: outer) cols
  | Cross (a, b) ->
      Schema.concat (sub a) (sub b)
  | Join (cond, a, b) | LeftJoin (cond, a, b) ->
      let sa = sub a and sb = sub b in
      let schema = Schema.concat sa sb in
      check_boolean db (schema :: outer) cond;
      check_no_aggregate_exprs [ cond ] "join condition";
      schema
  | Agg { group_by; aggs; agg_input } ->
      let schema = sub agg_input in
      aggregation_schema db (schema :: outer) group_by aggs
  | Union (_, a, b) | Inter (_, a, b) | Diff (_, a, b) ->
      let sa = sub a and sb = sub b in
      if not (Schema.equal_types sa sb) then
        type_error "set operation over incompatible schemas %s vs %s"
          (Schema.to_string sa) (Schema.to_string sb);
      sa
  | Order (keys, input) ->
      let schema = sub input in
      List.iter (fun (e, _) -> ignore (infer_expr db (schema :: outer) e)) keys;
      schema
  | Limit (n, input) ->
      if n < 0 then type_error "negative LIMIT";
      sub input

and check_no_aggregate_exprs exprs where =
  List.iter
    (fun e ->
      if has_aggregate e then
        ignore
          (Algebra.fold_expr
             (fun () x ->
               match x with
               | FunCall (name, _) when Builtin.is_aggregate name ->
                   type_error "aggregate function %s not allowed in %s" name where
               | _ -> ())
             () e))
    exprs

(* Whether [e] calls an aggregate function outside sublink bodies, as
   [fold_expr] visits it; allocates nothing. *)
and has_aggregate = function
  | FunCall (name, args) -> Builtin.is_aggregate name || List.exists has_aggregate args
  | Const _ | TypedNull _ | Attr _ -> false
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) -> has_aggregate a || has_aggregate b
  | Not a | IsNull a | Like (a, _) -> has_aggregate a
  | Case (whens, els) -> (
      List.exists (fun (c, x) -> has_aggregate c || has_aggregate x) whens
      || match els with Some x -> has_aggregate x | None -> false)
  | InList (a, es) -> has_aggregate a || List.exists has_aggregate es
  | Sublink s -> (
      match s.kind with
      | AnyOp (_, lhs) | AllOp (_, lhs) -> has_aggregate lhs
      | Exists | Scalar -> false)

type tree = { t_query : Algebra.query; t_schema : Schema.t; t_inputs : tree list }

(** [infer_tree db q]: {!infer}, keeping the schema of every operator
    input below [q] (each typed under no enclosing scope, as [q]). *)
let rec infer_tree db q =
  let inputs = ref [] in
  let sub i =
    let t = infer_tree db i in
    inputs := t :: !inputs;
    t.t_schema
  in
  let schema = infer_node db [] ~sub q in
  { t_query = q; t_schema = schema; t_inputs = !inputs }

(** [infer db q] is the output schema of top-level query [q]. *)
let infer db q = infer_query_env db [] q

(** [check db q] runs inference for its side effect of validating [q]. *)
let check db q = ignore (infer db q)
