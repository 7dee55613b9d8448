(** Expression and plan simplification: constant folding, boolean
    identities and comparison negation, all chosen to be exact under
    SQL's three-valued logic (e.g. [NOT (a < b)] is [a >= b] even for
    NULLs, and [x AND FALSE] is [FALSE] regardless of [x]).

    The provenance rewrites are fertile ground for these rules: the Gen
    and Left strategies build conditions like
    [(C =n true) OR NOT (... =n true)] around constant sub-terms, and
    the [Jsub] of an EXISTS sublink is the constant [true].

    Every applied rule instance is reported through {!Rewrite_trace}
    (rule name plus Lint-style operator path), so the translation
    validator ({!Certify}) can discharge a proof obligation per
    application. A few deliberately broken rule variants are embedded
    behind the test-only [Rewrite_trace.mutant] hook — see the mutation
    harness in [test/test_certify.ml]. *)

open Algebra

let vtrue = Const Value.vtrue
let vfalse = Const Value.vfalse

let is_const = function Const _ | TypedNull _ -> true | _ -> false

let const_value = function
  | Const v -> v
  | TypedNull _ -> Value.Null
  | _ -> invalid_arg "const_value"

(* Constant-fold a pure operation, keeping the original expression if
   evaluation raises (e.g. division by zero must stay a runtime error
   for rows that actually reach it). *)
let try_fold original f = try f () with Value.Type_clash _ -> original

let negate_cmp = function
  | Eq -> Some Neq
  | Neq -> Some Eq
  | Lt -> Some Geq
  | Leq -> Some Gt
  | Gt -> Some Leq
  | Geq -> Some Lt
  | EqNull ->
      (* =n is two-valued; NOT (a =n b) has no cmpop form. The mutant
         pretends it negates like plain equality — wrong under NULLs. *)
      if Rewrite_trace.mutant "simp-not-eqnull" then Some Neq else None

let rec expr (e : Algebra.expr) : Algebra.expr =
  match e with
  | Const _ | TypedNull _ | Attr _ -> e
  | Binop (op, a, b) -> (
      let a = expr a and b = expr b in
      let folded = Binop (op, a, b) in
      match (a, b) with
      | (Const _ | TypedNull _), (Const _ | TypedNull _) ->
          try_fold folded (fun () ->
              let va = const_value a and vb = const_value b in
              Const
                (match op with
                | Add -> Value.add va vb
                | Sub -> Value.sub va vb
                | Mul -> Value.mul va vb
                | Div -> Value.div va vb
                | Mod -> Value.modulo va vb
                | Concat -> Value.concat va vb))
      | _ -> folded)
  | Cmp (op, a, b) -> (
      let a = expr a and b = expr b in
      let folded = Cmp (op, a, b) in
      match (a, b) with
      | (Const _ | TypedNull _), (Const _ | TypedNull _) ->
          try_fold folded (fun () ->
              Const (Eval.cmp3 op (const_value a) (const_value b)))
      | _ -> folded)
  | And (a, b) -> (
      match (expr a, expr b) with
      (* mutant: treats [x AND NULL] as [x] — wrong when x is TRUE *)
      | (Const Value.Null | TypedNull _), x
        when Rewrite_trace.mutant "simp-and-null" ->
          x
      | x, (Const Value.Null | TypedNull _)
        when Rewrite_trace.mutant "simp-and-null" ->
          x
      | Const (Value.Bool false), _ | _, Const (Value.Bool false) -> vfalse
      | Const (Value.Bool true), x | x, Const (Value.Bool true) -> x
      | a, b -> And (a, b))
  | Or (a, b) -> (
      match (expr a, expr b) with
      | Const (Value.Bool true), _ | _, Const (Value.Bool true) -> vtrue
      | Const (Value.Bool false), x | x, Const (Value.Bool false) -> x
      | a, b -> Or (a, b))
  | Not a -> (
      match expr a with
      | Const v -> try_fold (Not (Const v)) (fun () -> Const (Value.not3 v))
      | Not inner -> inner
      | Cmp (op, x, y) as cmp -> (
          match negate_cmp op with
          | Some op' -> Cmp (op', x, y)
          | None -> Not cmp)
      | a -> Not a)
  | IsNull a -> (
      match expr a with
      | (Const _ | TypedNull _) as c -> Const (Value.Bool (Value.is_null (const_value c)))
      | a -> IsNull a)
  | Case (whens, els) -> (
      let els = Option.map expr els in
      (* drop branches with constant-false conditions; stop at the first
         constant-true condition *)
      let rec prune = function
        | [] -> ([], els)
        | (c, x) :: rest -> (
            match expr c with
            | Const (Value.Bool true) -> ([], Some (expr x))
            | Const (Value.Bool false) | Const Value.Null | TypedNull _ -> prune rest
            | c ->
                let whens, final = prune rest in
                ((c, expr x) :: whens, final))
      in
      match prune whens with
      | [], Some e -> e
      | [], None -> Const Value.Null
      | whens, final -> Case (whens, final))
  | Like (a, pattern) -> (
      match expr a with
      | Const (Value.String s) -> Const (Value.Bool (Builtin.like_match ~pattern s))
      | Const Value.Null | TypedNull _ -> Const Value.Null
      | a -> Like (a, pattern))
  | InList (a, es) -> (
      let a = expr a and es = List.map expr es in
      let folded = InList (a, es) in
      if is_const a && List.for_all is_const es then
        try_fold folded (fun () ->
            let x = const_value a in
            Const
              (List.fold_left
                 (fun acc e -> Value.or3 acc (Eval.cmp3 Eq x (const_value e)))
                 Value.vfalse es))
      else folded)
  | FunCall (name, args) -> FunCall (name, List.map expr args)
  | Sublink ({ query; _ } as s) when produces_no_rows query -> (
      (* A sublink whose body provably produces no rows is a constant
         under 3VL, even for a NULL left-hand side: EXISTS is FALSE,
         [op ANY] is FALSE, [op ALL] is TRUE, and a scalar sublink is
         NULL typed by its single output column. The optimizer's
         unsat-fold exposes such bodies (e.g. when a correlated body's
         condition is proved never TRUE, possibly under rename
         projections), and folding the atom keeps the plan free of
         vestigial correlation. *)
      match s.kind with
      | Exists -> vfalse
      | AnyOp _ -> vfalse
      | AllOp _ -> vtrue
      | Scalar -> (
          match query with
          | TableExpr rel -> (
              match Schema.types (Relation.schema rel) with
              | [ ty ] -> TypedNull ty
              | _ -> Sublink s)
          | _ -> Sublink s))
  | Sublink s -> Sublink { s with kind = sublink_kind s.kind }

(* Emptiness evident from the plan shape alone: an empty literal
   relation, possibly under projections or selections (which cannot add
   rows). Grouping aggregation is deliberately absent: an [Agg] without
   group keys emits one row even over empty input. *)
and produces_no_rows = function
  | TableExpr rel -> Relation.cardinality rel = 0
  | Project { proj_input; _ } -> produces_no_rows proj_input
  | Select ((Const (Value.Bool false) | Const Value.Null | TypedNull _), _) ->
      (* a selection keeps a row only when its condition is TRUE *)
      true
  | Select (_, input) -> produces_no_rows input
  | _ -> false

and sublink_kind = function
  | (Exists | Scalar) as k -> k
  | AnyOp (op, lhs) -> AnyOp (op, expr lhs)
  | AllOp (op, lhs) -> AllOp (op, expr lhs)

(* Path-carrying plan recursion on {!Algebra.Path}'s plan paths, with
   sublinks counted across the node's expressions in [root_exprs] order
   (paths are built only under a tracer). [bodies] holds the result per physical sublink body, so a
   body the plan embeds several times is simplified once and stays
   shared. *)
let rec query_at bodies (prefix : string list) (q : Algebra.query) :
    Algebra.query =
  let here = Rewrite_trace.node prefix q in
  let child qual i = query_at bodies (Rewrite_trace.child prefix q qual) i in
  let counter = ref 0 in
  let sub e =
    map_expr_query
      (fun sq ->
        incr counter;
        let path = Rewrite_trace.sublink here !counter in
        Rewrite_trace.Shared.visit bodies sq ~path (fun () ->
            query_at bodies path sq))
      e
  in
  (* Phase 1: recurse into child queries and sublink queries. *)
  let q1 =
    match q with
    | Base _ | TableExpr _ -> q
    | Select (c, i) ->
        let c = sub c in
        Select (c, child Path.Input i)
    | Project p ->
        let cols = List.map (fun (e, n) -> (sub e, n)) p.cols in
        Project { p with cols; proj_input = child Path.Input p.proj_input }
    | Cross (a, b) ->
        let a = child Path.Left a in
        Cross (a, child Path.Right b)
    | Join (c, a, b) ->
        let c = sub c in
        let a = child Path.Left a in
        Join (c, a, child Path.Right b)
    | LeftJoin (c, a, b) ->
        let c = sub c in
        let a = child Path.Left a in
        LeftJoin (c, a, child Path.Right b)
    | Agg a ->
        let group_by = List.map (fun (e, n) -> (sub e, n)) a.group_by in
        let aggs =
          List.map
            (fun call -> { call with agg_arg = Option.map sub call.agg_arg })
            a.aggs
        in
        Agg { group_by; aggs; agg_input = child Path.Input a.agg_input }
    | Union (s, a, b) ->
        let a = child Path.Left a in
        Union (s, a, child Path.Right b)
    | Inter (s, a, b) ->
        let a = child Path.Left a in
        Inter (s, a, child Path.Right b)
    | Diff (s, a, b) ->
        let a = child Path.Left a in
        Diff (s, a, child Path.Right b)
    | Order (keys, i) ->
        let keys = List.map (fun (e, d) -> (sub e, d)) keys in
        Order (keys, child Path.Input i)
    | Limit (n, i) -> Limit (n, child Path.Input i)
  in
  (* Phase 2: fold the node's own expressions. *)
  let q2 =
    match q1 with
    | Select (c, i) -> Select (expr c, i)
    | Project p ->
        Project { p with cols = List.map (fun (e, n) -> (expr e, n)) p.cols }
    | Join (c, a, b) -> Join (expr c, a, b)
    | LeftJoin (c, a, b) -> LeftJoin (expr c, a, b)
    | Agg a ->
        Agg
          {
            a with
            group_by = List.map (fun (e, n) -> (expr e, n)) a.group_by;
            aggs =
              List.map
                (fun call -> { call with agg_arg = Option.map expr call.agg_arg })
                a.aggs;
          }
    | Order (keys, i) -> Order (List.map (fun (e, d) -> (expr e, d)) keys, i)
    | q -> q
  in
  Rewrite_trace.emit ~rule:"fold-exprs" ~path:here ~before:q1 ~after:q2;
  (* Phase 3: structural rules enabled by the folding. *)
  match q2 with
  | Select (Const (Value.Bool true), input) ->
      Rewrite_trace.emit ~rule:"select-true" ~path:here ~before:q2 ~after:input;
      input
  | Select ((Const Value.Null | TypedNull _), input)
    when Rewrite_trace.mutant "simp-select-null" ->
      (* mutant: drops a selection whose condition folded to NULL,
         treating UNKNOWN as TRUE *)
      Rewrite_trace.emit ~rule:"select-true" ~path:here ~before:q2 ~after:input;
      input
  | Join (Const (Value.Bool true), a, b) ->
      let after = Cross (a, b) in
      Rewrite_trace.emit ~rule:"join-true-to-cross" ~path:here ~before:q2 ~after;
      after
  | q -> q

(** [query q] simplifies every expression in the plan (including inside
    sublink queries) and drops selections whose condition folded to
    [TRUE]. *)
let query (q : Algebra.query) : Algebra.query =
  query_at (Rewrite_trace.Shared.create ()) [] q
