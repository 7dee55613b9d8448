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
  | Binop (op, a', b') -> (
      let a = expr a' and b = expr b' in
      let folded = if a == a' && b == b' then e else Binop (op, a, b) in
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
  | Cmp (op, a', b') -> (
      let a = expr a' and b = expr b' in
      let folded = if a == a' && b == b' then e else Cmp (op, a, b) in
      match (a, b) with
      | (Const _ | TypedNull _), (Const _ | TypedNull _) ->
          try_fold folded (fun () ->
              Const (Eval.cmp3 op (const_value a) (const_value b)))
      | _ -> folded)
  | And (a0, b0) -> (
      match (expr a0, expr b0) with
      (* mutant: treats [x AND NULL] as [x] — wrong when x is TRUE *)
      | (Const Value.Null | TypedNull _), x
        when Rewrite_trace.mutant "simp-and-null" ->
          x
      | x, (Const Value.Null | TypedNull _)
        when Rewrite_trace.mutant "simp-and-null" ->
          x
      | Const (Value.Bool false), _ | _, Const (Value.Bool false) -> vfalse
      | Const (Value.Bool true), x | x, Const (Value.Bool true) -> x
      | a, b -> if a == a0 && b == b0 then e else And (a, b))
  | Or (a0, b0) -> (
      match (expr a0, expr b0) with
      | Const (Value.Bool true), _ | _, Const (Value.Bool true) -> vtrue
      | Const (Value.Bool false), x | x, Const (Value.Bool false) -> x
      | a, b -> if a == a0 && b == b0 then e else Or (a, b))
  | Not a0 -> (
      match expr a0 with
      | Const v -> try_fold (Not (Const v)) (fun () -> Const (Value.not3 v))
      | Not inner -> inner
      | Cmp (op, x, y) as cmp -> (
          match negate_cmp op with
          | Some op' -> Cmp (op', x, y)
          | None -> if cmp == a0 then e else Not cmp)
      | a -> if a == a0 then e else Not a)
  | IsNull a0 -> (
      match expr a0 with
      | (Const _ | TypedNull _) as c -> Const (Value.Bool (Value.is_null (const_value c)))
      | a -> if a == a0 then e else IsNull a)
  | Case (whens, els0) -> (
      let els =
        match els0 with
        | None -> None
        | Some x ->
            let x' = expr x in
            if x' == x then els0 else Some x'
      in
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
      | whens', final ->
          let same =
            final == els0
            && List.compare_lengths whens' whens = 0
            && List.for_all2 (fun (c', x') (c, x) -> c' == c && x' == x) whens' whens
          in
          if same then e else Case (whens', final))
  | Like (a0, pattern) -> (
      match expr a0 with
      | Const (Value.String s) -> Const (Value.Bool (Builtin.like_match ~pattern s))
      | Const Value.Null | TypedNull _ -> Const Value.Null
      | a -> if a == a0 then e else Like (a, pattern))
  | InList (a', es') -> (
      let a = expr a' and es = map_shared expr es' in
      let folded = if a == a' && es == es' then e else InList (a, es) in
      if is_const a && List.for_all is_const es then
        try_fold folded (fun () ->
            let x = const_value a in
            Const
              (List.fold_left
                 (fun acc e -> Value.or3 acc (Eval.cmp3 Eq x (const_value e)))
                 Value.vfalse es))
      else folded)
  | FunCall (name, args) ->
      let args' = map_shared expr args in
      if args' == args then e else FunCall (name, args')
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
  | Sublink s ->
      let kind = sublink_kind s.kind in
      if kind == s.kind then e else Sublink { s with kind }

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

and sublink_kind k =
  match k with
  | Exists | Scalar -> k
  | AnyOp (op, lhs) ->
      let lhs' = expr lhs in
      if lhs' == lhs then k else AnyOp (op, lhs')
  | AllOp (op, lhs) ->
      let lhs' = expr lhs in
      if lhs' == lhs then k else AllOp (op, lhs')

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
  let q1 = map_node ~expr:sub ~input:child q in
  (* Phase 2: fold the node's own expressions. *)
  let q2 = map_node ~expr ~input:(fun _ i -> i) q1 in
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
