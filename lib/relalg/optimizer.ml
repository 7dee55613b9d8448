(** Rule-based plan rewrites, mirroring the PostgreSQL facilities the
    paper's measurements rely on:

    - split conjunctive selections and push each conjunct as deep as its
      attribute references allow (into the sides of products and joins);
    - merge a residual selection over a product into a join, so the
      evaluator can run it as a hash join / streaming nested loop.

    The rewrites never look inside [Project]/[Agg] (no renaming-aware
    pushdown) — enough for the plans produced by the provenance rewriter,
    whose hot paths are selections over products and joins.

    Every applied rule instance is reported through {!Rewrite_trace}
    with a rule name and a Lint-style operator path, so the translation
    validator ({!Certify}) can discharge a proof obligation per
    application. Paths locate the node the rule fired at in the tree it
    matched (selection-pushdown cascades are attributed to the
    outermost selection they started from). Paths and the before/after
    plans of those reports are built only while a tracer is installed.
    Deliberately broken rule variants sit behind the test-only
    [Rewrite_trace.mutant] hook — see [test/test_certify.ml].

    One [optimize] call does each sublink body's work once: the
    provenance rewrite embeds a body up to three times (Gen's [Csub+]
    refers to the sublink itself), and every pass keeps a table per
    physical body ({!Rewrite_trace.Shared}), so copies come out shared
    and the free names of a body are computed once ({!Scope.memo}). A
    selection site reads its subplan's column types off an enclosing
    typing where one exists, and types the subplan only otherwise. *)

open Algebra

(* One call's working state: the database, the free names of the sublink
   bodies met so far, and the pushdown result per physical body. *)
type cx = {
  db : Database.t;
  frees : Scope.memo;
  bodies : query Rewrite_trace.Shared.t;
}

let context db =
  { db; frees = Scope.memo (); bodies = Rewrite_trace.Shared.create () }

let refs_of cx e = Scope.refs_of_expr ~memo:cx.frees cx.db e

(* A conjunct can move to a side of a binary operator when all its
   attribute references are produced by that side. References to
   attributes of neither side are correlated (bound by an enclosing
   sublink scope) and do not block the move. The caller passes the
   names of the opposite side. *)
let movable_to cx side_names e =
  not (List.exists (fun n -> List.mem n side_names) (refs_of cx e))

(* Rewrite attribute references through a projection's renaming map.
   Only valid on sublink-free expressions whose references are all in
   the map. *)
let rec rename_attrs map (e : expr) : expr =
  match e with
  | Attr n -> (
      match List.assoc_opt n map with Some src -> Attr src | None -> Attr n)
  | Const _ | TypedNull _ -> e
  | Binop (op, a, b) -> Binop (op, rename_attrs map a, rename_attrs map b)
  | Cmp (op, a, b) -> Cmp (op, rename_attrs map a, rename_attrs map b)
  | And (a, b) -> And (rename_attrs map a, rename_attrs map b)
  | Or (a, b) -> Or (rename_attrs map a, rename_attrs map b)
  | Not a -> Not (rename_attrs map a)
  | IsNull a -> IsNull (rename_attrs map a)
  | Case (whens, els) ->
      Case
        ( List.map (fun (c, x) -> (rename_attrs map c, rename_attrs map x)) whens,
          Option.map (rename_attrs map) els )
  | Like (a, p) -> Like (rename_attrs map a, p)
  | InList (a, es) -> InList (rename_attrs map a, List.map (rename_attrs map) es)
  | FunCall (f, es) -> FunCall (f, List.map (rename_attrs map) es)
  | Sublink _ -> invalid_arg "rename_attrs: sublink"

(* ------------------------------------------------------------------ *)
(* Solver-driven predicate passes                                      *)
(* ------------------------------------------------------------------ *)

let static_schema db q =
  match Typecheck.infer_query_env db [] q with
  | s -> Some s
  | exception _ -> None

(* What is known of a subplan's static typing: its output columns with
   their types when it typechecks under no enclosing scope (it is not
   correlated), [None] otherwise — a window of [width] columns from
   [first] on of the schema of an enclosing typing, whose name index
   serves every lookup; and, when the subplan itself was typed, its
   typed tree, which holds the typings of its inputs. A site types its
   subplan only when the solver first asks for a type. *)
type typed = {
  schema : Schema.t;
  first : int;
  width : int;
  tree : Typecheck.tree option;
}

type typing = typed option Lazy.t

let no_hint : typing = Lazy.from_val None

let typed_of_tree (t : Typecheck.tree) =
  { schema = t.t_schema; first = 0; width = Schema.arity t.t_schema; tree = Some t }

(* The type of column [n] of a typed subplan, if it has one. *)
let column_type h n =
  match Schema.find h.schema n with
  | Some i when i >= h.first && i < h.first + h.width ->
      Vtype.some (Schema.attr_at h.schema i).Schema.ty
  | _ -> None

(* The first [k] columns of a typing, and the rest. *)
let left_cols k h = { h with width = min k h.width }
let right_cols k h = { h with first = h.first + min k h.width; width = max 0 (h.width - k) }

(* [q]'s typing: the [hint] when there is one, or else [q] typed. *)
let resolve_typing db (hint : typing) q : typing =
  lazy
    (match Lazy.force hint with
    | Some _ as h -> h
    | None -> (
        match Typecheck.infer_tree db q with
        | t -> Some (typed_of_tree t)
        | exception _ -> None))

(* The hint for [input], an operator input of [q] whose typing is
   [cols]. When [q] itself was typed, [input]'s typing is in [q]'s
   tree. Otherwise [q] is an optimized copy of a typed subplan; the
   optimizer keeps an uncorrelated subplan's output schema and never
   makes it correlated, so [slice] reads [input]'s columns off [q]'s
   where it can: a selection's input has the selection's columns, a
   product's or join's sides split them. A typing not yet computed
   gives no hint: typing a larger plan to type a smaller one costs
   more than it saves. *)
let input_hint ?slice (cols : typing) q input : typing =
  if not (Lazy.is_val cols) then no_hint
  else
    Lazy.from_val
      (match Lazy.force cols with
      | Some { tree = Some t; _ } when t.Typecheck.t_query == q ->
          List.find_opt
            (fun (i : Typecheck.tree) -> i.t_query == input)
            t.t_inputs
          |> Option.map typed_of_tree
      | Some h -> Option.map (fun f -> { (f h) with tree = None }) slice
      | None -> None)

(* Solver context for predicates over a subplan with output columns
   [cols]: static column types only (they enable integer bound
   tightening), never witness-data facts like observed nullability —
   the passes' claims must hold on every database, or {!Certify} would
   refute them on its NULL-rich witness variants. The columns are
   forced only when the solver first asks for a column's type. *)
let pred_ctx (cols : typing) =
  Symbolic.ctx
    ~types:(fun n ->
      match Lazy.force cols with
      | Some h -> column_type h n
      | None -> None)
    ()

(* Conjuncts of every Select/Join condition in a Select/Cross/Join
   tree, plus the leaf subplans below them (mirrors the flattening the
   Certify discharge uses). *)
let rec flat_conjuncts (q : query) : expr list * query list =
  match q with
  | Select (c, q1) ->
      let cs, ls = flat_conjuncts q1 in
      (conjuncts c @ cs, ls)
  | Cross (a, b) ->
      let ca, la = flat_conjuncts a and cb, lb = flat_conjuncts b in
      (ca @ cb, la @ lb)
  | Join (c, a, b) ->
      let ca, la = flat_conjuncts a and cb, lb = flat_conjuncts b in
      (conjuncts c @ ca @ cb, la @ lb)
  | _ -> ([], [ q ])

(* Mixing conjuncts from different tree levels into one solver query is
   only sound when every name binds to the same column at every level:
   leaf output names pairwise distinct and disjoint from the plan's
   correlated (free) references [frees]. *)
let rec absent n = function [] -> true | m :: ms -> (not (String.equal n m)) && absent n ms
let rec distinct_names = function [] -> true | n :: rest -> absent n rest && distinct_names rest

let flat_names (frees : string list Lazy.t) names =
  distinct_names names
  &&
  match Lazy.force frees with
  | frees -> List.for_all (fun f -> not (List.mem f names)) frees
  | exception _ -> false

let flat_namespace cx frees leaves =
  match List.concat_map (fun l -> Scope.out_names cx.db l) leaves with
  | names -> flat_names frees names
  | exception _ -> false

(* The number of leaves {!flat_conjuncts} finds. *)
let rec cluster_leaves (q : query) =
  match q with
  | Select (_, q1) -> cluster_leaves q1
  | Cross (a, b) | Join (_, a, b) -> cluster_leaves a + cluster_leaves b
  | _ -> 1

(* [symbolic_conds cx prefix conds q cols] runs the solver-driven
   passes on the conjuncts accumulated at a selection site over [q],
   whose typing is [cols]:
   - {b unsat-fold}: the conjunction (together with the conditions
     already inside [q], when the namespace is flat) provably never
     holds — fold the whole subplan to the empty relation;
   - {b taut-fold}: the conjunction provably holds on every row — drop
     the selection;
   - {b drop-implied}: a conjunct implied by the remaining ones is
     redundant — drop it.
   Each change is emitted as its own obligation whose before/after
   differ only in the predicate, so Certify can usually re-prove it
   symbolically. Returns [Error folded] when the site folded to an
   empty relation, [Ok conds'] otherwise. *)
let symbolic_conds cx (prefix : string list) (conds : expr list) (q : query)
    (cols : typing) : (expr list, query) result =
  if conds = [] then Ok conds
  else begin
    let db = cx.db in
    let ctx = pred_ctx cols in
    let sel cs = Select (conj cs, q) in
    (* callers test [Rewrite_trace.active] first *)
    let emit rule after =
      let before = sel conds in
      Rewrite_trace.emit ~rule ~path:(Rewrite_trace.node prefix before)
        ~before ~after
    in
    (* --- unsatisfiable selection: fold to the empty relation -------- *)
    let unsat =
      if Rewrite_trace.mutant "sym-unsat-null-ok" then
        (* mutant: wrong polarity — "never FALSE" also holds for
           tautologies and always-NULL predicates *)
        Symbolic.falsifiable ctx (conj conds) = Symbolic.Refuted
      else
        let ctx =
          (* mutant: assumes base columns are never NULL, a witness-data
             fact the NULL-rich databases refute *)
          if Rewrite_trace.mutant "sym-unsat-notnull-db" then
            Symbolic.ctx ~notnull:(refs_of cx (conj conds)) ()
          else ctx
        in
        let deep_cs, leaves = flat_conjuncts q in
        (* an uncorrelated [q] adds no free names to the selection's *)
        let frees =
          lazy
            (match Lazy.force cols with
            | Some h ->
                List.filter
                  (fun n -> Option.is_none (column_type h n))
                  (refs_of cx (conj conds))
            | None -> Scope.free_of_query ~memo:cx.frees db (sel conds))
        in
        let full =
          if deep_cs <> [] && flat_namespace cx frees leaves then
            conds @ deep_cs
          else conds
        in
        Symbolic.never_true ctx (conj full) = Symbolic.Proved
    in
    match (if unsat then static_schema db (sel conds) else None) with
    | Some schema ->
        let after = TableExpr (Relation.empty schema) in
        if Rewrite_trace.active () then emit "unsat-fold" after;
        Error after
    | None ->
        (* --- tautological selection: drop it ------------------------ *)
        let taut =
          if Rewrite_trace.mutant "sym-taut-not-false" then
            (* mutant: "never FALSE" is not "always TRUE" — the classic
               3VL bug, [p OR NOT p] is NULL on NULL rows *)
            Symbolic.falsifiable ctx (conj conds) = Symbolic.Refuted
          else Symbolic.always_true ctx (conj conds) = Symbolic.Proved
        in
        if taut then begin
          if Rewrite_trace.active () then emit "taut-fold" q;
          Ok []
        end
        else begin
          (* --- redundant conjuncts: drop what the rest implies ------ *)
          let implied others x =
            if Rewrite_trace.mutant "sym-drop-implicant" then
              (* mutant: implication tested backwards — drops the
                 stronger conjunct and keeps the weaker one *)
              Symbolic.implies ctx x (conj others) = Symbolic.Proved
            else Symbolic.implies ctx (conj others) x = Symbolic.Proved
          in
          let rec drop kept = function
            | [] -> List.rev kept
            | x :: rest ->
                let others = List.rev_append kept rest in
                if others <> [] && implied others x then drop kept rest
                else drop (x :: kept) rest
          in
          let conds' = drop [] conds in
          if List.length conds' <> List.length conds && Rewrite_trace.active ()
          then emit "drop-implied" (sel conds');
          Ok conds'
        end
  end

(* [derive_implied db path before ~wrap all]: transitive implied-
   predicate propagation. Columns equated by [=]/[=n] conjuncts form
   congruence classes; a constant comparison on one member is implied
   for every other member, and the derived copy — unlike the original —
   is movable into that member's side of the join, where it prunes
   rows early (the range predicates the provenance rewrite's added
   joins otherwise evaluate late). Every candidate is re-checked with
   {!Symbolic.implies} before it is added; [wrap derived] rebuilds the
   after plan for the trace entry. *)
let derive_implied path before ~wrap (all : expr list) : expr list =
  let through_neq = Rewrite_trace.mutant "sym-implied-through-neq" in
  let flip_op = Rewrite_trace.mutant "sym-implied-op-flip" in
  let edges =
    List.filter_map
      (fun e ->
        match e with
        | Cmp ((Eq | EqNull), Attr x, Attr y) -> Some (x, y)
        (* mutant: treats a disequality as an equality edge *)
        | Cmp (Neq, Attr x, Attr y) when through_neq -> Some (x, y)
        | _ -> None)
      all
  in
  if edges = [] then all
  else begin
    let parent = Hashtbl.create 8 in
    let rec find n =
      match Hashtbl.find_opt parent n with Some p -> find p | None -> n
    in
    List.iter
      (fun (x, y) ->
        let rx = find x and ry = find y in
        if rx <> ry then Hashtbl.replace parent rx ry)
      edges;
    let cols =
      List.sort_uniq String.compare
        (List.concat_map (fun (x, y) -> [ x; y ]) edges)
    in
    (* mutant: derives the comparison with its operator flipped *)
    let flip = function
      | Lt -> Gt
      | Leq -> Geq
      | Gt -> Lt
      | Geq -> Leq
      | op -> op
    in
    let ctx = Symbolic.ctx () in
    let validate d =
      (* the broken variants skip validation — the point of the mutants
         is an unsound derivation reaching the plan *)
      flip_op || through_neq
      || Symbolic.implies ctx (conj all) d = Symbolic.Proved
    in
    let candidate op x k y =
      if String.equal y x || find y <> find x then None
      else
        let op = if flip_op then flip op else op in
        let d = Cmp (op, Attr y, k) in
        if List.exists (fun e -> e = d) all then None
        else if validate d then Some d
        else None
    in
    let derived =
      List.concat_map
        (fun e ->
          match e with
          | Cmp (op, Attr x, (Const _ as k)) when op <> EqNull ->
              List.filter_map (fun y -> candidate op x k y) cols
          | Cmp (op, (Const _ as k), Attr x) when op <> EqNull ->
              (* normalize [k op x] to [x op' k] before deriving *)
              let op' =
                match op with
                | Lt -> Gt
                | Leq -> Geq
                | Gt -> Lt
                | Geq -> Leq
                | op -> op
              in
              List.filter_map (fun y -> candidate op' x k y) cols
          | _ -> [])
        all
    in
    let derived =
      let rec dedup acc = function
        | [] -> List.rev acc
        | d :: rest ->
            if List.exists (fun e -> e = d) acc then dedup acc rest
            else dedup (d :: acc) rest
      in
      List.filteri (fun i _ -> i < 8) (dedup [] derived)
    in
    if derived = [] then all
    else begin
      if Rewrite_trace.active () then
        Rewrite_trace.emit ~rule:"implied-predicate" ~path ~before
          ~after:(wrap derived);
      all @ derived
    end
  end

(* [push_select cx prefix conds q hint] pushes the accumulated
   conjuncts [conds] into [q] ([hint]: its typing, when an enclosing
   plan's gives it). The subplan being rewritten — the proof
   obligation's before side — is [Select (conj conds, q)] (or [q] when
   no conjuncts accumulated); [prefix] is the path prefix of that
   subplan's root. *)
let rec push_select cx (prefix : string list) (conds : expr list) (q : query)
    (hint : typing) : query =
  match q with
  | Select (c, input) ->
      push_select cx prefix (conds @ conjuncts c) input
        (input_hint ~slice:Fun.id hint q input)
  | _ -> (
      let cols = resolve_typing cx.db hint q in
      match symbolic_conds cx prefix conds q cols with
      | Error folded -> folded
      | Ok conds -> push_conds cx prefix conds q cols)

and push_conds cx (prefix : string list) (conds : expr list) (q : query)
    (cols : typing) : query =
      let db = cx.db in
      let tracing = Rewrite_trace.active () in
      (* the obligations' before side, built only under a tracer (it is
         read by nothing else) *)
      let before =
        if tracing && conds <> [] then Select (conj conds, q) else q
      in
      let here = Rewrite_trace.node prefix before in
      (* prefix of [q] itself: below the accumulated selection, if any *)
      let qprefix = if conds = [] then prefix else here in
      let qchild qual = Rewrite_trace.child qprefix q qual in
      let emit rule after =
        if tracing then Rewrite_trace.emit ~rule ~path:here ~before ~after;
        after
      in
      (match q with
      | Cross (a, b) | Join (Const (Value.Bool true), a, b) ->
          let conds =
            derive_implied here before
              ~wrap:(fun ds -> Select (conj (conds @ ds), q))
              conds
          in
          (* The motion obligation's before side includes any derived
             conjuncts: the [implied-predicate] entry already justified
             adding them, so this entry stays a pure conjunct motion. *)
          distribute cx cols q ~left:(qchild Path.Left)
            ~right:(qchild Path.Right)
            ~motion:(fun after ->
              let before_m = if conds = [] then q else Select (conj conds, q) in
              Rewrite_trace.emit ~rule:"pushdown-into-cross" ~path:here
                ~before:before_m ~after)
            conds a b
            ~mk:(fun residual a b ->
              match residual with
              | [] -> Cross (a, b)
              | cs -> Join (conj cs, a, b))
      | Join (c, a, b) ->
          let all0 = conds @ conjuncts c in
          let all =
            derive_implied here before
              ~wrap:(fun ds ->
                let j = Join (And (c, conj ds), a, b) in
                if conds = [] then j else Select (conj conds, j))
              all0
          in
          distribute cx cols q ~left:(qchild Path.Left)
            ~right:(qchild Path.Right)
            ~motion:(fun after ->
              let before_m =
                if List.length all = List.length all0 then before
                else
                  let ds =
                    List.filteri (fun i _ -> i >= List.length all0) all
                  in
                  let j = Join (And (c, conj ds), a, b) in
                  if conds = [] then j else Select (conj conds, j)
              in
              Rewrite_trace.emit ~rule:"pushdown-into-join" ~path:here
                ~before:before_m ~after)
            all a b
            ~mk:(fun residual a b -> Join (conj residual, a, b))
      | LeftJoin (c, a, b) ->
          (* Only push into the left (preserved) side: conditions on the
             nullable side would change outer-join semantics. The join
             condition itself stays put. *)
          let a_names = Scope.out_names db a in
          let b_names = Scope.out_names db b in
          let to_left, residual =
            List.partition (fun e -> movable_to cx b_names e) conds
          in
          (* mutant: pushes conditions into the nullable side too, the
             classic outer-join pushdown bug *)
          let to_right, residual =
            if Rewrite_trace.mutant "opt-leftjoin-push-right" then
              List.partition (fun e -> movable_to cx a_names e) residual
            else ([], residual)
          in
          (* Emit the pure motion step (sides untouched) before
             recursing — the sides' rewrites are their own entries. *)
          let wrap cs p = if cs = [] then p else Select (conj cs, p) in
          if tracing then
            Rewrite_trace.emit ~rule:"pushdown-into-leftjoin" ~path:here
              ~before
              ~after:
                (wrap residual (LeftJoin (c, wrap to_left a, wrap to_right b)));
          let left = qchild Path.Left and right = qchild Path.Right in
          let k = List.length a_names in
          let a_cols =
            input_hint ~slice:(left_cols k) cols q a
          and b_cols =
            input_hint ~slice:(right_cols k) cols q b
          in
          let a' =
            push_select cx left to_left (optimize ~hint:a_cols cx left a) a_cols
          in
          let b' = optimize ~hint:b_cols cx right b in
          let b' =
            if to_right = [] then b'
            else push_select cx right to_right b' b_cols
          in
          let inner = LeftJoin (c, a', b') in
          if residual = [] then inner else Select (conj residual, inner)
      | Project p ->
          (* Push conjuncts whose references all map to rename-only columns
             through the projection (filtering before or after a pure
             rename/dedup is equivalent). Sublink conjuncts stay above: the
             substitution cannot see into sublink scopes. *)
          let rename_map =
            if conds = [] then []
            else
              List.filter_map
                (fun (e, n) -> match e with Attr src -> Some (n, src) | _ -> None)
                p.cols
          in
          let pushable, rest =
            List.partition
              (fun c ->
                (not (has_sublink c))
                && ((* mutant: pushes through computed columns as if they
                       were renames *)
                    Rewrite_trace.mutant "opt-push-nonrename"
                   || List.for_all
                        (fun n -> List.mem_assoc n rename_map)
                        (refs_of cx c)))
              conds
          in
          let renamed = List.map (rename_attrs rename_map) pushable in
          let phere = Rewrite_trace.node qprefix q in
          let inner =
            push_select cx (qchild Path.Input) renamed p.proj_input
              (input_hint cols q p.proj_input)
          in
          let cols =
            if root_has_sublink q then map_fst_shared (map_expr_query (body cx phere (ref 0))) p.cols
            else p.cols
          in
          let projected = Project { p with cols; proj_input = inner } in
          emit "pushdown-through-project"
            (if rest = [] then projected else Select (conj rest, projected))
      | _ ->
          let q' = optimize_children cx cols qprefix q in
          if conds = [] then q'
          else emit "pushdown-residual" (Select (conj conds, q')))

and distribute cx cols q ~left ~right ~motion conds a b ~mk =
  let db = cx.db in
  let a_names = Scope.out_names db a and b_names = Scope.out_names db b in
  let k = List.length a_names in
  let a_cols = input_hint ~slice:(left_cols k) cols q a
  and b_cols = input_hint ~slice:(right_cols k) cols q b in
  let to_a, rest = List.partition (fun e -> movable_to cx b_names e) conds in
  (* mutant: loses the first conjunct headed for the left side *)
  let to_a =
    if Rewrite_trace.mutant "opt-drop-conjunct" then
      match to_a with _ :: t -> t | [] -> []
    else to_a
  in
  let to_b, residual = List.partition (fun e -> movable_to cx a_names e) rest in
  (* mutant: forgets the residual join condition *)
  let residual =
    if Rewrite_trace.mutant "opt-residual-drop" then [] else residual
  in
  (* Announce the pure predicate-motion step with the sides untouched:
     the obligation differs from its before plan only in where the
     conjuncts sit, so Certify can discharge it symbolically. The
     sides' own rewrites below are emitted as their own entries. *)
  let wrap cs q = if cs = [] then q else Select (conj cs, q) in
  if Rewrite_trace.active () then
    motion (mk residual (wrap to_a a) (wrap to_b b));
  let a' =
    push_select cx left to_a (optimize ~hint:a_cols cx left a) a_cols
  in
  let b' =
    push_select cx right to_b (optimize ~hint:b_cols cx right b) b_cols
  in
  mk residual a' b'

(* The [k]-th sublink body of the operator at [here] ([counter] counts
   across the operator's expressions): optimized once per physical
   body, so the copies the provenance rewrite embeds stay shared. *)
and body cx here counter sq =
  incr counter;
  let path = Rewrite_trace.sublink here !counter in
  Rewrite_trace.Shared.visit cx.bodies sq ~path (fun () -> optimize cx path sq)

and optimize_children cx (cols : typing) prefix q =
  let here = Rewrite_trace.node prefix q in
  let child qual i =
    optimize ~hint:(input_hint cols q i) cx (Rewrite_trace.child prefix q qual) i
  in
  let sub = if root_has_sublink q then map_expr_query (body cx here (ref 0)) else Fun.id in
  map_node ~expr:sub ~input:child q

(* Merge Project-over-Project when the outer projection only reorders,
   renames or drops columns (plain attribute references) and the inner
   one performs no duplicate elimination. The provenance rewriter's
   final normalization projection creates exactly this pattern. *)
and merge_projects prefix q =
  match q with
  | Project
      ({ cols = outer_cols; proj_input = Project inner; distinct = _ } as outer)
    when ((not inner.distinct)
         (* mutant: merges through a DISTINCT inner projection, losing
            its duplicate elimination *)
         || Rewrite_trace.mutant "opt-merge-distinct")
         && List.for_all (fun (e, _) -> match e with Attr _ -> true | _ -> false)
              outer_cols ->
      let rec inner_col n = function
        | [] -> None
        | (e, m) :: rest -> if String.equal m n then Some e else inner_col n rest
      in
      let resolve = function
        | Attr n, out_name -> (
            match inner_col n inner.cols with
            | Some e -> (e, out_name)
            | None -> (Attr n, out_name) (* correlated reference *))
        | other -> other
      in
      let after =
        Project
          {
            outer with
            cols = List.map resolve outer_cols;
            proj_input = inner.proj_input;
          }
      in
      Rewrite_trace.emit ~rule:"merge-projects"
        ~path:(Rewrite_trace.node prefix q) ~before:q ~after;
      merge_projects prefix after
  | q -> q

(** [optimize ?hint cx prefix q] rewrites [q] into an equivalent,
    typically faster plan. Sublink queries embedded in conditions are
    optimized too. [hint]: [q]'s typing, when an enclosing plan's gives
    it. *)
and optimize ?(hint = no_hint) cx (prefix : string list) (q : query) : query =
  match merge_projects prefix q with
  | Select (c, input) as q ->
      let c =
        if has_sublink c then map_expr_query (body cx (Rewrite_trace.node prefix q) (ref 0)) c
        else c
      in
      push_select cx prefix (conjuncts c) input
        (input_hint ~slice:Fun.id hint q input)
  | (Cross _ | Join _ | LeftJoin _) as q -> push_select cx prefix [] q hint
  | q' -> optimize_children cx (if q' == q then hint else no_hint) prefix q'

(** {1 Dead-column pruning}

    A backward needed-column pass driven by the same dependency facts
    the {!Dataflow} lineage analysis computes: each operator receives
    the set of output names its parent may read and narrows itself and
    its inputs accordingly. The provenance rewrites (G1/L1/T1) widen
    every tuple with CrossBase/Tsub+ columns that downstream operators
    never read, and the SQL frontend scans every base table through an
    all-columns renaming projection — both leave dead columns that cost
    the engines per-tuple work in every operator above.

    Invariants, per node: [needed ∩ out(q) ⊆ out(q') ⊆ out(q)] with
    relative order preserved (superset semantics — exact narrowing
    happens only at bag [Project] nodes and base scans). Columns are
    never dropped where they carry semantics:
    - DISTINCT projections and set operations dedup/match on all
      columns, so their width is untouched (pruning still descends into
      their sublink conditions and below set-operation arms);
    - [Agg] keeps every GROUP BY column and, with no GROUP BY, at least
      one aggregate so the one-row-on-empty-input semantics survives;
    - EXISTS sublink queries need no columns at all and collapse to
      zero-width plans; scalar/ANY/ALL sublinks keep their single value
      column.
    The root is pruned with its full output, so plan schemas — and the
    provenance contract checked by [Provcheck] — are unchanged.

    Each node the pass narrows (directly or below) yields a [prune]
    obligation: before the whole original subtree, after the pruned
    one. {!Certify} checks those with projected equivalence — the
    before side projected onto the surviving columns must equal the
    after side as a bag. *)

module SS = Scope.S

(* One prune call's state: the pruned plan per physical sublink body,
   in one table for EXISTS bodies (which need no columns) and one for
   value bodies (which keep their value column). *)
type pcx = {
  p_cx : cx;
  p_exists : query Rewrite_trace.Shared.t;
  p_value : query Rewrite_trace.Shared.t;
}

(* [acc] with the names [e] refers to *)
let add_refs pcx e acc = Scope.add_refs ~memo:pcx.p_cx.frees pcx.p_cx.db e acc

(* [acc] with the names the expressions of [cols] refer to *)
let add_col_refs pcx cols acc = List.fold_left (fun acc (e, _) -> add_refs pcx e acc) acc cols

let all_out db q = SS.of_list (Scope.out_names db q)

(* [List.filter], returning [l] itself when it keeps every element
   ([keep] runs right to left). *)
let rec filter_shared keep l =
  match l with
  | [] -> l
  | x :: rest ->
      let rest' = filter_shared keep rest in
      if not (keep x) then rest' else if rest' == rest then l else x :: rest'

(* [prune_expr pcx here counter e] prunes the sublink queries of [e];
   [counter] numbers sublinks across all expressions of the node at
   path [here], in Lint's enumeration order. *)

let rec prune_expr pcx here counter (e : expr) : expr =
  if not (has_sublink e) then e
  else
  let db = pcx.p_cx.db in
  let go = prune_expr pcx here counter in
  match e with
  | Const _ | TypedNull _ | Attr _ -> e
  | Binop (op, a, b) ->
      let a' = go a in
      let b' = go b in
      if a' == a && b' == b then e else Binop (op, a', b')
  | Cmp (op, a, b) ->
      let a' = go a in
      let b' = go b in
      if a' == a && b' == b then e else Cmp (op, a', b')
  | And (a, b) ->
      let a' = go a in
      let b' = go b in
      if a' == a && b' == b then e else And (a', b')
  | Or (a, b) ->
      let a' = go a in
      let b' = go b in
      if a' == a && b' == b then e else Or (a', b')
  | Not a ->
      let a' = go a in
      if a' == a then e else Not a'
  | IsNull a ->
      let a' = go a in
      if a' == a then e else IsNull a'
  | Case (whens, els) ->
      let whens' =
        map_shared
          (fun ((c, x) as w) ->
            let c' = go c in
            let x' = go x in
            if c' == c && x' == x then w else (c', x'))
          whens
      in
      let els' =
        match els with
        | None -> els
        | Some x ->
            let x' = go x in
            if x' == x then els else Some x'
      in
      if whens' == whens && els' == els then e else Case (whens', els')
  | Like (a, p) ->
      let a' = go a in
      if a' == a then e else Like (a', p)
  | InList (a, es) ->
      let a' = go a in
      let es' = map_shared go es in
      if a' == a && es' == es then e else InList (a', es')
  | FunCall (f, es) ->
      let es' = map_shared go es in
      if es' == es then e else FunCall (f, es')
  | Sublink s ->
      incr counter;
      let spfx = Rewrite_trace.sublink here !counter in
      let kind =
        match s.kind with
        | Exists | Scalar -> s.kind
        | AnyOp (op, lhs) ->
            let lhs' = go lhs in
            if lhs' == lhs then s.kind else AnyOp (op, lhs')
        | AllOp (op, lhs) ->
            let lhs' = go lhs in
            if lhs' == lhs then s.kind else AllOp (op, lhs')
      in
      let exists = match s.kind with Exists -> true | _ -> false in
      let query =
        Rewrite_trace.Shared.visit
          (if exists then pcx.p_exists else pcx.p_value)
          s.query ~path:spfx
          (fun () ->
            let needed = if exists then SS.empty else all_out db s.query in
            prune_query pcx spfx needed s.query)
      in
      if kind == s.kind && query == s.query then e else Sublink { s with kind; query }

and prune_query pcx prefix (needed : SS.t) (q : query) : query =
  let db = pcx.p_cx.db in
  let here = Rewrite_trace.node prefix q in
  (* an input pruned to the names [needed] of it *)
  let child needed qual i =
    prune_query pcx (Rewrite_trace.child prefix q qual) needed i
  in
  let pexpr = if root_has_sublink q then prune_expr pcx here (ref 0) else Fun.id in
  let after =
    match q with
    | Base name -> (
        match Database.find_opt db name with
        | None -> q
        | Some r ->
            let schema = Relation.schema r in
            let rec all_needed i =
              i = Schema.arity schema
              || (SS.mem (Schema.attr_at schema i).Schema.name needed && all_needed (i + 1))
            in
            if all_needed 0 then q
            else
              let kept = List.filter (fun n -> SS.mem n needed) (Schema.names schema) in
              project (List.map (fun n -> (Attr n, n)) kept) q)
    | TableExpr _ -> q
    | Select (c, _) | Join (c, _, _) | LeftJoin (c, _, _) ->
        map_node ~expr:pexpr ~input:(child (add_refs pcx c needed)) q
    | Project p when p.distinct && not (Rewrite_trace.mutant "prune-distinct")
      ->
        map_node ~expr:pexpr ~input:(child (add_col_refs pcx p.cols SS.empty)) q
    | Project p ->
        (* the [prune-distinct] mutant routes DISTINCT projections here,
           narrowing the column set they deduplicate on *)
        let kept = filter_shared (fun (_, n) -> SS.mem n needed) p.cols in
        let below = add_col_refs pcx kept SS.empty in
        let cols = map_fst_shared pexpr kept in
        let input = child below Path.Input p.proj_input in
        if cols == p.cols && input == p.proj_input then q
        else Project { p with cols; proj_input = input }
    | Cross _ | Limit _ -> map_node ~expr:pexpr ~input:(child needed) q
    | Agg a ->
        let aggs = filter_shared (fun c -> SS.mem c.agg_name needed) a.aggs in
        let aggs =
          (* an aggregation with no GROUP BY returns exactly one row; keep
             one aggregate so the empty-input behaviour is preserved *)
          if aggs = [] && a.group_by = [] && a.aggs <> [] then [ List.hd a.aggs ]
          else aggs
        in
        (* mutant: drops GROUP BY columns nothing above reads, merging
           groups that were distinct *)
        let group_by =
          if Rewrite_trace.mutant "prune-group-by" then
            List.filter (fun (_, n) -> SS.mem n needed) a.group_by
          else a.group_by
        in
        let below =
          List.fold_left
            (fun acc c -> match c.agg_arg with Some e -> add_refs pcx e acc | None -> acc)
            (add_col_refs pcx group_by SS.empty)
            aggs
        in
        let group_by = map_fst_shared pexpr group_by in
        let aggs =
          map_shared
            (fun c ->
              match c.agg_arg with
              | None -> c
              | Some e ->
                  let e' = pexpr e in
                  if e' == e then c else { c with agg_arg = Some e' })
            aggs
        in
        let input = child below Path.Input a.agg_input in
        if group_by == a.group_by && aggs == a.aggs && input == a.agg_input then q
        else Agg { group_by; aggs; agg_input = input }
    | Union _ | Inter _ | Diff _ ->
        (* positional semantics: arms keep their full width, but pruning
           still reaches sublink conditions and scans below them. The
           [prune-setop] mutant narrows the arms to [needed], changing
           what set-semantics operators deduplicate/match on. *)
        let arm qual q =
          let keep =
            if Rewrite_trace.mutant "prune-setop" then needed else all_out db q
          in
          child keep qual q
        in
        map_node ~expr:pexpr ~input:arm q
    | Order (keys, _) -> map_node ~expr:pexpr ~input:(child (add_col_refs pcx keys needed)) q
  in
  Rewrite_trace.emit ~rule:"prune" ~path:here ~before:q ~after;
  after

let prune_with cx q =
  let pcx =
    {
      p_cx = cx;
      p_exists = Rewrite_trace.Shared.create ();
      p_value = Rewrite_trace.Shared.create ();
    }
  in
  prune_query pcx [] (all_out cx.db q) q

(** [prune db q] drops dead columns everywhere below the root; the
    root's own schema is preserved. *)
let prune db q = prune_with (context db) q

(** {1 Cost-based join reorder}

    A pre-pass over maximal Select/Cross/Join clusters (the flattening
    {!Certify}'s symbolic discharge uses): with at least three leaves
    and a flat namespace, the leaves are re-joined greedily by
    {!Estimate} cardinality — start from the smallest leaf, repeatedly
    adjoin the leaf minimizing the estimated size of the joined prefix,
    attaching each sublink-free conjunct at the lowest node where its
    references are in scope. Sublink conjuncts stay in a residual
    selection on top, and an identity projection restores the original
    column order, so the rewrite preserves the cluster's exact output
    schema — the shape {!Certify}'s schema stage demands. The reordered
    plan is kept only when its estimated cost strictly improves; every
    application is emitted as a [join-reorder] obligation, discharged
    by Certify's witness comparison (the leaf order changes, so the
    symbolic flattening argument does not apply). *)

let reorder_min_leaves = 3

let try_reorder cx est (prefix : string list) (q : query) : query option =
  let db = cx.db in
  if cluster_leaves q < reorder_min_leaves then None
  else
    let conds, leaves = flat_conjuncts q in
    (* the cluster's output names are its leaves', in order *)
    match Array.of_list (List.map (fun l -> (l, Scope.out_names db l)) leaves) with
    | exception _ -> None
    | arr ->
        let cluster_names = List.concat_map snd (Array.to_list arr) in
        if not (flat_names (lazy (Scope.free_of_query ~memo:cx.frees db q)) cluster_names)
        then None
        else
        let out_before = cluster_names in
        let plain, linked = List.partition (fun e -> not (has_sublink e)) conds in
        (* mutant: the rebuilt cluster silently loses one conjunct *)
        let plain =
          if Rewrite_trace.mutant "reorder-drop-conjunct" then
            match plain with _ :: t -> t | [] -> []
          else plain
        in
        let refs = List.map (fun e -> (e, refs_of cx e)) plain in
        (* a conjunct is placeable once every reference that the cluster
           produces is available; references outside the cluster are
           correlated and never block *)
        let placeable avail (_, rs) =
          List.for_all
            (fun r -> List.mem r avail || not (List.mem r cluster_names))
            rs
        in
        (* [placeable] on [avail @ more], without the copy *)
        let placeable_with avail more (_, rs) =
          List.for_all
            (fun r -> List.mem r avail || List.mem r more || not (List.mem r cluster_names))
            rs
        in
        let n = Array.length arr in
        let used = Array.make n false in
        let best_free score =
          let bi = ref (-1) and bs = ref infinity in
          for k = 0 to n - 1 do
            if not used.(k) then begin
              let s = score k in
              if !bi < 0 || s < !bs then begin
                bi := k;
                bs := s
              end
            end
          done;
          !bi
        in
        let start = best_free (fun k -> Estimate.rows est (fst arr.(k))) in
        used.(start) <- true;
        let acc_plan = ref (fst arr.(start)) in
        let acc_names = ref (snd arr.(start)) in
        let remaining = ref refs in
        (* conjuncts over the starting leaf alone (or fully correlated)
           wrap it immediately *)
        let app, rest = List.partition (placeable !acc_names) !remaining in
        if app <> [] then acc_plan := Select (conj (List.map fst app), !acc_plan);
        remaining := rest;
        let candidate k =
          let leaf, lnames = arr.(k) in
          let app, rest = List.partition (placeable_with !acc_names lnames) !remaining in
          let plan =
            match app with
            | [] -> Cross (!acc_plan, leaf)
            | cs -> Join (conj (List.map fst cs), !acc_plan, leaf)
          in
          (plan, rest, lnames)
        in
        for _ = 2 to n do
          (* the chosen candidate is the plan that was scored, so its
             estimate stays in the memo for the next round and for the
             accept test *)
          let cands =
            Array.init n (fun k -> if used.(k) then None else Some (candidate k))
          in
          let bi =
            best_free (fun k ->
                let plan, _, _ = Option.get cands.(k) in
                Estimate.rows est plan)
          in
          let plan, rest, lnames = Option.get cands.(bi) in
          used.(bi) <- true;
          acc_plan := plan;
          acc_names := !acc_names @ lnames;
          remaining := rest
        done;
        let tree =
          match linked with
          | [] -> !acc_plan
          | cs -> Select (conj cs, !acc_plan)
        in
        let after =
          if !acc_names = out_before then tree
          else project (List.map (fun nm -> (Attr nm, nm)) out_before) tree
        in
        let unchanged = try after = q with Invalid_argument _ -> false in
        if unchanged then None
        else if Estimate.cost est after < 0.99 *. Estimate.cost est q then begin
          Rewrite_trace.emit ~rule:"join-reorder"
            ~path:(Rewrite_trace.node prefix q) ~before:q ~after;
          Some after
        end
        else None

(* The walk: attempt a reorder at every maximal cluster root, then
   descend — through the (possibly rebuilt) cluster spine without
   re-attempting, and into leaves, sublink queries and every other
   operator with the standard path scheme. [bodies] holds the result
   per physical sublink body. *)
let rec reorder_query cx est bodies (prefix : string list) (q : query) : query
    =
  match q with
  | Select _ | Cross _ | Join _ ->
      let q =
        match try_reorder cx est prefix q with Some q' -> q' | None -> q
      in
      reorder_spine cx est bodies prefix q
  | _ -> reorder_spine cx est bodies prefix q

and reorder_spine cx est bodies prefix q =
  let here = Rewrite_trace.node prefix q in
  let sub =
    if not (root_has_sublink q) then Fun.id
    else
      let counter = ref 0 in
      map_expr_query (fun sq ->
          incr counter;
          let path = Rewrite_trace.sublink here !counter in
          Rewrite_trace.Shared.visit bodies sq ~path (fun () ->
              reorder_query cx est bodies path sq))
  in
  let child qual i =
    reorder_query cx est bodies (Rewrite_trace.child prefix q qual) i
  in
  let spine qual i =
    reorder_spine cx est bodies (Rewrite_trace.child prefix q qual) i
  in
  match q with
  | Select _ | Cross _ | Join _ -> map_node ~expr:sub ~input:spine q
  | _ -> map_node ~expr:sub ~input:child q

(* Entry point: simplify first (constant folding may expose TRUE/FALSE
   selections and negation-free comparisons), reorder join clusters by
   estimated cost, push selections, then simplify again — the pushdown
   phase's unsat-fold can leave sublink atoms over empty literal
   relations, which the second pass folds to constants (emitting its
   usual traced, certified rule applications) — and finally drop the
   columns nothing above reads. *)
let optimize ?(prune = true) db q =
  let cx = context db in
  let q = Simplify.query q in
  let q =
    reorder_query cx
      (Estimate.create ~frees:cx.frees db)
      (Rewrite_trace.Shared.create ())
      [] q
  in
  let q' = optimize cx [] q in
  let q' = Simplify.query q' in
  if prune then prune_with cx q' else q'
