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
    outermost selection they started from). Deliberately broken rule
    variants sit behind the test-only [Rewrite_trace.mutant] hook — see
    [test/test_certify.ml]. *)

open Algebra

let sublink_seg k = Printf.sprintf "sublink[%d]" k

(* A conjunct can move to a side of a binary operator when all its
   attribute references are produced by that side. References to
   attributes of neither side are correlated (bound by an enclosing
   sublink scope) and do not block the move. *)
let movable_to db side_names e =
  let refs = Scope.refs_of_expr db e in
  ignore refs;
  (* A conjunct is movable to [side] iff none of its references belong to
     the opposite side; the caller passes the names of the opposite side. *)
  not (List.exists (fun n -> List.mem n side_names) (Scope.refs_of_expr db e))

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

(* Solver context for predicates over [q]'s output columns: static
   column types only (they enable integer bound tightening), never
   witness-data facts like observed nullability — the passes' claims
   must hold on every database, or {!Certify} would refute them on its
   NULL-rich witness variants. *)
let pred_ctx db q =
  match static_schema db q with
  | Some s ->
      let assoc =
        List.map2 (fun n t -> (n, t)) (Schema.names s) (Schema.types s)
      in
      Symbolic.ctx ~types:(fun n -> List.assoc_opt n assoc) ()
  | None -> Symbolic.ctx ()

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
   correlated (free) references. *)
let flat_namespace db before leaves =
  match
    ( List.concat_map (fun l -> Scope.out_names db l) leaves,
      Scope.free_of_query db before )
  with
  | names, frees ->
      List.length (List.sort_uniq String.compare names) = List.length names
      && List.for_all (fun f -> not (List.mem f names)) frees
  | exception _ -> false

(* [symbolic_conds db prefix conds q] runs the solver-driven passes on
   the conjuncts accumulated at a selection site over [q]:
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
let symbolic_conds db (prefix : string list) (conds : expr list) (q : query) :
    (expr list, query) result =
  if conds = [] then Ok conds
  else begin
    let ctx = pred_ctx db q in
    let sel cs = Select (conj cs, q) in
    let emit rule before after =
      Rewrite_trace.emit ~rule ~path:(prefix @ [ Guard.op_label before ])
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
            Symbolic.ctx ~notnull:(Scope.refs_of_expr db (conj conds)) ()
          else ctx
        in
        let deep_cs, leaves = flat_conjuncts q in
        let full =
          if deep_cs <> [] && flat_namespace db (sel conds) leaves then
            conds @ deep_cs
          else conds
        in
        Symbolic.never_true ctx (conj full) = Symbolic.Proved
    in
    match (if unsat then static_schema db (sel conds) else None) with
    | Some schema ->
        let after = TableExpr (Relation.empty schema) in
        emit "unsat-fold" (sel conds) after;
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
          emit "taut-fold" (sel conds) q;
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
          if List.length conds' <> List.length conds then
            emit "drop-implied" (sel conds) (sel conds');
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
      Rewrite_trace.emit ~rule:"implied-predicate" ~path ~before
        ~after:(wrap derived);
      all @ derived
    end
  end

(* [push_select db prefix conds q] pushes the accumulated conjuncts
   [conds] into [q]. The subplan being rewritten — the proof
   obligation's before side — is [Select (conj conds, q)] (or [q] when
   no conjuncts accumulated); [prefix] is the path prefix of that
   subplan's root. *)
let rec push_select db (prefix : string list) (conds : expr list) (q : query) :
    query =
  match q with
  | Select (c, input) -> push_select db prefix (conds @ conjuncts c) input
  | _ -> (
      match symbolic_conds db prefix conds q with
      | Error folded -> folded
      | Ok conds -> push_conds db prefix conds q)

and push_conds db (prefix : string list) (conds : expr list) (q : query) :
    query =
      let before = if conds = [] then q else Select (conj conds, q) in
      let here = prefix @ [ Guard.op_label before ] in
      (* prefix of [q] itself: below the accumulated selection, if any *)
      let qprefix = if conds = [] then prefix else here in
      let qchild qual = qprefix @ [ Guard.op_label q ^ qual ] in
      let emit rule after =
        Rewrite_trace.emit ~rule ~path:here ~before ~after;
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
          let before_m = if conds = [] then q else Select (conj conds, q) in
          distribute db ~left:(qchild "[left]") ~right:(qchild "[right]")
            ~motion:(fun after ->
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
          let before_m =
            if List.length all = List.length all0 then before
            else
              let ds = List.filteri (fun i _ -> i >= List.length all0) all in
              let j = Join (And (c, conj ds), a, b) in
              if conds = [] then j else Select (conj conds, j)
          in
          distribute db ~left:(qchild "[left]") ~right:(qchild "[right]")
            ~motion:(fun after ->
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
          ignore a_names;
          let to_left, residual =
            List.partition (fun e -> movable_to db b_names e) conds
          in
          (* mutant: pushes conditions into the nullable side too, the
             classic outer-join pushdown bug *)
          let to_right, residual =
            if Rewrite_trace.mutant "opt-leftjoin-push-right" then
              List.partition (fun e -> movable_to db a_names e) residual
            else ([], residual)
          in
          (* Emit the pure motion step (sides untouched) before
             recursing — the sides' rewrites are their own entries. *)
          let wrap cs p = if cs = [] then p else Select (conj cs, p) in
          Rewrite_trace.emit ~rule:"pushdown-into-leftjoin" ~path:here ~before
            ~after:(wrap residual (LeftJoin (c, wrap to_left a, wrap to_right b)));
          let left = qchild "[left]" and right = qchild "[right]" in
          let a' = push_select db left to_left (optimize db left a) in
          let b' = optimize db right b in
          let b' =
            if to_right = [] then b' else push_select db right to_right b'
          in
          let inner = LeftJoin (c, a', b') in
          if residual = [] then inner else Select (conj residual, inner)
      | Project p ->
          (* Push conjuncts whose references all map to rename-only columns
             through the projection (filtering before or after a pure
             rename/dedup is equivalent). Sublink conjuncts stay above: the
             substitution cannot see into sublink scopes. *)
          let rename_map =
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
                        (Scope.refs_of_expr db c)))
              conds
          in
          let renamed = List.map (rename_attrs rename_map) pushable in
          let phere = qprefix @ [ Guard.op_label q ] in
          let inner = push_select db (qchild "") renamed p.proj_input in
          let counter = ref 0 in
          let cols =
            List.map
              (fun (e, n) ->
                ( map_expr_query
                    (fun sq ->
                      incr counter;
                      optimize db (phere @ [ sublink_seg !counter ]) sq)
                    e,
                  n ))
              p.cols
          in
          let projected = Project { p with cols; proj_input = inner } in
          emit "pushdown-through-project"
            (if rest = [] then projected else Select (conj rest, projected))
      | _ ->
          let q' = optimize_children db qprefix q in
          if conds = [] then q'
          else emit "pushdown-residual" (Select (conj conds, q')))

and distribute db ~left ~right ~motion conds a b ~mk =
  let a_names = Scope.out_names db a and b_names = Scope.out_names db b in
  let to_a, rest = List.partition (fun e -> movable_to db b_names e) conds in
  (* mutant: loses the first conjunct headed for the left side *)
  let to_a =
    if Rewrite_trace.mutant "opt-drop-conjunct" then
      match to_a with _ :: t -> t | [] -> []
    else to_a
  in
  let to_b, residual = List.partition (fun e -> movable_to db a_names e) rest in
  (* mutant: forgets the residual join condition *)
  let residual =
    if Rewrite_trace.mutant "opt-residual-drop" then [] else residual
  in
  (* Announce the pure predicate-motion step with the sides untouched:
     the obligation differs from its before plan only in where the
     conjuncts sit, so Certify can discharge it symbolically. The
     sides' own rewrites below are emitted as their own entries. *)
  let wrap cs q = if cs = [] then q else Select (conj cs, q) in
  motion (mk residual (wrap to_a a) (wrap to_b b));
  let a' = push_select db left to_a (optimize db left a) in
  let b' = push_select db right to_b (optimize db right b) in
  mk residual a' b'

and optimize_children db prefix q =
  let here = prefix @ [ Guard.op_label q ] in
  let child qual i = optimize db (prefix @ [ Guard.op_label q ^ qual ]) i in
  let counter = ref 0 in
  let sub e =
    map_expr_query
      (fun sq ->
        incr counter;
        optimize db (here @ [ sublink_seg !counter ]) sq)
      e
  in
  match q with
  | Base _ | TableExpr _ -> q
  | Select (c, i) ->
      let c = sub c in
      Select (c, child "" i)
  | Project p ->
      let cols = List.map (fun (e, n) -> (sub e, n)) p.cols in
      Project { p with cols; proj_input = child "" p.proj_input }
  | Cross (a, b) ->
      let a = child "[left]" a in
      Cross (a, child "[right]" b)
  | Join (c, a, b) ->
      let c = sub c in
      let a = child "[left]" a in
      Join (c, a, child "[right]" b)
  | LeftJoin (c, a, b) ->
      let c = sub c in
      let a = child "[left]" a in
      LeftJoin (c, a, child "[right]" b)
  | Agg a ->
      let group_by = List.map (fun (e, n) -> (sub e, n)) a.group_by in
      let aggs =
        List.map
          (fun call -> { call with agg_arg = Option.map sub call.agg_arg })
          a.aggs
      in
      Agg { group_by; aggs; agg_input = child "" a.agg_input }
  | Union (s, a, b) ->
      let a = child "[left]" a in
      Union (s, a, child "[right]" b)
  | Inter (s, a, b) ->
      let a = child "[left]" a in
      Inter (s, a, child "[right]" b)
  | Diff (s, a, b) ->
      let a = child "[left]" a in
      Diff (s, a, child "[right]" b)
  | Order (keys, i) ->
      let keys = List.map (fun (e, d) -> (sub e, d)) keys in
      Order (keys, child "" i)
  | Limit (n, i) -> Limit (n, child "" i)

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
      let resolve = function
        | Attr n, out_name -> (
            match List.assoc_opt n (List.map (fun (e, m) -> (m, e)) inner.cols) with
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
        ~path:(prefix @ [ Guard.op_label q ])
        ~before:q ~after;
      merge_projects prefix after
  | q -> q

(** [optimize db prefix q] rewrites [q] into an equivalent, typically
    faster plan. Sublink queries embedded in conditions are optimized
    too. *)
and optimize db (prefix : string list) (q : query) : query =
  match merge_projects prefix q with
  | Select (c, input) ->
      let here = prefix @ [ Guard.op_label (Select (c, input)) ] in
      let counter = ref 0 in
      let c =
        map_expr_query
          (fun sq ->
            incr counter;
            optimize db (here @ [ sublink_seg !counter ]) sq)
          c
      in
      push_select db prefix (conjuncts c) input
  | (Cross _ | Join _ | LeftJoin _) as q -> push_select db prefix [] q
  | q -> optimize_children db prefix q

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

module SS = Set.Make (String)

let refs db e = SS.of_list (Scope.refs_of_expr db e)

let refs_of_exprs db es =
  List.fold_left (fun acc e -> SS.union acc (refs db e)) SS.empty es

let all_out db q = SS.of_list (Scope.out_names db q)

(* [prune_expr db here counter e] prunes the sublink queries of [e];
   [counter] numbers sublinks across all expressions of the node at
   path [here], in Lint's enumeration order. *)
let rec prune_expr db here counter (e : expr) : expr =
  let go = prune_expr db here counter in
  match e with
  | Const _ | TypedNull _ | Attr _ -> e
  | Binop (op, a, b) ->
      let a = go a in
      Binop (op, a, go b)
  | Cmp (op, a, b) ->
      let a = go a in
      Cmp (op, a, go b)
  | And (a, b) ->
      let a = go a in
      And (a, go b)
  | Or (a, b) ->
      let a = go a in
      Or (a, go b)
  | Not a -> Not (go a)
  | IsNull a -> IsNull (go a)
  | Case (whens, els) ->
      let whens =
        List.map
          (fun (c, x) ->
            let c = go c in
            (c, go x))
          whens
      in
      Case (whens, Option.map go els)
  | Like (a, p) -> Like (go a, p)
  | InList (a, es) ->
      let a = go a in
      InList (a, List.map go es)
  | FunCall (f, es) -> FunCall (f, List.map go es)
  | Sublink s ->
      incr counter;
      let spfx = here @ [ sublink_seg !counter ] in
      let kind, needed =
        match s.kind with
        | Exists -> (Exists, SS.empty)
        | Scalar -> (Scalar, all_out db s.query)
        | AnyOp (op, lhs) -> (AnyOp (op, go lhs), all_out db s.query)
        | AllOp (op, lhs) -> (AllOp (op, go lhs), all_out db s.query)
      in
      Sublink { s with kind; query = prune_query db spfx needed s.query }

and prune_query db prefix (needed : SS.t) (q : query) : query =
  let here = prefix @ [ Guard.op_label q ] in
  let child qual i needed =
    prune_query db (prefix @ [ Guard.op_label q ^ qual ]) needed i
  in
  let counter = ref 0 in
  let pexpr e = prune_expr db here counter e in
  let after =
    match q with
    | Base name -> (
        match Database.find_opt db name with
        | None -> q
        | Some r ->
            let names = Schema.names (Relation.schema r) in
            let kept = List.filter (fun n -> SS.mem n needed) names in
            if List.length kept = List.length names then q
            else project (List.map (fun n -> (Attr n, n)) kept) q)
    | TableExpr _ -> q
    | Select (c, input) ->
        let below = SS.union needed (refs db c) in
        let c = pexpr c in
        Select (c, child "" input below)
    | Project p when p.distinct && not (Rewrite_trace.mutant "prune-distinct")
      ->
        let below = refs_of_exprs db (List.map fst p.cols) in
        let cols = List.map (fun (e, n) -> (pexpr e, n)) p.cols in
        Project { p with cols; proj_input = child "" p.proj_input below }
    | Project p ->
        (* the [prune-distinct] mutant routes DISTINCT projections here,
           narrowing the column set they deduplicate on *)
        let cols = List.filter (fun (_, n) -> SS.mem n needed) p.cols in
        let below = refs_of_exprs db (List.map fst cols) in
        let cols = List.map (fun (e, n) -> (pexpr e, n)) cols in
        Project { p with cols; proj_input = child "" p.proj_input below }
    | Cross (a, b) ->
        let a = child "[left]" a needed in
        Cross (a, child "[right]" b needed)
    | Join (c, a, b) ->
        let below = SS.union needed (refs db c) in
        let c = pexpr c in
        let a = child "[left]" a below in
        Join (c, a, child "[right]" b below)
    | LeftJoin (c, a, b) ->
        let below = SS.union needed (refs db c) in
        let c = pexpr c in
        let a = child "[left]" a below in
        LeftJoin (c, a, child "[right]" b below)
    | Agg a ->
        let aggs = List.filter (fun c -> SS.mem c.agg_name needed) a.aggs in
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
          SS.union
            (refs_of_exprs db (List.map fst group_by))
            (refs_of_exprs db (List.filter_map (fun c -> c.agg_arg) aggs))
        in
        let group_by = List.map (fun (e, n) -> (pexpr e, n)) group_by in
        let aggs =
          List.map
            (fun c -> { c with agg_arg = Option.map pexpr c.agg_arg })
            aggs
        in
        Agg { group_by; aggs; agg_input = child "" a.agg_input below }
    | Union (s, a, b) ->
        (* positional semantics: arms keep their full width, but pruning
           still reaches sublink conditions and scans below them. The
           [prune-setop] mutant narrows the arms to [needed], changing
           what set-semantics operators deduplicate/match on. *)
        let arm qual q =
          let keep =
            if Rewrite_trace.mutant "prune-setop" then needed else all_out db q
          in
          child qual q keep
        in
        let a = arm "[left]" a in
        Union (s, a, arm "[right]" b)
    | Inter (s, a, b) ->
        let arm qual q =
          let keep =
            if Rewrite_trace.mutant "prune-setop" then needed else all_out db q
          in
          child qual q keep
        in
        let a = arm "[left]" a in
        Inter (s, a, arm "[right]" b)
    | Diff (s, a, b) ->
        let arm qual q =
          let keep =
            if Rewrite_trace.mutant "prune-setop" then needed else all_out db q
          in
          child qual q keep
        in
        let a = arm "[left]" a in
        Diff (s, a, arm "[right]" b)
    | Order (keys, input) ->
        let below = SS.union needed (refs_of_exprs db (List.map fst keys)) in
        let keys = List.map (fun (e, d) -> (pexpr e, d)) keys in
        Order (keys, child "" input below)
    | Limit (n, input) -> Limit (n, child "" input needed)
  in
  Rewrite_trace.emit ~rule:"prune" ~path:here ~before:q ~after;
  after

(** [prune db q] drops dead columns everywhere below the root; the
    root's own schema is preserved. *)
let prune db q = prune_query db [] (all_out db q) q

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

let try_reorder db est (prefix : string list) (q : query) : query option =
  let conds, leaves = flat_conjuncts q in
  if List.length leaves < reorder_min_leaves then None
  else if not (flat_namespace db q leaves) then None
  else
    match Scope.out_names db q with
    | exception _ -> None
    | out_before ->
        let arr =
          Array.of_list (List.map (fun l -> (l, Scope.out_names db l)) leaves)
        in
        let cluster_names = List.concat_map snd (Array.to_list arr) in
        let plain, linked = List.partition (fun e -> not (has_sublink e)) conds in
        (* mutant: the rebuilt cluster silently loses one conjunct *)
        let plain =
          if Rewrite_trace.mutant "reorder-drop-conjunct" then
            match plain with _ :: t -> t | [] -> []
          else plain
        in
        let refs = List.map (fun e -> (e, Scope.refs_of_expr db e)) plain in
        (* a conjunct is placeable once every reference that the cluster
           produces is available; references outside the cluster are
           correlated and never block *)
        let placeable avail (_, rs) =
          List.for_all
            (fun r -> List.mem r avail || not (List.mem r cluster_names))
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
          let avail = !acc_names @ lnames in
          let app, rest = List.partition (placeable avail) !remaining in
          let plan =
            match app with
            | [] -> Cross (!acc_plan, leaf)
            | cs -> Join (conj (List.map fst cs), !acc_plan, leaf)
          in
          (plan, rest, lnames)
        in
        for _ = 2 to n do
          let bi =
            best_free (fun k ->
                let plan, _, _ = candidate k in
                Estimate.rows est plan)
          in
          let plan, rest, lnames = candidate bi in
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
            ~path:(prefix @ [ Guard.op_label q ])
            ~before:q ~after;
          Some after
        end
        else None

(* The walk: attempt a reorder at every maximal cluster root, then
   descend — through the (possibly rebuilt) cluster spine without
   re-attempting, and into leaves, sublink queries and every other
   operator with the standard path scheme. *)
let rec reorder_query db est (prefix : string list) (q : query) : query =
  match q with
  | Select _ | Cross _ | Join _ ->
      let q =
        match try_reorder db est prefix q with Some q' -> q' | None -> q
      in
      reorder_spine db est prefix q
  | _ -> reorder_spine db est prefix q

and reorder_spine db est prefix q =
  let here = prefix @ [ Guard.op_label q ] in
  let counter = ref 0 in
  let sub e =
    map_expr_query
      (fun sq ->
        incr counter;
        reorder_query db est (here @ [ sublink_seg !counter ]) sq)
      e
  in
  let child qual i =
    reorder_query db est (prefix @ [ Guard.op_label q ^ qual ]) i
  in
  let spine qual i =
    reorder_spine db est (prefix @ [ Guard.op_label q ^ qual ]) i
  in
  match q with
  | Base _ | TableExpr _ -> q
  | Select (c, i) ->
      let c = sub c in
      Select (c, spine "" i)
  | Cross (a, b) ->
      let a = spine "[left]" a in
      Cross (a, spine "[right]" b)
  | Join (c, a, b) ->
      let c = sub c in
      let a = spine "[left]" a in
      Join (c, a, spine "[right]" b)
  | LeftJoin (c, a, b) ->
      let c = sub c in
      let a = child "[left]" a in
      LeftJoin (c, a, child "[right]" b)
  | Project p ->
      let cols = List.map (fun (e, nm) -> (sub e, nm)) p.cols in
      Project { p with cols; proj_input = child "" p.proj_input }
  | Agg a ->
      let group_by = List.map (fun (e, nm) -> (sub e, nm)) a.group_by in
      let aggs =
        List.map
          (fun call -> { call with agg_arg = Option.map sub call.agg_arg })
          a.aggs
      in
      Agg { group_by; aggs; agg_input = child "" a.agg_input }
  | Union (s, a, b) ->
      let a = child "[left]" a in
      Union (s, a, child "[right]" b)
  | Inter (s, a, b) ->
      let a = child "[left]" a in
      Inter (s, a, child "[right]" b)
  | Diff (s, a, b) ->
      let a = child "[left]" a in
      Diff (s, a, child "[right]" b)
  | Order (keys, i) ->
      let keys = List.map (fun (e, d) -> (sub e, d)) keys in
      Order (keys, child "" i)
  | Limit (k, i) -> Limit (k, child "" i)

(* Entry point: simplify first (constant folding may expose TRUE/FALSE
   selections and negation-free comparisons), reorder join clusters by
   estimated cost, push selections, then simplify again — the pushdown
   phase's unsat-fold can leave sublink atoms over empty literal
   relations, which the second pass folds to constants (emitting its
   usual traced, certified rule applications) — and finally drop the
   columns nothing above reads. *)
let optimize ?(prune = true) ?(reorder = true) db q =
  let q = Simplify.query q in
  let q = if reorder then reorder_query db (Estimate.create db) [] q else q in
  let q' = optimize db [] q in
  let q' = Simplify.query q' in
  if prune then prune_query db [] (all_out db q') q' else q'
