(** The Perm provenance rewriter.

    [rewrite db ~strategy q] transforms an algebra query [q] into a
    query [q+] whose result is [q]'s result with the contributing base
    relation tuples attached (Section 3.1's single-relation provenance
    representation). Standard operators use rules R1–R5 of Figure 4 plus
    set-operation rules; operators whose conditions or projection lists
    contain sublinks are rewritten by the selected strategy of Figure 5:

    - {b Gen} (G1/G2): joins with the [CrossBase] of each sublink — the
      cross product of the sublink's base relations, each extended by an
      all-NULL tuple — restricted by the simulated-join condition
      [Csub+]. Applicable to all sublinks, including correlated and
      nested ones.
    - {b Left} (L1/L2): left outer join with the rewritten sublink query
      on the influence-role condition [Jsub]. Uncorrelated sublinks only.
    - {b Move} (T1/T2): Left with the sublink hoisted into a projection
      so its result is computed once and reused inside [Jsub].
    - {b Unn} (U1/U2): un-nesting of uncorrelated [EXISTS] (cross
      product) and equality-[ANY] (equi-join) sublinks.

    Nested sublinks are handled by recursion: rewriting a sublink query
    rewrites its own sublinks first (Section 2.7). *)

open Relalg
open Algebra

type state = {
  db : Database.t;
  strategy : Strategy.t;
  naming : Pschema.naming;
}

(* Provenance pieces produced for one sublink. *)
type sublink_part = {
  sp_provs : Pschema.prov_rel list;  (** P(Tsub+) *)
  sp_rewritten : query;  (** Tsub+ *)
  sp_sublink : sublink;  (** the original sublink *)
}

let identity_of_names names = List.map (fun n -> (Attr n, n)) names

(* The single output column of an ANY/ALL/Scalar sublink query. *)
let value_column st (s : sublink) =
  match Scope.out_names st.db s.query with
  | [ col ] -> col
  | cols ->
      Strategy.unsupported "sublink query must have one output column (got %d)"
        (List.length cols)

(* Two-valued truth tests: [e =n true] holds iff [e] is definitely true,
   [e =n false] iff definitely false. On NULL-free data these coincide
   with plain truth/negation. *)
let is_true_2v e = Cmp (EqNull, e, Const Value.vtrue)
let is_false_2v e = Cmp (EqNull, e, Const Value.vfalse)

(* Jsub for a sublink (Section 3.3), with the sublink's value column
   renamed to [val_name] and the sublink's truth value available as
   [csub] (the original sublink expression, or a hoisted attribute for
   the Move strategy).

   The paper's conditions [C'sub \/ not Csub] (ANY) and
   [Csub \/ not C'sub] (ALL) assume two-valued logic. We evaluate the
   influence role with the two-valued tests above so that an input tuple
   whose sublink evaluates to UNKNOWN (possible with NULLs) keeps the
   whole sublink relation as provenance instead of being dropped — on
   NULL-free databases this is exactly the paper's Jsub (see DESIGN.md). *)
let jsub_condition (s : sublink) ~csub ~val_name =
  match s.kind with
  | AnyOp (op, lhs) ->
      Or (is_true_2v (Cmp (op, lhs, Attr val_name)), Not (is_true_2v csub))
  | AllOp (op, lhs) ->
      Or (Not (is_false_2v csub), is_false_2v (Cmp (op, lhs, Attr val_name)))
  | Exists | Scalar -> Const Value.vtrue

let needs_value (s : sublink) =
  match s.kind with AnyOp _ | AllOp _ -> true | Exists | Scalar -> false

(* ----- Unn+ helpers: de-correlation of equality-correlated EXISTS -----

   The paper's Section 5 proposes exploring further un-nesting and
   de-correlation techniques; this implements the classic one (Kim-style
   unnesting): an EXISTS whose correlation consists of top-level
   equality conjuncts becomes an equi-join between the outer query and
   the de-correlated, rewritten sublink query. NOT EXISTS becomes a
   plain filter with all-NULL provenance (for surviving tuples the
   parameterized sublink relation is empty, so NULL padding is exactly
   Figure 2's answer). *)

(* Peel projections/ordering under an EXISTS — they cannot change
   emptiness. *)
let rec strip_nonfiltering = function
  | Project { proj_input; _ } -> strip_nonfiltering proj_input
  | Order (_, input) -> strip_nonfiltering input
  | q -> q

type decorrelated = {
  dc_pairs : (expr * expr) list;  (** (outer expression, inner expression) *)
  dc_query : query;  (** the de-correlated sublink query *)
}

(* Split the sublink query into equality correlation predicates and a
   residual uncorrelated query. Returns [None] when the shape does not
   allow it. *)
let decorrelate_exists db (sub : query) : decorrelated option =
  let rec peel conds q =
    match q with Select (c, input) -> peel (conds @ conjuncts c) input | q -> (conds, q)
  in
  let conds, inner = peel [] (strip_nonfiltering sub) in
  let inner_names = Scope.out_names db inner in
  let local e =
    List.for_all (fun n -> List.mem n inner_names) (Scope.refs_of_expr db e)
  in
  let outer e =
    not (List.exists (fun n -> List.mem n inner_names) (Scope.refs_of_expr db e))
  in
  let step acc c =
    match acc with
    | None -> None
    | Some (pairs, residual) -> (
        match c with
        | _ when has_sublink c ->
            if local c then Some (pairs, residual @ [ c ]) else None
        | Cmp (Eq, e1, e2) when local e1 && outer e2 ->
            Some (pairs @ [ (e2, e1) ], residual)
        | Cmp (Eq, e1, e2) when outer e1 && local e2 ->
            Some (pairs @ [ (e1, e2) ], residual)
        | c when local c -> Some (pairs, residual @ [ c ])
        | _ -> None)
  in
  match List.fold_left step (Some ([], [])) conds with
  | None -> None
  | Some ([], _) -> None (* nothing to de-correlate *)
  | Some (pairs, residual) ->
      let dc_query =
        if residual = [] then inner else Select (conj residual, inner)
      in
      if Scope.free_of_query db dc_query = [] then Some { dc_pairs = pairs; dc_query }
      else None

(* ------------------------------------------------------------------ *)
(* Main recursion                                                       *)
(* ------------------------------------------------------------------ *)

let rec rewrite_query st (q : query) : query * Pschema.prov_rel list =
  match q with
  | Base name ->
      (* R1: duplicate the base attributes under their provenance names. *)
      let pr = Pschema.for_base st.naming st.db name in
      let schema = Relation.schema (Database.find st.db name) in
      let base_cols = identity_of_names (Schema.names schema) in
      let prov_cols =
        List.map (fun c -> (Attr c.Pschema.pc_src, c.Pschema.pc_name)) pr.Pschema.pr_cols
      in
      (project (base_cols @ prov_cols) (Base name), [ pr ])
  | TableExpr _ ->
      (* Literal relations are not base relations: no provenance. *)
      (q, [])
  | Select (cond, input) ->
      if sublinks_of_expr cond = [] then begin
        (* R3 *)
        let input', p = rewrite_query st input in
        (Select (cond, input'), p)
      end
      else rewrite_selection st cond input
  | Project ({ cols; _ } as proj) ->
      if List.concat_map (fun (e, _) -> sublinks_of_expr e) cols = [] then begin
        (* R2 *)
        let input', p = rewrite_query st proj.proj_input in
        ( Project
            { proj with cols = cols @ Pschema.identity_cols p; proj_input = input' },
          p )
      end
      else rewrite_projection st proj
  | Cross (a, b) ->
      (* R4 *)
      let a', pa = rewrite_query st a in
      let b', pb = rewrite_query st b in
      (Cross (a', b'), pa @ pb)
  | Join (cond, a, b) ->
      if sublinks_of_expr cond = [] then begin
        let a', pa = rewrite_query st a in
        let b', pb = rewrite_query st b in
        (Join (cond, a', b'), pa @ pb)
      end
      else
        (* Normalize: a join with sublinks in its condition is a
           selection over a cross product. *)
        rewrite_selection st cond (Cross (a, b))
  | LeftJoin (cond, a, b) ->
      if sublinks_of_expr cond <> [] then
        Strategy.unsupported "sublinks in outer-join conditions";
      let a', pa = rewrite_query st a in
      let b', pb = rewrite_query st b in
      (LeftJoin (cond, a', b'), pa @ pb)
  | Agg spec -> rewrite_agg st spec
  | Union (sem, a, b) -> rewrite_union st sem a b
  | Inter (sem, a, b) -> rewrite_inter st sem a b
  | Diff (sem, a, b) -> rewrite_diff st sem a b
  | Order (keys, input) ->
      if List.concat_map (fun (e, _) -> sublinks_of_expr e) keys <> [] then
        Strategy.unsupported "sublinks in ORDER BY";
      let input', p = rewrite_query st input in
      (Order (keys, input'), p)
  | Limit _ -> Strategy.unsupported "LIMIT has no provenance rewrite"

(* R5: join the aggregate result back to the rewritten input on the
   grouping expressions (null-aware, since GROUP BY treats NULLs as
   equal). A left outer join keeps the single all-NULL-provenance row a
   group-less aggregate produces on empty input. *)
and rewrite_agg st ({ group_by; aggs; agg_input } as spec) =
  let expr_has_sublink e = sublinks_of_expr e <> [] in
  if
    List.exists (fun (e, _) -> expr_has_sublink e) group_by
    || List.exists
         (fun c -> match c.agg_arg with Some e -> expr_has_sublink e | None -> false)
         aggs
  then Strategy.unsupported "sublinks in GROUP BY expressions or aggregate arguments";
  let input', p = rewrite_query st agg_input in
  let original = Agg spec in
  let hat =
    List.map
      (fun (e, name) -> (e, name, Pschema.fresh st.naming ("hat_" ^ name)))
      group_by
  in
  let right =
    project
      (List.map (fun (e, _, h) -> (e, h)) hat @ Pschema.identity_cols p)
      input'
  in
  let join_cond =
    conj (List.map (fun (_, name, h) -> Cmp (EqNull, Attr name, Attr h)) hat)
  in
  let joined = LeftJoin (join_cond, original, right) in
  let out_names =
    List.map snd group_by @ List.map (fun c -> c.agg_name) aggs
  in
  (project (identity_of_names out_names @ Pschema.identity_cols p) joined, p)

(* Union: each arm keeps its own provenance and NULL-pads the other's. *)
and rewrite_union st sem a b =
  let a', pa = rewrite_query st a in
  let b', pb = rewrite_query st b in
  let a_names = Scope.out_names st.db a in
  let b_names = Scope.out_names st.db b in
  let left_arm =
    project
      (identity_of_names a_names @ Pschema.identity_cols pa @ Pschema.null_cols pb)
      a'
  in
  let right_arm =
    project
      (List.map2 (fun bn an -> (Attr bn, an)) b_names a_names
      @ Pschema.null_cols pa @ Pschema.identity_cols pb)
      b'
  in
  (Union (sem, left_arm, right_arm), pa @ pb)

(* Intersection: a result tuple's provenance combines the witnesses of
   both arms, found by null-aware joins on the result attributes. *)
and rewrite_inter st sem a b =
  let a', pa = rewrite_query st a in
  let b', pb = rewrite_query st b in
  let a_names = Scope.out_names st.db a in
  let b_names = Scope.out_names st.db b in
  let original = Inter (sem, a, b) in
  let l_names = List.map (fun n -> Pschema.fresh st.naming ("l_" ^ n)) a_names in
  let r_names = List.map (fun n -> Pschema.fresh st.naming ("r_" ^ n)) a_names in
  let left_side =
    project
      (List.map2 (fun n l -> (Attr n, l)) a_names l_names @ Pschema.identity_cols pa)
      a'
  in
  let right_side =
    project
      (List.map2 (fun n r -> (Attr n, r)) b_names r_names @ Pschema.identity_cols pb)
      b'
  in
  let eqs names fresh =
    conj (List.map2 (fun n f -> Cmp (EqNull, Attr n, Attr f)) names fresh)
  in
  let joined =
    Join (eqs a_names r_names, Join (eqs a_names l_names, original, left_side), right_side)
  in
  ( project
      (identity_of_names a_names @ Pschema.identity_cols pa @ Pschema.identity_cols pb)
      joined,
    pa @ pb )

(* Difference: only the left arm contributes witnesses (Cui–Widom); the
   right arm's provenance attributes are NULL-padded but kept in the
   schema since its relations are accessed by the query. *)
and rewrite_diff st sem a b =
  let a', pa = rewrite_query st a in
  let _b', pb = rewrite_query st b in
  let a_names = Scope.out_names st.db a in
  let original = Diff (sem, a, b) in
  let l_names = List.map (fun n -> Pschema.fresh st.naming ("l_" ^ n)) a_names in
  let left_side =
    project
      (List.map2 (fun n l -> (Attr n, l)) a_names l_names @ Pschema.identity_cols pa)
      a'
  in
  let eq_cond =
    conj (List.map2 (fun n l -> Cmp (EqNull, Attr n, Attr l)) a_names l_names)
  in
  let joined = Join (eq_cond, original, left_side) in
  ( project
      (identity_of_names a_names @ Pschema.identity_cols pa @ Pschema.null_cols pb)
      joined,
    pa @ pb )

(* ------------------------------------------------------------------ *)
(* Sublink strategy dispatch                                            *)
(* ------------------------------------------------------------------ *)

and rewrite_selection st cond input =
  match st.strategy with
  | Strategy.Gen -> gen_selection st cond input
  | Strategy.Left -> left_selection st cond input
  | Strategy.Move -> move_selection st cond input
  | Strategy.Unn -> unn_selection st cond input

and rewrite_projection st proj =
  match st.strategy with
  | Strategy.Gen -> gen_projection st proj
  | Strategy.Left -> left_projection st proj
  | Strategy.Move -> move_projection st proj
  | Strategy.Unn ->
      Strategy.unsupported "the Unn strategy has no rewrite for projection sublinks"

and rewrite_sublink_part st (s : sublink) : sublink_part =
  let rewritten, provs = rewrite_query st s.query in
  { sp_provs = provs; sp_rewritten = rewritten; sp_sublink = s }

(* ------------------------------------------------------------------ *)
(* Gen strategy (G1 / G2)                                               *)
(* ------------------------------------------------------------------ *)

(* CrossBase(Tsub): the cross product of the sublink's base relations,
   each unioned with an all-NULL tuple and renamed to the provenance
   attributes assigned to Tsub+. *)
and cross_base st (provs : Pschema.prov_rel list) : query option =
  let one (pr : Pschema.prov_rel) =
    let rel = Database.find st.db pr.Pschema.pr_rel in
    let schema = Relation.schema rel in
    let null_row = TableExpr (Relation.make schema [ Tuple.nulls (Schema.arity schema) ]) in
    let extended = Union (Bag, Base pr.Pschema.pr_rel, null_row) in
    project
      (List.map (fun c -> (Attr c.Pschema.pc_src, c.Pschema.pc_name)) pr.Pschema.pr_cols)
      extended
  in
  match provs with
  | [] -> None
  | first :: rest ->
      Some (List.fold_left (fun acc pr -> Cross (acc, one pr)) (one first) rest)

(* Csub+ (Section 3.3): a tuple of the CrossBase belongs to the
   provenance iff it appears in Tsub+ restricted by Jsub — or the
   sublink query is empty and the tuple is all-NULL. *)
and csub_plus st (part : sublink_part) : expr option =
  let s = part.sp_sublink in
  let prov_cols = Pschema.cols part.sp_provs in
  if prov_cols = [] then None
  else begin
    let primes =
      List.map
        (fun c -> (c.Pschema.pc_name, Pschema.fresh st.naming "p"))
        prov_cols
    in
    let value_cols, val_name =
      if needs_value s then begin
        let col = value_column st s in
        let v = Pschema.fresh st.naming "sub_val" in
        ([ (Attr col, v) ], v)
      end
      else ([], "")
    in
    let inner_proj =
      project
        (value_cols @ List.map (fun (p, pr) -> (Attr p, pr)) primes)
        part.sp_rewritten
    in
    let jsub = jsub_condition s ~csub:(Sublink s) ~val_name in
    let eq_cond =
      conj (List.map (fun (p, pr) -> Cmp (EqNull, Attr p, Attr pr)) primes)
    in
    let member = exists (Select (And (jsub, eq_cond), inner_proj)) in
    let empty_case =
      And
        ( Not (exists s.query),
          conj (List.map (fun c -> IsNull (Attr c.Pschema.pc_name)) prov_cols) )
    in
    Some (Or (member, empty_case))
  end

and gen_parts st sublinks =
  let parts = List.map (rewrite_sublink_part st) sublinks in
  let crosses = List.filter_map (fun p -> cross_base st p.sp_provs) parts in
  let conds = List.filter_map (csub_plus st) parts in
  let provs = List.concat_map (fun p -> p.sp_provs) parts in
  (crosses, conds, provs)

and gen_selection st cond input =
  let input', pin = rewrite_query st input in
  let crosses, conds, psub = gen_parts st (sublinks_of_expr cond) in
  let crossed = List.fold_left (fun acc cb -> Cross (acc, cb)) input' crosses in
  (Select (conj (cond :: conds), crossed), pin @ psub)

(* G2, restructured so that the filter runs below the projection, where
   the input attributes referenced by Jsub are still in scope (see
   DESIGN.md). *)
and gen_projection st { distinct; cols; proj_input } =
  let input', pin = rewrite_query st proj_input in
  let sublinks = List.concat_map (fun (e, _) -> sublinks_of_expr e) cols in
  let crosses, conds, psub = gen_parts st sublinks in
  let crossed = List.fold_left (fun acc cb -> Cross (acc, cb)) input' crosses in
  let filtered = if conds = [] then crossed else Select (conj conds, crossed) in
  let out_cols = cols @ Pschema.identity_cols pin @ Pschema.identity_cols psub in
  (Project { distinct; cols = out_cols; proj_input = filtered }, pin @ psub)

(* ------------------------------------------------------------------ *)
(* Left strategy (L1 / L2)                                              *)
(* ------------------------------------------------------------------ *)

and require_uncorrelated st strategy_name (s : sublink) =
  if not (Scope.is_uncorrelated st.db s) then
    Strategy.unsupported "the %s strategy requires uncorrelated sublinks" strategy_name

(* Left-outer-join the rewritten sublink queries onto [acc]. [csub_of]
   supplies the sublink's truth value for Jsub (the sublink itself for
   Left, the hoisted attribute for Move). *)
and sublink_joins st strategy_name ~csub_of acc sublinks =
  List.fold_left
    (fun (acc, provs) s ->
      require_uncorrelated st strategy_name s;
      let part = rewrite_sublink_part st s in
      if part.sp_provs = [] then (acc, provs)
      else begin
        let value_cols, val_name =
          if needs_value s then begin
            let col = value_column st s in
            let v = Pschema.fresh st.naming "sub_val" in
            ([ (Attr col, v) ], v)
          end
          else ([], "")
        in
        let right =
          project (value_cols @ Pschema.identity_cols part.sp_provs) part.sp_rewritten
        in
        let jsub = jsub_condition s ~csub:(csub_of s) ~val_name in
        (LeftJoin (jsub, acc, right), provs @ part.sp_provs)
      end)
    (acc, []) sublinks

and left_selection st cond input =
  let input', pin = rewrite_query st input in
  let input_names = Scope.out_names st.db input in
  let joined, psub =
    sublink_joins st "Left" ~csub_of:(fun s -> Sublink s) input'
      (sublinks_of_expr cond)
  in
  let filtered = Select (cond, joined) in
  ( project
      (identity_of_names input_names @ Pschema.identity_cols pin
      @ Pschema.identity_cols psub)
      filtered,
    pin @ psub )

and left_projection st { distinct; cols; proj_input } =
  let input', pin = rewrite_query st proj_input in
  let sublinks = List.concat_map (fun (e, _) -> sublinks_of_expr e) cols in
  let joined, psub =
    sublink_joins st "Left" ~csub_of:(fun s -> Sublink s) input' sublinks
  in
  let out_cols = cols @ Pschema.identity_cols pin @ Pschema.identity_cols psub in
  (Project { distinct; cols = out_cols; proj_input = joined }, pin @ psub)

(* ------------------------------------------------------------------ *)
(* Move strategy (T1 / T2)                                              *)
(* ------------------------------------------------------------------ *)

(* Hoist every sublink into a projection column so it is evaluated once
   and referenced both in the target condition and in Jsub. *)
and hoist_sublinks st input' input_names pin sublinks =
  let hoisted =
    List.map (fun s -> (s, Pschema.fresh st.naming "c")) sublinks
  in
  let inner =
    project
      (identity_of_names input_names @ Pschema.identity_cols pin
      @ List.map (fun (s, c) -> (Sublink s, c)) hoisted)
      input'
  in
  let subst = List.map (fun (s, c) -> (s.id, Attr c)) hoisted in
  let csub_of s = List.assoc s.id subst in
  (inner, subst, csub_of)

and move_selection st cond input =
  let input', pin = rewrite_query st input in
  let input_names = Scope.out_names st.db input in
  let sublinks = sublinks_of_expr cond in
  List.iter (require_uncorrelated st "Move") sublinks;
  let inner, subst, csub_of = hoist_sublinks st input' input_names pin sublinks in
  let joined, psub = sublink_joins st "Move" ~csub_of inner sublinks in
  let ctar = replace_sublinks subst cond in
  let filtered = Select (ctar, joined) in
  ( project
      (identity_of_names input_names @ Pschema.identity_cols pin
      @ Pschema.identity_cols psub)
      filtered,
    pin @ psub )

and move_projection st { distinct; cols; proj_input } =
  let input', pin = rewrite_query st proj_input in
  let input_names = Scope.out_names st.db proj_input in
  let sublinks = List.concat_map (fun (e, _) -> sublinks_of_expr e) cols in
  List.iter (require_uncorrelated st "Move") sublinks;
  let inner, subst, csub_of = hoist_sublinks st input' input_names pin sublinks in
  let joined, psub = sublink_joins st "Move" ~csub_of inner sublinks in
  let out_cols =
    List.map (fun (e, n) -> (replace_sublinks subst e, n)) cols
    @ Pschema.identity_cols pin @ Pschema.identity_cols psub
  in
  (Project { distinct; cols = out_cols; proj_input = joined }, pin @ psub)

(* ------------------------------------------------------------------ *)
(* Unn strategy (U1 / U2)                                               *)
(* ------------------------------------------------------------------ *)

and unn_selection st cond input =
  let conjs = conjuncts cond in
  let plain, linked = List.partition (fun c -> sublinks_of_expr c = []) conjs in
  let classify = function
    | Sublink ({ kind = Exists; _ } as s) ->
        if Scope.is_uncorrelated st.db s then `Exists s
        else begin
          match decorrelate_exists st.db s.query with
          | Some dc -> `ExistsCorr (s, dc)
          | None ->
              Strategy.unsupported
                "the Unn strategy cannot de-correlate this EXISTS sublink"
        end
    | Not (Sublink ({ kind = Exists; _ } as s)) -> `NotExists s
    | Not (Sublink ({ kind = AnyOp (Eq, _); _ } as s)) ->
        (* NOT IN: for surviving tuples the ANY-sublink is false, so the
           whole sublink relation contributes (Figure 2, reqfalse). *)
        require_uncorrelated st "Unn" s;
        `NotAnyEq s
    | Sublink ({ kind = AnyOp (Eq, lhs); _ } as s) ->
        require_uncorrelated st "Unn" s;
        `AnyEq (s, lhs)
    | c ->
        Strategy.unsupported
          "the Unn strategy only unnests top-level EXISTS, NOT EXISTS or \
           equality-ANY sublinks (found %s)"
          (Pp.expr_to_string c)
  in
  let classified = List.map classify linked in
  let input', pin = rewrite_query st input in
  let input_names = Scope.out_names st.db input in
  let base = if plain = [] then input' else Select (conj plain, input') in
  (* accumulate the plan plus, per sublink, its provenance relations and
     the projection columns exposing them (identity or NULL padding) *)
  let joined, psub, pcols =
    List.fold_left
      (fun (acc, provs, pcols) c ->
        match c with
        | `Exists s ->
            (* U1: sigma_EXISTS(T)+ = T+ x Tsub+ *)
            let part = rewrite_sublink_part st s in
            if part.sp_provs = [] then
              (* No provenance to attach, but the filter must remain. *)
              (Select (Sublink s, acc), provs, pcols)
            else
              let right =
                project (Pschema.identity_cols part.sp_provs) part.sp_rewritten
              in
              ( Cross (acc, right),
                provs @ part.sp_provs,
                pcols @ Pschema.identity_cols part.sp_provs )
        | `ExistsCorr (_, dc) ->
            (* Unn+ (beyond the paper's U1): equality-correlated EXISTS
               becomes an equi-join with the de-correlated Tsub+. *)
            let rewritten, sub_provs = rewrite_query st dc.dc_query in
            let keyed =
              List.map
                (fun (outer_e, inner_e) ->
                  (outer_e, inner_e, Pschema.fresh st.naming "k"))
                dc.dc_pairs
            in
            let right =
              project
                (List.map (fun (_, inner_e, k) -> (inner_e, k)) keyed
                @ Pschema.identity_cols sub_provs)
                rewritten
            in
            let join_cond =
              conj (List.map (fun (outer_e, _, k) -> Cmp (Eq, outer_e, Attr k)) keyed)
            in
            ( Join (join_cond, acc, right),
              provs @ sub_provs,
              pcols @ Pschema.identity_cols sub_provs )
        | `NotExists s ->
            (* surviving tuples have an empty parameterized sublink
               relation: filter, NULL-pad the provenance *)
            let _, sub_provs = rewrite_query st s.query in
            ( Select (Not (Sublink s), acc),
              provs @ sub_provs,
              pcols @ Pschema.null_cols sub_provs )
        | `NotAnyEq s ->
            (* filter with the original condition, then attach every
               tuple of Tsub+ as witness; the condition-true outer join
               degrades to NULL padding when the sublink is empty *)
            let rewritten, sub_provs = rewrite_query st s.query in
            let right = project (Pschema.identity_cols sub_provs) rewritten in
            ( LeftJoin (Const Value.vtrue, Select (Not (Sublink s), acc), right),
              provs @ sub_provs,
              pcols @ Pschema.identity_cols sub_provs )
        | `AnyEq (s, lhs) ->
            (* U2: sigma_{x = ANY}(T)+ = T+ join_{x = val} Tsub+ *)
            let part = rewrite_sublink_part st s in
            let col = value_column st s in
            let v = Pschema.fresh st.naming "sub_val" in
            let right =
              project ((Attr col, v) :: Pschema.identity_cols part.sp_provs)
                part.sp_rewritten
            in
            ( Join (Cmp (Eq, lhs, Attr v), acc, right),
              provs @ part.sp_provs,
              pcols @ Pschema.identity_cols part.sp_provs ))
      (base, [], []) classified
  in
  ( project (identity_of_names input_names @ Pschema.identity_cols pin @ pcols) joined,
    pin @ psub )

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

(** [rewrite db ~strategy q] is [(q+, provs)]: the provenance-propagating
    query and the description of its provenance attributes, one
    {!Pschema.prov_rel} per base relation access of [q]. Raises
    {!Strategy.Unsupported} when [strategy] cannot handle [q]. *)
let rewrite db ~strategy (q : query) : query * Pschema.prov_rel list =
  let st = { db; strategy; naming = Pschema.create_naming () } in
  let q_plus, provs = rewrite_query st q in
  (* Normalize to the representation of Section 3.1: the original result
     attributes first, then P(R1), ..., P(Rn). Rule R4 interleaves
     provenance attributes at cross products; this final projection
     restores the canonical order. *)
  let orig_names = Scope.out_names db q in
  let normalized =
    project (identity_of_names orig_names @ Pschema.identity_cols provs) q_plus
  in
  (normalized, provs)

let applies db strategy q =
  match rewrite db ~strategy q with
  | _ -> true
  | exception Strategy.Unsupported _ -> false

let unnestable_exists db sub = Option.is_some (decorrelate_exists db sub)
