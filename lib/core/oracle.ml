(** Direct (non-rewriting) provenance computation — the test oracle.

    This module computes, by enumeration, the provenance relation that
    Definitions 1 and 2 of the paper prescribe: for every result tuple
    of a query, one output row per combination of contributing base
    relation tuples. The layout matches the rewriter's: the result tuple
    first, then the provenance of the operator inputs, then — for
    operators with sublinks — the provenance of each sublink in
    left-to-right order (Figure 2's [Tsub*] sets, under the extended
    Definition 2 which fixes every sublink's truth value).

    The implementation shares only the expression evaluator with the
    rewriter, and that evaluator is the reference tree walker
    ([Eval.expr_reference]; aggregates and set-operation multiplicities
    come from [Eval.query_reference]), never the production engine
    ({!Vexec}) whose results it judges. So agreement between
    [Eval (Rewrite q)] and [Oracle q] is a meaningful end-to-end check
    of Theorems 1–4. *)

open Relalg
open Algebra

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(** One provenance row: a result tuple plus the flattened witness values
    (one slot per attribute of each base relation access; NULL = the
    relation did not contribute). *)
type prow = { pt : Tuple.t; pw : Value.t array }

(* Normalize operators the oracle treats uniformly. *)
let normalize = function
  | Join (c, a, b) when sublinks_of_expr c <> [] -> Select (c, Cross (a, b))
  | q -> q

(** Width (number of witness slots) of the provenance of [q], matching
    the rewriter's provenance schema. *)
let rec width db (q : query) : int =
  let expr_width e =
    List.fold_left (fun acc s -> acc + width db s.query) 0 (sublinks_of_expr e)
  in
  match normalize q with
  | Base name -> Schema.arity (Relation.schema (Database.find db name))
  | TableExpr _ -> 0
  | Select (c, input) -> width db input + expr_width c
  | Project { cols; proj_input; _ } ->
      width db proj_input
      + List.fold_left (fun acc (e, _) -> acc + expr_width e) 0 cols
  | Cross (a, b) | Join (_, a, b) | LeftJoin (_, a, b) -> width db a + width db b
  | Agg { agg_input; _ } -> width db agg_input
  | Union (_, a, b) | Inter (_, a, b) | Diff (_, a, b) -> width db a + width db b
  | Order (_, input) -> width db input
  | Limit _ -> unsupported "LIMIT"

let null_witness n = Array.make n Value.Null

let concat_w a b = Array.append a b

(* Cartesian combination of per-sublink witness lists. *)
let combos (per_sublink : Value.t array list list) : Value.t array list =
  List.fold_left
    (fun acc ws ->
      List.concat_map (fun prefix -> List.map (fun w -> concat_w prefix w) ws) acc)
    [ [||] ] per_sublink

let rec rows db (env : Eval.env) (q : query) : prow list =
  match normalize q with
  | Base name ->
      List.map
        (fun t -> { pt = t; pw = Array.copy t })
        (Relation.tuples (Database.find db name))
  | TableExpr rel -> List.map (fun t -> { pt = t; pw = [||] }) (Relation.tuples rel)
  | Select (cond, input) ->
      let in_schema = input_schema db env input in
      List.concat_map
        (fun r ->
          let fenv = Eval.frame in_schema r.pt :: env in
          if Value.is_true (Eval.expr_reference db ~env:fenv cond) then
            List.map
              (fun w -> { pt = r.pt; pw = concat_w r.pw w })
              (witness_combos db fenv [ cond ])
          else [])
        (rows db env input)
  | Project { distinct; cols; proj_input } ->
      let in_schema = input_schema db env proj_input in
      let exprs = List.map fst cols in
      let out =
        List.concat_map
          (fun r ->
            let fenv = Eval.frame in_schema r.pt :: env in
            let pt =
              Tuple.of_list (List.map (Eval.expr_reference db ~env:fenv) exprs)
            in
            List.map
              (fun w -> { pt; pw = concat_w r.pw w })
              (witness_combos db fenv exprs))
          (rows db env proj_input)
      in
      if distinct then dedup out else out
  | Cross (a, b) ->
      let rb = rows db env b in
      List.concat_map
        (fun ra ->
          List.map
            (fun rbr ->
              { pt = Tuple.concat ra.pt rbr.pt; pw = concat_w ra.pw rbr.pw })
            rb)
        (rows db env a)
  | Join (cond, a, b) ->
      let sa = input_schema db env a and sb = input_schema db env b in
      let schema = Schema.concat sa sb in
      let rb = rows db env b in
      List.concat_map
        (fun ra ->
          List.filter_map
            (fun rbr ->
              let pt = Tuple.concat ra.pt rbr.pt in
              let fenv = Eval.frame schema pt :: env in
              if Value.is_true (Eval.expr_reference db ~env:fenv cond) then
                Some { pt; pw = concat_w ra.pw rbr.pw }
              else None)
            rb)
        (rows db env a)
  | LeftJoin (cond, a, b) ->
      let sa = input_schema db env a and sb = input_schema db env b in
      let schema = Schema.concat sa sb in
      let rb = rows db env b in
      let wb = width db b in
      List.concat_map
        (fun ra ->
          let hits =
            List.filter_map
              (fun rbr ->
                let pt = Tuple.concat ra.pt rbr.pt in
                let fenv = Eval.frame schema pt :: env in
                if Value.is_true (Eval.expr_reference db ~env:fenv cond) then
                  Some { pt; pw = concat_w ra.pw rbr.pw }
                else None)
              rb
          in
          if hits = [] then
            [
              {
                pt = Tuple.concat ra.pt (Tuple.nulls (Schema.arity sb));
                pw = concat_w ra.pw (null_witness wb);
              };
            ]
          else hits)
        (rows db env a)
  | Agg ({ group_by; agg_input; _ } as spec) ->
      let agg_rel = Eval.query_reference ~env db (Agg spec) in
      let in_schema = input_schema db env agg_input in
      let in_rows = rows db env agg_input in
      let n_group = List.length group_by in
      let group_exprs = List.map fst group_by in
      let win = width db agg_input in
      let key_of r =
        let fenv = Eval.frame in_schema r.pt :: env in
        Tuple.of_list (List.map (Eval.expr_reference db ~env:fenv) group_exprs)
      in
      let group_positions = Array.init n_group (fun i -> i) in
      List.concat_map
        (fun g ->
          let key = Tuple.project_arr g group_positions in
          let members = List.filter (fun r -> Tuple.equal (key_of r) key) in_rows in
          if members = [] then [ { pt = g; pw = null_witness win } ]
          else List.map (fun m -> { pt = g; pw = m.pw }) members)
        (Relation.tuples agg_rel)
  | Union (sem, a, b) ->
      let wa = width db a and wb = width db b in
      let left =
        List.map
          (fun r -> { r with pw = concat_w r.pw (null_witness wb) })
          (rows db env a)
      in
      let right =
        List.map
          (fun r -> { r with pw = concat_w (null_witness wa) r.pw })
          (rows db env b)
      in
      let all = left @ right in
      (match sem with Bag -> all | SetSem -> dedup all)
  | Inter (sem, a, b) ->
      let result = Eval.query_reference ~env db (Inter (sem, a, b)) in
      let ra = rows db env a and rb = rows db env b in
      List.concat_map
        (fun t ->
          let wl = List.filter (fun r -> Tuple.equal r.pt t) ra in
          let wr = List.filter (fun r -> Tuple.equal r.pt t) rb in
          List.concat_map
            (fun l -> List.map (fun r -> { pt = t; pw = concat_w l.pw r.pw }) wr)
            wl)
        (Relation.tuples result)
  | Diff (sem, a, b) ->
      let result = Eval.query_reference ~env db (Diff (sem, a, b)) in
      let ra = rows db env a in
      let wb = width db b in
      List.concat_map
        (fun t ->
          List.filter_map
            (fun r ->
              if Tuple.equal r.pt t then
                Some { pt = t; pw = concat_w r.pw (null_witness wb) }
              else None)
            ra)
        (Relation.tuples result)
  | Order (keys, input) ->
      if List.concat_map (fun (e, _) -> sublinks_of_expr e) keys <> [] then
        unsupported "sublinks in ORDER BY";
      rows db env input
  | Limit _ -> unsupported "LIMIT"

and input_schema db env q =
  Typecheck.infer_query_env db (Eval.schemas_of_env env) q

(* The witnesses contributed by every sublink of [exprs], left to right,
   for the input tuple bound in [fenv] (Figure 2 / Definition 2). *)
and witness_combos db fenv (exprs : expr list) : Value.t array list =
  let sublinks = List.concat_map sublinks_of_expr exprs in
  combos (List.map (sublink_witnesses db fenv) sublinks)

(* Tsub* for one sublink and one input tuple. The sublink's truth value
   fixes the influence role (Definition 2 leaves only reqtrue/reqfalse;
   an UNKNOWN truth value keeps the whole sublink relation, matching the
   rewriter's two-valued Jsub). *)
and sublink_witnesses db fenv (s : sublink) : Value.t array list =
  let sub_rows = rows db fenv s.query in
  let truth = Eval.expr_reference db ~env:fenv (Sublink s) in
  let kept =
    match s.kind with
    | Exists | Scalar -> sub_rows
    | AnyOp (op, lhs) ->
        if Value.is_true truth then begin
          let lv = Eval.expr_reference db ~env:fenv lhs in
          List.filter
            (fun r -> Value.is_true (Eval.cmp3 op lv (Tuple.get r.pt 0)))
            sub_rows
        end
        else sub_rows
    | AllOp (op, lhs) ->
        if Value.is_false truth then begin
          let lv = Eval.expr_reference db ~env:fenv lhs in
          List.filter
            (fun r -> Value.is_false (Eval.cmp3 op lv (Tuple.get r.pt 0)))
            sub_rows
        end
        else sub_rows
  in
  if kept = [] then [ null_witness (width db s.query) ]
  else List.map (fun r -> r.pw) kept

and dedup (rs : prow list) : prow list =
  let seen = Tuple.Tbl.create 64 in
  List.filter
    (fun r ->
      let key = Tuple.concat r.pt r.pw in
      if Tuple.Tbl.mem seen key then false
      else begin
        Tuple.Tbl.add seen key ();
        true
      end)
    rs

(** [provenance db q] is the oracle's provenance relation for [q]: the
    result tuples extended by their witness values, as bare rows
    (schema-less; compare with the rewriter's output by row content). *)
let provenance db (q : query) : Tuple.t list =
  List.map (fun r -> Tuple.concat r.pt r.pw) (rows db [] q)

(** [provenance_of_row db q row] is the witness set of one output row:
    the witness-value arrays of every provenance row whose result
    tuple equals [row]. *)
let provenance_of_row db (q : query) (row : Tuple.t) : Value.t array list =
  List.filter_map
    (fun r -> if Tuple.equal r.pt row then Some r.pw else None)
    (rows db [] q)
