(** Runtime semantics shared by both execution engines.

    The reference tree-walker ({!Eval}) and the vectorized engine
    ({!Vexec}) must agree exactly on three-valued comparison, on the
    [ANY]/[ALL] quantifier semantics (both the naive folds of Figure 1
    and the constant-size summary fast path), and on the execution
    counters they report. Keeping those pieces here — below both
    engines in the dependency order — is what lets the engines
    cross-check each other in the test suite without duplicating the
    semantics they are checked against. *)

open Algebra

exception Eval_error of string

let eval_error fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

(** {1 Three-valued comparison} *)

(** [cmp3 op a b] is the truth value ([Bool]/[Null]) of [a op b]. *)
let cmp3 (op : cmpop) a b : Value.t =
  match op with
  | EqNull -> Value.Bool (Value.equal_null a b)
  | _ -> (
      match Value.cmp_sql a b with
      | None -> Value.Null
      | Some c ->
          Value.Bool
            (match op with
            | Eq -> c = 0
            | Neq -> c <> 0
            | Lt -> c < 0
            | Leq -> c <= 0
            | Gt -> c > 0
            | Geq -> c >= 0
            | EqNull -> assert false))

(** {1 ANY/ALL semantics}

    [naive_any]/[naive_all] are the reference 3VL folds from Figure 1
    (existential / universal quantification); the summary-based versions
    below are the fast path. Property tests check their agreement. *)

let naive_any op lhs values =
  List.fold_left (fun acc v -> Value.or3 acc (cmp3 op lhs v)) Value.vfalse values

let naive_all op lhs values =
  List.fold_left (fun acc v -> Value.and3 acc (cmp3 op lhs v)) Value.vtrue values

type summary = {
  s_empty : bool;
  s_has_null : bool;
  s_min : Value.t option;  (** min over non-null values *)
  s_max : Value.t option;
  s_set : unit Tuple.Tbl.t;  (** distinct non-null values, as 1-ary tuples *)
  s_distinct : int;
  s_sample : Value.t option;  (** an arbitrary non-null value *)
}

let summarize values =
  let set = Tuple.Tbl.create 64 in
  let has_null = ref false in
  let min_v = ref None and max_v = ref None and sample = ref None in
  List.iter
    (fun v ->
      if Value.is_null v then has_null := true
      else begin
        if !sample = None then sample := Some v;
        (match !min_v with
        | Some m when Value.cmp_sql v m <> Some (-1) -> ()
        | _ -> min_v := Some v);
        (match !max_v with
        | Some m when Value.cmp_sql v m <> Some 1 -> ()
        | _ -> max_v := Some v);
        let key = [| v |] in
        if not (Tuple.Tbl.mem set key) then Tuple.Tbl.add set key ()
      end)
    values;
  {
    s_empty = values = [];
    s_has_null = !has_null;
    s_min = !min_v;
    s_max = !max_v;
    s_set = set;
    s_distinct = Tuple.Tbl.length set;
    s_sample = !sample;
  }

let set_mem s v = Tuple.Tbl.mem s.s_set [| v |]

(* Read-only summary accessors for the vectorized probe kernels
   ({!Vexec}), which specialize the ANY-equality membership test to an
   integer set when every distinct value is an [Int]. *)
let summary_is_empty s = s.s_empty
let summary_has_null s = s.s_has_null

let summary_distinct_values s =
  Tuple.Tbl.fold (fun k () acc -> k.(0) :: acc) s.s_set []

let unknown_or s base = if s.s_has_null then Value.Null else base

(** [any_of_summary op lhs s] = [lhs op ANY Tsub] from the summary. *)
let any_of_summary op lhs s : Value.t =
  if s.s_empty then Value.vfalse
  else if op = EqNull then begin
    (* =n is two-valued: NULL matches NULL. *)
    if Value.is_null lhs then Value.Bool s.s_has_null
    else Value.Bool (set_mem s lhs)
  end
  else if Value.is_null lhs then Value.Null
  else
    match op with
    | Eq -> if set_mem s lhs then Value.vtrue else unknown_or s Value.vfalse
    | Neq ->
        if s.s_distinct >= 2 then Value.vtrue
        else if
          s.s_distinct = 1 && not (Value.equal_null (Option.get s.s_sample) lhs)
        then Value.vtrue
        else unknown_or s Value.vfalse
    | Lt | Leq ->
        (* exists v with lhs < v  <=>  lhs < max *)
        let sat =
          match s.s_max with
          | None -> false
          | Some m -> Value.is_true (cmp3 op lhs m)
        in
        if sat then Value.vtrue else unknown_or s Value.vfalse
    | Gt | Geq ->
        let sat =
          match s.s_min with
          | None -> false
          | Some m -> Value.is_true (cmp3 op lhs m)
        in
        if sat then Value.vtrue else unknown_or s Value.vfalse
    | EqNull -> assert false

(** [all_of_summary op lhs s] = [lhs op ALL Tsub] from the summary. *)
let all_of_summary op lhs s : Value.t =
  if s.s_empty then Value.vtrue
  else if op = EqNull then begin
    if Value.is_null lhs then Value.Bool (s.s_distinct = 0)
    else
      Value.Bool
        (s.s_distinct = 1
        && (not s.s_has_null)
        && Value.equal_null (Option.get s.s_sample) lhs)
  end
  else if Value.is_null lhs then Value.Null
  else
    match op with
    | Eq ->
        if s.s_distinct >= 2 then Value.vfalse
        else if
          s.s_distinct = 1 && not (Value.equal_null (Option.get s.s_sample) lhs)
        then Value.vfalse
        else if s.s_distinct = 0 then Value.Null (* only NULLs *)
        else unknown_or s Value.vtrue
    | Neq -> if set_mem s lhs then Value.vfalse else unknown_or s Value.vtrue
    | Lt | Leq ->
        (* forall v: lhs < v  <=>  lhs < min; a single violating v makes
           it definitely false regardless of NULLs. *)
        let violated =
          match s.s_min with
          | None -> false
          | Some m -> Value.is_false (cmp3 op lhs m)
        in
        if violated then Value.vfalse
        else if s.s_has_null || s.s_min = None then Value.Null
        else Value.vtrue
    | Gt | Geq ->
        let violated =
          match s.s_max with
          | None -> false
          | Some m -> Value.is_false (cmp3 op lhs m)
        in
        if violated then Value.vfalse
        else if s.s_has_null || s.s_max = None then Value.Null
        else Value.vtrue
    | EqNull -> assert false

(** {1 Joins} *)

type join = {
  j_prefix : Path.t;
  j_node : query;
  j_filter : expr option;
  j_outer : bool;
  j_cond : expr;
  j_left : query;
  j_right : query;
}

let join_of prefix q =
  let mk prefix node ?filter outer cond a b =
    Some
      {
        j_prefix = prefix;
        j_node = node;
        j_filter = filter;
        j_outer = outer;
        j_cond = cond;
        j_left = a;
        j_right = b;
      }
  in
  match q with
  | Join (c, a, b) -> mk prefix q false c a b
  | LeftJoin (c, a, b) -> mk prefix q true c a b
  | Select (c, (Cross (a, b) as j)) ->
      mk (Path.here prefix q) j ~filter:c false c a b
  | Select (c, (Join (jc, a, b) as j)) ->
      mk (Path.here prefix q) j ~filter:c false (And (jc, c)) a b
  | _ -> None

let join_owners j here =
  (here, root_exprs j.j_node)
  :: (match j.j_filter with Some c -> [ (j.j_prefix, [ c ]) ] | None -> [])

(** {1 Execution counters}

    In the spirit of EXPLAIN ANALYZE: how a plan actually executed.
    Both engines report through the same record so their behavior is
    directly comparable. *)

type stats = {
  mutable st_hash_joins : int;  (** joins executed via hashing *)
  mutable st_nested_loop_joins : int;  (** joins without usable equi-pairs *)
  mutable st_nested_pairs : int;  (** tuple pairs examined by nested loops *)
  mutable st_sublink_evals : int;  (** sublink materializations (cache misses) *)
  mutable st_sublink_hits : int;  (** sublink memoization hits *)
  mutable st_rows_emitted : int;  (** rows produced by join operators *)
}

let fresh_stats () =
  {
    st_hash_joins = 0;
    st_nested_loop_joins = 0;
    st_nested_pairs = 0;
    st_sublink_evals = 0;
    st_sublink_hits = 0;
    st_rows_emitted = 0;
  }

let stats_to_string st =
  Printf.sprintf
    "hash joins: %d | nested-loop joins: %d (%d pairs) | sublink evals: %d (%d memo hits) | rows emitted: %d"
    st.st_hash_joins st.st_nested_loop_joins st.st_nested_pairs
    st.st_sublink_evals st.st_sublink_hits st.st_rows_emitted
