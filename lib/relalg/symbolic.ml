(** Symbolic 3VL predicate solver — see symbolic.mli for the contract.

    Architecture: a predicate question ("can [e] be TRUE?") is a
    classical proposition over theory literals, built from the three
    propositions "evaluates to TRUE" / "to FALSE" / "to NULL" of each
    sub-expression. The propositions are never materialized: a goal
    names a sub-expression and one node of its translation ({!part}),
    and the backtracking search ({!go}) expands a goal only when it
    reaches it, so a question reads only the translation it needs.
    Asserting a literal updates one mutable constraint state (interval
    + congruence + null facts over the columns the question met, each
    interned once) and records what it overwrote on an undo trail; a
    failed branch rolls the trail back. Only genuine contradictions
    conflict, so an exhausted search is a real unsatisfiability proof;
    a surviving branch may be spurious (opaque atoms are freer than the
    expressions they stand for). Fuel bounds translation (one unit per
    sub-expression) and search (one unit per proposition node
    visited); running out raises {!Give_up} and the query answers
    [Unknown]. *)

open Algebra

type verdict = Proved | Refuted | Unknown

let verdict_to_string = function
  | Proved -> "proved"
  | Refuted -> "refuted"
  | Unknown -> "unknown"

type ctx = {
  c_fuel : int;
  c_types : string -> Vtype.t option;
  c_notnull : string list;
}

let default_fuel = 4096

let ctx ?(fuel = default_fuel) ?(types = fun _ -> None) ?(notnull = []) () =
  { c_fuel = fuel; c_types = types; c_notnull = notnull }

(* Raised when the goal leaves the decidable fragment (incomparable
   bound types) or exhausts its fuel; the query answers [Unknown]. *)
exception Give_up

(* Raised by literal assertion on a genuine contradiction; caught at
   the branch point in [solve]. *)
exception Conflict

(* ------------------------------------------------------------------ *)
(* Constant folding (pure — deliberately independent of [Simplify],    *)
(* whose rules carry test-only mutation hooks)                         *)
(* ------------------------------------------------------------------ *)

let apply_binop op a b =
  match op with
  | Add -> Value.add a b
  | Sub -> Value.sub a b
  | Mul -> Value.mul a b
  | Div -> Value.div a b
  | Mod -> Value.modulo a b
  | Concat -> Value.concat a b

(* The value of a constant expression; [None] if it mentions a column
   or its evaluation raises (the error must stay a runtime error). *)
let rec static_value (e : expr) : Value.t option =
  match e with
  | Const v -> Some v
  | TypedNull _ -> Some Value.Null
  | Binop (op, a, b) -> (
      match (static_value a, static_value b) with
      | Some va, Some vb -> (
          match apply_binop op va vb with
          | v -> Some v
          | exception (Value.Type_clash _ | Division_by_zero) -> None)
      | _ -> None)
  | Not a -> Option.map Value.not3 (static_value a)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Propositions, as goals                                              *)
(* ------------------------------------------------------------------ *)

type tv = T3 | F3 | U3

(* Structural equality tolerant of closures buried in [TableExpr]
   relations inside sublink plans. [=] never short-circuits on physical
   equality (NaN is not equal to itself), so it would walk the whole
   sublink body the two copies of a Gen atom share; [compare] skips
   shared blocks at every depth. The two differ only on atoms holding
   NaN constants, which [compare] identifies with themselves — sound,
   as one atom has one value per row. *)
let safe_equal (a : expr) (b : expr) =
  a == b || try compare a b = 0 with Invalid_argument _ -> false

let negate_cmp = function
  | Eq -> Neq
  | Neq -> Eq
  | Lt -> Geq
  | Leq -> Gt
  | Gt -> Leq
  | Geq -> Lt
  | EqNull -> invalid_arg "Symbolic.negate_cmp: EqNull"

let flip_cmp = function
  | Lt -> Gt
  | Leq -> Geq
  | Gt -> Lt
  | Geq -> Leq
  | (Eq | Neq) as op -> op
  | EqNull -> invalid_arg "Symbolic.flip_cmp: EqNull"

(* A theory term is a column or a constant-foldable expression. *)
let is_static (e : expr) =
  match e with
  | Const _ | TypedNull _ -> true
  | Attr _ -> false
  | _ -> Option.is_some (static_value e)

let is_term (e : expr) = match e with Attr _ -> true | _ -> is_static e

(* The value of a static term. *)
let term_value (e : expr) =
  match e with
  | Const v -> v
  | TypedNull _ -> Value.Null
  | _ -> Option.get (static_value e)

(* [x IN (e1..ek)] evaluates as [FALSE or3 (x = e1) or3 ... (x = ek)];
   short lists are translated as that disjunction. *)
let in_list_bound = 8

let in_list_expr x es =
  List.fold_left (fun acc el -> Or (acc, Cmp (Eq, x, el))) (Const Value.vfalse) es

(* A node of the translation of one sub-expression [e]. [Pos] / [Neg] /
   [Unk] are the propositions "e is TRUE / FALSE / NULL"; the others
   are the inner nodes of those propositions, named after their shape:

   - [e] an [And (a, b)] or [Or (a, b)], with X the polarity the
     connective's NULL case needs of the other operand (TRUE under
     AND, FALSE under OR): [Unk] is
     [POr (Unk_left, Unk_right)], [Unk_left = PAnd (Ua, Unk_left_or)],
     [Unk_left_or = POr (Xb, Ub)], [Unk_right = PAnd (Ub, Unk_right_or)],
     [Unk_right_or = POr (Xa, Ua)];
   - [e] a column: [Pos] is [PAnd (Notnull_a, Opq_t)], [Neg] is
     [PAnd (Notnull_a, Opq_f)] — the column is non-null and, as an
     opaque atom, TRUE (FALSE);
   - [e] a comparison [a op b] of two terms: [Null_a] / [Notnull_a] /
     [Null_b] / [Notnull_b] are a term's null literals (constant
     terms fold to TRUE or FALSE); under [=n], [Pos] is
     [POr (Eqn_both_null, Cmp_holds)] and [Neg] is
     [POr (Eqn_a_null, Eqn_differ)], with [Eqn_differ =
     POr (Eqn_b_null, Cmp_fails)], [Cmp_holds] / [Cmp_fails] the
     literals [a = b] / [a <> b] and the [Eqn_*_null] nodes the
     conjunctions of null literals their names say;
   - [Neg_or_unk] is [POr (Neg, Unk)], "not TRUE", the question
     [always_true] and [implies] ask of their conclusion. *)
type part =
  | Pos
  | Neg
  | Unk
  | Neg_or_unk
  | Unk_left
  | Unk_left_or
  | Unk_right
  | Unk_right_or
  | Null_a
  | Notnull_a
  | Null_b
  | Notnull_b
  | Opq_t
  | Opq_f
  | Cmp_holds
  | Cmp_fails
  | Eqn_both_null
  | Eqn_a_null
  | Eqn_b_null
  | Eqn_differ

(* A conjunction of goals, solved left to right. *)
type goals = Done | G of expr * part * goals

(* Fuel the translation of [e] costs: one unit per sub-expression it
   covers (a short IN list counts as the disjunction it stands for),
   whichever propositions the question reads. *)
let rec size (e : expr) =
  match e with
  | And (a, b) | Or (a, b) -> 1 + size a + size b
  | Not a -> 1 + size a
  | InList (_, es) when List.length es <= in_list_bound -> 2 + (2 * List.length es)
  | _ -> 1

(* ------------------------------------------------------------------ *)
(* Constraint state                                                    *)
(* ------------------------------------------------------------------ *)

type nullity = NMust | NMustNot | NMay

type cls = {
  k_lo : (Value.t * bool) option;  (* bound value, strict? *)
  k_hi : (Value.t * bool) option;
  k_neqs : Value.t list;  (* constants the class is disequal to *)
  k_null : nullity;
}

(* A column the question met: a union-find node (its own [parent] when
   it represents its class) carrying its class's facts while it is a
   representative, and whether its static type is [TInt] (1 or 0; -1
   until integer tightening first asks, so a question that never
   compares a column with an integer constant reads no type). The
   columns of a question form a list through [next], ended by a
   sentinel that is its own [next]. *)
type col = {
  name : string;
  mutable parent : col;
  mutable cls : cls;
  mutable int : int;
  next : col;
}

(* The undo trail, newest entry first: what each assertion overwrote,
   to restore when its branch fails. *)
type undo =
  | Start
  | Parent of col * undo  (* the column was a representative *)
  | Cls of col * cls * undo
  | Diseqs of (col * col) list * undo
  | Opaques of (expr * tv) list * undo

type state = {
  ctx : ctx;
  mutable fuel : int;
  mutable cols : col;  (* the interned columns, newest first *)
  mutable diseqs : (col * col) list;  (* column pairs asserted disequal *)
  mutable opaques : (expr * tv) list;
  mutable trail : undo;
}

let burn st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise Give_up

let undo st mark =
  let rec back u =
    if u != mark then
      match u with
      | Start -> ()
      | Parent (c, next) ->
          c.parent <- c;
          back next
      | Cls (c, k, next) ->
          c.cls <- k;
          back next
      | Diseqs (l, next) ->
          st.diseqs <- l;
          back next
      | Opaques (l, next) ->
          st.opaques <- l;
          back next
  in
  back st.trail;
  st.trail <- mark

(* A class with no bounds and no disequalities, one shared record per
   null fact: every fresh column's class, and what a null fact asserted
   on one makes of it. *)
let plain =
  let k null = { k_lo = None; k_hi = None; k_neqs = []; k_null = null } in
  let must = k NMust and must_not = k NMustNot and may = k NMay in
  function NMust -> must | NMustNot -> must_not | NMay -> may

let with_null k null =
  match k with
  | { k_lo = None; k_hi = None; k_neqs = []; _ } -> plain null
  | _ -> { k with k_null = null }

let sentinel () =
  let rec s = { name = ""; parent = s; cls = plain NMay; int = 0; next = s } in
  s

let rec lookup n c =
  if c.next == c then raise Not_found
  else if String.equal c.name n then c
  else lookup n c.next

let column st n =
  match lookup n st.cols with
  | c -> c
  | exception Not_found ->
      let cls = plain (if List.mem n st.ctx.c_notnull then NMustNot else NMay) in
      (* not [let rec]: a recursive record is allocated twice *)
      let c = { name = n; parent = st.cols; cls; int = -1; next = st.cols } in
      c.parent <- c;
      st.cols <- c;
      c

let rec find c = if c.parent == c then c else find c.parent

(* Is every member of [rep]'s class statically [TInt]? *)
let class_int st rep =
  let is_int c =
    if c.int < 0 then
      c.int <- (match st.ctx.c_types c.name with Some Vtype.TInt -> 1 | _ -> 0);
    c.int = 1
  in
  let rec members c = c.next == c || ((find c != rep || is_int c) && members c.next) in
  members st.cols

let set_cls st c k =
  st.trail <- Cls (c, c.cls, st.trail);
  c.cls <- k

(* Comparison of two non-null bound values; incomparable types leave
   the fragment. *)
let vcmp a b =
  match Value.cmp_sql a b with Some c -> c | None -> raise Give_up

(* Integer bound tightening: a strict bound on an int column moves to
   the adjacent inclusive bound, enabling emptiness detection on
   e.g. [x > 1 AND x < 2]. *)
let tighten_lo st rep v =
  match v with
  | Value.Int n when n < max_int && class_int st rep -> (Value.Int (n + 1), false)
  | _ -> (v, true)

let tighten_hi st rep v =
  match v with
  | Value.Int n when n > min_int && class_int st rep -> (Value.Int (n - 1), false)
  | _ -> (v, true)

(* The tighter of two lower (resp. upper) bounds. *)
let max_lo a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (va, sa), Some (vb, sb) ->
      let c = vcmp va vb in
      if c > 0 then a
      else if c < 0 then b
      else Some (va, sa || sb)

let min_hi a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (va, sa), Some (vb, sb) ->
      let c = vcmp va vb in
      if c < 0 then a
      else if c > 0 then b
      else Some (va, sa || sb)

let pinned k =
  match (k.k_lo, k.k_hi) with
  | Some (v, false), Some (w, false) when vcmp v w = 0 -> Some v
  | _ -> None

(* Genuine-contradiction check after an interval/disequality update. *)
let check_cls k =
  (match (k.k_lo, k.k_hi) with
  | Some (lo, slo), Some (hi, shi) ->
      let c = vcmp lo hi in
      if c > 0 || (c = 0 && (slo || shi)) then raise Conflict
  | _ -> ());
  (match pinned k with
  | Some v -> if List.exists (fun w -> vcmp w v = 0) k.k_neqs then raise Conflict
  | None -> ());
  k

let assert_null st n =
  let rep = find (column st n) in
  match rep.cls.k_null with
  | NMustNot -> raise Conflict
  | NMust -> ()
  | NMay -> set_cls st rep (with_null rep.cls NMust)

let assert_notnull st n =
  let rep = find (column st n) in
  match rep.cls.k_null with
  | NMust -> raise Conflict
  | NMustNot -> ()
  | NMay -> set_cls st rep (with_null rep.cls NMustNot)

(* [op] between a column (class [rep]) and a non-null constant [v];
   non-null of the column has already been asserted. *)
let assert_attr_const st rep op v =
  let k = rep.cls in
  let k =
    match op with
    | Eq ->
        if List.exists (fun w -> vcmp w v = 0) k.k_neqs then raise Conflict;
        {
          k with
          k_lo = max_lo k.k_lo (Some (v, false));
          k_hi = min_hi k.k_hi (Some (v, false));
        }
    | Neq ->
        (match pinned k with
        | Some w when vcmp w v = 0 -> raise Conflict
        | _ -> ());
        { k with k_neqs = v :: k.k_neqs }
    | Lt -> { k with k_hi = min_hi k.k_hi (Some (tighten_hi st rep v)) }
    | Leq -> { k with k_hi = min_hi k.k_hi (Some (v, false)) }
    | Gt -> { k with k_lo = max_lo k.k_lo (Some (tighten_lo st rep v)) }
    | Geq -> { k with k_lo = max_lo k.k_lo (Some (v, false)) }
    | EqNull -> assert false
  in
  set_cls st rep (check_cls k)

let diseq_conflict st =
  if List.exists (fun (a, b) -> find a == find b) st.diseqs then raise Conflict

let union st rx ry =
  if rx != ry then begin
    let kx = rx.cls and ky = ry.cls in
    let merged =
      check_cls
        {
          k_lo = max_lo kx.k_lo ky.k_lo;
          k_hi = min_hi kx.k_hi ky.k_hi;
          k_neqs = kx.k_neqs @ ky.k_neqs;
          k_null = NMustNot;  (* equality asserted TRUE: both non-null *)
        }
    in
    st.trail <- Parent (ry, st.trail);
    ry.parent <- rx;
    set_cls st rx merged;
    diseq_conflict st
  end

let assert_attr_attr st x y op =
  let cx = column st x and cy = column st y in
  let rx = find cx and ry = find cy in
  let kx = rx.cls and ky = ry.cls in
  match op with
  | Eq -> union st rx ry
  | Neq -> (
      if rx == ry then raise Conflict;
      match (pinned kx, pinned ky) with
      | Some v, Some w when vcmp v w = 0 -> raise Conflict
      | _ ->
          st.trail <- Diseqs (st.diseqs, st.trail);
          st.diseqs <- (cx, cy) :: st.diseqs)
  | (Lt | Gt) when rx == ry -> raise Conflict
  | (Leq | Geq) when rx == ry -> ()
  | (Lt | Leq | Gt | Geq) as op -> (
      (* order constraints across classes: only the pinned cases feed
         the interval domain; the rest is (soundly) ignored *)
      match (pinned kx, pinned ky) with
      | _, Some w -> assert_attr_const st rx op w
      | Some v, _ -> assert_attr_const st ry (flip_cmp op) v
      | None, None -> ())
  | EqNull -> assert false

(* [a op b] over two terms: both operands non-null and the comparison
   holds. *)
let assert_cmp st op (a : expr) (b : expr) =
  match (a, b) with
  | Attr x, Attr y ->
      assert_notnull st x;
      assert_notnull st y;
      assert_attr_attr st x y op
  | Attr n, k | k, Attr n ->
      let v = term_value k in
      if Value.is_null v then raise Conflict;
      let op = match a with Attr _ -> op | _ -> flip_cmp op in
      assert_notnull st n;
      assert_attr_const st (find (column st n)) op v
  | _ -> (
      let va = term_value a and vb = term_value b in
      if Value.is_null va || Value.is_null vb then raise Conflict;
      match Eval.cmp3 op va vb with
      | Value.Bool true -> ()
      | Value.Bool false -> raise Conflict
      | _ -> raise Conflict
      | exception Value.Type_clash _ -> raise Give_up)

let assert_opaque st e tv =
  let rec seek = function
    | [] ->
        st.trail <- Opaques (st.opaques, st.trail);
        st.opaques <- (e, tv) :: st.opaques
    | (e', tv') :: rest ->
        if safe_equal e e' then (if tv <> tv' then raise Conflict) else seek rest
  in
  seek st.opaques

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let tv_of = function Pos -> T3 | Neg -> F3 | _ -> U3

(* [go st g]: is the conjunction [g] consistent with [st]? [false] only
   when every branch hit a genuine conflict — a real unsatisfiability
   proof. Each proposition node visited burns one unit of fuel: [visit]
   burns it for the node it is given, and the step that handles the
   node reads it without burning again. *)
let rec go st = function Done -> visit_done st | G (e, part, rest) -> visit st e part rest

and visit_done st =
  burn st;
  true

(* The node [part] of [e]'s translation, followed by [rest]. *)
and visit st e part rest =
  burn st;
  step st e part rest

(* A disjunction: the second side is tried from the state the first
   started from. *)
and branch st e1 p1 e2 p2 rest =
  let mark = st.trail in
  visit st e1 p1 rest
  ||
  (undo st mark;
   visit st e2 p2 rest)

(* A literal: the conjunction goes on when it is consistent. *)
and lit st assertion rest = if assertion then go st rest else false

and null_lit st (t : expr) rest =
  match t with
  | Attr n -> (
      match assert_null st n with
      | () -> go st rest
      | exception Conflict -> false)
  | _ -> lit st (Value.is_null (term_value t)) rest

and notnull_lit st (t : expr) rest =
  match t with
  | Attr n -> (
      match assert_notnull st n with
      | () -> go st rest
      | exception Conflict -> false)
  | _ -> lit st (not (Value.is_null (term_value t))) rest

and cmp_lit st op a b rest =
  match assert_cmp st op a b with
  | () -> go st rest
  | exception Conflict -> false

and opaque_lit st e tv rest =
  match assert_opaque st e tv with
  | () -> go st rest
  | exception Conflict -> false

and step st e part rest =
  match (part, e) with
  | (Pos | Neg | Unk), _ -> prop st e part rest
  | Neg_or_unk, _ -> branch st e Neg e Unk rest
  | Unk_left, (And (a, _) | Or (a, _)) -> visit st a Unk (G (e, Unk_left_or, rest))
  | Unk_right, (And (_, b) | Or (_, b)) -> visit st b Unk (G (e, Unk_right_or, rest))
  | Unk_left_or, And (_, b) -> branch st b Pos b Unk rest
  | Unk_left_or, Or (_, b) -> branch st b Neg b Unk rest
  | Unk_right_or, And (a, _) -> branch st a Pos a Unk rest
  | Unk_right_or, Or (a, _) -> branch st a Neg a Unk rest
  | Null_a, Cmp (_, a, _) -> null_lit st a rest
  | Notnull_a, Cmp (_, a, _) -> notnull_lit st a rest
  | Null_b, Cmp (_, _, b) -> null_lit st b rest
  | Notnull_b, Cmp (_, _, b) -> notnull_lit st b rest
  | Notnull_a, Attr _ -> notnull_lit st e rest
  | Opq_t, _ -> opaque_lit st e T3 rest
  | Opq_f, _ -> opaque_lit st e F3 rest
  | Cmp_holds, Cmp (_, a, b) -> cmp_lit st Eq a b rest
  | Cmp_fails, Cmp (_, a, b) -> cmp_lit st Neq a b rest
  | Eqn_both_null, _ -> visit st e Null_a (G (e, Null_b, rest))
  | Eqn_a_null, _ -> visit st e Null_a (G (e, Notnull_b, rest))
  | Eqn_b_null, _ -> visit st e Notnull_a (G (e, Null_b, rest))
  | Eqn_differ, _ -> branch st e Eqn_b_null e Cmp_fails rest
  | _ -> invalid_arg "Symbolic.step: part of another shape"

(* The TRUE ([Pos]) / FALSE ([Neg]) / NULL ([Unk]) proposition of [e]. *)
and prop st e part rest =
  match e with
  | Not a -> prop st a (match part with Pos -> Neg | Neg -> Pos | p -> p) rest
  | And (a, b) -> (
      match part with
      | Pos -> visit st a Pos (G (b, Pos, rest))
      | Neg -> branch st a Neg b Neg rest
      | _ -> branch st e Unk_left e Unk_right rest)
  | Or (a, b) -> (
      match part with
      | Pos -> branch st a Pos b Pos rest
      | Neg -> visit st a Neg (G (b, Neg, rest))
      | _ -> branch st e Unk_left e Unk_right rest)
  | Const v -> truth st e v part rest
  | TypedNull _ -> truth st e Value.Null part rest
  | Attr _ -> (
      (* a boolean column used directly as a condition *)
      match part with
      | Pos -> visit st e Notnull_a (G (e, Opq_t, rest))
      | Neg -> visit st e Notnull_a (G (e, Opq_f, rest))
      | _ -> null_lit st e rest)
  | IsNull inner -> (
      if is_static inner then
        let null = Value.is_null (term_value inner) in
        match part with
        | Pos -> lit st null rest
        | Neg -> lit st (not null) rest
        | _ -> false
      else
        match (part, inner) with
        | Pos, Attr _ -> null_lit st inner rest
        | Neg, Attr _ -> notnull_lit st inner rest
        | Pos, _ -> opaque_lit st e T3 rest
        | Neg, _ -> opaque_lit st e F3 rest
        | _ -> false)
  | Cmp (op, a, b) ->
      if is_static a && is_static b then
        match Eval.cmp3 op (term_value a) (term_value b) with
        | v -> truth st e v part rest
        | exception Value.Type_clash _ -> opaque_lit st e (tv_of part) rest
      else if not (is_term a && is_term b) then opaque_lit st e (tv_of part) rest
      else if op = EqNull then
        (* =n is two-valued: TRUE iff both NULL or both non-null and
           equal *)
        match part with
        | Pos -> branch st e Eqn_both_null e Cmp_holds rest
        | Neg -> branch st e Eqn_a_null e Eqn_differ rest
        | _ -> false
      else (
        match part with
        | Pos -> cmp_lit st op a b rest
        | Neg -> cmp_lit st (negate_cmp op) a b rest
        | _ -> branch st e Null_a e Null_b rest)
  | InList (x, es) when List.length es <= in_list_bound -> prop st (in_list_expr x es) part rest
  | Like (arg, pattern) -> (
      match static_value arg with
      | Some (Value.String s) -> truth st e (Value.Bool (Builtin.like_match ~pattern s)) part rest
      | Some Value.Null -> truth st e Value.Null part rest
      | _ -> opaque_lit st e (tv_of part) rest)
  | Binop _ | Case _ | InList _ | FunCall _ | Sublink _ -> opaque_lit st e (tv_of part) rest

(* A condition whose value [v] is known: exactly one of its three
   propositions holds; a non-boolean constant is an opaque atom. *)
and truth st e (v : Value.t) part rest =
  match (v, part) with
  | Value.Bool true, Pos | Value.Bool false, Neg | Value.Null, Unk -> go st rest
  | (Value.Bool _ | Value.Null), _ -> false
  | _ -> opaque_lit st e (tv_of part) rest

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* Questions asked and fuel burned on the calling domain: a
   domain-local count, so concurrent sessions never contend for it. *)
type tally = { mutable asked : int; mutable burned : int }

let tally = Domain.DLS.new_key (fun () -> { asked = 0; burned = 0 })
let questions () = (Domain.DLS.get tally).asked
let fuel_burned () = (Domain.DLS.get tally).burned

(* Can [goals], over expressions whose translations total [size] nodes,
   all hold? [Proved]: a consistent abstract assignment exists;
   [Refuted]: proved unsatisfiable; [Unknown]: out of fuel or
   fragment. *)
let search c ~size goals =
  let st =
    {
      ctx = c;
      fuel = c.c_fuel - size;
      cols = sentinel ();
      diseqs = [];
      opaques = [];
      trail = Start;
    }
  in
  let verdict =
    if st.fuel <= 0 then Unknown
    else
      match go st goals with
      | true -> Proved
      | false -> Refuted
      | exception Give_up -> Unknown
  in
  let t = Domain.DLS.get tally in
  t.asked <- t.asked + 1;
  t.burned <- t.burned + (c.c_fuel - max 0 st.fuel);
  verdict

let flip = function Proved -> Refuted | Refuted -> Proved | Unknown -> Unknown

let satisfiable c e = search c ~size:(size e) (G (e, Pos, Done))
let falsifiable c e = search c ~size:(size e) (G (e, Neg, Done))
let never_true c e = flip (satisfiable c e)

let implies c a b =
  flip (search c ~size:(size a + size b) (G (a, Pos, G (b, Neg_or_unk, Done))))

let always_true c e = flip (search c ~size:(size e) (G (e, Neg_or_unk, Done)))

let equiv c a b =
  match (implies c a b, implies c b a) with
  | Proved, Proved -> Proved
  | Refuted, _ | _, Refuted -> Refuted
  | _ -> Unknown

let simplify c e =
  match never_true c e with
  | Proved -> Const Value.vfalse
  | Refuted | Unknown -> (
      let cs = conjuncts e in
      let rec drop kept = function
        | [] -> List.rev kept
        | x :: rest ->
            let others = List.rev_append kept rest in
            if implies c (conj others) x = Proved then drop kept rest
            else drop (x :: kept) rest
      in
      match drop [] cs with
      | [] -> Const Value.vtrue
      | cs' when List.length cs' = List.length cs -> e
      | cs' -> conj cs')
