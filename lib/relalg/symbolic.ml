(** Symbolic 3VL predicate solver — see symbolic.mli for the contract.

    Architecture: a predicate question ("can [e] be TRUE?") is compiled
    into a classical proposition over theory literals by tracking, per
    sub-expression, the three propositions "evaluates to TRUE" /
    "to FALSE" / "to NULL" simultaneously ({!tv3} — one recursion, so
    shared subtrees stay shared). A backtracking search ({!solve})
    explores the proposition; asserting a literal updates a persistent
    constraint state (interval + congruence + null facts) and conflicts
    prune the branch. Only genuine contradictions conflict, so an
    exhausted search is a real unsatisfiability proof; a surviving
    branch may be spurious (opaque atoms are freer than the expressions
    they stand for). Fuel bounds both compilation and search; running
    out raises {!Give_up} and the query answers [Unknown]. *)

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

let burn fuel = decr fuel; if !fuel <= 0 then raise Give_up

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
(* Literals and propositions                                           *)
(* ------------------------------------------------------------------ *)

type tv = T3 | F3 | U3

type term = TAttr of string | TConst of Value.t

type lit =
  | LCmp of cmpop * term * term
      (* both operands non-null and the comparison holds; the
         operator is never [EqNull] (desugared at compilation) *)
  | LNull of string
  | LNotNull of string
  | LOpaque of expr * tv
      (* an out-of-theory sub-expression pinned to a truth value;
         keyed by structural equality *)

type prop =
  | PTrue
  | PFalse
  | PLit of lit
  | PAnd of prop * prop
  | POr of prop * prop

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

(* ------------------------------------------------------------------ *)
(* Compilation: pos/neg/unk propositions per sub-expression            *)
(* ------------------------------------------------------------------ *)

let of_truth (v : Value.t) =
  match v with
  | Value.Bool true -> (PTrue, PFalse, PFalse)
  | Value.Bool false -> (PFalse, PTrue, PFalse)
  | Value.Null -> (PFalse, PFalse, PTrue)
  | _ -> raise Not_found (* non-boolean constant condition: opaque *)

let term_of (e : expr) : term option =
  match e with
  | Attr n -> Some (TAttr n)
  | _ -> Option.map (fun v -> TConst v) (static_value e)

let t_null = function
  | TConst v -> if Value.is_null v then PTrue else PFalse
  | TAttr n -> PLit (LNull n)

let t_notnull = function
  | TConst v -> if Value.is_null v then PFalse else PTrue
  | TAttr n -> PLit (LNotNull n)

let rec tv3 fuel (e : expr) : prop * prop * prop =
  burn fuel;
  let opaque () = (PLit (LOpaque (e, T3)), PLit (LOpaque (e, F3)), PLit (LOpaque (e, U3))) in
  match e with
  | Const v -> (try of_truth v with Not_found -> opaque ())
  | TypedNull _ -> (PFalse, PFalse, PTrue)
  | Attr n ->
      (* a boolean column used directly as a condition *)
      ( PAnd (PLit (LNotNull n), PLit (LOpaque (e, T3))),
        PAnd (PLit (LNotNull n), PLit (LOpaque (e, F3))),
        PLit (LNull n) )
  | And (a, b) ->
      let pa, na, ua = tv3 fuel a and pb, nb, ub = tv3 fuel b in
      ( PAnd (pa, pb),
        POr (na, nb),
        POr (PAnd (ua, POr (pb, ub)), PAnd (ub, POr (pa, ua))) )
  | Or (a, b) ->
      let pa, na, ua = tv3 fuel a and pb, nb, ub = tv3 fuel b in
      ( POr (pa, pb),
        PAnd (na, nb),
        POr (PAnd (ua, POr (nb, ub)), PAnd (ub, POr (na, ua))) )
  | Not a ->
      let pa, na, ua = tv3 fuel a in
      (na, pa, ua)
  | IsNull inner -> (
      match static_value inner with
      | Some v ->
          if Value.is_null v then (PTrue, PFalse, PFalse)
          else (PFalse, PTrue, PFalse)
      | None -> (
          match inner with
          | Attr n -> (PLit (LNull n), PLit (LNotNull n), PFalse)
          | _ -> (PLit (LOpaque (e, T3)), PLit (LOpaque (e, F3)), PFalse)))
  | Cmp (op, a, b) -> (
      match (static_value a, static_value b) with
      | Some va, Some vb -> (
          match Eval.cmp3 op va vb with
          | v -> (try of_truth v with Not_found -> opaque ())
          | exception Value.Type_clash _ -> opaque ())
      | _ -> (
          match (term_of a, term_of b) with
          | Some ta, Some tb when op = EqNull ->
              (* =n is two-valued: TRUE iff both NULL or both non-null
                 and equal *)
              ( POr (PAnd (t_null ta, t_null tb), PLit (LCmp (Eq, ta, tb))),
                POr
                  ( PAnd (t_null ta, t_notnull tb),
                    POr
                      ( PAnd (t_notnull ta, t_null tb),
                        PLit (LCmp (Neq, ta, tb)) ) ),
                PFalse )
          | Some ta, Some tb ->
              ( PLit (LCmp (op, ta, tb)),
                PLit (LCmp (negate_cmp op, ta, tb)),
                POr (t_null ta, t_null tb) )
          | _ -> opaque ()))
  | InList (x, es) when List.length es <= 8 ->
      (* x IN (e1..ek) evaluates as FALSE or3 (x = e1) or3 ... *)
      tv3 fuel
        (List.fold_left
           (fun acc el -> Or (acc, Cmp (Eq, x, el)))
           (Const Value.vfalse) es)
  | Like (arg, pattern) -> (
      match static_value arg with
      | Some (Value.String s) ->
          if Builtin.like_match ~pattern s then (PTrue, PFalse, PFalse)
          else (PFalse, PTrue, PFalse)
      | Some Value.Null -> (PFalse, PFalse, PTrue)
      | _ -> opaque ())
  | Binop _ | Case _ | InList _ | FunCall _ | Sublink _ -> opaque ()

(* ------------------------------------------------------------------ *)
(* Constraint state                                                    *)
(* ------------------------------------------------------------------ *)

module SM = Map.Make (String)

type nullity = NMust | NMustNot | NMay

type cls = {
  k_lo : (Value.t * bool) option;  (* bound value, strict? *)
  k_hi : (Value.t * bool) option;
  k_neqs : Value.t list;  (* constants the class is disequal to *)
  k_null : nullity;
  k_int : bool;  (* every member column is statically TInt *)
}

type state = {
  s_parent : string SM.t;  (* union-find: non-representatives only *)
  s_classes : cls SM.t;  (* by representative *)
  s_diseq : (string * string) list;  (* column pairs asserted disequal *)
  s_opaques : (expr * tv) list;
}

let init_state =
  { s_parent = SM.empty; s_classes = SM.empty; s_diseq = []; s_opaques = [] }

let rec find st n =
  match SM.find_opt n st.s_parent with None -> n | Some p -> find st p

let default_cls c n =
  {
    k_lo = None;
    k_hi = None;
    k_neqs = [];
    k_null = (if List.mem n c.c_notnull then NMustNot else NMay);
    k_int = c.c_types n = Some Vtype.TInt;
  }

let cls_of c st rep =
  match SM.find_opt rep st.s_classes with
  | Some k -> k
  | None -> default_cls c rep

let set_cls st rep k = { st with s_classes = SM.add rep k st.s_classes }

(* Comparison of two non-null bound values; incomparable types leave
   the fragment. *)
let vcmp a b =
  match Value.cmp_sql a b with Some c -> c | None -> raise Give_up

(* Integer bound tightening: a strict bound on an int column moves to
   the adjacent inclusive bound, enabling emptiness detection on
   e.g. [x > 1 AND x < 2]. *)
let tighten_lo is_int (v, strict) =
  match v with
  | Value.Int n when is_int && strict && n < max_int -> (Value.Int (n + 1), false)
  | _ -> (v, strict)

let tighten_hi is_int (v, strict) =
  match v with
  | Value.Int n when is_int && strict && n > min_int -> (Value.Int (n - 1), false)
  | _ -> (v, strict)

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

let assert_null c st n =
  let rep = find st n in
  let k = cls_of c st rep in
  match k.k_null with
  | NMustNot -> raise Conflict
  | NMust -> st
  | NMay -> set_cls st rep { k with k_null = NMust }

let assert_notnull c st n =
  let rep = find st n in
  let k = cls_of c st rep in
  match k.k_null with
  | NMust -> raise Conflict
  | NMustNot -> st
  | NMay -> set_cls st rep { k with k_null = NMustNot }

(* [op] between a column (class [rep]) and a non-null constant [v];
   non-null of the column has already been asserted. *)
let assert_attr_const c st rep op v =
  let k = cls_of c st rep in
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
    | Lt -> { k with k_hi = min_hi k.k_hi (Some (tighten_hi k.k_int (v, true))) }
    | Leq -> { k with k_hi = min_hi k.k_hi (Some (v, false)) }
    | Gt -> { k with k_lo = max_lo k.k_lo (Some (tighten_lo k.k_int (v, true))) }
    | Geq -> { k with k_lo = max_lo k.k_lo (Some (v, false)) }
    | EqNull -> assert false
  in
  set_cls st rep (check_cls k)

let diseq_conflict st =
  if List.exists (fun (a, b) -> String.equal (find st a) (find st b)) st.s_diseq
  then raise Conflict

let union c st rx ry =
  if String.equal rx ry then st
  else begin
    let kx = cls_of c st rx and ky = cls_of c st ry in
    let merged =
      check_cls
        {
          k_lo = max_lo kx.k_lo ky.k_lo;
          k_hi = min_hi kx.k_hi ky.k_hi;
          k_neqs = kx.k_neqs @ ky.k_neqs;
          k_null = NMustNot;  (* equality asserted TRUE: both non-null *)
          k_int = kx.k_int && ky.k_int;
        }
    in
    let st =
      {
        st with
        s_parent = SM.add ry rx st.s_parent;
        s_classes = SM.add rx merged (SM.remove ry st.s_classes);
      }
    in
    diseq_conflict st;
    st
  end

let assert_attr_attr c st x y op =
  let rx = find st x and ry = find st y in
  let kx = cls_of c st rx and ky = cls_of c st ry in
  match op with
  | Eq -> union c st rx ry
  | Neq -> (
      if String.equal rx ry then raise Conflict;
      match (pinned kx, pinned ky) with
      | Some v, Some w when vcmp v w = 0 -> raise Conflict
      | _ -> { st with s_diseq = (x, y) :: st.s_diseq })
  | (Lt | Gt) when String.equal rx ry -> raise Conflict
  | (Leq | Geq) when String.equal rx ry -> st
  | (Lt | Leq | Gt | Geq) as op -> (
      (* order constraints across classes: only the pinned cases feed
         the interval domain; the rest is (soundly) ignored *)
      match (pinned kx, pinned ky) with
      | _, Some w -> assert_attr_const c st rx op w
      | Some v, _ -> assert_attr_const c st ry (flip_cmp op) v
      | None, None -> st)
  | EqNull -> assert false

let assert_cmp c st op t1 t2 =
  match (t1, t2) with
  | TConst a, TConst b -> (
      (* both operands non-null and the comparison holds *)
      if Value.is_null a || Value.is_null b then raise Conflict;
      match Eval.cmp3 op a b with
      | Value.Bool true -> st
      | Value.Bool false -> raise Conflict
      | _ -> raise Conflict
      | exception Value.Type_clash _ -> raise Give_up)
  | TAttr n, TConst v | TConst v, TAttr n ->
      if Value.is_null v then raise Conflict;
      let op = match t1 with TConst _ -> flip_cmp op | _ -> op in
      let st = assert_notnull c st n in
      assert_attr_const c st (find st n) op v
  | TAttr x, TAttr y ->
      let st = assert_notnull c st x in
      let st = assert_notnull c st y in
      assert_attr_attr c st x y op

let assert_opaque st e tv =
  match List.find_opt (fun (e', _) -> safe_equal e e') st.s_opaques with
  | Some (_, tv') -> if tv = tv' then st else raise Conflict
  | None -> { st with s_opaques = (e, tv) :: st.s_opaques }

let assert_lit c st = function
  | LNull n -> assert_null c st n
  | LNotNull n -> assert_notnull c st n
  | LCmp (op, t1, t2) -> assert_cmp c st op t1 t2
  | LOpaque (e, tv) -> assert_opaque st e tv

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

(* [solve c fuel st goals]: is the conjunction of [goals] consistent
   with state [st]? [false] only when every branch hit a genuine
   conflict — a real unsatisfiability proof. *)
let rec solve c fuel st (goals : prop list) : bool =
  burn fuel;
  match goals with
  | [] -> true
  | PTrue :: rest -> solve c fuel st rest
  | PFalse :: _ -> false
  | PAnd (a, b) :: rest -> solve c fuel st (a :: b :: rest)
  | POr (a, b) :: rest ->
      solve c fuel st (a :: rest) || solve c fuel st (b :: rest)
  | PLit l :: rest -> (
      match assert_lit c st l with
      | st' -> solve c fuel st' rest
      | exception Conflict -> false)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* [Some true]: a consistent abstract assignment exists; [Some false]:
   proved unsatisfiable; [None]: out of fuel / fragment. *)
let consistent c (mk : int ref -> prop list) : bool option =
  let fuel = ref c.c_fuel in
  match solve c fuel init_state (mk fuel) with
  | sat -> Some sat
  | exception Give_up -> None

let satisfiable c e =
  match
    consistent c (fun fuel ->
        let p, _, _ = tv3 fuel e in
        [ p ])
  with
  | Some true -> Proved
  | Some false -> Refuted
  | None -> Unknown

let falsifiable c e =
  match
    consistent c (fun fuel ->
        let _, n, _ = tv3 fuel e in
        [ n ])
  with
  | Some true -> Proved
  | Some false -> Refuted
  | None -> Unknown

let never_true c e =
  match satisfiable c e with
  | Proved -> Refuted
  | Refuted -> Proved
  | Unknown -> Unknown

let implies c a b =
  match
    consistent c (fun fuel ->
        let pa, _, _ = tv3 fuel a in
        let _, nb, ub = tv3 fuel b in
        [ pa; POr (nb, ub) ])
  with
  | Some true -> Refuted
  | Some false -> Proved
  | None -> Unknown

let always_true c e =
  match
    consistent c (fun fuel ->
        let _, n, u = tv3 fuel e in
        [ POr (n, u) ])
  with
  | Some true -> Refuted
  | Some false -> Proved
  | None -> Unknown

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
