(** The extended relational algebra of Figure 1: bag operators plus
    sublinks ([ANY], [ALL], [EXISTS] and scalar subqueries) embeddable
    in selection, projection and join conditions.

    Expressions and queries are mutually recursive because a sublink
    carries a whole query; each sublink has a unique [id] used by the
    evaluator for hashed-subplan memoization. *)

type binop = Add | Sub | Mul | Div | Mod | Concat

type cmpop =
  | Eq
  | Neq
  | Lt
  | Leq
  | Gt
  | Geq
  | EqNull  (** the null-aware [=n] comparison of Section 3.3 *)

type expr =
  | Const of Value.t
  | TypedNull of Vtype.t
      (** NULL with an explicit static type — used by the provenance
          rewrites to pad provenance attributes *)
  | Attr of string
      (** resolved by name against the operator's input schema or — for
          correlation — an enclosing scope *)
  | Binop of binop * expr * expr
  | Cmp of cmpop * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | IsNull of expr
  | Case of (expr * expr) list * expr option
      (** CASE WHEN...THEN... [ELSE]; missing ELSE is NULL *)
  | Like of expr * string
  | InList of expr * expr list
  | FunCall of string * expr list
  | Sublink of sublink

and sublink = {
  id : int;  (** unique id, for evaluator memoization *)
  kind : sublink_kind;
  query : query;  (** the sublink query [Tsub] *)
}

and sublink_kind =
  | Exists
  | Scalar  (** single-column; NULL on empty result *)
  | AnyOp of cmpop * expr  (** [A op ANY Tsub]; [A] in the outer scope *)
  | AllOp of cmpop * expr

and agg_call = {
  agg_func : string;
  agg_distinct : bool;
  agg_arg : expr option;  (** [None] encodes [count( * )] *)
  agg_name : string;
}

and query =
  | Base of string
  | TableExpr of Relation.t
  | Select of expr * query
  | Project of projection
  | Cross of query * query
  | Join of expr * query * query
  | LeftJoin of expr * query * query
  | Agg of aggregation
  | Union of semantics * query * query
  | Inter of semantics * query * query
  | Diff of semantics * query * query
  | Order of (expr * direction) list * query
  | Limit of int * query

and projection = {
  distinct : bool;
  cols : (expr * string) list;
  proj_input : query;
}

and aggregation = {
  group_by : (expr * string) list;
  aggs : agg_call list;
  agg_input : query;
}

and semantics = Bag | SetSem
and direction = Asc | Desc

(** {1 Constructors} *)

(** [mk_sublink kind query] allocates a sublink with a fresh id. *)
val mk_sublink : sublink_kind -> query -> sublink

val exists : query -> expr
val scalar : query -> expr
val any_op : cmpop -> expr -> query -> expr
val all_op : cmpop -> expr -> query -> expr

val int : int -> expr
val str : string -> expr
val flt : float -> expr
val bool : bool -> expr
val attr : string -> expr
val ( &&& ) : expr -> expr -> expr
val ( ||| ) : expr -> expr -> expr
val eq : expr -> expr -> expr
val lt : expr -> expr -> expr
val gt : expr -> expr -> expr

(** Conjunction of a condition list; empty list is [true]. *)
val conj : expr list -> expr

(** Top-level conjuncts of a condition. *)
val conjuncts : expr -> expr list

(** Identity projection columns for a schema. *)
val identity_cols : Schema.t -> (expr * string) list

val project : ?distinct:bool -> (expr * string) list -> query -> query

val aggregate :
  group_by:(expr * string) list -> aggs:agg_call list -> query -> query

(** {1 Traversals} *)

(** [List.map f l] applied left to right, returning [l] itself when
    [f] returns every element physically unchanged. *)
val map_shared : ('a -> 'a) -> 'a list -> 'a list

(** {!map_shared} over the first components of pairs. *)
val map_fst_shared : ('a -> 'a) -> ('a * 'b) list -> ('a * 'b) list

(** Rebuild an expression, applying [f] to every embedded sublink
    query (outermost sublinks only). [f] is applied in
    {!sublinks_of_expr} order, so callers may number sublinks with a
    counter. Nothing is rebuilt where [f] changed nothing: a node whose
    parts come back physically equal is returned itself. *)
val map_expr_query : (query -> query) -> expr -> expr

(** Fold over every sub-expression (including the root), not descending
    into sublink queries. *)
val fold_expr : ('a -> expr -> 'a) -> 'a -> expr -> 'a

(** Top-level sublinks of an expression, left to right (sublinks nested
    inside another sublink's query are not included — Section 2.7). *)
val sublinks_of_expr : expr -> sublink list

val has_sublink : expr -> bool

(** Replace sublinks (matched by id) with bound expressions — the Move
    strategy's hoisting substitution. *)
val replace_sublinks : (int * expr) list -> expr -> expr

(** Apply [f] to every direct child query (including sublink queries
    inside conditions). *)
val map_queries : (query -> query) -> query -> query

(** Expressions syntactically present in the root operator of a query,
    each with its name in diagnostics (["the join condition"],
    ["column x"], ...). The operator's sublinks are numbered in this
    order. *)
val labelled_exprs : query -> (string * expr) list

(** [List.map snd (labelled_exprs q)]. *)
val root_exprs : query -> expr list

(** [List.exists has_sublink (root_exprs q)], allocating nothing. *)
val root_has_sublink : query -> bool

(** Direct input queries of an operator, left to right (sublink queries
    excluded). *)
val inputs : query -> query list

(** {1 Operator paths}

    The one owner of the path format that Lint diagnostics, [\explain],
    [\analyze], the optimizer trace, Guard trips and fault injection
    share. A path lists, root first, one segment per operator on the
    way down, e.g. [Project/Join[left]/Select/sublink[1]/Base(s)]:
    - an operator's own segment is its {!Path.label};
    - a unary operator's input extends that segment unchanged, a binary
      operator's inputs qualify it with [[left]]/[[right]];
    - the body of an operator's k-th sublink (1-based, in
      {!sublinks_of_expr} order over {!root_exprs}) extends the
      operator's path with [sublink[k]].

    A {e prefix} is the path down to, but excluding, an operator's own
    segment: the root's prefix is [[]]. *)
module Path : sig
  type t = string list

  type side =
    | Input  (** the input of a unary operator *)
    | Left
    | Right

  (** The operator's segment: ["Base(r)"], ["Table"], ["Select"], ... *)
  val label : query -> string

  (** Joins with ["/"]; the empty path renders as ["plan"]. *)
  val to_string : t -> string

  (** [here prefix q]: the path of operator [q] under [prefix]. *)
  val here : t -> query -> t

  (** [child prefix q side]: the prefix of [q]'s input on [side]. *)
  val child : t -> query -> side -> t

  (** ["sublink[k]"], the segment of an operator's k-th sublink. *)
  val segment : int -> string

  (** [sublink here k]: the prefix of the body of the k-th sublink of
      the operator at [here]. *)
  val sublink : t -> int -> t

  (** [sublinks here exprs]: every top-level sublink of [exprs] — the
      root expressions of the operator at [here] — with the prefix of
      its body. *)
  val sublinks : t -> expr list -> (sublink * t) list

  (** [locate owners s]: the body prefix of [s] among the sublinks of
      [owners], the [(path, root expressions)] of the operators whose
      expressions an engine evaluates together; the first physical
      occurrence wins. Raises [Invalid_argument] when [s] is not there. *)
  val locate : (t * expr list) list -> sublink -> t

  (** [walk visit env q] visits every operator of [q], sublink bodies
      included: the root, then its inputs left to right, then its
      sublink bodies. [visit path env op] receives the environment of
      [op]'s scope and returns the environment its sublink bodies see;
      its inputs see [env] itself. *)
  val walk : (t -> 'env -> query -> 'env) -> 'env -> query -> unit
end

(** [map_node ~expr ~input q] rebuilds operator [q] with [expr] applied
    to each of its own expressions (in {!root_exprs} order) and then
    [input side i] to each input, left to right: the order in which the
    path-carrying passes number sublinks. Returns [q] itself when every
    part comes back physically unchanged. *)
val map_node :
  expr:(expr -> expr) -> input:(Path.side -> query -> query) -> query -> query

(** Base relation names accessed anywhere in a query (including sublink
    queries), in the provenance rewriter's traversal order — operator
    inputs first, then sublinks left to right — with duplicates for
    multiple references (footnote 1). The provenance contract appends
    one provenance attribute group per entry of this list. *)
val base_relations : query -> string list

(** Hash tables keyed on a query's physical identity ([==]), hashing a
    bounded prefix of the node. Memo tables over plans use it: plans
    are DAGs, and one shared subplan is one entry. *)
module Qtbl : Hashtbl.S with type key = query
