(** Static checking and schema inference for algebra trees.

    An environment is a stack of schemas, innermost first; attribute
    references resolve against the innermost schema defining the name,
    mirroring evaluation-time correlation binding (Section 2.2). *)

exception Type_error of string

type env = Schema.t list

(** [did_you_mean name candidates] ranks [candidates] by closeness to
    [name] (case-insensitive edit distance; qualified-name suffix
    matches first), best first, at most three. Shared by {!resolve}'s
    failure message and the linter's unresolved-attribute rule. *)
val did_you_mean : string -> string list -> string list

(** [resolve env name] is the type of [name], innermost-first. The
    failure message lists in-scope candidate attributes. *)
val resolve : env -> string -> Vtype.t

(** [infer_expr db env e] is [e]'s type; [None] means statically unknown
    (a bare NULL literal), which unifies with every type. *)
val infer_expr : Database.t -> env -> Algebra.expr -> Vtype.t option

(** [projection_schema db env cols] is the output schema of a
    projection list under [env]; statically unknown (NULL-typed)
    expressions default to string, matching evaluation. *)
val projection_schema :
  Database.t -> env -> (Algebra.expr * string) list -> Schema.t

(** [aggregation_schema db env group_by aggs] is the output schema of
    an aggregation: group-by attributes, then aggregate results. *)
val aggregation_schema :
  Database.t ->
  env ->
  (Algebra.expr * string) list ->
  Algebra.agg_call list ->
  Schema.t

(** [infer_query_env db outer q] is the output schema of [q] with
    correlation scopes [outer] available. *)
val infer_query_env : Database.t -> env -> Algebra.query -> Schema.t

(** A typed plan: the output schema of [t_query] and the typed trees
    of its operator inputs (sublink bodies are not among them). *)
type tree = { t_query : Algebra.query; t_schema : Schema.t; t_inputs : tree list }

(** [infer_tree db q]: {!infer}, keeping the schema of every operator
    input below [q] (each input typed under no enclosing scope, as [q]
    is). Raises {!Type_error} as {!infer} does. *)
val infer_tree : Database.t -> Algebra.query -> tree

(** [infer db q] is the output schema of a top-level query. *)
val infer : Database.t -> Algebra.query -> Schema.t

(** [check db q] validates [q], raising {!Type_error} on failure. *)
val check : Database.t -> Algebra.query -> unit
