(** Relation schemas: ordered, uniquely named, typed attributes.

    The SQL analyzer qualifies attribute names ("alias.column"), which
    makes name-based correlation resolution unambiguous. *)

type attr = { name : string; ty : Vtype.t }

type t

exception Schema_error of string

val schema_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** [attr name ty] is a single attribute. *)
val attr : string -> Vtype.t -> attr

(** [of_list attrs] builds a schema; raises {!Schema_error} on duplicate
    names. *)
val of_list : attr list -> t

(** [map_of_list f l] is [of_list (List.map f l)] without the
    intermediate list; [f] runs on the elements in order. *)
val map_of_list : ('a -> attr) -> 'a list -> t

val to_list : t -> attr list
val arity : t -> int
val attr_at : t -> int -> attr
val names : t -> string list
val types : t -> Vtype.t list

(** [find s name] is the position of [name], if present. *)
val find : t -> string -> int option

val mem : t -> string -> bool

(** Like {!find} but raises {!Schema_error} when absent. *)
val position_exn : t -> string -> int

val type_of_exn : t -> string -> Vtype.t

(** [concat a b] juxtaposes two schemas; duplicate names rejected. *)
val concat : t -> t -> t

(** [rename s f] renames every attribute through [f]. *)
val rename : t -> (string -> string) -> t

(** [rename_positional s names] assigns fresh names positionally. *)
val rename_positional : t -> string list -> t

(** Arity and pointwise type compatibility (set-operation check). *)
val equal_types : t -> t -> bool

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
