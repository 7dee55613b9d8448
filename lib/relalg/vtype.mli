(** Static types of SQL values. Dates are ISO-8601 strings ([TString]):
    lexicographic comparison coincides with chronological order. *)

type t = TInt | TFloat | TString | TBool

val equal : t -> t -> bool

(** [some t] is [Some t], one shared value per type: a lookup that
    returns a type allocates nothing. *)
val some : t -> t option
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Types usable in arithmetic. *)
val is_numeric : t -> bool

(** Arithmetic result type with int/float promotion; raises
    [Invalid_argument] on non-numeric input. *)
val promote : t -> t -> t

(** May values of the two types be compared? (int/float mix allowed) *)
val compatible : t -> t -> bool
