(** Batches for the vectorized engine ({!Vexec}): boxed tuples with an
    optional column-offset map (attribute projections keep the tuples)
    and an optional selection vector of surviving physical row indices
    (filters keep the tuples), or a factored cross-product block.
    Base-table batches are slices of the stored relation's tuples, so a
    round trip through a batch reproduces the exact original values —
    the parity contract the engines are tested against. *)

type t =
  | Rows of {
      schema : Schema.t;
      rows : Tuple.t array;  (** the physical rows *)
      offs : int array option;
          (** column [j] of the batch is column [offs.(j)] of a physical
              row; [None] = all of its columns, in order *)
      sel : int array option;
          (** surviving physical row indices, ascending; [None] = all *)
    }
  | CrossB of {
      schema : Schema.t;
      lefts : Tuple.t array;  (** the [np] left tuples, in output order *)
      right_cols : Value.t array array;
          (** right side transposed: [right_cols.(j).(i)] is column [j]
              of right row [i]; every column has [card_b] entries *)
      card_b : int;
      srcs : int array;
          (** per output column: [s >= 0] reads left offset [s] of the
              block's left tuple, [s < 0] reads right column [lnot s] *)
    }
      (** A factored cross-product block: logical row [k * card_b + i]
          is [lefts.(k)] joined with right row [i] — only the two
          factors are stored, never the [np * card_b] rows. Attribute
          projections remap [srcs]; consumers that need rows expand
          lazily. *)

(** {1 Construction} *)

val rows_batch : Schema.t -> Tuple.t array -> t
(** A row batch of all the given tuples, with neither map. *)

val of_relation : batch_rows:int -> Relation.t -> t list
(** Split a relation into row batches of at most [batch_rows] rows,
    each a fresh slice of the relation's cached {!Relation.rows_array}
    (built once per relation and reclaimed with it, so a scan needs no
    cache). *)

(** {1 Access} *)

val schema : t -> Schema.t

val length : t -> int
(** Logical row count (selection vector applied). *)

val value_at : t -> int -> int -> Value.t
(** [value_at b j p] — column [j] at {e physical} row [p], read from the
    stored tuple. *)

val tuple_at : t -> int -> Tuple.t
(** Boxed tuple at {e logical} row [i]. *)

val iter_tuples : t -> (Tuple.t -> unit) -> unit

val rows_arr : t -> Tuple.t array
(** Logical rows; a row batch with neither map returns its own array,
    which the caller must not mutate. *)

val to_tuples : t -> Tuple.t list
val relation_of : Schema.t -> t list -> Relation.t

(** {1 Kernel helpers} *)

val select_cols : Schema.t -> t -> int array -> t
(** Attribute-only projection: keep the columns at the given offsets
    under a renamed schema. No row data moves: a row batch composes its
    offset map, a cross block remaps its sources. *)

val with_schema : Schema.t -> t -> t
(** The same rows under a type-compatible schema (set-operation output
    naming); no row data moves. *)

val transpose : Tuple.t array -> arity:int -> Value.t array array
(** Column-major view of boxed tuples: [(transpose rows ~arity).(j).(i)]
    is [rows.(i).(j)]. Values are shared, not copied. *)

val cross_block :
  Schema.t ->
  lefts:Tuple.t array ->
  right_cols:Value.t array array ->
  card_b:int ->
  t
(** The cross product [lefts × rights] as a factored {!CrossB}: logical
    row [k * card_b + i] is [lefts.(k)] concatenated with right row
    [i]. Only the two factors are stored — O(np + card_b) space, no
    per-pair tuple; boxed values are shared exactly as [Tuple.concat]
    would share them. *)
