(** Columnar batches for the vectorized engine ({!Vexec}): unboxed
    int/float columns in [Bigarray]s, string/bool columns in flat
    arrays, NULL validity bitmaps (one bit per row in a [Bytes.t], set
    = present), and an optional selection vector of surviving physical
    row indices. Operators without a columnar kernel exchange [Rows]
    batches (boxed tuples) under the same interface.

    Column layout is chosen per batch from the {e values} (a column
    whose non-null values are all [Int] becomes a [DInt] Bigarray,
    mixed columns fall back to boxed [DVal]), so a round trip through
    a batch reproduces the exact original values — the parity contract
    the engines are tested against. *)

type intarr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type floatarr =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type data =
  | DInt of intarr
  | DFloat of floatarr
  | DString of string array
  | DBool of Bytes.t  (** one byte per row, 0 = false *)
  | DVal of Value.t array  (** boxed fallback; NULLs inline *)

type column = {
  data : data;
  valid : Bytes.t option;
      (** validity bitmap, bit per row, set = non-NULL; [None] = no
          NULLs in the column *)
}

(** The boxed tuples a columnar batch was built from. Physical row [i]
    of the batch is [rows.(i)], projected through [offs] when the batch
    keeps only some of their columns ([None] = all, in order). Row
    access returns these tuples (or projections sharing their values)
    instead of re-boxing every column value. *)
type source = { rows : Tuple.t array; offs : int array option }

type t =
  | Cols of {
      n : int;  (** physical row count *)
      schema : Schema.t;
      cols : column array;
      sel : int array option;
          (** surviving physical row indices, ascending; [None] = all *)
      src : source;  (** the batch's rows as boxed tuples *)
    }
  | Rows of { schema : Schema.t; rows : Tuple.t array }
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

(** {1 Validity bitmaps} *)

val bits_make : int -> Bytes.t
(** All-clear bitmap for [n] rows. *)

val bit_set : Bytes.t -> int -> unit
val bit_get : Bytes.t -> int -> bool

val valid_at : column -> int -> bool
(** Is {e physical} row [i] non-NULL? *)

(** {1 Construction} *)

val of_rows : Schema.t -> Tuple.t array -> lo:int -> len:int -> t
(** Columnar batch from a row range; layout chosen per column from the
    values. *)

val rows_batch : Schema.t -> Tuple.t array -> t

val of_relation : ?batch_rows:int -> Relation.t -> t array
(** Split a relation into columnar batches of at most [batch_rows]
    rows (default 256). *)

(** {1 Access} *)

val schema : t -> Schema.t

val length : t -> int
(** Logical row count (selection vector applied). *)

val col_value : column -> int -> Value.t
(** Value at {e physical} row [i]. *)

val value_at : t -> int -> int -> Value.t
(** [value_at b j p] — column [j] at {e physical} row [p]; on [Cols]
    read from the source tuple. *)

val tuple_at : t -> int -> Tuple.t
(** Boxed tuple at {e logical} row [i]. *)

val iter_tuples : t -> (Tuple.t -> unit) -> unit
val rows_arr : t -> Tuple.t array
val to_tuples : t -> Tuple.t list
val relation_of : Schema.t -> t list -> Relation.t

(** {1 Kernel helpers} *)

val select_cols : Schema.t -> t -> int array -> t
(** Attribute-only projection: keep the columns at the given offsets
    under a renamed schema. Shares column storage on [Cols]. *)

val with_schema : Schema.t -> t -> t
(** The same rows under a type-compatible schema (set-operation output
    naming); no row data moves. *)

val with_sel : t -> int array option -> t
(** Replace a [Cols] batch's selection vector (physical indices). *)

val transpose : Tuple.t array -> arity:int -> Value.t array array
(** Column-major view of boxed tuples: [(transpose rows ~arity).(j).(i)]
    is [rows.(i).(j)]. Values are shared, not copied. *)

val cross_block :
  Schema.t ->
  lefts:Tuple.t array ->
  right_cols:Value.t array array ->
  card_b:int ->
  t
(** The cross product [lefts × rights] as one boxed-column batch:
    output row [k * card_b + i] is [lefts.(k)] concatenated with right
    row [i]. Left values are repeated with [Array.fill], right columns
    tiled with [Array.blit] — no per-pair tuple is allocated; boxed
    values are shared exactly as [Tuple.concat] would share them. *)
