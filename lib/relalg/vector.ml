(** Batches for the vectorized engine ({!Vexec}).

    A batch holds up to a few hundred rows as boxed tuples. A row batch
    carries two optional maps that let operators avoid copying rows:
    a *column-offset map* (an attribute projection keeps the tuples and
    records which of their columns it kept) and a *selection vector* (a
    sorted array of the physical row indices that survived upstream
    filters). Base-table batches are slices of the stored relation's
    tuples, so a scan shares every value with the catalog.

    Nested-loop joins whose predicate accepts a whole [left × rights]
    block emit a factored {!CrossB} instead: only the two factors are
    stored. *)

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
          is [lefts.(k)] joined with right row [i], but the [np *
          card_b] rows are never stored — only the two factors are.
          Nested-loop joins whose hoisted predicate accepts a whole
          [left × rights] block emit these in O(np + card_b) space and
          time; attribute projections just remap [srcs]. Consumers that
          need rows expand lazily. *)

(** {1 Construction} *)

let rows_batch schema rows : t = Rows { schema; rows; offs = None; sel = None }

let of_relation ~batch_rows rel : t list =
  let schema = Relation.schema rel in
  let rows = Relation.rows_array rel in
  let n = Array.length rows in
  let bs = max 1 batch_rows in
  let nb = if n = 0 then 0 else (n + bs - 1) / bs in
  List.init nb (fun i ->
      let lo = i * bs in
      rows_batch schema (Array.sub rows lo (min bs (n - lo))))

(** {1 Access} *)

let schema = function Rows r -> r.schema | CrossB c -> c.schema

(** Logical row count (selection applied). *)
let length = function
  | Rows { sel = Some s; _ } -> Array.length s
  | Rows r -> Array.length r.rows
  | CrossB c -> Array.length c.lefts * c.card_b

(* Physical index of logical row [i]. *)
let phys sel i = match sel with None -> i | Some s -> Array.unsafe_get s i

(* Boxed tuple of physical row [p]: the stored tuple itself, or its
   projection, which shares the boxed values. *)
let row_at rows offs p : Tuple.t =
  match offs with
  | None -> Array.unsafe_get rows p
  | Some o -> Tuple.project_arr (Array.unsafe_get rows p) o

(* Expand one row of a factored cross block. *)
let cross_row lefts right_cols srcs ~k ~i : Tuple.t =
  let ta = Array.unsafe_get lefts k in
  let arity = Array.length srcs in
  let t = Array.make arity Value.Null in
  for j = 0 to arity - 1 do
    let s = Array.unsafe_get srcs j in
    Array.unsafe_set t j
      (if s >= 0 then Array.unsafe_get ta s
       else Array.unsafe_get (Array.unsafe_get right_cols (lnot s)) i)
  done;
  t

(** [value_at b j p] — column [j] at {e physical} row [p], read from the
    stored tuple (no boxing). *)
let value_at (b : t) j p : Value.t =
  match b with
  | Rows { rows; offs = None; _ } -> Array.unsafe_get (Array.unsafe_get rows p) j
  | Rows { rows; offs = Some o; _ } ->
      Array.unsafe_get (Array.unsafe_get rows p) (Array.unsafe_get o j)
  | CrossB { lefts; right_cols; card_b; srcs; _ } ->
      let s = srcs.(j) in
      if s >= 0 then Tuple.get lefts.(p / card_b) s
      else right_cols.(lnot s).(p mod card_b)

(** [tuple_at b i] — boxed tuple for {e logical} row [i]. *)
let tuple_at (b : t) i : Tuple.t =
  match b with
  | Rows r -> row_at r.rows r.offs (phys r.sel i)
  | CrossB c ->
      cross_row c.lefts c.right_cols c.srcs ~k:(i / c.card_b)
        ~i:(i mod c.card_b)

let iter_tuples b f =
  match b with
  | Rows { rows; offs = None; sel = None; _ } -> Array.iter f rows
  | Rows _ | CrossB _ ->
      let len = length b in
      for i = 0 to len - 1 do
        f (tuple_at b i)
      done

(** [rows_arr b] — logical rows as a boxed array (a batch with neither
    map shares its array). *)
let rows_arr (b : t) : Tuple.t array =
  match b with
  | Rows { rows; offs = None; sel = None; _ } -> rows
  | Rows _ | CrossB _ -> Array.init (length b) (fun i -> tuple_at b i)

let to_tuples b = Array.to_list (rows_arr b)

(** {1 Conversion to relations} *)

(* Cons the rows of [b] (last first) onto [tail] — the boxed-tuple list
   is built in one pass with no intermediate array, and a batch with
   neither map shares its tuples. *)
let batch_prepend (b : t) (tail : Tuple.t list) : Tuple.t list =
  match b with
  | Rows r ->
      let acc = ref tail in
      for i = length b - 1 downto 0 do
        acc := row_at r.rows r.offs (phys r.sel i) :: !acc
      done;
      !acc
  | CrossB c ->
      let acc = ref tail in
      for k = Array.length c.lefts - 1 downto 0 do
        for i = c.card_b - 1 downto 0 do
          acc := cross_row c.lefts c.right_cols c.srcs ~k ~i :: !acc
        done
      done;
      !acc

(* Late materialization: the relation's boxed rows are only built if a
   consumer reads them — [cardinality] is known from the batch lengths,
   so stats-only pipelines never pay the expansion. *)
let relation_of schema (batches : t list) : Relation.t =
  let card = List.fold_left (fun n b -> n + length b) 0 batches in
  (* The batches are dropped once the rows exist, so a materialized
     result (a stored CREATE TABLE AS, say) does not keep both forms
     alive. The producer runs once, under the relation's memo lock. *)
  let pending = ref batches in
  Relation.make_lazy ~cardinality:card schema (fun () ->
      let rows =
        List.fold_left (fun tail b -> batch_prepend b tail) [] (List.rev !pending)
      in
      pending := [];
      rows)

(** {1 Kernel helpers} *)

(** [select_cols out_schema b offs] — attribute-only projection: keeps
    the columns at [offs] (in order) under the renamed [out_schema]. A
    row batch keeps its tuples and selection vector and composes its
    offset map; a cross block remaps its sources. No row data moves. *)
let select_cols out_schema (b : t) (offs : int array) : t =
  match b with
  | Rows r ->
      let offs =
        match r.offs with
        | Some o -> Some (Array.map (fun j -> o.(j)) offs)
        | None ->
            let arity = Schema.arity r.schema in
            let identity = ref (Array.length offs = arity) in
            Array.iteri (fun i j -> if i <> j then identity := false) offs;
            if !identity then None else Some offs
      in
      Rows { r with schema = out_schema; offs }
  | CrossB c ->
      CrossB
        { c with schema = out_schema; srcs = Array.map (fun j -> c.srcs.(j)) offs }

(** [with_schema s b] — the same rows under the (type-compatible)
    schema [s]; no row data moves. *)
let with_schema schema (b : t) : t =
  match b with
  | Rows r -> Rows { r with schema }
  | CrossB c -> CrossB { c with schema }

(** [transpose rows ~arity] — column-major view of boxed tuples:
    [(transpose rows ~arity).(j).(i)] is [rows.(i).(j)]. Values are
    shared, not copied. *)
let transpose (rows : Tuple.t array) ~arity : Value.t array array =
  let n = Array.length rows in
  Array.init arity (fun j ->
      Array.init n (fun i -> Tuple.get (Array.unsafe_get rows i) j))

(** [cross_block schema ~lefts ~right_cols ~card_b] — the cross product
    [lefts × rights] as a factored block: output row [k * card_b + i]
    is [lefts.(k)] concatenated with right row [i], stored as the two
    factors only — O(np + card_b) space, no per-pair work. Values are
    shared exactly as [Tuple.concat] would share them; consumers that
    need rows expand lazily. *)
let cross_block schema ~(lefts : Tuple.t array)
    ~(right_cols : Value.t array array) ~card_b : t =
  let arity = Schema.arity schema in
  let arity_l = arity - Array.length right_cols in
  CrossB
    {
      schema;
      lefts;
      right_cols;
      card_b;
      srcs = Array.init arity (fun j -> if j < arity_l then j else lnot (j - arity_l));
    }
