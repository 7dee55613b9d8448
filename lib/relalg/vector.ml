(** Batches for the vectorized engine ({!Vexec}).

    A batch holds up to a few hundred rows as boxed tuples. A row batch
    carries two optional maps that let operators avoid copying rows:
    a *column-offset map* (an attribute projection keeps the tuples and
    records which of their columns it kept) and a *selection vector* (a
    sorted array of the physical row indices that survived upstream
    filters). Base-table batches are windows on the stored relation's
    row array, so a scan copies nothing and shares every value with the
    catalog; nothing writes a batch's rows.

    Nested-loop joins whose predicate accepts a whole [left × rights]
    block emit a factored {!CrossB} instead: only the two factors are
    stored. *)

type t =
  | Rows of {
      schema : Schema.t;
      rows : Tuple.t array;
          (** the physical rows, of which the batch holds the window
              [lo .. lo + len - 1]; shared, never written *)
      lo : int;
      len : int;
      offs : int array option;
          (** column [j] of the batch is column [offs.(j)] of a physical
              row; [None] = all of its columns, in order *)
      sel : int array option;
          (** surviving physical row indices (into [rows], within the
              window), ascending; [None] = the whole window *)
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

let window schema rows ~lo ~len : t = Rows { schema; rows; lo; len; offs = None; sel = None }
let rows_batch schema rows : t = window schema rows ~lo:0 ~len:(Array.length rows)

(* The windows of [rows] from [lo] down to the first, onto [acc]. *)
let rec windows schema rows bs lo acc =
  if lo < 0 then acc
  else
    windows schema rows bs (lo - bs)
      (window schema rows ~lo ~len:(min bs (Array.length rows - lo)) :: acc)

let of_relation ~batch_rows rel : t list =
  let rows = Relation.rows_array rel in
  let n = Array.length rows in
  let bs = max 1 batch_rows in
  if n = 0 then [] else windows (Relation.schema rel) rows bs ((n - 1) / bs * bs) []

(** {1 Access} *)

let schema = function Rows r -> r.schema | CrossB c -> c.schema

(** Logical row count (selection applied). *)
let length = function
  | Rows { sel = Some s; _ } -> Array.length s
  | Rows r -> r.len
  | CrossB c -> Array.length c.lefts * c.card_b

(* Physical index of logical row [i]. *)
let phys lo sel i = match sel with None -> lo + i | Some s -> Array.unsafe_get s i

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
  | Rows r -> row_at r.rows r.offs (phys r.lo r.sel i)
  | CrossB c ->
      cross_row c.lefts c.right_cols c.srcs ~k:(i / c.card_b)
        ~i:(i mod c.card_b)

(** [tuple_phys b p] — boxed tuple of {e physical} row [p]. *)
let tuple_phys (b : t) p : Tuple.t =
  match b with Rows r -> row_at r.rows r.offs p | CrossB _ -> tuple_at b p

let iter_tuples b f =
  match b with
  | Rows { rows; lo; len; offs = None; sel = None; _ } ->
      for p = lo to lo + len - 1 do
        f (Array.unsafe_get rows p)
      done
  | Rows _ | CrossB _ ->
      let len = length b in
      for i = 0 to len - 1 do
        f (tuple_at b i)
      done

(** [rows_arr b] — logical rows as a boxed array (a batch with neither
    map that spans its whole array shares it). *)
let rows_arr (b : t) : Tuple.t array =
  match b with
  | Rows { rows; lo = 0; len; offs = None; sel = None; _ } when len = Array.length rows -> rows
  | Rows { rows; lo; len; offs = None; sel = None; _ } -> Array.sub rows lo len
  | Rows _ | CrossB _ -> Array.init (length b) (fun i -> tuple_at b i)

let to_tuples b = Array.to_list (rows_arr b)

(** [tuples_of bats] — the logical rows of [bats], in order, as one
    array (a single batch shares its array as {!rows_arr} does). *)
let tuples_of (bats : t list) : Tuple.t array =
  match bats with
  | [ b ] -> rows_arr b
  | _ ->
      let out = Array.make (List.fold_left (fun n b -> n + length b) 0 bats) [||] in
      let _ =
        List.fold_left
          (fun at b ->
            for i = 0 to length b - 1 do
              Array.unsafe_set out (at + i) (tuple_at b i)
            done;
            at + length b)
          0 bats
      in
      out

(** {1 Conversion to relations} *)

(* Cons the rows of [b] (last first) onto [tail] — the boxed-tuple list
   is built in one pass with no intermediate array, and a batch with
   neither map shares its tuples. *)
let batch_prepend (b : t) (tail : Tuple.t list) : Tuple.t list =
  match b with
  | Rows r ->
      let acc = ref tail in
      for i = length b - 1 downto 0 do
        acc := row_at r.rows r.offs (phys r.lo r.sel i) :: !acc
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
let rec identity offs i = i = Array.length offs || (Array.unsafe_get offs i = i && identity offs (i + 1))

(* [offs] composed after [o]: the column [o.(offs.(j))] for each [j]. *)
let compose (o : int array) (offs : int array) =
  let c = Array.make (Array.length offs) 0 in
  for j = 0 to Array.length offs - 1 do
    Array.unsafe_set c j o.(Array.unsafe_get offs j)
  done;
  c

let select_cols out_schema (b : t) (offs : int array) : t =
  match b with
  | Rows r ->
      let offs =
        match r.offs with
        | Some o -> Some (compose o offs)
        | None ->
            if Array.length offs = Schema.arity r.schema && identity offs 0 then None
            else Some offs
      in
      Rows { r with schema = out_schema; offs }
  | CrossB c -> CrossB { c with schema = out_schema; srcs = compose c.srcs offs }

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
