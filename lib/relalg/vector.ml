(** Columnar batches for the vectorized engine ({!Vexec}).

    A batch holds up to a few thousand rows in column-major form:
    unboxed [int]/[float] columns in [Bigarray]s, string and boolean
    columns in flat arrays, and a NULL *validity bitmap* per column
    (one bit per row in a [Bytes.t]; a set bit means the row's value is
    present, a clear bit means NULL). A batch optionally carries a
    *selection vector* — a sorted array of physical row indices that
    survived upstream filters — so selections never copy column data.

    Column representation is chosen per batch from the {e values}, not
    the declared schema: a column whose non-null values are all [Int]
    becomes a [DInt] Bigarray, and so on; anything mixed falls back to
    a boxed [Value.t array] ([DVal], NULLs inline). Choosing by value
    makes the round trip [of_rows] → [to_tuples] reproduce the exact
    original values (the engines' parity contract compares rows
    structurally), while still unboxing the all-integer columns the
    synthetic and TPC-H workloads are made of.

    Operators that have no columnar kernel exchange [Rows] batches —
    plain boxed tuples under the same interface — so the engine can mix
    columnar scans with row-wise fallbacks without transposing at every
    boundary. *)

type intarr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type floatarr =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type data =
  | DInt of intarr
  | DFloat of floatarr
  | DString of string array
  | DBool of Bytes.t  (** one byte per row, 0 = false, 1 = true *)
  | DVal of Value.t array  (** boxed fallback; NULLs inline *)

type column = {
  data : data;
  valid : Bytes.t option;
      (** validity bitmap, bit per row, set = non-NULL; [None] = no
          NULLs in the column. Always [None] for [DVal]. *)
}

(** The boxed tuples a columnar batch was built from. Physical row [i]
    of the batch is [rows.(i)], projected through [offs] when the batch
    keeps only some of their columns ([None] = all, in order). *)
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
          is [lefts.(k)] joined with right row [i], but the [np *
          card_b] rows are never stored — only the two factors are.
          Nested-loop joins whose hoisted predicate accepts a whole
          [left × rights] block emit these in O(np + card_b) space and
          time; attribute projections just remap [srcs]. Consumers that
          need rows expand lazily. *)

(** {1 Validity bitmaps} *)

let bits_make n = Bytes.make ((n + 7) lsr 3) '\000'

let bit_set b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) lor (1 lsl (i land 7))))

let bit_get b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

(** [valid_at c i] — is physical row [i] of column [c] non-NULL? *)
let valid_at c i = match c.valid with None -> true | Some b -> bit_get b i

(** {1 Construction} *)

(* Decide a column's representation from its values: the narrowest
   typed layout that loses nothing, else boxed. *)
let build_column (rows : Tuple.t array) ~lo ~len j : column =
  let all_int = ref true
  and all_float = ref true
  and all_string = ref true
  and all_bool = ref true
  and nulls = ref 0 in
  for i = 0 to len - 1 do
    match Tuple.get (Array.unsafe_get rows (lo + i)) j with
    | Value.Null -> incr nulls
    | Value.Int _ ->
        all_float := false;
        all_string := false;
        all_bool := false
    | Value.Float _ ->
        all_int := false;
        all_string := false;
        all_bool := false
    | Value.String _ ->
        all_int := false;
        all_float := false;
        all_bool := false
    | Value.Bool _ ->
        all_int := false;
        all_float := false;
        all_string := false
  done;
  let mk_valid () =
    if !nulls = 0 then None
    else begin
      let b = bits_make len in
      for i = 0 to len - 1 do
        if not (Value.is_null (Tuple.get rows.(lo + i) j)) then bit_set b i
      done;
      Some b
    end
  in
  if !all_int then begin
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
    for i = 0 to len - 1 do
      Bigarray.Array1.unsafe_set a i
        (match Tuple.get (Array.unsafe_get rows (lo + i)) j with
        | Value.Int v -> v
        | _ -> 0)
    done;
    { data = DInt a; valid = mk_valid () }
  end
  else if !all_float then begin
    let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
    for i = 0 to len - 1 do
      Bigarray.Array1.unsafe_set a i
        (match Tuple.get (Array.unsafe_get rows (lo + i)) j with
        | Value.Float v -> v
        | _ -> 0.)
    done;
    { data = DFloat a; valid = mk_valid () }
  end
  else if !all_string then begin
    let a = Array.make len "" in
    for i = 0 to len - 1 do
      match Tuple.get rows.(lo + i) j with
      | Value.String s -> a.(i) <- s
      | _ -> ()
    done;
    { data = DString a; valid = mk_valid () }
  end
  else if !all_bool then begin
    let a = Bytes.make len '\000' in
    for i = 0 to len - 1 do
      match Tuple.get rows.(lo + i) j with
      | Value.Bool b -> if b then Bytes.unsafe_set a i '\001'
      | _ -> ()
    done;
    { data = DBool a; valid = mk_valid () }
  end
  else begin
    let a = Array.make len Value.Null in
    for i = 0 to len - 1 do
      a.(i) <- Tuple.get rows.(lo + i) j
    done;
    { data = DVal a; valid = None }
  end

let of_rows schema (rows : Tuple.t array) ~lo ~len : t =
  let arity = Schema.arity schema in
  Cols
    {
      n = len;
      schema;
      cols = Array.init arity (fun j -> build_column rows ~lo ~len j);
      sel = None;
      src = { rows = Array.sub rows lo len; offs = None };
    }

let rows_batch schema rows : t = Rows { schema; rows }

(** {1 Access} *)

let schema = function
  | Cols c -> c.schema
  | Rows r -> r.schema
  | CrossB c -> c.schema

(** Logical row count (selection applied). *)
let length = function
  | Cols { sel = Some s; _ } -> Array.length s
  | Cols c -> c.n
  | Rows r -> Array.length r.rows
  | CrossB c -> Array.length c.lefts * c.card_b

(** [col_value c i] — value at {e physical} row [i] of a column. *)
let col_value (c : column) i : Value.t =
  if not (valid_at c i) then Value.Null
  else
    match c.data with
    | DInt a -> Value.Int (Bigarray.Array1.unsafe_get a i)
    | DFloat a -> Value.Float (Bigarray.Array1.unsafe_get a i)
    | DString a -> Value.String (Array.unsafe_get a i)
    | DBool a -> Value.Bool (Bytes.unsafe_get a i <> '\000')
    | DVal a -> Array.unsafe_get a i

(* Physical index of logical row [i]. *)
let phys sel i = match sel with None -> i | Some s -> Array.unsafe_get s i

(* Boxed tuple of physical row [p]: the source tuple itself, or its
   projection, which shares the boxed values. *)
let cols_row src p : Tuple.t =
  match src with
  | { rows; offs = None } -> Array.unsafe_get rows p
  | { rows; offs = Some o } -> Tuple.project_arr (Array.unsafe_get rows p) o

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
    source tuple on [Cols] (no boxing). *)
let value_at (b : t) j p : Value.t =
  match b with
  | Cols { src = { rows; offs = None }; _ } ->
      Array.unsafe_get (Array.unsafe_get rows p) j
  | Cols { src = { rows; offs = Some o }; _ } ->
      Array.unsafe_get (Array.unsafe_get rows p) (Array.unsafe_get o j)
  | Rows { rows; _ } -> Tuple.get rows.(p) j
  | CrossB { lefts; right_cols; card_b; srcs; _ } ->
      let s = srcs.(j) in
      if s >= 0 then Tuple.get lefts.(p / card_b) s
      else right_cols.(lnot s).(p mod card_b)

(** [tuple_at b i] — boxed tuple for {e logical} row [i]. *)
let tuple_at (b : t) i : Tuple.t =
  match b with
  | Rows r -> r.rows.(i)
  | Cols c -> cols_row c.src (phys c.sel i)
  | CrossB c ->
      cross_row c.lefts c.right_cols c.srcs ~k:(i / c.card_b)
        ~i:(i mod c.card_b)

let iter_tuples b f =
  match b with
  | Rows r -> Array.iter f r.rows
  | Cols _ | CrossB _ ->
      let len = length b in
      for i = 0 to len - 1 do
        f (tuple_at b i)
      done

(** [rows_arr b] — logical rows as a boxed array ([Rows] shares). *)
let rows_arr (b : t) : Tuple.t array =
  match b with
  | Rows r -> r.rows
  | Cols _ | CrossB _ -> Array.init (length b) (fun i -> tuple_at b i)

let to_tuples b = Array.to_list (rows_arr b)

(** {1 Conversion to relations} *)

(* Cons the rows of [b] (last first) onto [tail] — the boxed-tuple list
   is built in one pass with no intermediate array, and [Rows] batches
   share their tuples. *)
let batch_prepend (b : t) (tail : Tuple.t list) : Tuple.t list =
  match b with
  | Rows r ->
      let rows = r.rows in
      let acc = ref tail in
      for i = Array.length rows - 1 downto 0 do
        acc := Array.unsafe_get rows i :: !acc
      done;
      !acc
  | Cols c ->
      let acc = ref tail in
      for i = length b - 1 downto 0 do
        acc := cols_row c.src (phys c.sel i) :: !acc
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
   so stats-only pipelines never pay the transpose. *)
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

let of_relation ?(batch_rows = 256) rel : t array =
  let schema = Relation.schema rel in
  let rows = Array.of_list (Relation.tuples rel) in
  let n = Array.length rows in
  let bs = max 1 batch_rows in
  let nb = if n = 0 then 0 else (n + bs - 1) / bs in
  Array.init nb (fun i ->
      let lo = i * bs in
      of_rows schema rows ~lo ~len:(min bs (n - lo)))

(** {1 Kernel helpers} *)

(** [select_cols out_schema b offs] — attribute-only projection: keeps
    the columns at [offs] (in order) under the renamed [out_schema].
    On [Cols] this shares column storage and the selection vector —
    no row data moves. *)
let select_cols out_schema (b : t) (offs : int array) : t =
  match b with
  | Cols c ->
      let src =
        match c.src.offs with
        | Some o -> { c.src with offs = Some (Array.map (fun j -> o.(j)) offs) }
        | None ->
            let identity = ref (Array.length offs = Array.length c.cols) in
            Array.iteri (fun i j -> if i <> j then identity := false) offs;
            { c.src with offs = (if !identity then None else Some offs) }
      in
      Cols
        {
          n = c.n;
          schema = out_schema;
          cols = Array.map (fun j -> c.cols.(j)) offs;
          sel = c.sel;
          src;
        }
  | Rows r ->
      Rows
        { schema = out_schema; rows = Array.map (fun t -> Tuple.project_arr t offs) r.rows }
  | CrossB c ->
      (* Factored projection: remap the per-column sources — the block
         stays factored, no row is expanded. *)
      CrossB
        { c with schema = out_schema; srcs = Array.map (fun j -> c.srcs.(j)) offs }

(** [with_schema s b] — the same rows under the (type-compatible)
    schema [s]; no row data moves. *)
let with_schema schema (b : t) : t =
  match b with
  | Cols c -> Cols { c with schema }
  | Rows r -> Rows { r with schema }
  | CrossB c -> CrossB { c with schema }

(** [with_sel b sel] — replace the selection vector (physical indices)
    of a [Cols] batch. *)
let with_sel (b : t) sel : t =
  match b with
  | Cols c -> Cols { c with sel }
  | Rows _ | CrossB _ -> invalid_arg "Vector.with_sel: not a Cols batch"

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
