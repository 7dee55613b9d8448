(** Bag relations: a schema plus a multiset of tuples.

    The multiset is a list in which a tuple's multiplicity is its number
    of occurrences, mirroring the bag algebra of Figure 1 in the paper.
    Both bag and duplicate-removing (set) variants of the operations are
    provided.

    The per-tuple multiplicity table is computed lazily and cached in
    the relation (relations are immutable once built), so repeated
    multiplicity queries — the access pattern of the bag set-operations
    and of [equal_bag] — pay the O(n) table build once.

    The lazy caches are domain-safe: the memo fields are [Atomic.t]
    (so publishing a fully built table establishes the happens-before
    edge a concurrent reader needs to see the table's internals), and
    initialization is serialized by a mutex so two domains racing on
    first use cannot both build — the vectorized engine's parallel
    probe workers read these caches concurrently. *)

type t = {
  rel_id : int;
      (* process-unique, for stable race-detector location names *)
  schema : Schema.t;
  rows_memo : Tuple.t list option Atomic.t;
      (* the tuple list; [None] until the producer has run *)
  producer : (unit -> Tuple.t list) option;
      (* late materialization: how to build the rows on first use.
         [None] iff [rows_memo] was seeded eagerly. *)
  known_card : int option;
      (* cardinality promised by a lazy producer, so [cardinality]
         never forces the rows *)
  counts_memo : int Tuple.Tbl.t option Atomic.t;
      (* lazily built multiplicity table; never mutated after exposure *)
  nullable_memo : bool array option Atomic.t;
      (* lazily built per-column "contains a NULL" flags *)
}

(* One lock for all relations: memo initialization is rare (once per
   relation per cache) and short, so contention is negligible and the
   per-relation footprint stays two words. *)
let memo_lock = Mutex.create ()

(* Relation ids only feed [Race] location names, so a contended
   fetch-and-add per construction is acceptable. *)
let next_id = Atomic.make 0

exception Relation_error of string

let relation_error fmt = Format.kasprintf (fun s -> raise (Relation_error s)) fmt

(** [make_unchecked schema tuples] builds a relation without the
    per-tuple arity check — for operators (e.g. the vectorized engine)
    whose output arity is known correct by construction. *)
let make_unchecked schema tuples =
  {
    rel_id = Atomic.fetch_and_add next_id 1;
    schema;
    rows_memo = Atomic.make (Some tuples);
    producer = None;
    known_card = None;
    counts_memo = Atomic.make None;
    nullable_memo = Atomic.make None;
  }

let make schema tuples =
  List.iter
    (fun tup ->
      if Tuple.arity tup <> Schema.arity schema then
        relation_error "tuple arity %d does not match schema arity %d"
          (Tuple.arity tup) (Schema.arity schema))
    tuples;
  make_unchecked schema tuples

(** [make_lazy ~cardinality schema produce] — a relation whose rows are
    built by [produce ()] on first access (late materialization: the
    vectorized engine keeps results in batch form and only transposes
    to boxed rows if a consumer actually reads them). [cardinality]
    must equal the length of the produced list; it is served without
    forcing the rows. [produce] must be pure — it may run once on any
    domain, and the result is cached. *)
let make_lazy ~cardinality schema produce =
  {
    rel_id = Atomic.fetch_and_add next_id 1;
    schema;
    rows_memo = Atomic.make None;
    producer = Some produce;
    known_card = Some cardinality;
    counts_memo = Atomic.make None;
    nullable_memo = Atomic.make None;
  }

let empty schema = make_unchecked schema []
let schema r = r.schema

(** [of_values schema rows] builds a relation from value-list rows. *)
let of_values schema rows = make schema (List.map Tuple.of_list rows)

(** {1 Multiplicity bookkeeping} *)

(* Double-checked lazy initialization: the common path is one atomic
   load; a miss takes the lock, re-checks, builds privately and only
   then publishes — so concurrent readers either see [None] or a
   completely built value, never a table under construction.

   Race instrumentation (armed runs only): the built table is a plain
   mutable structure published through the [Atomic] cell, so the writer
   releases the cell's edge before [Atomic.set] and readers acquire it
   on a hit — the detector then proves every reader ordered after the
   build, and a memo published without that fence shows up as a race. *)
let memo_loc r name = "relation[" ^ string_of_int r.rel_id ^ "]." ^ name

let memo_init r name (cell : 'a option Atomic.t) (build : unit -> 'a) : 'a =
  match Atomic.get cell with
  | Some v ->
      if Race.is_armed () then begin
        let loc = memo_loc r name in
        Race.acquire loc;
        Race.read loc
      end;
      v
  | None ->
      Race.with_lock memo_lock "relation.memo_lock" (fun () ->
          match Atomic.get cell with
          | Some v ->
              if Race.is_armed () then begin
                let loc = memo_loc r name in
                Race.acquire loc;
                Race.read loc
              end;
              v
          | None ->
              let v = build () in
              if Race.is_armed () then begin
                let loc = memo_loc r name in
                Race.write loc;
                Race.release loc
              end;
              Atomic.set cell (Some v);
              v)

let tuples r =
  memo_init r "rows_memo" r.rows_memo (fun () ->
      match r.producer with
      | Some produce -> produce ()
      | None -> assert false (* eager relations seed [rows_memo] *))

let cardinality r =
  match r.known_card with
  | Some n -> n
  | None -> List.length (tuples r)

let is_empty r = cardinality r = 0

(** [counts r] maps each distinct tuple to its multiplicity; computed
    on first use and cached. Callers must not mutate the result. *)
let counts r =
  (* Force the rows before taking the memo lock — [tuples] uses the
     same lock, and it is not recursive. *)
  let rows = tuples r in
  memo_init r "counts_memo" r.counts_memo (fun () ->
      let tbl = Tuple.Tbl.create (max 16 (cardinality r)) in
      List.iter
        (fun t ->
          match Tuple.Tbl.find_opt tbl t with
          | Some n -> Tuple.Tbl.replace tbl t (n + 1)
          | None -> Tuple.Tbl.add tbl t 1)
        rows;
      tbl)

let multiplicity r t =
  match Tuple.Tbl.find_opt (counts r) t with Some n -> n | None -> 0

(** [nullable_columns r] flags, per column, whether any tuple holds a
    NULL there; computed on first use and cached. Callers must not
    mutate the result. *)
let nullable_columns r =
  (* Force the rows before taking the memo lock (see [counts]). *)
  let rows = tuples r in
  memo_init r "nullable_memo" r.nullable_memo (fun () ->
      let flags = Array.make (Schema.arity r.schema) false in
      List.iter
        (fun t ->
          Array.iteri
            (fun i v -> if Value.is_null v then flags.(i) <- true)
            t)
        rows;
      flags)

let column_nullable r i = (nullable_columns r).(i)

let mem r t = List.exists (Tuple.equal t) (tuples r)

(** [distinct r] removes duplicates, keeping first occurrences in order. *)
let distinct r =
  let seen = Tuple.Tbl.create (max 16 (cardinality r)) in
  let keep =
    List.filter
      (fun t ->
        if Tuple.Tbl.mem seen t then false
        else begin
          Tuple.Tbl.add seen t ();
          true
        end)
      (tuples r)
  in
  make_unchecked r.schema keep


let check_compatible op a b =
  if not (Schema.equal_types a.schema b.schema) then
    relation_error "%s: incompatible schemas %s vs %s" op
      (Schema.to_string a.schema) (Schema.to_string b.schema)

(** {1 Bag set-operations (Figure 1, right column)} *)

let union_bag a b =
  check_compatible "union" a b;
  make_unchecked a.schema (tuples a @ tuples b)

let inter_bag a b =
  check_compatible "intersect" a b;
  let cb = counts b in
  let taken = Tuple.Tbl.create 16 in
  let keep =
    List.filter
      (fun t ->
        let avail = match Tuple.Tbl.find_opt cb t with Some n -> n | None -> 0 in
        let used = match Tuple.Tbl.find_opt taken t with Some n -> n | None -> 0 in
        if used < avail then begin
          Tuple.Tbl.replace taken t (used + 1);
          true
        end
        else false)
      (tuples a)
  in
  make_unchecked a.schema keep

let diff_bag a b =
  check_compatible "except" a b;
  let cb = counts b in
  let removed = Tuple.Tbl.create 16 in
  let keep =
    List.filter
      (fun t ->
        let avail = match Tuple.Tbl.find_opt cb t with Some n -> n | None -> 0 in
        let used = match Tuple.Tbl.find_opt removed t with Some n -> n | None -> 0 in
        if used < avail then begin
          Tuple.Tbl.replace removed t (used + 1);
          false
        end
        else true)
      (tuples a)
  in
  make_unchecked a.schema keep

(** {1 Set semantics variants (Figure 1, left column)} *)

let union_set a b = distinct (union_bag a b)
let inter_set a b = distinct (inter_bag a b)

let diff_set a b =
  check_compatible "except" a b;
  let cb = counts b in
  distinct
    (make_unchecked a.schema
       (List.filter (fun t -> not (Tuple.Tbl.mem cb t)) (tuples a)))

(** {1 Comparison} *)

(** Bag equality: same schema types, same tuples with same multiplicities. *)
let equal_bag a b =
  Schema.equal_types a.schema b.schema
  && cardinality a = cardinality b
  &&
  let ca = counts a and cb = counts b in
  let ok = ref true in
  Tuple.Tbl.iter
    (fun t n -> if Tuple.Tbl.find_opt cb t <> Some n then ok := false)
    ca;
  !ok

(** Set equality: same distinct tuples, multiplicities ignored. *)
let equal_set a b =
  Schema.equal_types a.schema b.schema
  &&
  let ca = counts a and cb = counts b in
  Tuple.Tbl.length ca = Tuple.Tbl.length cb
  &&
  let ok = ref true in
  Tuple.Tbl.iter (fun t _ -> if not (Tuple.Tbl.mem cb t) then ok := false) ca;
  !ok

(** Canonical sorted tuple list — handy for deterministic test output. *)
let sorted_tuples r = List.sort Tuple.compare (tuples r)

let pp ppf r =
  Format.fprintf ppf "@[<v>%a@,%a@]" Schema.pp r.schema
    (Format.pp_print_list Tuple.pp)
    (sorted_tuples r)
