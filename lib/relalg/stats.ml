(** Table and column statistics for cardinality estimation.

    One deterministic sampling pass per table (stride sampling, capped
    at {!sample_cap} rows) collects, per column: null fraction, an
    estimated number of distinct values (first-order jackknife scale-up
    from the sample), numeric min/max, and a {!buckets}-bucket
    equi-depth histogram over the sampled numeric values.

    Collected statistics are cached per catalog state: the cache is
    keyed on [(Database.uid, Database.version)], so any catalog
    mutation (table/view add or drop — server sessions' DDL overlays
    included) and any catalog rebuild (a fresh [Database.create], as on
    snapshot epoch swaps) invalidates previous statistics without the
    caller having to notice. *)

let buckets = 16
let sample_cap = 2048

type column = {
  c_name : string;
  c_null_frac : float;  (** fraction of sampled values that were NULL *)
  c_ndv : float;  (** estimated distinct values, scaled to the table *)
  c_min : float option;  (** numeric minimum over sampled non-nulls *)
  c_max : float option;
  c_hist : float array;
      (** equi-depth bucket boundaries over sampled numeric non-nulls,
          length [buckets + 1]; [||] for non-numeric or empty columns *)
}

type table = { t_rows : int; t_cols : column list }

type t = {
  s_uid : int;
  s_version : int;
  s_tables : (string, Relation.t Weak.t * table) Hashtbl.t;
      (** each table's statistics with the relation they describe, held
          weakly: a cached entry must not keep a dropped table or an old
          snapshot alive *)
}

let to_num = function
  | Value.Int i -> Some (float_of_int i)
  | Value.Float f -> Some f
  | Value.Bool b -> Some (if b then 1.0 else 0.0)
  | Value.Null | Value.String _ -> None

(* Equi-depth boundaries of a sorted value array: boundary [k] is the
   value at sample rank [k/buckets]. *)
let equi_depth sorted =
  let m = Array.length sorted in
  if m = 0 then [||]
  else
    Array.init (buckets + 1) (fun k ->
        sorted.(min (m - 1) (k * m / buckets)))

let column_of_sample ~rows ~name sample =
  let n_sample = List.length sample in
  if n_sample = 0 then
    {
      c_name = name;
      c_null_frac = 0.0;
      c_ndv = 1.0;
      c_min = None;
      c_max = None;
      c_hist = [||];
    }
  else begin
    let nulls = ref 0 in
    let counts : (Value.t, int) Hashtbl.t = Hashtbl.create 64 in
    let nums = ref [] in
    List.iter
      (fun v ->
        if Value.is_null v then incr nulls
        else begin
          Hashtbl.replace counts v
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts v));
          match to_num v with
          | Some f -> nums := f :: !nums
          | None -> ()
        end)
      sample;
    let non_null = n_sample - !nulls in
    let d = Hashtbl.length counts in
    let f1 = Hashtbl.fold (fun _ c acc -> if c = 1 then acc + 1 else acc) counts 0 in
    (* first-order jackknife: values seen once in the sample predict
       unseen values in the unsampled remainder *)
    let scale =
      if non_null = 0 then 1.0
      else float_of_int rows /. float_of_int n_sample
    in
    let ndv =
      Float.min
        (float_of_int rows)
        (Float.max 1.0 (float_of_int d +. (float_of_int f1 *. (scale -. 1.0))))
    in
    let sorted = Array.of_list !nums in
    Array.sort Float.compare sorted;
    let m = Array.length sorted in
    {
      c_name = name;
      c_null_frac = float_of_int !nulls /. float_of_int n_sample;
      c_ndv = ndv;
      c_min = (if m = 0 then None else Some sorted.(0));
      c_max = (if m = 0 then None else Some sorted.(m - 1));
      c_hist = equi_depth sorted;
    }
  end

(** [of_relation rel] is a one-pass statistics collection over [rel]
    (no cache — used for inline [TableExpr] relations too). *)
let of_relation rel =
  let rows = Relation.cardinality rel in
  let names = Schema.names (Relation.schema rel) in
  let tuples = Relation.tuples rel in
  let stride = max 1 ((rows + sample_cap - 1) / sample_cap) in
  let sample =
    if stride = 1 then tuples
    else
      List.filteri (fun i _ -> i mod stride = 0) tuples
  in
  let cols =
    List.mapi
      (fun i name ->
        column_of_sample ~rows ~name
          (List.map (fun t -> Tuple.get t i) sample))
      names
  in
  { t_rows = rows; t_cols = cols }

(* [collect_from prev db]: statistics of every table of [db], reusing
   [prev]'s for a table whose relation is physically the one [prev]
   described (a catalog write replaces the relations it changes). *)
let collect_from prev db =
  let tables = Hashtbl.create 16 in
  List.iter
    (fun name ->
      let rel = Database.find db name in
      let same w = match Weak.get w 0 with Some r -> r == rel | None -> false in
      let t =
        match Option.bind prev (fun p -> Hashtbl.find_opt p.s_tables name) with
        | Some (w, t) when same w -> t
        | _ -> of_relation rel
      in
      let w = Weak.create 1 in
      Weak.set w 0 (Some rel);
      Hashtbl.replace tables name (w, t))
    (Database.names db);
  { s_uid = Database.uid db; s_version = Database.version db; s_tables = tables }

let collect db = collect_from None db

(* Cache: one entry per database uid, revalidated against the catalog
   version on every lookup. Guarded by a mutex — server sessions
   collect from multiple domains. *)
let cache : (int, t) Hashtbl.t = Hashtbl.create 8
let cache_mu = Mutex.create ()

let of_db db =
  Mutex.lock cache_mu;
  let cached = Hashtbl.find_opt cache (Database.uid db) in
  Mutex.unlock cache_mu;
  match cached with
  | Some s when s.s_version = Database.version db -> s
  | _ ->
      let s = collect_from cached db in
      Mutex.lock cache_mu;
      if Hashtbl.length cache > 64 then Hashtbl.reset cache;
      Hashtbl.replace cache (Database.uid db) s;
      Mutex.unlock cache_mu;
      s

let invalidate db =
  Mutex.lock cache_mu;
  Hashtbl.remove cache (Database.uid db);
  Mutex.unlock cache_mu

let table s name = Option.map snd (Hashtbl.find_opt s.s_tables name)

let column t name =
  List.find_opt (fun c -> String.equal c.c_name name) t.t_cols

(** [frac_le c x]: fraction of the column's {e non-null} values that
    are [<= x], interpolated linearly within the histogram bucket
    containing [x]; 0.5 when no histogram is available. *)
let frac_le c x =
  let h = c.c_hist in
  let b = Array.length h - 1 in
  if b < 1 then 0.5
  else if x < h.(0) then 0.0
  else if x >= h.(b) then 1.0
  else begin
    (* find the bucket k with h.(k) <= x < h.(k+1) *)
    let k = ref 0 in
    while !k < b - 1 && h.(!k + 1) <= x do incr k done;
    let lo = h.(!k) and hi = h.(!k + 1) in
    let within = if hi <= lo then 1.0 else (x -. lo) /. (hi -. lo) in
    (float_of_int !k +. within) /. float_of_int b
  end

(** [frac_eq c x]: selectivity of [col = x] among non-null values —
    [1/ndv] inside the observed range, 0 outside it. *)
let frac_eq c x =
  match (c.c_min, c.c_max) with
  | Some lo, Some hi when x < lo || x > hi -> 0.0
  | _ -> 1.0 /. Float.max 1.0 c.c_ndv

let to_string s =
  let buf = Buffer.create 256 in
  let names =
    List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) s.s_tables [])
  in
  List.iter
    (fun name ->
      let _, t = Hashtbl.find s.s_tables name in
      Buffer.add_string buf (Printf.sprintf "%s: %d rows\n" name t.t_rows);
      List.iter
        (fun c ->
          Buffer.add_string buf
            (Printf.sprintf "  %-24s ndv %-8.0f null %-5.2f %s\n" c.c_name
               c.c_ndv c.c_null_frac
               (match (c.c_min, c.c_max) with
               | Some lo, Some hi -> Printf.sprintf "[%g, %g]" lo hi
               | _ -> "-")))
        t.t_cols)
    names;
  Buffer.contents buf
