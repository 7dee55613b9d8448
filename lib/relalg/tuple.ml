(** Tuples are immutable-by-convention arrays of values.

    Tuple identity (used for grouping, duplicate elimination and bag
    counting) treats [Null] as equal to [Null] and numerically equal
    ints/floats as equal — SQL's DISTINCT/GROUP BY notion. *)

type t = Value.t array

let of_list = Array.of_list
let to_list = Array.to_list
let arity = Array.length
let get (t : t) i = t.(i)

let concat (a : t) (b : t) : t = Array.append a b

(** [project_arr t positions] keeps the values at [positions], in
    order. The positions array is typically precomputed once per
    operator, so the per-row cost is a single bounds-checked gather
    loop with no intermediate list. *)
let project_arr (t : t) (positions : int array) : t =
  let n = Array.length positions in
  let out = Array.make n Value.Null in
  for j = 0 to n - 1 do
    Array.unsafe_set out j (Array.unsafe_get t (Array.unsafe_get positions j))
  done;
  out

(** [project t positions] keeps the values at [positions], in order.
    Hot paths precompute an [int array] and call {!project_arr}. *)
let project (t : t) positions : t = project_arr t (Array.of_list positions)

(** All-NULL tuple of arity [n] — the [null(R)] padding tuple from the
    Gen strategy (Section 3.3). *)
let nulls n : t = Array.make n Value.Null

let equal (a : t) (b : t) =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       Array.iteri (fun i va -> if not (Value.equal_null va b.(i)) then ok := false) a;
       !ok
     end

let compare (a : t) (b : t) =
  let c = compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else
    let rec go i =
      if i >= Array.length a then 0
      else
        let c = Value.compare_total a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let hash (t : t) =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 t

let pp ppf (t : t) =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (to_list t)

let to_string t = Format.asprintf "%a" pp t

(** [render t] is every value through {!Value.to_string}, in order: a
    result row as the CLI table shows it and a client decodes it.
    Built from the array directly, one cons per value. *)
let render (t : t) =
  let row = ref [] in
  for i = Array.length t - 1 downto 0 do
    row := Value.to_string (Array.unsafe_get t i) :: !row
  done;
  !row

(** Hashtbl key module over tuple identity. *)
module Key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Tbl = Hashtbl.Make (Key)
