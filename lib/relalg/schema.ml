(** Relation schemas: ordered lists of named, typed attributes.

    Attribute names are plain strings; the SQL analyzer qualifies them
    ("alias.column") so that every schema an operator sees has unique
    names, which is what makes name-based correlation resolution sound. *)

type attr = { name : string; ty : Vtype.t }

type t = {
  attrs : attr array;
  index : (string, int) Hashtbl.t option Atomic.t;
      (* name -> position; built by the first lookup on a schema wider
         than [scan_arity], and published once *)
}

exception Schema_error of string

let schema_error fmt = Format.kasprintf (fun s -> raise (Schema_error s)) fmt

let attr name ty = { name; ty }

(* Up to this arity a lookup scans the attributes, about as fast as
   hashing the name, and the schema never builds a table. *)
let scan_arity = 16

(* The first attribute, in order, whose name an earlier one has. *)
let first_duplicate arr =
  let n = Array.length arr in
  let rec seen i j = j < i && (String.equal arr.(i).name arr.(j).name || seen i (j + 1)) in
  let rec go i = if i >= n then None else if seen i 0 then Some arr.(i).name else go (i + 1) in
  go 0

(* Duplicate names are rejected when the schema is built, by a pairwise
   scan that names the first repeated attribute. A wide schema runs it
   only when a sorted copy of its names has two equal neighbours. *)
let check_unique arr =
  let n = Array.length arr in
  let sorted_dup () =
    let names = Array.map (fun a -> a.name) arr in
    Array.sort String.compare names;
    let rec adjacent i = i < n && (String.equal names.(i - 1) names.(i) || adjacent (i + 1)) in
    adjacent 1
  in
  if n <= scan_arity || sorted_dup () then
    match first_duplicate arr with
    | Some name -> schema_error "duplicate attribute name %S in schema" name
    | None -> ()

let of_array arr =
  check_unique arr;
  { attrs = arr; index = Atomic.make None }

(** [of_list attrs] builds a schema, rejecting duplicate attribute names. *)
let of_list attrs = of_array (Array.of_list attrs)

(** [map_of_list f l] is [of_list (List.map f l)] without the
    intermediate list; [f] runs on the elements in order. *)
let map_of_list f l =
  match l with
  | [] -> of_array [||]
  | x :: rest ->
      let arr = Array.make (List.length l) (f x) in
      List.iteri (fun i y -> Array.unsafe_set arr (i + 1) (f y)) rest;
      of_array arr

let to_list s = Array.to_list s.attrs
let arity s = Array.length s.attrs
let attr_at s i = s.attrs.(i)
let names s = Array.fold_right (fun a acc -> a.name :: acc) s.attrs []
let types s = Array.fold_right (fun a acc -> a.ty :: acc) s.attrs []

(* The name index of a wide schema. Two domains may both build it; the
   first to publish wins and the other's equal table is dropped. *)
let index s =
  match Atomic.get s.index with
  | Some t -> t
  | None ->
      let t = Hashtbl.create (Array.length s.attrs) in
      Array.iteri (fun i a -> Hashtbl.add t a.name i) s.attrs;
      if Atomic.compare_and_set s.index None (Some t) then t
      else Option.get (Atomic.get s.index)

(* [Some i], shared for the positions of all but the widest schemas, so
   that a lookup allocates nothing *)
let positions = Array.init 64 Option.some
let some_position i = if i < Array.length positions then positions.(i) else Some i

(** [find s name] is the position of attribute [name], if any. *)
let find s name =
  let a = s.attrs in
  let n = Array.length a in
  if n <= scan_arity then
    let rec scan i =
      if i = n then None
      else if String.equal a.(i).name name then some_position i
      else scan (i + 1)
    in
    scan 0
  else match Hashtbl.find (index s) name with i -> some_position i | exception Not_found -> None

let mem s name = Option.is_some (find s name)

(** [position_exn s name] is like [find] but raises [Schema_error]. *)
let position_exn s name =
  match find s name with
  | Some i -> i
  | None ->
      schema_error "unknown attribute %S (schema: %s)" name
        (String.concat ", " (names s))

let type_of_exn s name = (attr_at s (position_exn s name)).ty

(** [concat a b] juxtaposes two schemas; duplicate names are rejected. *)
let concat a b = of_array (Array.append a.attrs b.attrs)

(** [rename s f] renames every attribute through [f]. *)
let rename s f = of_array (Array.map (fun a -> { a with name = f a.name }) s.attrs)

(** [rename_positional s new_names] assigns fresh names positionally. *)
let rename_positional s new_names =
  if List.length new_names <> arity s then
    schema_error "rename: %d names for arity %d" (List.length new_names) (arity s);
  of_list (List.map2 (fun a n -> { a with name = n }) (to_list s) new_names)

(** [equal_types a b] holds when both schemas have the same arity and
    pointwise compatible types (used to validate set operations). *)
let equal_types a b =
  arity a = arity b && Array.for_all2 (fun x y -> Vtype.compatible x.ty y.ty) a.attrs b.attrs

let equal a b =
  arity a = arity b
  && Array.for_all2
       (fun x y -> String.equal x.name y.name && Vtype.equal x.ty y.ty)
       a.attrs b.attrs

let pp ppf s =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf a -> Format.fprintf ppf "%s:%a" a.name Vtype.pp a.ty))
    (to_list s)

let to_string s = Format.asprintf "%a" pp s
