(** ASCII rendering of relations, for the CLI and the examples. *)

let render ?(max_rows = 50) (rel : Relation.t) : string =
  let schema = Relation.schema rel in
  let headers = Schema.names schema in
  let all = Relation.tuples rel in
  let total = List.length all in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let shown = take max_rows all in
  let rows = List.map Tuple.render shown in
  let ncols = List.length headers in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure headers;
  List.iter measure rows;
  let buf = Buffer.create 256 in
  let sep () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let render_row row =
    Buffer.add_char buf '|';
    List.iteri
      (fun i cell ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf cell;
        Buffer.add_string buf (String.make (widths.(i) - String.length cell + 1) ' ');
        Buffer.add_char buf '|')
      row;
    Buffer.add_char buf '\n'
  in
  sep ();
  render_row headers;
  sep ();
  List.iter render_row rows;
  sep ();
  if total > max_rows then
    Buffer.add_string buf
      (Printf.sprintf "... %d more row(s) (%d total)\n" (total - max_rows) total)
  else Buffer.add_string buf (Printf.sprintf "(%d row(s))\n" total);
  Buffer.contents buf

let print ?max_rows rel = print_string (render ?max_rows rel)
