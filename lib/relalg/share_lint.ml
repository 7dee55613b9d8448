(** Static sharing lint: the engine's shared-state inventory and the
    source scan that keeps it honest. See share_lint.mli. *)

type discipline =
  | DomainLocal
  | LockProtected of string
  | AtomicOnly
  | Immutable
  | InitOnce

let discipline_to_string = function
  | DomainLocal -> "domain-local"
  | LockProtected l -> "lock-protected(" ^ l ^ ")"
  | AtomicOnly -> "atomic-only"
  | Immutable -> "immutable"
  | InitOnce -> "init-once"

type entry = {
  e_module : string;
  e_name : string;
  e_kind : string;
  e_discipline : discipline;
  e_note : string;
}

let entry m n k d note =
  { e_module = m; e_name = n; e_kind = k; e_discipline = d; e_note = note }

(* The declared inventory. Every toplevel mutable in the scanned
   modules must appear here with the discipline its accesses follow;
   the scan rules below fail the build on an unregistered one, so
   adding shared state without deciding its discipline is a lint
   error, not a code review hope. *)
let inventory =
  [
    (* guard *)
    entry "guard" "tls" "dls" DomainLocal
      "scope registry: each domain's view ref of the innermost budget \
       scope; shared totals inside the state are Atomic";
    entry "guard" "Faults.state" "ref" DomainLocal
      "fault-injection config; armed and fired on the coordinator \
       domain only (fire points sit on coordinator-side operator paths)";
    entry "guard" "Faults.armed_flag" "ref" DomainLocal
      "fast-path gate for Faults.state; coordinator domain only";
    (* morsel *)
    entry "morsel" "chaos" "atomic" AtomicOnly
      "chaos-scheduler seed; armed by tests, read by every worker";
    entry "morsel" "job_counter" "atomic" AtomicOnly
      "job ids for per-job race-detector edge names";
    entry "morsel" "cache" "hashtbl" (LockProtected "morsel.cache_lock")
      "process-wide pool cache keyed (size, pid)";
    entry "morsel" "cache_lock" "mutex" Immutable "orders morsel.cache";
    (* vexec *)
    entry "vexec" "domains" "ref" InitOnce
      "worker count; set by the CLI before execution, quiescent while \
       queries run";
    entry "vexec" "batch_rows" "ref" InitOnce
      "batch granularity; set by the CLI before execution";
    entry "vexec" "pool_override" "ref" InitOnce
      "test-only pool hook; set while quiescent";
    entry "vexec" "cache" "ref" (LockProtected "vexec.cache_lock")
      "columnar base-relation cache, identity-keyed";
    entry "vexec" "cache_lock" "mutex" Immutable "orders vexec.cache";
    entry "vexec" "probe_counter" "atomic" AtomicOnly
      "probe ids for per-probe race-detector locations";
    entry "vexec" "ctx_counter" "atomic" AtomicOnly
      "ctx tags for per-execution race-detector locations";
    entry "vexec" "cur_compile_path" "ref" DomainLocal
      "operator path during lowering; lowering runs on the coordinator \
       before any fan-out";
    (* relation *)
    entry "relation" "memo_lock" "mutex" Immutable
      "serializes memo builds; the memo cells themselves are Atomic \
       fields published per relation (relation[id].* detector locations)";
    entry "relation" "next_id" "atomic" AtomicOnly
      "relation ids for race-detector locations";
    (* race (the detector's own state; lock is a leaf) *)
    entry "race" "armed_flag" "atomic" AtomicOnly
      "detector gate; one atomic load on every disarmed entry point";
    entry "race" "lock" "mutex" Immutable
      "leaf lock for all detector state; nothing is acquired under it";
    entry "race" "slot_key" "dls" DomainLocal "per-domain detector slot";
    entry "race" "next_slot" "ref" (LockProtected "race.lock") "slot counter";
    entry "race" "clocks" "ref" (LockProtected "race.lock") "vector clocks";
    entry "race" "edges" "hashtbl" (LockProtected "race.lock")
      "published happens-before edges";
    entry "race" "locs" "hashtbl" (LockProtected "race.lock")
      "last write / recent reads per instrumented location";
    entry "race" "reports_acc" "ref" (LockProtected "race.lock") "reports";
    entry "race" "reported" "hashtbl" (LockProtected "race.lock")
      "report dedup set";
    entry "race" "seed_ref" "ref" (LockProtected "race.lock")
      "schedule seed carried into reports";
    (* eval *)
    entry "eval" "default_engine" "ref" InitOnce
      "engine selection; set by the CLI before execution";
    (* rewrite_trace *)
    entry "rewrite_trace" "hook" "ref" DomainLocal
      "process-local tracer hook; installed and fired on the \
       coordinator (rewrites run before execution fans out)";
    entry "rewrite_trace" "mutation" "ref" DomainLocal
      "test-only mutation switch; coordinator only";
  ]

let find ~module_ name =
  List.find_opt (fun e -> e.e_module = module_ && e.e_name = name) inventory

(* ------------------------------------------------------------------ *)
(* Source scanning                                                     *)
(* ------------------------------------------------------------------ *)

type decl = { d_name : string; d_line : int; d_kind : string }

(* Blank out string-literal and comment contents (keeping newlines, so
   line numbers survive): creation tokens inside prose or notes must
   not look like declarations. Char literals are skipped so '"' cannot
   open a string. *)
let strip src =
  let b = Bytes.of_string src in
  let n = Bytes.length b in
  let blank i = if Bytes.get b i <> '\n' then Bytes.set b i ' ' in
  let i = ref 0 and com = ref 0 and instr = ref false in
  while !i < n do
    let c = Bytes.get b !i in
    if !instr then
      if c = '\\' && !i + 1 < n then begin
        blank !i;
        blank (!i + 1);
        i := !i + 2
      end
      else if c = '"' then begin
        instr := false;
        incr i
      end
      else begin
        blank !i;
        incr i
      end
    else if !com > 0 then
      if c = '(' && !i + 1 < n && Bytes.get b (!i + 1) = '*' then begin
        incr com;
        blank !i;
        blank (!i + 1);
        i := !i + 2
      end
      else if c = '*' && !i + 1 < n && Bytes.get b (!i + 1) = ')' then begin
        decr com;
        blank !i;
        blank (!i + 1);
        i := !i + 2
      end
      else begin
        blank !i;
        incr i
      end
    else if c = '(' && !i + 1 < n && Bytes.get b (!i + 1) = '*' then begin
      com := 1;
      blank !i;
      blank (!i + 1);
      i := !i + 2
    end
    else if c = '"' then begin
      instr := true;
      blank !i;
      incr i
    end
    else if c = '\'' && !i + 2 < n && Bytes.get b (!i + 1) <> '\\'
            && Bytes.get b (!i + 2) = '\''
    then begin
      blank (!i + 1);
      i := !i + 3
    end
    else if c = '\'' && !i + 1 < n && Bytes.get b (!i + 1) = '\\' then begin
      let j = ref (!i + 2) in
      while !j < n && Bytes.get b !j <> '\'' do
        blank !j;
        incr j
      done;
      i := !j + 1
    end
    else incr i
  done;
  Bytes.to_string b

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\'' || c = '.'

(* [tok] present in [s] with non-identifier characters (or edges) on
   both sides — '.' counts as an identifier character, so "Foo.ref"
   and "prefix" do not match token "ref". *)
let has_token s tok =
  let ls = String.length s and lt = String.length tok in
  let rec go i =
    if i + lt > ls then false
    else
      let ok =
        String.sub s i lt = tok
        && (i = 0 || not (is_ident_char s.[i - 1]))
        && (i + lt = ls || not (is_ident_char s.[i + lt]))
      in
      ok || go (i + 1)
  in
  go 0

(* First matching creation token decides the kind; order matters
   (a DLS key's initializer usually allocates a ref too). *)
let kind_of_rhs rhs =
  if has_token rhs "Domain.DLS.new_key" then Some "dls"
  else if has_token rhs "Atomic.make" then Some "atomic"
  else if has_token rhs "Mutex.create" then Some "mutex"
  else if has_token rhs "Condition.create" then Some "condition"
  else if has_token rhs "Hashtbl.create" then Some "hashtbl"
  else if has_token rhs "Queue.create" || has_token rhs "Buffer.create" then
    Some "buffer"
  else if
    has_token rhs "Array.make" || has_token rhs "Array.init"
    || has_token rhs "Bytes.create"
    || has_token rhs "Bigarray.Array1.create"
    || has_token rhs "Bigarray.Array2.create"
  then Some "array"
  else if has_token rhs "ref" then Some "ref"
  else None

let indent_of line =
  let n = String.length line in
  let rec go i = if i < n && line.[i] = ' ' then go (i + 1) else i in
  go 0

let is_blank line = String.trim line = ""

(* Parse "let [rec] name" where what follows [name] is at most a type
   annotation before the [=] — i.e. a value binding, not a function.
   Returns (name, rhs-on-this-line). *)
let value_binding_header trimmed =
  let after_let =
    if String.length trimmed > 4 && String.sub trimmed 0 4 = "let " then
      Some (String.sub trimmed 4 (String.length trimmed - 4))
    else None
  in
  match after_let with
  | None -> None
  | Some rest -> (
      let rest =
        if String.length rest > 4 && String.sub rest 0 4 = "rec " then
          String.sub rest 4 (String.length rest - 4)
        else rest
      in
      let n = String.length rest in
      let rec name_end i =
        if i < n && is_ident_char rest.[i] && rest.[i] <> '.' then
          name_end (i + 1)
        else i
      in
      let ne = name_end 0 in
      if ne = 0 || not (rest.[0] >= 'a' && rest.[0] <= 'z' || rest.[0] = '_')
      then None
      else
        let name = String.sub rest 0 ne in
        let tail = String.trim (String.sub rest ne (n - ne)) in
        if name = "_" then None
        else if tail = "" then None (* "let x" alone: not a binding *)
        else if tail.[0] = '=' then
          Some (name, String.sub tail 1 (String.length tail - 1))
        else if tail.[0] = ':' then
          match String.index_opt tail '=' with
          | Some e -> Some (name, String.sub tail (e + 1) (String.length tail - e - 1))
          | None -> Some (name, "")
        else None (* parameters: a function binding *))

let ends_with_in line =
  let t = String.trim line in
  let n = String.length t in
  n >= 3 && String.sub t (n - 3) 3 = " in"

(* Scan stripped source [src] for toplevel (structure-item) mutable
   declarations. Submodules are tracked by indentation ("module X =
   struct" ... "end" at the same indent), and a declaration inside one
   is reported as "X.name". *)
let scan src : decl list =
  let lines = String.split_on_char '\n' (strip src) in
  let arr = Array.of_list lines in
  let n = Array.length arr in
  let rec collect_rhs i base acc =
    if i >= n then acc
    else
      let l = arr.(i) in
      if is_blank l then collect_rhs (i + 1) base acc
      else if indent_of l > base then collect_rhs (i + 1) base (acc ^ "\n" ^ l)
      else acc
  in
  let rec go i depth stack acc =
    if i >= n then List.rev acc
    else
      let line = arr.(i) in
      let ind = indent_of line in
      let trimmed = String.trim line in
      if is_blank line then go (i + 1) depth stack acc
      else if
        ind = 2 * depth
        && String.length trimmed > 7
        && String.sub trimmed 0 7 = "module "
        && has_token trimmed "struct"
      then
        let rest = String.sub trimmed 7 (String.length trimmed - 7) in
        let ne =
          let rec e j =
            if j < String.length rest && is_ident_char rest.[j] then e (j + 1)
            else j
          in
          e 0
        in
        go (i + 1) (depth + 1) (String.sub rest 0 ne :: stack) acc
      else if depth > 0 && ind = 2 * (depth - 1) && trimmed = "end" then
        go (i + 1) (depth - 1) (List.tl stack) acc
      else if ind = 2 * depth && not (ends_with_in line) then (
        match value_binding_header trimmed with
        | Some (name, rhs0) -> (
            let rhs = collect_rhs (i + 1) ind rhs0 in
            match kind_of_rhs rhs with
            | Some kind ->
                let qual =
                  String.concat "." (List.rev_append stack [ name ])
                in
                go (i + 1) depth stack
                  ({ d_name = qual; d_line = i + 1; d_kind = kind } :: acc)
            | None -> go (i + 1) depth stack acc)
        | None -> go (i + 1) depth stack acc)
      else go (i + 1) depth stack acc
  in
  go 0 0 [] []

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

let err ~rule ~path msg = Lint.diag Lint.Error ~rule ~path msg
let warn ~rule ~path msg = Lint.diag Lint.Warning ~rule ~path msg

(* Inventory self-consistency, checkable without sources. *)
let check_inventory () =
  List.concat_map
    (fun e ->
      let path = [ e.e_module; e.e_name ] in
      let mism msg = err ~rule:"share-discipline-mismatch" ~path msg in
      let locks =
        match e.e_discipline with
        | LockProtected l -> (
            match
              List.find_opt
                (fun m ->
                  m.e_kind = "mutex" && m.e_module ^ "." ^ m.e_name = l)
                inventory
            with
            | Some _ -> []
            | None ->
                [
                  err ~rule:"share-unknown-lock" ~path
                    (Printf.sprintf
                       "guarding lock %S is not a mutex in the inventory" l);
                ])
        | _ -> []
      in
      let shape =
        match (e.e_kind, e.e_discipline) with
        | "atomic", AtomicOnly -> []
        | "atomic", _ ->
            [ mism "an Atomic.t cell must be declared atomic-only" ]
        | _, AtomicOnly ->
            [ mism "atomic-only discipline requires an Atomic.t cell" ]
        | ("mutex" | "condition"), Immutable -> []
        | ("mutex" | "condition"), _ ->
            [
              mism
                "a lock object is itself immutable — it orders other \
                 cells, it is not data";
            ]
        | _, LockProtected _ | _, (DomainLocal | Immutable | InitOnce) -> []
      in
      locks @ shape)
    inventory

(* Compare one module's scanned declarations against the inventory. *)
let check_module ~module_ src =
  let decls = scan src in
  let undeclared =
    List.filter_map
      (fun d ->
        match find ~module_ d.d_name with
        | Some e ->
            if e.e_kind <> d.d_kind then
              Some
                (err ~rule:"share-kind-mismatch"
                   ~path:[ module_; d.d_name ]
                   (Printf.sprintf
                      "%s.ml:%d declares a %s but the inventory registered \
                       a %s"
                      module_ d.d_line d.d_kind e.e_kind))
            else None
        | None ->
            Some
              (err ~rule:"share-undeclared-mutable"
                 ~path:[ module_; d.d_name ]
                 (Printf.sprintf
                    "%s.ml:%d: toplevel mutable %s (%s) is not registered \
                     in the sharing inventory — declare its discipline in \
                     share_lint.ml"
                    module_ d.d_line d.d_name d.d_kind)))
      decls
  in
  let stale =
    List.filter_map
      (fun e ->
        if e.e_module <> module_ then None
        else if List.exists (fun d -> d.d_name = e.e_name) decls then None
        else
          Some
            (warn ~rule:"share-stale-inventory"
               ~path:[ module_; e.e_name ]
               (Printf.sprintf
                  "inventory entry %s.%s matches no toplevel mutable in \
                   %s.ml — remove or rename it"
                  module_ e.e_name module_)))
      inventory
  in
  undeclared @ stale

(* The modules the inventory covers (and the scan walks). [share_lint]
   itself is scanned too, so state sneaked into the linter is flagged
   like anywhere else. *)
let modules =
  [
    "eval";
    "guard";
    "morsel";
    "race";
    "relation";
    "rewrite_trace";
    "share_lint";
    "vexec";
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_sources ~root =
  check_inventory ()
  @ List.concat_map
      (fun m ->
        let path = Filename.concat root (m ^ ".ml") in
        match read_file path with
        | src -> check_module ~module_:m src
        | exception Sys_error e ->
            [ err ~rule:"share-missing-source" ~path:[ m ] e ])
      modules

let default_root () =
  List.find_opt
    (fun r -> Sys.file_exists (Filename.concat r "share_lint.ml"))
    [
      "lib/relalg";
      Filename.concat ".." "lib/relalg";
      Filename.concat "../.." "lib/relalg";
      Filename.concat "../../.." "lib/relalg";
    ]

(* ------------------------------------------------------------------ *)
(* Race reports as diagnostics, and the JSON surface                   *)
(* ------------------------------------------------------------------ *)

let diagnostic_of_race (r : Race.report) =
  Lint.diag Lint.Error ~rule:"race-unordered-access" ~path:[ r.Race.r_loc ]
    (Race.report_to_string r)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let diagnostic_json (d : Lint.diagnostic) =
  Printf.sprintf
    {|{"severity":"%s","rule":"%s","path":"%s","message":"%s"}|}
    (json_escape (Lint.severity_to_string d.Lint.severity))
    (json_escape d.Lint.rule)
    (json_escape (Lint.path_to_string d.Lint.path))
    (json_escape d.Lint.message)

let diagnostics_json diags =
  Printf.sprintf {|{"diagnostics":[%s],"errors":%d}|}
    (String.concat "," (List.map diagnostic_json diags))
    (List.length (Lint.errors diags))
