(** Static sharing lint for the engine: a declared inventory of every
    toplevel mutable that concurrent domains (server sessions) can
    reach, each with the synchronization discipline its accesses
    follow, plus a source scan that cross-checks the inventory against
    the code.

    The scan finds toplevel [ref]/[Hashtbl]/[Atomic]/[Mutex]/DLS/array
    declarations in the engine modules (comments and string literals
    stripped, submodules tracked); a mutable the inventory does not
    register is an error with a stable rule id, so adding shared state
    without deciding how it is synchronized fails CI rather than
    waiting for production to notice. The inventory is also checked
    for self-consistency (a lock named by [LockProtected] must itself
    be a registered mutex; an [Atomic.t] cell must be [AtomicOnly];
    lock objects are [Immutable]).

    Diagnostics reuse {!Lint.diagnostic}; {!diagnostics_json} renders
    them in the same machine-readable shape permcli's [--lint-json]
    emits. Rule ids: [share-undeclared-mutable], [share-stale-inventory],
    [share-kind-mismatch], [share-unknown-lock],
    [share-discipline-mismatch], [share-missing-source]. *)

(** How accesses to one shared cell are ordered. *)
type discipline =
  | DomainLocal
      (** reached from one domain only (DLS-backed, or armed and read
          by a single-domain caller) *)
  | LockProtected of string
      (** every access holds the named mutex (["module.name"] of an
          [Immutable] inventory entry) *)
  | AtomicOnly  (** an [Atomic.t] cell; no compound read-modify-write *)
  | Immutable
      (** never mutated after creation — lock/condition objects, whose
          identity is the synchronization *)
  | InitOnce
      (** written during single-domain setup (CLI flags, test hooks),
          quiescent while queries execute *)

val discipline_to_string : discipline -> string

type entry = {
  e_module : string;  (** file base name, e.g. ["vexec"] *)
  e_name : string;  (** possibly dotted: ["Faults.state"] *)
  e_kind : string;
      (** declaration kind the scanner must agree on: ["ref"],
          ["hashtbl"], ["atomic"], ["mutex"], ["condition"], ["dls"],
          ["array"] or ["buffer"] *)
  e_discipline : discipline;
  e_note : string;  (** why the discipline is sufficient *)
}

(** The declared shared-state inventory, the single registry CI checks
    code against. *)
val inventory : entry list

val find : module_:string -> string -> entry option

(** {1 Scanning} *)

(** A toplevel mutable declaration found in source. *)
type decl = { d_name : string; d_line : int; d_kind : string }

(** [scan src] — the toplevel mutable declarations of one module's
    source text. A binding to [fun]/[function] is skipped: what its
    body creates is created per call. *)
val scan : string -> decl list

(** Inventory self-consistency alone (no sources needed). *)
val check_inventory : unit -> Lint.diagnostic list

(** [check_module ~module_ src] — scanned declarations vs. the
    inventory entries of [module_]: undeclared mutables (error), kind
    mismatches (error), stale entries (warning). *)
val check_module : module_:string -> string -> Lint.diagnostic list

(** [modules ~root] — the base names of the [.ml] files under [root],
    sorted, ["share_lint"] included: the modules the scan walks ([[]]
    when [root] cannot be read). *)
val modules : root:string -> string list

(** [check_sources ~root] — {!check_inventory} plus {!check_module}
    over every module of {!modules}; an inventory entry whose module
    has no source under [root] is itself an error. *)
val check_sources : root:string -> Lint.diagnostic list

(** First of [lib/relalg], [../lib/relalg], … that holds the sources —
    lets tests and CI invoke the lint from any build directory. *)
val default_root : unit -> string option

(** {1 Diagnostics plumbing} *)

(** One diagnostic as a JSON object
    [{"severity":…,"rule":…,"path":…,"message":…}] — the shape
    permcli's [--lint-json] emits. *)
val diagnostic_json : Lint.diagnostic -> string

(** [{"diagnostics":[…],"errors":n}] with [n] the error count. *)
val diagnostics_json : Lint.diagnostic list -> string
