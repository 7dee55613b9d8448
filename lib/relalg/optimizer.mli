(** Rule-based plan rewrites mirroring the PostgreSQL facilities the
    paper's measurements rely on: conjunct splitting, selection pushdown
    (into join/product sides and through rename-only projections),
    selection-over-product to join conversion, and merging of adjacent
    projections. Semantics-preserving; property-tested against the
    unoptimized plans. *)

(** [optimize db q] rewrites [q] into an equivalent, typically faster
    plan. Sublink queries embedded in conditions are optimized too.
    It first runs the {!Estimate}-driven greedy join reorder over
    Select/Cross/Join clusters; [prune] (default [true]) additionally
    runs dead-column pruning. *)
val optimize : ?prune:bool -> Database.t -> Algebra.query -> Algebra.query

(** [prune db q] drops columns nothing above reads: a backward
    needed-column pass that narrows projections and base scans
    (including inside sublink queries — EXISTS sublinks collapse to
    zero-width plans) while preserving the root schema, DISTINCT and
    set-operation widths, and GROUP BY columns. Semantics-preserving;
    property-tested against unpruned plans under all four strategies. *)
val prune : Database.t -> Algebra.query -> Algebra.query
