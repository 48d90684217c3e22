(** The per-phase × per-party summary table.

    Aggregates party-attributed spans into (phase, party) rows whose
    metric columns provably tile the global meters — the consistency
    check the CLI prints.  Container spans (phase roots, the full-run
    span) are excluded because they re-count their children. *)

(** Attribute keys that name a dimension rather than a measured
    quantity; every other integer-valued attribute is summed as a
    metric column. *)
val dimension_keys : string list

type row = {
  phase : string;  (** span name, e.g. "runtime.ring" *)
  party : int;
  mutable wall_us : float;
  mutable metrics : (string * int) list;  (** summed integer attrs *)
}

(** Aggregate party-attributed spans into rows, in first-appearance
    order. *)
val rows : Trace.span list -> row list

(** Sum one metric over all rows (0 when absent everywhere). *)
val total : row list -> string -> int

val total_wall_us : row list -> float

(** Metric column names in first-appearance order. *)
val columns : row list -> string list

(** Render the table; one line per (phase, party), a TOTAL line last. *)
val to_string : row list -> string

(** Roll the table up per shard: party-attributed spans that also carry
    a ["shard"] attribute aggregate into one row per shard (row key
    ["shard-<i>"], party = shard index, ascending).  Spans without the
    attribute (e.g. the merge committee) are skipped. *)
val by_shard : Trace.span list -> row list
