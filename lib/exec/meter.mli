(** Mergeable operation counters for the multicore execution layer.

    Every cost meter in the repository (group multiplications, logical
    exponentiations, bigint multiplications, field multiplications) used
    to be a plain [int ref].  Under {!Pool} those counters are bumped
    from several domains at once; a meter therefore keeps one padded
    slot per domain and a read sums the slots, so parallel and
    sequential executions report {e identical} totals without any
    locking on the increment path.

    Slot discipline: the main domain (and any domain outside the pool)
    writes slot 0; pool worker [k] writes slot [k+1], assigned via
    {!set_slot} when the worker starts.  A domain only ever writes its
    own slot, so increments are race-free; reads are taken on the main
    domain after a parallel join (the pool's mutex provides the
    happens-before edge that makes worker increments visible). *)

type t

val create : unit -> t

val create_group : int -> t array
(** [create_group k] is [k] meters (1 to 8) that share one padded lane
    array: a domain's lane is one 64-byte line holding all [k] of its
    counters, so a family of counters costs one allocation instead of
    [k].  Each meter reads, resets and ticks exactly like one from
    {!create}. *)

val incr : t -> unit
(** Add 1 to the calling domain's slot. *)

val add : t -> int -> unit
(** Add [k] to the calling domain's slot. *)

val read : t -> int
(** Sum of all slots.  Exact when no parallel region is in flight
    (i.e. between {!Pool} batches, which is when all callers read).
    The operations between two reads, those run on pool workers
    included, are the difference of the two. *)

val reset : t -> unit
(** Zero every slot of this meter (not its group siblings).  Only call
    outside parallel regions. *)

(**/**)

val max_slot : int
(** Highest worker slot index (bounds the pool size). *)

val set_slot : int -> unit
(** Bind the calling domain to a slot; used by {!Pool} workers only. *)

val slot : unit -> int
(** The calling domain's slot ([0] on the main domain).  Other
    per-domain lane structures (the tracer's span buffers) key off the
    same assignment so one slot discipline serves every layer. *)
