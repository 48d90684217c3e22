(** Per-domain state owned by a value rather than by the runtime.

    A [Domain.DLS] key is never reclaimed: one made per group or per
    curve instance keeps its per-domain value (and a cell of every
    domain's DLS array) alive for the rest of the process, so a program
    that builds groups repeatedly grows its heap without bound.  A
    [Slot_local.t] holds one lazily made value per {!Meter} slot inside
    the owning value instead, and is collected with it.

    Slot discipline is {!Meter}'s: the main domain uses slot 0, pool
    worker [k] slot [k+1], and a domain only ever reads and writes its
    own cell.  Domains spawned outside {!Pool} share slot 0 with the
    main domain, so they must not touch a [Slot_local.t]. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make init]: no value is built until a domain first calls {!get}. *)

val get : 'a t -> 'a
(** The calling domain's value, built by [init] on its first call. *)
