(** Seeded, deterministic fault injection for the message layer.

    A fault plan turns a {!spec} (per-delivery fault rates plus a seed)
    into a schedule of per-link fault decisions.  Every delivery attempt
    on a directed link [(src, dst)] consumes exactly one decision, and
    each decision is drawn from its own {!Ppgr_rng.Rng.split} stream
    keyed by [(src, dst, attempt-index-on-that-link)] — never from a
    shared sequentially-consumed generator.  Two consequences:

    - the same seed yields a byte-identical fault schedule regardless of
      how deliveries on {e different} links interleave, and regardless
      of the domain-pool job count (parallelism lives inside party
      computation, not in the driver's message loop);
    - a retransmission is a fresh attempt with a fresh decision, so
      retries can themselves be dropped, corrupted or reordered — the
      recovery layer earns its retry budget honestly.

    The plan is pure policy: it never touches bytes itself.  The
    transport applies {!apply_corruption} when told to, holds reordered
    messages in its own limbo, and interprets [Delay] as backoff ticks
    in the simulated clock. *)

type spec = {
  f_drop : float; (* per-attempt probability the message vanishes *)
  f_corrupt : float; (* ... arrives with one byte XOR-damaged *)
  f_duplicate : float; (* ... arrives twice *)
  f_reorder : float; (* ... is held and arrives after a later message *)
  f_delay : float; (* ... arrives late by a bounded number of ticks *)
  f_max_delay : int; (* upper bound on the late-arrival ticks, >= 1 *)
  f_seed : string; (* fault-schedule seed, independent of protocol RNG *)
}

val clean : spec
(** All rates zero: every attempt delivers. *)

val spec_of_string : string -> spec
(** Parse ["drop=0.1,corrupt=0.02,dup=0.01,reorder=0.05,delay=0.1,\
    maxdelay=4,seed=chaos-1"].  Unmentioned fields keep their {!clean}
    defaults; keys may appear in any order.
    @raise Invalid_argument on an unknown key or unparsable value. *)

val spec_to_string : spec -> string
(** Canonical round-trippable rendering of a spec. *)

type corruption = {
  cor_offset : int; (* raw draw; site reduces it modulo message length *)
  cor_mask : int; (* XOR mask in [1, 255]: never the identity *)
}

type fault =
  | Deliver
  | Drop
  | Corrupt of corruption
  | Duplicate
  | Reorder
  | Delay of int (* ticks in [1, f_max_delay] *)

type t

val create : spec -> t
(** The seeded plan of [spec]: [scripted] over a draw keyed by
    (seed, src, dst, attempt). *)

val scripted : (src:int -> dst:int -> attempt:int -> fault) -> t
(** A plan whose every decision is [f ~src ~dst ~attempt], [attempt]
    counting the decisions already handed out on that directed link
    from 0; {!injected} tallies whatever [f] returns.  A test seam for
    enumerating fault schedules. *)

val next : t -> src:int -> dst:int -> fault
(** The fault decision for the next delivery attempt on the directed
    link [src -> dst].  Deterministic in (spec, src, dst, per-link
    attempt count). *)

val apply_corruption : corruption -> Bytes.t -> Bytes.t
(** A fresh copy of the message with one byte XOR-damaged (offset
    reduced modulo the length); the empty message is returned as is. *)

val kinds : string list
(** The fault kinds, in tally order:
    [["drop"; "corrupt"; "duplicate"; "reorder"; "delay"]]. *)

val injected : t -> (string * int) list
(** Tallies of non-[Deliver] decisions handed out so far, by kind
    (["drop"; "corrupt"; "duplicate"; "reorder"; "delay"]), in that
    fixed order. *)

val total_injected : t -> int
