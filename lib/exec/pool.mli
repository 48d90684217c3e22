(** A fixed-size work-stealing domain pool with deterministic parallel
    loops.

    The pool runs [jobs () - 1] worker domains plus the calling domain;
    with [jobs () = 1] (the default) every combinator degenerates to the
    exact sequential loop and no domain is ever spawned, so existing
    single-threaded behaviour is byte-for-byte unchanged.

    {b Determinism contract.}  Results are written into slot [i] of the
    output array by task [i] regardless of which domain ran it, and all
    cost meters are {!Meter}s (merged by summation), so any quantity
    derived from task results or meter deltas is independent of the
    schedule.  Randomized tasks must derive their stream from a stable
    index — [Rng.split rng ~label:(sprintf "...-%d" i)] — never from a
    shared sequentially-consumed generator; every parallel call site in
    this repository follows that rule, which is what makes [jobs=k]
    transcripts identical to [jobs=1] transcripts.

    {b Nesting.}  A task may itself invoke a [parallel_*] combinator:
    the nested batch is published on the submitting domain's deque,
    drained by the submitter, and stolen from by idle domains, so inner
    loops (per-pair comparison circuits, [runtime.count]) exploit domains
    left idle by an outer loop's tail.  The submitter's own drain alone
    completes every task nobody stole, so joins terminate by induction
    on the nesting depth — work stealing is a throughput refinement,
    never a liveness requirement.  Top-level combinator calls must still
    come from the main domain (or from pool tasks); never from
    independently spawned domains.

    Exceptions raised by tasks are re-raised in the submitter after the
    batch completes; when several tasks of one batch fail, the exception
    of the lowest-indexed failing task wins, matching what the
    sequential loop would have raised first.

    The workers are joined [at_exit], so a process never hangs on live
    domains. *)

val max_jobs : int

val jobs : unit -> int
(** Effective parallelism: the {!set_jobs} override if any, else the
    [PPGR_JOBS] environment variable ([0] or ["auto"] meaning
    [Domain.recommended_domain_count ()]), else [1]. *)

val set_jobs : int -> unit
(** Override the job count ([0] = all recommended cores); tears down a
    live pool so the next parallel call respawns at the new size. *)

val in_parallel_task : unit -> bool
(** True while the calling domain is executing a pool task (at any
    nesting depth). *)

val parallel_init : int -> (int -> 'a) -> 'a array
(** Like [Array.init], tasks distributed over the pool. *)

val parallel_map : ('a -> 'b) -> 'a array -> 'b array

val parallel_for : int -> (int -> unit) -> unit
(** [parallel_for n f] runs [f 0 .. f (n-1)]; the [f i] must touch
    disjoint state (distinct array cells, meters aside). *)
