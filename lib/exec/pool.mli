(** A fixed-size domain pool that runs one batch at a time, with
    deterministic parallel loops.

    The pool runs [jobs () - 1] worker domains plus the main domain;
    with [jobs () = 1] (the default) every combinator degenerates to the
    exact sequential loop and no domain is ever spawned, so existing
    single-threaded behaviour is byte-for-byte unchanged.  Otherwise a
    combinator called on the main domain publishes its batch, drains it
    beside the workers, and returns when the last task completes.

    {b Determinism contract.}  Results are written into slot [i] of the
    output array by task [i] regardless of which domain ran it, and all
    cost meters are {!Meter}s (merged by summation), so any quantity
    derived from task results or meter deltas is independent of the
    schedule.  Randomized tasks must derive their stream from a stable
    index — [Rng.split rng ~label:(sprintf "...-%d" i)] — never from a
    shared sequentially-consumed generator; every parallel call site in
    this repository follows that rule, which is what makes [jobs=k]
    transcripts identical to [jobs=1] transcripts.

    {b Nesting.}  A combinator called inside a pool task runs the
    sequential loop on that task's own domain, the path [jobs () = 1]
    takes, so there is never a second live batch, and spans opened by
    the inner tasks parent under the task's own span.  Top-level
    combinator calls must come from the main domain; never from
    independently spawned domains.

    Exceptions raised by tasks are re-raised in the submitter after the
    batch completes; when several tasks of one batch fail, the exception
    of the lowest-indexed failing task wins, matching what the
    sequential loop would have raised first.

    The workers are joined [at_exit], so a process never hangs on live
    domains. *)

val max_jobs : int

val jobs : unit -> int
(** Effective parallelism, clamped to [1 .. max_jobs]: the {!set_jobs}
    override if any, else the [PPGR_JOBS] environment variable (a
    positive integer, or [0] or ["auto"] meaning
    [Domain.recommended_domain_count ()]; unset or empty means [1]).
    @raise Invalid_argument naming the variable and its value when
    [PPGR_JOBS] is anything else and no override is set. *)

val set_jobs : int -> unit
(** Override the job count ([0] = all recommended cores) without reading
    [PPGR_JOBS]; tears down a live pool of another size, so the next
    parallel call respawns at the new size. *)

val in_parallel_task : unit -> bool
(** True while the calling domain is executing a pool task, nested
    combinator calls included. *)

val parallel_init : int -> (int -> 'a) -> 'a array
(** Like [Array.init], tasks distributed over the pool. *)

val parallel_map : ('a -> 'b) -> 'a array -> 'b array

val parallel_for : int -> (int -> unit) -> unit
(** [parallel_for n f] runs [f 0 .. f (n-1)]; the [f i] must touch
    disjoint state (distinct array cells, meters aside). *)
