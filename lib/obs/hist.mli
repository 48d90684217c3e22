(** Mergeable per-domain log-linear histograms with bounded relative
    error (HDR-style).

    Samples are non-negative integers (microseconds, bytes, ticks).
    Buckets are exact below [2^5] and split each higher power of two
    into 32 linear sub-buckets, so every reported bucket bound — and
    therefore every {!quantile} — over-reads the exact order statistic
    by at most 1/32 ≈ 3.1% and never under-reads it.

    Recording is zero-allocation: each domain writes its own
    preallocated bucket lane keyed off {!Ppgr_exec.Meter.slot} (no
    locks), and a globally-disabled {!record} is one ref read.  Queries
    sum the lanes and belong on the main domain after pool joins. *)

type t

(** {1 Global gate} *)

(** Histogram recording is off by default; {!record} is a no-op until
    [set_enabled true].  The gate is global (like [Trace.set_enabled])
    so instrumented hot loops pay one branch, not one per histogram. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** {1 Lifecycle} *)

(** A fresh histogram: 65 lanes × 1152 buckets of [int], about 600 KB.
    Create once and reuse; {!reset} between measurement windows. *)
val create : unit -> t

val reset : t -> unit

(** {1 Recording — safe from any pool domain} *)

(** [record t v] adds one sample.  Negative values clamp to 0, values
    at or above [2^40] clamp to the top bucket.  Allocates nothing. *)
val record : t -> int -> unit

(** [record_us t us] records a duration given in fractional
    microseconds (truncated to an integer). *)
val record_us : t -> float -> unit

(** {1 Queries — main domain, outside parallel regions} *)

val count : t -> int
val sum : t -> int

(** 0 when empty. *)
val min_value : t -> int

(** 0 when empty. *)
val max_value : t -> int

(** [quantile t q] for [q] ∈ [0,1]: an estimate [est] of the exact
    rank-⌈q·count⌉ sample with [exact <= est] and
    [est - exact <= exact/32].  0 when empty. *)
val quantile : t -> float -> int

val p50 : t -> int
val p90 : t -> int
val p99 : t -> int

(** Non-empty buckets as [(lo, hi, count)] with inclusive bounds,
    ascending — the shape the exporters consume. *)
val buckets : t -> (int * int * int) list

(** {1 Merge} *)

(** [merge_into ~into src] accumulates [src] lane-wise into [into]
    ([src] unchanged).  Associative and commutative: merging histograms
    from different shards or runs loses nothing. *)
val merge_into : into:t -> t -> unit

(** {1 Registry} *)

(** Named histograms for the exposition formats ({!Export.prometheus_string},
    bench JSON).  Re-registering a name replaces the previous entry. *)
val register : name:string -> t -> unit

val unregister : name:string -> unit
val registered : unit -> (string * t) list

(** {!reset} every registered histogram — between CLI runs or bench
    windows. *)
val reset_all : unit -> unit

(** {1 Well-known protocol histograms}

    Created once at load and pre-registered; the instrumented layers
    record into these. *)

(** Duration of every closed span, microseconds. *)
val span_us : t

(** Wall-clock latency of one ring hop, microseconds. *)
val hop_us : t

(** Simulated backoff wait preceding each retransmission, ticks. *)
val backoff_ticks : t

(** Size of every physical wire transmission (envelope included),
    bytes. *)
val msg_bytes : t

(** Wall-clock time of one complete shard-local ranking, microseconds. *)
val shard_us : t

(** Wall-clock time of the secure top-k merge stage, microseconds. *)
val merge_us : t

(** {1 Bucketing internals — exposed for the property tests} *)

val bucket_index : int -> int

(** Inclusive [(lo, hi)] covered by a bucket index. *)
val bucket_bounds : int -> int * int

val nbuckets : int
val max_recordable : int
