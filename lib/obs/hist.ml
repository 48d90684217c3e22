(** Mergeable log-linear latency/size histograms (HDR-style).

    A histogram buckets non-negative integer samples — microseconds,
    bytes, simulated ticks — into log-linear buckets: exact below
    [2^sub_bits], then [2^sub_bits] linear sub-buckets per power of two.
    Reporting the upper bound of a bucket therefore over-reads a sample
    by strictly less than [2^-sub_bits] of its value, which is the
    bounded-relative-error contract ({!quantile} inherits it: any
    reported quantile is within 1/32 ≈ 3.1% of the exact order
    statistic it names).

    {b Cost model.}  Recording is the telemetry hot path — one call per
    span close, per ring hop, per physical message — so a {!record} on
    a warm histogram allocates {e nothing}: the bucket lanes and the
    count/sum/min/max scalars are preallocated at {!create}, the bucket
    index is pure integer arithmetic, and the disabled path is one ref
    read and a branch (both pinned in [test_allocs]).

    {b Parallelism.}  Like {!Trace} span buffers and {!Ppgr_exec.Meter}
    slots, each domain records into its own bucket lane keyed off
    {!Ppgr_exec.Meter.slot}, so pool workers record without locks;
    queries sum the lanes and are taken on the main domain after pool
    joins.  Lane-wise merge is associative and commutative, so
    histograms from different runs (or shards) combine exactly. *)

(* Bucketing: values in [0, 2^sub_bits) are exact; a value with its
   most significant bit at position m >= sub_bits lands in one of
   2^sub_bits linear sub-buckets of width 2^(m - sub_bits).  Values at
   or above 2^max_value_bits clamp into the top bucket (11 days in
   microseconds, a terabyte in bytes — nothing the protocol produces). *)
let sub_bits = 5
let sub_count = 1 lsl sub_bits
let max_value_bits = 40
let max_recordable = (1 lsl max_value_bits) - 1
let nbuckets = (max_value_bits - sub_bits + 1) * sub_count
let slots = Ppgr_exec.Meter.max_slot + 1

(* Per-lane scalar block: count, sum, min, max, padded to a cache line
   so two domains never share one. *)
let scal_stride = 8

type t = {
  counts : int array; (* slots * nbuckets, lane-major *)
  scal : int array; (* slots * scal_stride: count, sum, min, max *)
}

let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  for s = 0 to slots - 1 do
    let i = s * scal_stride in
    t.scal.(i) <- 0;
    t.scal.(i + 1) <- 0;
    t.scal.(i + 2) <- max_int;
    t.scal.(i + 3) <- -1
  done

let create () =
  let t =
    { counts = Array.make (slots * nbuckets) 0; scal = Array.make (slots * scal_stride) 0 }
  in
  reset t;
  t

(* Top-level recursion so the hot path never builds a closure (a local
   [let rec] heap-allocates on non-flambda builds — the same trap the
   bigint compare loops hit in PR 6). *)
let rec msb_from acc v = if v <= 1 then acc else msb_from (acc + 1) (v lsr 1)

let bucket_index v =
  if v < sub_count then v
  else begin
    let shift = msb_from 0 v - sub_bits in
    ((shift + 1) * sub_count) + ((v lsr shift) - sub_count)
  end

(** Inclusive value range covered by bucket [i]. *)
let bucket_bounds i =
  if i < sub_count then (i, i)
  else begin
    let shift = (i / sub_count) - 1 in
    let lo = (sub_count + (i mod sub_count)) lsl shift in
    (lo, lo + (1 lsl shift) - 1)
  end

(** Record one sample.  Negative samples clamp to 0, oversized ones to
    [max_recordable]; no-op (one ref read) when disabled. *)
let record t v =
  if !enabled_flag then begin
    let v = if v < 0 then 0 else if v > max_recordable then max_recordable else v in
    let slot = Ppgr_exec.Meter.slot () in
    let ci = (slot * nbuckets) + bucket_index v in
    t.counts.(ci) <- t.counts.(ci) + 1;
    let i = slot * scal_stride in
    t.scal.(i) <- t.scal.(i) + 1;
    t.scal.(i + 1) <- t.scal.(i + 1) + v;
    if v < t.scal.(i + 2) then t.scal.(i + 2) <- v;
    if v > t.scal.(i + 3) then t.scal.(i + 3) <- v
  end

(** Record a duration given in (fractional) microseconds. *)
let record_us t us = record t (int_of_float us)

(* ---- Queries: main domain, outside parallel regions. ---- *)

let count t =
  let acc = ref 0 in
  for s = 0 to slots - 1 do
    acc := !acc + t.scal.(s * scal_stride)
  done;
  !acc

let sum t =
  let acc = ref 0 in
  for s = 0 to slots - 1 do
    acc := !acc + t.scal.((s * scal_stride) + 1)
  done;
  !acc

let min_value t =
  let acc = ref max_int in
  for s = 0 to slots - 1 do
    let v = t.scal.((s * scal_stride) + 2) in
    if v < !acc then acc := v
  done;
  if !acc = max_int then 0 else !acc

let max_value t =
  let acc = ref (-1) in
  for s = 0 to slots - 1 do
    let v = t.scal.((s * scal_stride) + 3) in
    if v > !acc then acc := v
  done;
  if !acc < 0 then 0 else !acc

let bucket_count t i =
  let acc = ref 0 in
  for s = 0 to slots - 1 do
    acc := !acc + t.counts.((s * nbuckets) + i)
  done;
  !acc

(** [quantile t q] for [q] in [0, 1]: the upper bound of the bucket
    holding the sample of (1-indexed) rank [ceil (q * count)] — i.e. an
    estimate of the exact order statistic that never under-reads and
    over-reads by less than [2^-sub_bits] relatively.  0 on an empty
    histogram. *)
let quantile t q =
  let n = count t in
  if n = 0 then 0
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int n))) in
    let acc = ref 0 in
    let i = ref 0 in
    let result = ref 0 in
    (try
       while !i < nbuckets do
         let c = bucket_count t !i in
         if c > 0 then begin
           acc := !acc + c;
           if !acc >= rank then begin
             result := snd (bucket_bounds !i);
             raise_notrace Exit
           end
         end;
         incr i
       done
     with Exit -> ());
    Stdlib.min !result (max_value t)
  end

let p50 t = quantile t 0.50
let p90 t = quantile t 0.90
let p99 t = quantile t 0.99

(** Non-empty buckets as [(lo, hi, count)], ascending — the exposition
    shape the exporters consume. *)
let buckets t =
  let out = ref [] in
  for i = nbuckets - 1 downto 0 do
    let c = bucket_count t i in
    if c > 0 then
      let lo, hi = bucket_bounds i in
      out := (lo, hi, c) :: !out
  done;
  !out

(** Lane-wise accumulation of [src] into [into]: counts and sums add,
    min/max combine.  Associative and commutative, [src] unchanged. *)
let merge_into ~into src =
  for i = 0 to Array.length into.counts - 1 do
    into.counts.(i) <- into.counts.(i) + src.counts.(i)
  done;
  for s = 0 to slots - 1 do
    let i = s * scal_stride in
    into.scal.(i) <- into.scal.(i) + src.scal.(i);
    into.scal.(i + 1) <- into.scal.(i + 1) + src.scal.(i + 1);
    if src.scal.(i + 2) < into.scal.(i + 2) then into.scal.(i + 2) <- src.scal.(i + 2);
    if src.scal.(i + 3) > into.scal.(i + 3) then into.scal.(i + 3) <- src.scal.(i + 3)
  done

(* ---- Registry: named histograms for the exposition formats.  Same
   discipline as {!Metrics}: registration order is reading order. ---- *)

let registry : (string * t) list ref = ref []

let register ~name t =
  let others = List.filter (fun (n, _) -> n <> name) !registry in
  registry := others @ [ (name, t) ]

let unregister ~name = registry := List.filter (fun (n, _) -> n <> name) !registry
let registered () = !registry
let reset_all () = List.iter (fun (_, t) -> reset t) !registry

(* ---- The well-known protocol histograms.  Created once; the
   instrumented layers record into these and the CLI / bench / daemon
   expose them.  Units are in the names. ---- *)

(** Duration of every closed span, in microseconds. *)
let span_us = create ()

(** Wall-clock latency of one ring hop (phase 2 step 8), microseconds. *)
let hop_us = create ()

(** Simulated backoff wait preceding each retransmission, in ticks. *)
let backoff_ticks = create ()

(** Size of every physical wire transmission (envelope included), bytes. *)
let msg_bytes = create ()

(** Wall-clock time of one complete shard-local ranking, microseconds. *)
let shard_us = create ()

(** Wall-clock time of the secure top-k merge stage, microseconds. *)
let merge_us = create ()

let () =
  register ~name:"span_us" span_us;
  register ~name:"hop_us" hop_us;
  register ~name:"backoff_ticks" backoff_ticks;
  register ~name:"msg_bytes" msg_bytes;
  register ~name:"shard_us" shard_us;
  register ~name:"merge_us" merge_us
