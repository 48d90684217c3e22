(** Span-based protocol tracer.

    A span is a named, nestable interval with attributes (phase, step,
    party index, ring hop, group name, byte counts) and wall-clock
    timestamps; the instrumented protocol layers open one span per
    phase step / party / ring hop, and the recorded set is shown as a
    Chrome trace (Perfetto-loadable, {!Export}) or as the per-phase ×
    per-party summary table ({!Summary}).  Spans are the one telemetry
    path: a hop's latency is its [runtime.ring] span, a step's operation
    counts are the span's probe deltas.

    {b Cost model.}  Tracing is off by default and the disabled path is
    one ref read and a branch per call site, so instrumented hot paths
    pay nothing measurable.  When enabled, a span open/close samples
    every registered {!Metrics} probe and attaches the non-zero deltas,
    which is why instrumentation sits at step granularity, never inside
    per-ciphertext loops.

    {b Parallelism.}  Spans are recorded into one buffer per domain
    slot — the same padded-lane discipline as {!Ppgr_exec.Meter} — so
    pool workers record without locks, and the main domain collects
    after pool joins (the pool's own synchronization provides the
    happens-before edge).  A span opened inside a pool task whose
    domain has no open span parents itself under the span the main
    domain had open when the batch launched, so nesting is identical at
    any job count; probe deltas of spans that fan work out over the
    pool are exact because the underlying meters merge by summation. *)

type attr = Int of int | Float of float | Str of string | Bool of bool

type span = {
  id : int;
  parent : int; (* span id, or -1 for a root *)
  name : string;
  slot : int; (* domain lane that recorded the span *)
  seq : int; (* per-slot open order *)
  start_us : float;
  mutable dur_us : float;
  mutable attrs : (string * attr) list;
}

let slots = Ppgr_exec.Meter.max_slot + 1

(* ---- Global tracer state ---- *)

let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* Per-slot span buffers and open-sequence counters.  Each domain only
   ever touches its own slot; the stride padding keeps the counters off
   shared cache lines, mirroring the meter layout. *)
let stride = 8
let bufs : span list ref array = Array.init slots (fun _ -> ref [])
let seqs = Array.make (slots * stride) 0
let last_ts = Array.make (slots * stride) 0.

let next_seq slot =
  let i = slot * stride in
  let s = seqs.(i) in
  seqs.(i) <- s + 1;
  s

(* Wall clock in microseconds, clamped per-slot so timestamps never run
   backwards within a lane even if the system clock steps. *)
let now_us slot =
  let t = Unix.gettimeofday () *. 1e6 in
  let i = slot * stride in
  if t < last_ts.(i) then last_ts.(i)
  else begin
    last_ts.(i) <- t;
    t
  end

(* The per-domain stack of open spans (innermost first). *)
let stack_key : span list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

(* The span the main domain has open when a pool batch launches: a span
   opened inside a pool task with an empty local stack parents here, so
   jobs=1 and jobs=k produce the same nesting.  Written only by the
   main domain outside parallel regions; read by workers after the
   pool's synchronization point. *)
let batch_parent = ref (-1)

let span_id ~slot ~seq = (seq * slots) + slot

let reset () =
  Array.iter (fun b -> b := []) bufs;
  Array.fill seqs 0 (Array.length seqs) 0;
  batch_parent := -1

let current_parent () =
  match Domain.DLS.get stack_key with
  | sp :: _ -> sp.id
  | [] -> if Ppgr_exec.Pool.in_parallel_task () then !batch_parent else -1

let on_main_domain () =
  Ppgr_exec.Meter.slot () = 0 && not (Ppgr_exec.Pool.in_parallel_task ())

let open_span ~attrs name =
  let slot = Ppgr_exec.Meter.slot () in
  let seq = next_seq slot in
  let sp =
    {
      id = span_id ~slot ~seq;
      parent = current_parent ();
      name;
      slot;
      seq;
      start_us = now_us slot;
      dur_us = 0.;
      attrs;
    }
  in
  Domain.DLS.set stack_key (sp :: Domain.DLS.get stack_key);
  if on_main_domain () then batch_parent := sp.id;
  sp

let close_span sp ~probe_before =
  (match Domain.DLS.get stack_key with
  | top :: rest when top == sp -> Domain.DLS.set stack_key rest
  | stack ->
      (* An exception unwound past inner spans without closing them:
         drop everything above this span so the stack stays sane. *)
      let rec strip = function
        | top :: rest when top == sp -> rest
        | _ :: rest -> strip rest
        | [] -> []
      in
      Domain.DLS.set stack_key (strip stack));
  if on_main_domain () then batch_parent := sp.parent;
  sp.dur_us <- now_us sp.slot -. sp.start_us;
  (match probe_before with
  | None -> ()
  | Some before ->
      let d = Metrics.deltas ~before ~after:(Metrics.read_all ()) in
      sp.attrs <- sp.attrs @ List.map (fun (k, v) -> (k, Int v)) d);
  let b = bufs.(sp.slot) in
  b := sp :: !b

let with_span ?(attrs = []) name f =
  if not !enabled_flag then f ()
  else begin
    let before = Metrics.read_all () in
    let sp = open_span ~attrs name in
    Fun.protect ~finally:(fun () -> close_span sp ~probe_before:(Some before)) f
  end

let instant ?(attrs = []) name =
  if !enabled_flag then begin
    let slot = Ppgr_exec.Meter.slot () in
    let seq = next_seq slot in
    let sp =
      {
        id = span_id ~slot ~seq;
        parent = current_parent ();
        name;
        slot;
        seq;
        start_us = now_us slot;
        dur_us = 0.;
        attrs;
      }
    in
    let b = bufs.(slot) in
    b := sp :: !b
  end

let add_attr name v =
  if !enabled_flag then
    match Domain.DLS.get stack_key with
    | sp :: _ -> sp.attrs <- sp.attrs @ [ (name, v) ]
    | [] -> ()

(** Recorded spans in deterministic (slot, open-seq) order; call on the
    main domain outside parallel regions. *)
let spans () : span list =
  let all = ref [] in
  for s = slots - 1 downto 0 do
    all := List.rev_append !(bufs.(s)) !all
  done;
  List.sort
    (fun a b ->
      if a.slot <> b.slot then compare a.slot b.slot else compare a.seq b.seq)
    !all

(** Run [f] with tracing enabled on a fresh buffer; returns the result
    and the recorded spans, restoring the previous enabled state. *)
let capture f =
  let was = !enabled_flag in
  reset ();
  set_enabled true;
  let r = Fun.protect ~finally:(fun () -> set_enabled was) f in
  let s = spans () in
  reset ();
  (r, s)
