(** Reliable delivery over a lossy link layer, between {!Runtime}'s
    parties and {!Ppgr_mpcnet.Faultplan}'s fault schedule.

    The fault-free driver delivered every message immediately and in
    order.  This transport keeps a synchronous interface — {!post}
    enqueues a payload and {!flush} returns every posted payload exactly
    as its receiver accepted it — but earns it: every payload travels in
    a {!Wire.tag_envelope} envelope carrying a per-directed-link
    sequence number and a CRC-32, and each delivery attempt is submitted
    to the fault plan, which may drop it, flip a byte, duplicate it,
    hold it for reordering, or delay it.  Recovery is timeout/retransmit
    with one fixed [rto]-tick timer per attempt (accounted in simulated
    ticks — the driver never sleeps), duplicate and stale arrivals are
    suppressed by sequence number, and a sender that exhausts its retry
    budget raises the typed {!Party_dropped} abort carrying forensics
    instead of hanging.

    Accounting is two-level: {e logical} (one message per [post], the
    payload's bytes — the protocol-analysis view the rest of the repo
    reports) stays with the caller; this module owns the {e physical}
    level — every attempt that touches the wire, envelope overhead and
    retransmissions included, tallied per party, per directed link (as
    a {!Ppgr_mpcnet.Netsim.schedule} round per protocol step), and
    folded into a running transcript digest.

    Determinism: the fault schedule is keyed by (link, attempt), the
    protocol bytes are identical at any job count, and {!flush} walks
    links in a fixed order with event ties broken on insertion order,
    so the physical transcript — and hence the digest — is
    byte-identical at [jobs=1] and [jobs=k]. *)

open Ppgr_mpcnet
module Trace = Ppgr_obs.Trace
module Hist = Ppgr_obs.Hist
module Flightrec = Ppgr_obs.Flightrec
module Sha256 = Ppgr_hash.Sha256

type forensics = {
  fr_step : string; (* protocol step being delivered *)
  fr_src : int;
  fr_dst : int;
  fr_seq : int; (* sequence number of the undeliverable message *)
  fr_attempts : int; (* attempts spent, budget included *)
  fr_events : string list; (* per-attempt fault outcomes, oldest first *)
  fr_recent : string list; (* cross-link event tail, oldest first *)
  fr_flight : Flightrec.event list;
      (* the dropping sender's flight-recorder tail, oldest first *)
  fr_digest : string; (* transcript digest at abort time (hex) *)
}

exception Party_dropped of forensics

let () =
  Printexc.register_printer (function
    | Party_dropped f ->
        Some
          (Printf.sprintf
             "Party_dropped { step=%s; link=%d->%d; seq=%d; attempts=%d; \
              last=%s }"
             f.fr_step f.fr_src f.fr_dst f.fr_seq f.fr_attempts
             (match List.rev f.fr_events with e :: _ -> e | [] -> "-"))
    | _ -> None)

type stats = {
  mutable retransmits : int; (* attempts beyond the first, per message *)
  mutable drops : int; (* attempts the plan vanished *)
  mutable crc_rejects : int; (* corrupted arrivals the receiver refused *)
  mutable dup_suppressed : int; (* duplicate/stale arrivals discarded *)
  mutable reorders : int; (* envelopes held in limbo at least once *)
  mutable delays : int; (* attempts that arrived late *)
  mutable backoff_ticks : int; (* retransmit-timer ticks: rto per retransmit *)
  mutable phys_messages : int; (* everything that touched the wire *)
  mutable phys_bytes : int;
  mutable acks_sent : int; (* control plane: one ack frame per accept *)
  mutable ack_bytes : int;
  mutable sim_ticks : int;
      (* simulated link clock: each flush is charged its slowest link,
         timeouts and injected delays included *)
}

(** {1 Window configuration}

    A [Faultplan.spec]-style grammar for the per-link sliding window:
    ["window=8,rto=4"] sets a window of 8 in-flight sequences on every
    directed link and a retransmission timeout of 4 simulated ticks.
    The default, [window=1,rto=4], is stop-and-wait.  The protocol
    posts at most one message per link per flush, so every window size
    gives the same transcript and the same counters. *)

type winspec = {
  ws_window : int; (* in-flight cap per directed link, >= 1 *)
  ws_rto : int; (* retransmission timeout, simulated ticks *)
}

(* The selective-ack bitmap is 32 bits, so a window never exceeds 32. *)
let max_window = 32

let winspec_default = { ws_window = 1; ws_rto = 4 }

let winspec_of_string s =
  let parse_field spec kv =
    match String.index_opt kv '=' with
    | None -> invalid_arg ("Transport.winspec: expected key=value, got " ^ kv)
    | Some i ->
        let key = String.sub kv 0 i in
        let v = String.sub kv (i + 1) (String.length kv - i - 1) in
        let int () =
          match int_of_string_opt v with
          | Some n -> n
          | None -> invalid_arg ("Transport.winspec: bad integer " ^ v)
        in
        if key = "window" then begin
          let w = int () in
          if w < 1 || w > max_window then
            invalid_arg
              (Printf.sprintf "Transport.winspec: window=%d out of [1,%d]" w
                 max_window);
          { spec with ws_window = w }
        end
        else if key = "rto" then begin
          let r = int () in
          if r < 1 then invalid_arg "Transport.winspec: rto must be >= 1";
          { spec with ws_rto = r }
        end
        else invalid_arg ("Transport.winspec: unknown key " ^ key)
  in
  let fields =
    List.filter (fun f -> f <> "") (String.split_on_char ',' (String.trim s))
  in
  List.fold_left parse_field winspec_default fields

let winspec_to_string ws = Printf.sprintf "window=%d,rto=%d" ws.ws_window ws.ws_rto

(** {1 Sliding-window bookkeeping}

    Fixed-capacity per-directed-link state, preallocated at transport
    creation as parallel [int] arrays: sender-side in-flight slots
    (sequence, retransmission timer, attempt count, selective-ack mark)
    and receiver-side out-of-order buffer slots.  Every operation below
    is straight array arithmetic — zero allocation per call, pinned in
    [test_allocs] — because the event loop runs them once per
    transmission and once per ack. *)
module Window = struct
  type w = {
    cap : int;
    seq : int array; (* in-flight sequence per slot; -1 = free *)
    timer : int array; (* absolute retransmission-timeout tick *)
    attempts : int array; (* transmissions so far *)
    sacked : int array; (* 1 = selectively acked: buffered at receiver *)
    rseq : int array; (* receiver buffer: out-of-order seq held; -1 = free *)
    rpay : Bytes.t array; (* receiver buffer: the held payload *)
  }

  let no_payload = Bytes.create 0

  let create cap =
    if cap < 1 || cap > max_window then invalid_arg "Window.create: bad capacity";
    {
      cap;
      seq = Array.make cap (-1);
      timer = Array.make cap max_int;
      attempts = Array.make cap 0;
      sacked = Array.make cap 0;
      rseq = Array.make cap (-1);
      rpay = Array.make cap no_payload;
    }

  (** Sender-side in-flight count. *)
  let occupancy w =
    let c = ref 0 in
    for i = 0 to w.cap - 1 do
      if w.seq.(i) >= 0 then incr c
    done;
    !c

  (** Admit a new in-flight sequence.  Returns its slot, or -1 when the
      window is full (the caller must wait for an ack). *)
  let push w ~seq =
    let slot = ref (-1) in
    for i = w.cap - 1 downto 0 do
      if w.seq.(i) < 0 then slot := i
    done;
    if !slot >= 0 then begin
      let s = !slot in
      w.seq.(s) <- seq;
      w.timer.(s) <- max_int;
      w.attempts.(s) <- 1;
      w.sacked.(s) <- 0
    end;
    !slot

  let slot_of_seq w seq =
    let slot = ref (-1) in
    for i = 0 to w.cap - 1 do
      if w.seq.(i) = seq then slot := i
    done;
    !slot

  (** Cumulative ack: release every slot below [cum]. *)
  let ack_cum w ~cum =
    for i = 0 to w.cap - 1 do
      if w.seq.(i) >= 0 && w.seq.(i) < cum then begin
        w.seq.(i) <- -1;
        w.timer.(i) <- max_int;
        w.sacked.(i) <- 0
      end
    done

  (** Selective ack: the receiver buffered [seq] out of order — disarm
      its retransmission timer but keep the slot occupied until the
      cumulative ack passes it. *)
  let sack w ~seq =
    let s = slot_of_seq w seq in
    if s >= 0 then begin
      w.sacked.(s) <- 1;
      w.timer.(s) <- max_int
    end

  (** Slot of the earliest armed retransmission timer, or -1. *)
  let next_timer w =
    let best = ref (-1) in
    let bt = ref max_int in
    for i = 0 to w.cap - 1 do
      if w.seq.(i) >= 0 && w.sacked.(i) = 0 && w.timer.(i) < !bt then begin
        bt := w.timer.(i);
        best := i
      end
    done;
    !best

  let slot_of_rseq w seq =
    let slot = ref (-1) in
    for i = 0 to w.cap - 1 do
      if w.rseq.(i) = seq then slot := i
    done;
    !slot

  (** Receiver side: buffer an out-of-order payload.  Idempotent per
      sequence. Returns false when the buffer has no free slot (cannot
      happen while the sender respects the same window). *)
  let rbuf_put w ~seq payload =
    if slot_of_rseq w seq >= 0 then true
    else begin
      let slot = ref (-1) in
      for i = w.cap - 1 downto 0 do
        if w.rseq.(i) < 0 then slot := i
      done;
      if !slot < 0 then false
      else begin
        w.rseq.(!slot) <- seq;
        w.rpay.(!slot) <- payload;
        true
      end
    end

  (** Receiver side: take the buffered payload for [seq], freeing its
      slot. *)
  let rbuf_take w ~seq =
    let s = slot_of_rseq w seq in
    if s < 0 then None
    else begin
      let p = w.rpay.(s) in
      w.rseq.(s) <- -1;
      w.rpay.(s) <- no_payload;
      Some p
    end

  (** Selective-ack bitmap for everything buffered above [cum]: bit [j]
      set means sequence [cum + 1 + j] is held. *)
  let sack_bits w ~cum =
    let bits = ref 0 in
    for i = 0 to w.cap - 1 do
      let s = w.rseq.(i) in
      if s > cum && s - cum - 1 < 32 then bits := !bits lor (1 lsl (s - cum - 1))
    done;
    !bits
end

(** One entry of the causal ledger: a delivered message's identity
    [(src, dst, seq)] with the wall-clock times, open span ids and
    domain slots of its send and accept.  Kept strictly {e off the
    wire} — never serialized, hashed, or consulted by protocol logic —
    so recording flows cannot perturb transcript digests or RNG
    splitting.  Populated only while tracing is enabled; the exporters
    turn it into Perfetto flow arrows. *)
type flow = {
  fl_src : int;
  fl_dst : int;
  fl_seq : int;
  fl_step : string;
  fl_bytes : int; (* payload bytes (logical) *)
  fl_send_us : float;
  fl_recv_us : float;
  fl_send_span : int;
  fl_recv_span : int;
  fl_send_slot : int;
  fl_recv_slot : int;
}

(** Physical traffic of one directed link. *)
type link = {
  lk_src : int;
  lk_dst : int;
  lk_msgs : int; (* wire touches, retransmissions included *)
  lk_bytes : int;
  lk_retrans : int;
}

(* One posted message awaiting flush, with the causal-ledger send
   endpoint captured at post (only while tracing). *)
type pending = {
  pd_ticket : int;
  pd_src : int;
  pd_dst : int;
  pd_seq : int;
  pd_payload : Bytes.t;
  pd_send_us : float;
  pd_send_span : int;
  pd_send_slot : int;
}

type t = {
  n : int;
  faults : Faultplan.t option;
  retry_budget : int; (* retransmissions allowed per message *)
  rto : int; (* retransmission timeout per attempt, simulated ticks *)
  wins : Window.w array array; (* per-directed-link sliding windows *)
  mutable kill_after : int; (* abort injection: -1 disabled *)
  send_seq : int array array; (* next seq to assign, per (src, dst) *)
  recv_seq : int array array; (* next seq expected, per (src, dst) *)
  fault_draws : int array array; (* fault-plan draws consumed, per (src, dst) *)
  mutable posted : pending list; (* awaiting flush, newest first *)
  mutable posted_n : int;
  st : stats;
  phys_sent : int array; (* physical bytes out, per party *)
  phys_received : int array;
  link_msgs : int array array; (* wire touches, per (src, dst) *)
  link_bytes : int array array;
  link_retrans : int array array;
  retrans_by_src : int array; (* retransmissions charged to the sender *)
  env_by_src : int array; (* envelope-overhead bytes, per sender *)
  flight : Flightrec.t; (* always-on recent-event ring, per party *)
  mutable flows_rev : flow list; (* causal ledger; tracing-gated *)
  mutable step : string;
  mutable round_rev : Netsim.message list; (* current step's attempts *)
  mutable rounds_rev : (string * Netsim.message list) list;
  mutable recent_rev : string list; (* rolling cross-link event log *)
  mutable recent_len : int;
  mutable digest : Bytes.t; (* chained transcript digest *)
}

let recent_cap = 32

let create ?faults ?(retry_budget = 8) ?(flight_cap = Flightrec.default_capacity)
    ?window ?(kill_after = -1) ~n () =
  let ws = Option.value ~default:winspec_default window in
  {
    n;
    faults;
    retry_budget;
    rto = ws.ws_rto;
    wins =
      Array.init n (fun _ -> Array.init n (fun _ -> Window.create ws.ws_window));
    kill_after;
    send_seq = Array.make_matrix n n 0;
    recv_seq = Array.make_matrix n n 0;
    fault_draws = Array.make_matrix n n 0;
    posted = [];
    posted_n = 0;
    st =
      {
        retransmits = 0;
        drops = 0;
        crc_rejects = 0;
        dup_suppressed = 0;
        reorders = 0;
        delays = 0;
        backoff_ticks = 0;
        phys_messages = 0;
        phys_bytes = 0;
        acks_sent = 0;
        ack_bytes = 0;
        sim_ticks = 0;
      };
    phys_sent = Array.make n 0;
    phys_received = Array.make n 0;
    link_msgs = Array.make_matrix n n 0;
    link_bytes = Array.make_matrix n n 0;
    link_retrans = Array.make_matrix n n 0;
    retrans_by_src = Array.make n 0;
    env_by_src = Array.make n 0;
    flight = Flightrec.create ~parties:n ~capacity:flight_cap ();
    flows_rev = [];
    step = "init";
    round_rev = [];
    rounds_rev = [];
    recent_rev = [];
    recent_len = 0;
    digest = Sha256.digest_string "ppgr-transcript-v1";
  }

let stats t = t.st
let phys_sent t = Array.copy t.phys_sent
let phys_received t = Array.copy t.phys_received
let retrans_by_src t = Array.copy t.retrans_by_src
let env_bytes_by_src t = Array.copy t.env_by_src
let flight t = t.flight
let transcript_sha t = Sha256.hex_of_digest t.digest

(** The causal ledger in accept order (empty unless tracing was enabled
    during the run). *)
let flows t = List.rev t.flows_rev

(** Render ledger entries as exporter flow arrows (ids are positions in
    the list — unique within one trace). *)
let flows_to_export (fls : flow list) : Ppgr_obs.Export.flow list =
  List.mapi
    (fun i fl ->
      {
        Ppgr_obs.Export.flow_name = "msg." ^ fl.fl_step;
        flow_id = i;
        flow_src_slot = fl.fl_send_slot;
        flow_dst_slot = fl.fl_recv_slot;
        flow_send_us = fl.fl_send_us;
        flow_recv_us = fl.fl_recv_us;
        flow_args =
          [
            ("src", Trace.Int fl.fl_src);
            ("dst", Trace.Int fl.fl_dst);
            ("seq", Trace.Int fl.fl_seq);
            ("bytes", Trace.Int fl.fl_bytes);
            ("send_span", Trace.Int fl.fl_send_span);
            ("recv_span", Trace.Int fl.fl_recv_span);
          ];
      })
    fls

(** Per-directed-link physical traffic, links that carried anything,
    row-major.  Sums to [stats]' [phys_messages]/[phys_bytes] — a
    tiling the CLI checks. *)
let links t =
  let out = ref [] in
  for src = t.n - 1 downto 0 do
    for dst = t.n - 1 downto 0 do
      if t.link_msgs.(src).(dst) > 0 then
        out :=
          {
            lk_src = src;
            lk_dst = dst;
            lk_msgs = t.link_msgs.(src).(dst);
            lk_bytes = t.link_bytes.(src).(dst);
            lk_retrans = t.link_retrans.(src).(dst);
          }
          :: !out
    done
  done;
  !out

let now_us () = Unix.gettimeofday () *. 1e6

(** Close the current step's physical round.  Called by the runtime at
    every protocol-step boundary so the schedule mirrors the protocol
    steps, retransmissions included. *)
let begin_step t step =
  if t.round_rev <> [] then
    t.rounds_rev <- (t.step, List.rev t.round_rev) :: t.rounds_rev;
  t.round_rev <- [];
  Flightrec.set_step t.flight step;
  t.step <- step

(** The physical message log as a {!Netsim.schedule}: one round per
    protocol step (compute time is not this layer's concern). *)
let net_rounds t =
  let closed = if t.round_rev = [] then [] else [ (t.step, List.rev t.round_rev) ] in
  List.rev_map
    (fun (_, msgs) -> { Netsim.compute_s = 0.; messages = msgs })
    (closed @ t.rounds_rev)

let note t ev =
  t.recent_rev <- ev :: t.recent_rev;
  t.recent_len <- t.recent_len + 1;
  if t.recent_len > 2 * recent_cap then begin
    (* Amortized trim: keep the newest [recent_cap]. *)
    let rec take k = function
      | x :: tl when k > 0 -> x :: take (k - 1) tl
      | _ -> []
    in
    t.recent_rev <- take recent_cap t.recent_rev;
    t.recent_len <- recent_cap
  end

(* Every wire touch: per-party and per-link physical tallies, the
   message-size histogram and the sender's flight-recorder entry, plus
   the chained transcript digest (corrupted copies hash as transmitted,
   so the digest pins the exact fault schedule too).  [seq] feeds only
   the flight recorder; limbo flushes of held stale copies pass -1. *)
let transmit t ~src ~dst ~seq (wire_bytes : Bytes.t) =
  let len = Bytes.length wire_bytes in
  t.st.phys_messages <- t.st.phys_messages + 1;
  t.st.phys_bytes <- t.st.phys_bytes + len;
  t.phys_sent.(src) <- t.phys_sent.(src) + len;
  t.phys_received.(dst) <- t.phys_received.(dst) + len;
  t.link_msgs.(src).(dst) <- t.link_msgs.(src).(dst) + 1;
  t.link_bytes.(src).(dst) <- t.link_bytes.(src).(dst) + len;
  t.env_by_src.(src) <- t.env_by_src.(src) + Wire.envelope_overhead;
  Hist.record Hist.msg_bytes len;
  Flightrec.record t.flight ~party:src Flightrec.Send ~src ~dst ~seq ~info:len;
  t.round_rev <- { Netsim.src; dst; bytes = len } :: t.round_rev;
  let ctx = Sha256.init () in
  Sha256.feed_bytes ctx t.digest;
  Sha256.feed_bytes ctx wire_bytes;
  t.digest <- Sha256.finalize ctx

(* Every fault-plan draw goes through here so the per-link draw counts
   are part of the persistable state: a resumed run fast-forwards a
   fresh plan to exactly this position and faces the same schedule. *)
let draw_fault t ~src ~dst =
  t.fault_draws.(src).(dst) <- t.fault_draws.(src).(dst) + 1;
  match t.faults with None -> Faultplan.Deliver | Some p -> Faultplan.next p ~src ~dst

(* The one abort: forensics for message [seq] on [src]->[dst] after
   [attempts] attempts whose outcomes are [events], newest first. *)
let party_dropped t ~src ~dst ~seq ~attempts events =
  Party_dropped
    {
      fr_step = t.step;
      fr_src = src;
      fr_dst = dst;
      fr_seq = seq;
      fr_attempts = attempts;
      fr_events = List.rev events;
      fr_recent = List.rev t.recent_rev;
      fr_flight = Flightrec.tail t.flight ~party:src;
      fr_digest = transcript_sha t;
    }

let retry_span t ~kind ~src ~dst ~seq ~attempt =
  if Trace.enabled () then
    Trace.instant
      ~attrs:
        [
          ("party", Trace.Int src);
          ("src", Trace.Int src);
          ("dst", Trace.Int dst);
          ("seq", Trace.Int seq);
          ("fault", Trace.Str kind);
          ("retries", Trace.Int 1);
        ]
      "runtime.retry";
  note t (Printf.sprintf "%s[%d->%d#%d@%d]" kind src dst seq attempt)

(** {1 The delivery engine}

    {!post} enqueues a message; {!flush} delivers everything posted
    since the last flush and returns the accepted payloads indexed by
    ticket.  Each directed link runs a deterministic discrete-event
    simulation: up to [window] sequences in flight, transmissions
    serialized on the link at one tick each, arrivals after one tick
    (plus any injected delay), a fixed [rto]-tick retransmission
    timeout per attempt, and cumulative + selective acks from the
    receiver.  Stop-and-wait is the [window=1] case.  Links are
    independent, so a flush's simulated elapsed time is its {e slowest
    link}, which {!stats}' [sim_ticks] accumulates.

    Determinism: fault draws stay keyed per (link, attempt) in per-link
    sequential order, links are processed in a fixed order, and event
    ties break on insertion order — the transcript digest is a pure
    function of seed and spec at any job count.  Each protocol step
    posts at most one message per directed link, so no link ever holds
    more than one frame in flight and the window size changes nothing.

    Acks are control-plane traffic on a clean reverse channel: counted
    in [acks_sent]/[ack_bytes], never faulted, and kept off the data
    transcript digest and the per-link physical tallies (so the
    [retransmits = injected faults] and tiling invariants hold). *)

let post t ~src ~dst (payload : Bytes.t) =
  let ticket = t.posted_n in
  t.posted_n <- t.posted_n + 1;
  let seq = t.send_seq.(src).(dst) in
  t.send_seq.(src).(dst) <- seq + 1;
  (* Causal-ledger send endpoint, captured where the protocol decided
     to send.  Tracing off → no clock reads. *)
  let tracing = Trace.enabled () in
  t.posted <-
    {
      pd_ticket = ticket;
      pd_src = src;
      pd_dst = dst;
      pd_seq = seq;
      pd_payload = payload;
      pd_send_us = (if tracing then now_us () else 0.);
      pd_send_span = (if tracing then Trace.current_span_id () else -1);
      pd_send_slot = (if tracing then Ppgr_exec.Meter.slot () else 0);
    }
    :: t.posted;
  ticket

(* Deterministic discrete-event delivery of one link's posted batch
   under its sliding window.  [batch] is in post (= sequence) order;
   accepted payloads land in [out] at the same indices.  Returns the
   link-local elapsed ticks. *)
let run_link t ~src ~dst (batch : pending array) (out : Bytes.t array) =
  let w = t.wins.(src).(dst) in
  let k = Array.length batch in
  let seq0 = batch.(0).pd_seq in
  let envs =
    Array.map
      (fun p -> Wire.encode_envelope ~src ~dst ~seq:p.pd_seq p.pd_payload)
      batch
  in
  let events_log = Array.make k [] in
  let accepted = ref 0 in
  let next_tx = ref 0 in
  let wire_free = ref 0 in
  let time = ref 0 in
  let finish_time = ref 0 in
  let serial = ref 0 in
  (* Reordered envelopes held back on this link, newest first.  Each is
     a copy of a message not yet accepted, so the accept that completes
     the batch has flushed them all: limbo never outlives its flush. *)
  let limbo = ref [] in
  (* Pending arrivals (time, insertion serial, wire bytes), kept
     sorted; ties break on insertion order. *)
  let arrivals = ref [] in
  let add_arrival at bytes =
    incr serial;
    let s = !serial in
    let e = (at, s, bytes) in
    let rec ins = function
      | ((t0, s0, _) as h) :: tl when t0 < at || (t0 = at && s0 < s) -> h :: ins tl
      | rest -> e :: rest
    in
    arrivals := ins !arrivals
  in
  (* One delivery attempt of batch index [idx] (window slot [slot]) no
     earlier than [at]; transmissions serialize on the link wire at one
     tick each. *)
  let transmit_attempt slot idx ~at =
    let seq = batch.(idx).pd_seq in
    let attempt = w.Window.attempts.(slot) - 1 in
    (* Deterministic abort injection for the restart battery: once the
       physical transmission count reaches [kill_after], the next
       attempt raises {!Party_dropped} instead of touching the wire. *)
    if t.kill_after >= 0 && t.st.phys_messages >= t.kill_after then
      raise
        (party_dropped t ~src ~dst ~seq ~attempts:attempt
           ("killed" :: events_log.(idx)));
    let tx = Stdlib.max at !wire_free in
    wire_free := tx + 1;
    let send_copy bytes ~arrive =
      transmit t ~src ~dst ~seq bytes;
      add_arrival arrive bytes
    in
    let fault kind event =
      retry_span t ~kind ~src ~dst ~seq ~attempt;
      events_log.(idx) <- event :: events_log.(idx)
    in
    let delay =
      match draw_fault t ~src ~dst with
      | Faultplan.Deliver ->
          send_copy envs.(idx) ~arrive:(tx + 1);
          0
      | Faultplan.Drop ->
          t.st.drops <- t.st.drops + 1;
          fault "drop" "drop";
          0
      | Faultplan.Corrupt c ->
          (* The damaged copy occupies the wire; the receiver's CRC
             check turns it into a loss the sender times out on. *)
          send_copy (Faultplan.apply_corruption c envs.(idx)) ~arrive:(tx + 1);
          fault "corrupt" "corrupt";
          0
      | Faultplan.Duplicate ->
          (* The second copy follows on the wire and arrives stale. *)
          send_copy envs.(idx) ~arrive:(tx + 1);
          wire_free := tx + 2;
          send_copy envs.(idx) ~arrive:(tx + 2);
          fault "duplicate" "duplicate";
          0
      | Faultplan.Reorder ->
          (* Held in link limbo until the next accept on this link,
             where it arrives stale; for the sender it is a timeout. *)
          t.st.reorders <- t.st.reorders + 1;
          limbo := envs.(idx) :: !limbo;
          fault "reorder" "reorder";
          0
      | Faultplan.Delay d ->
          t.st.delays <- t.st.delays + 1;
          send_copy envs.(idx) ~arrive:(tx + 1 + d);
          fault "delay" (Printf.sprintf "delay:%d" d);
          d
    in
    (* The timer arms from the attempt's expected arrival; an injected
       delay extends it, so delays cost link-clock ticks but never
       provoke a retransmission. *)
    w.Window.timer.(slot) <- tx + 1 + delay + t.rto
  in
  let send_ack () =
    let cum = t.recv_seq.(src).(dst) in
    let bits = Window.sack_bits w ~cum in
    let frame =
      Wire.encode_ack
        { Wire.ack_src = dst; ack_dst = src; ack_cum = cum; ack_sack = bits }
    in
    t.st.acks_sent <- t.st.acks_sent + 1;
    t.st.ack_bytes <- t.st.ack_bytes + Bytes.length frame;
    (* Control-plane delivery is immediate and fault-free (a clean
       reverse channel keeps retransmits = injected faults); the codec
       round-trips on every ack all the same. *)
    let a = Wire.decode_ack frame in
    Window.ack_cum w ~cum:a.Wire.ack_cum;
    for j = 0 to 31 do
      if a.Wire.ack_sack land (1 lsl j) <> 0 then
        Window.sack w ~seq:(a.Wire.ack_cum + 1 + j)
    done
  in
  let accept seq payload =
    out.(seq - seq0) <- payload;
    incr accepted;
    t.recv_seq.(src).(dst) <- seq + 1;
    Flightrec.record t.flight ~party:dst Flightrec.Receive ~src ~dst ~seq
      ~info:(Bytes.length payload);
    (* Causal-ledger accept endpoint: after every retransmission the
       fault schedule demanded, so the arrow's extent is the message's
       true delivery latency. *)
    if Trace.enabled () then begin
      let p = batch.(seq - seq0) in
      t.flows_rev <-
        {
          fl_src = src;
          fl_dst = dst;
          fl_seq = seq;
          fl_step = t.step;
          fl_bytes = Bytes.length payload;
          fl_send_us = p.pd_send_us;
          fl_recv_us = now_us ();
          fl_send_span = p.pd_send_span;
          fl_recv_span = Trace.current_span_id ();
          fl_send_slot = p.pd_send_slot;
          fl_recv_slot = Ppgr_exec.Meter.slot ();
        }
        :: t.flows_rev
    end
  in
  (* The receiver: validate the envelope, suppress stale sequence
     numbers, accept in order, buffer within the window. *)
  let rec process_arrival at bytes =
    match Wire.decode_envelope bytes with
    | exception Wire.Malformed _ ->
        t.st.crc_rejects <- t.st.crc_rejects + 1;
        Flightrec.record t.flight ~party:dst Flightrec.Crc_reject ~src ~dst
          ~seq:(-1) ~info:(Bytes.length bytes)
    | env when env.Wire.env_src <> src || env.Wire.env_dst <> dst ->
        (* A CRC-valid envelope on the wrong link: misrouted; refuse. *)
        t.st.crc_rejects <- t.st.crc_rejects + 1;
        Flightrec.record t.flight ~party:dst Flightrec.Crc_reject ~src ~dst
          ~seq:env.Wire.env_seq ~info:(Bytes.length bytes)
    | env ->
        let expected = t.recv_seq.(src).(dst) in
        let seq = env.Wire.env_seq in
        if seq < expected then t.st.dup_suppressed <- t.st.dup_suppressed + 1
        else if seq = expected then begin
          accept seq env.Wire.env_payload;
          (* Drain any buffered successors the gap was holding back. *)
          let rec drain_rbuf () =
            let nxt = t.recv_seq.(src).(dst) in
            match Window.rbuf_take w ~seq:nxt with
            | Some p ->
                accept nxt p;
                drain_rbuf ()
            | None -> ()
          in
          drain_rbuf ();
          if at > !finish_time then finish_time := at;
          send_ack ();
          (* Held reordered copies arrive once something has made it
             through the link. *)
          let held = List.rev !limbo in
          limbo := [];
          List.iter
            (fun env ->
              transmit t ~src ~dst ~seq:(-1) env;
              process_arrival at env)
            held
        end
        else if seq < expected + w.Window.cap then begin
          (* Out of order but in window: buffer and selectively ack. *)
          if Window.slot_of_rseq w seq >= 0 then
            t.st.dup_suppressed <- t.st.dup_suppressed + 1
          else begin
            ignore (Window.rbuf_put w ~seq env.Wire.env_payload);
            send_ack ()
          end
        end
        else
          raise
            (Wire.Malformed
               (Printf.sprintf
                  "sequence %d beyond the receive window on link %d->%d \
                   (expected %d, window %d)"
                  seq src dst expected w.Window.cap))
  in
  while !accepted < k do
    (* Admit first transmissions while the window has room. *)
    let admitting = ref true in
    while !admitting && !next_tx < k do
      let idx = !next_tx in
      let slot = Window.push w ~seq:batch.(idx).pd_seq in
      if slot < 0 then admitting := false
      else begin
        incr next_tx;
        Hist.record Hist.window_occupancy (Window.occupancy w);
        transmit_attempt slot idx ~at:!time
      end
    done;
    (* Earliest event: a pending arrival or an armed timer. *)
    let ta = match !arrivals with [] -> max_int | (t0, _, _) :: _ -> t0 in
    let tslot = Window.next_timer w in
    let tt = if tslot < 0 then max_int else w.Window.timer.(tslot) in
    if ta = max_int && tt = max_int then
      failwith "Transport.flush: delivery engine stalled"
    else if ta <= tt then begin
      match !arrivals with
      | [] -> assert false
      | (at, _, bytes) :: tl ->
          arrivals := tl;
          if at > !time then time := at;
          process_arrival at bytes
    end
    else begin
      (* Retransmission timeout: selective retransmit of that slot. *)
      time := tt;
      let idx = w.Window.seq.(tslot) - seq0 in
      let seq = batch.(idx).pd_seq in
      let attempts = w.Window.attempts.(tslot) in
      if attempts > t.retry_budget then begin
        if Trace.enabled () then
          Trace.instant
            ~attrs:
              [
                ("party", Trace.Int src);
                ("src", Trace.Int src);
                ("dst", Trace.Int dst);
                ("seq", Trace.Int seq);
                ("attempts", Trace.Int attempts);
                ("step", Trace.Str t.step);
              ]
            "runtime.party_dropped";
        raise (party_dropped t ~src ~dst ~seq ~attempts events_log.(idx))
      end;
      t.st.retransmits <- t.st.retransmits + 1;
      t.retrans_by_src.(src) <- t.retrans_by_src.(src) + 1;
      t.link_retrans.(src).(dst) <- t.link_retrans.(src).(dst) + 1;
      t.st.backoff_ticks <- t.st.backoff_ticks + t.rto;
      Hist.record Hist.backoff_ticks t.rto;
      Flightrec.record t.flight ~party:src Flightrec.Retransmit ~src ~dst ~seq
        ~info:attempts;
      w.Window.attempts.(tslot) <- attempts + 1;
      transmit_attempt tslot idx ~at:!time
    end
  done;
  assert (!limbo = []);
  Stdlib.max !wire_free !finish_time

(** Deliver everything posted since the last flush; the result array is
    indexed by ticket.  A flush's simulated elapsed time is the maximum
    over its links (they run concurrently), added to [sim_ticks]. *)
let flush t =
  let out = Array.make t.posted_n Window.no_payload in
  let posted = List.rev t.posted in
  let step_elapsed = ref 0 in
  for src = 0 to t.n - 1 do
    for dst = 0 to t.n - 1 do
      let batch =
        Array.of_list (List.filter (fun p -> p.pd_src = src && p.pd_dst = dst) posted)
      in
      if Array.length batch > 0 then begin
        let lout = Array.make (Array.length batch) Window.no_payload in
        let elapsed = run_link t ~src ~dst batch lout in
        Array.iteri (fun i p -> out.(p.pd_ticket) <- Bytes.copy lout.(i)) batch;
        if elapsed > !step_elapsed then step_elapsed := elapsed
      end
    done
  done;
  t.st.sim_ticks <- t.st.sim_ticks + !step_elapsed;
  t.posted <- [];
  t.posted_n <- 0;
  out

(** {1 Checkpoint persistence}

    {!persist} captures the transport's complete delivery state as the
    plain-data {!Wire.transport_snap}; {!restore} rebuilds a transport
    from one, fast-forwarding a fresh fault plan to the persisted
    schedule position so the resumed run faces exactly the draws the
    original would have.  The flight recorder restarts empty (it is
    diagnostics, not protocol state); everything that feeds the
    transcript digest, the physical tallies and the replayable
    [net_rounds] round-trips exactly. *)

let persist t : Wire.transport_snap =
  let mat m = Array.map Array.copy m in
  let to_triples msgs =
    List.map (fun m -> (m.Netsim.src, m.Netsim.dst, m.Netsim.bytes)) msgs
  in
  let st = t.st in
  {
    Wire.ts_n = t.n;
    ts_send_seq = mat t.send_seq;
    ts_recv_seq = mat t.recv_seq;
    ts_counters =
      [|
        st.retransmits;
        st.drops;
        st.crc_rejects;
        st.dup_suppressed;
        st.reorders;
        st.delays;
        st.backoff_ticks;
        st.phys_messages;
        st.phys_bytes;
        st.acks_sent;
        st.ack_bytes;
        st.sim_ticks;
      |];
    ts_phys_sent = Array.copy t.phys_sent;
    ts_phys_received = Array.copy t.phys_received;
    ts_retrans_by_src = Array.copy t.retrans_by_src;
    ts_env_by_src = Array.copy t.env_by_src;
    ts_link_msgs = mat t.link_msgs;
    ts_link_bytes = mat t.link_bytes;
    ts_link_retrans = mat t.link_retrans;
    ts_fault_draws = mat t.fault_draws;
    ts_digest = Bytes.copy t.digest;
    ts_step = t.step;
    ts_rounds = List.rev_map (fun (name, msgs) -> (name, to_triples msgs)) t.rounds_rev;
    ts_round =
      List.rev_map (fun m -> (m.Netsim.src, m.Netsim.dst, m.Netsim.bytes)) t.round_rev;
  }

let restore ?faults ?(retry_budget = 8) ?(flight_cap = Flightrec.default_capacity)
    ?window ?(kill_after = -1) (snap : Wire.transport_snap) =
  let n = snap.Wire.ts_n in
  let t = create ?faults ~retry_budget ~flight_cap ?window ~kill_after ~n () in
  let copy_mat dst src = Array.iteri (fun i row -> Array.blit src.(i) 0 row 0 n) dst in
  copy_mat t.send_seq snap.Wire.ts_send_seq;
  copy_mat t.recv_seq snap.Wire.ts_recv_seq;
  let c = snap.Wire.ts_counters in
  if Array.length c <> Wire.n_counters then
    invalid_arg "Transport.restore: bad counter vector";
  t.st.retransmits <- c.(0);
  t.st.drops <- c.(1);
  t.st.crc_rejects <- c.(2);
  t.st.dup_suppressed <- c.(3);
  t.st.reorders <- c.(4);
  t.st.delays <- c.(5);
  t.st.backoff_ticks <- c.(6);
  t.st.phys_messages <- c.(7);
  t.st.phys_bytes <- c.(8);
  t.st.acks_sent <- c.(9);
  t.st.ack_bytes <- c.(10);
  t.st.sim_ticks <- c.(11);
  Array.blit snap.Wire.ts_phys_sent 0 t.phys_sent 0 n;
  Array.blit snap.Wire.ts_phys_received 0 t.phys_received 0 n;
  Array.blit snap.Wire.ts_retrans_by_src 0 t.retrans_by_src 0 n;
  Array.blit snap.Wire.ts_env_by_src 0 t.env_by_src 0 n;
  copy_mat t.link_msgs snap.Wire.ts_link_msgs;
  copy_mat t.link_bytes snap.Wire.ts_link_bytes;
  copy_mat t.link_retrans snap.Wire.ts_link_retrans;
  t.digest <- Bytes.copy snap.Wire.ts_digest;
  t.step <- snap.Wire.ts_step;
  Flightrec.set_step t.flight snap.Wire.ts_step;
  t.rounds_rev <-
    List.rev_map
      (fun (name, ms) ->
        (name, List.map (fun (src, dst, bytes) -> { Netsim.src; dst; bytes }) ms))
      snap.Wire.ts_rounds;
  t.round_rev <-
    List.rev_map (fun (src, dst, bytes) -> { Netsim.src; dst; bytes }) snap.Wire.ts_round;
  (* Fast-forward the fault plan to the persisted schedule position:
     the per-link draw counts make the resumed schedule a pure function
     of the original seed. *)
  (match t.faults with
  | None -> ()
  | Some p ->
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          for _ = 1 to snap.Wire.ts_fault_draws.(src).(dst) do
            ignore (Faultplan.next p ~src ~dst)
          done
        done
      done);
  copy_mat t.fault_draws snap.Wire.ts_fault_draws;
  t
