(** Reliable delivery over a lossy link layer, between {!Runtime}'s
    parties and {!Ppgr_mpcnet.Faultplan}'s fault schedule.

    The fault-free driver delivered every message immediately and in
    order.  This transport keeps the same synchronous interface — a
    {!send} returns the payload exactly as the receiver accepted it —
    but earns it: every payload travels in a {!Wire.tag_envelope}
    envelope carrying a per-directed-link sequence number and a CRC-32,
    and each delivery attempt is submitted to the fault plan, which may
    drop it, flip a byte, duplicate it, hold it for reordering, or
    delay it.  Recovery is timeout/retransmit with capped exponential
    backoff (accounted in simulated ticks — the driver never sleeps),
    duplicate and stale arrivals are suppressed by sequence number, and
    a sender that exhausts its retry budget raises the typed
    {!Party_dropped} abort carrying forensics instead of hanging.

    Accounting is two-level: {e logical} (one message per [send], the
    payload's bytes — the protocol-analysis view the rest of the repo
    reports) stays with the caller; this module owns the {e physical}
    level — every attempt that touches the wire, envelope overhead and
    retransmissions included, tallied per party, per directed link (as
    a {!Ppgr_mpcnet.Netsim.schedule} round per protocol step), and
    folded into a running transcript digest.

    Determinism: the fault schedule is keyed by (link, attempt), the
    protocol bytes are identical at any job count, and this driver runs
    message-at-a-time, so the physical transcript — and hence the
    digest — is byte-identical at [jobs=1] and [jobs=k]. *)

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
  mutable backoff_ticks : int; (* simulated retransmit-timer ticks *)
  mutable phys_messages : int; (* everything that touched the wire *)
  mutable phys_bytes : int;
  mutable acks_sent : int; (* windowed control plane: ack frames emitted *)
  mutable ack_bytes : int;
  mutable sim_ticks : int;
      (* simulated wall clock: stop-and-wait serializes every attempt,
         wait and delay; the windowed engine overlaps them per link and
         charges each step only its slowest link *)
}

(** {1 Window configuration}

    A [Faultplan.spec]-style grammar for the per-link sliding window:
    ["window=8,rto=4,link-1-2=16"] sets a default window of 8 in-flight
    sequences per directed link, a retransmission timeout of 4 simulated
    ticks, and an override of 16 on link 1->2.  [window=1] (the
    default) keeps the PR 5 stop-and-wait engine byte-for-byte: the
    pipelined engine only engages when some link's window exceeds 1. *)

type winspec = {
  ws_window : int; (* default in-flight cap per directed link, >= 1 *)
  ws_rto : int; (* retransmission timeout, simulated ticks *)
  ws_links : ((int * int) * int) list; (* per-link overrides, (src,dst) *)
}

(* The selective-ack bitmap is 32 bits, so a window never exceeds 32. *)
let max_window = 32

let winspec_default = { ws_window = 1; ws_rto = 4; ws_links = [] }

let winspec_of_string s =
  let check_window what w =
    if w < 1 || w > max_window then
      invalid_arg
        (Printf.sprintf "Transport.winspec: %s=%d out of [1,%d]" what w max_window)
  in
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
          check_window "window" w;
          { spec with ws_window = w }
        end
        else if key = "rto" then begin
          let r = int () in
          if r < 1 then invalid_arg "Transport.winspec: rto must be >= 1";
          { spec with ws_rto = r }
        end
        else if String.length key > 5 && String.sub key 0 5 = "link-" then begin
          match String.split_on_char '-' key with
          | [ "link"; src; dst ] -> (
              match (int_of_string_opt src, int_of_string_opt dst) with
              | Some src, Some dst when src >= 0 && dst >= 0 ->
                  let w = int () in
                  check_window key w;
                  { spec with ws_links = spec.ws_links @ [ ((src, dst), w) ] }
              | _ -> invalid_arg ("Transport.winspec: bad link key " ^ key))
          | _ -> invalid_arg ("Transport.winspec: bad link key " ^ key)
        end
        else invalid_arg ("Transport.winspec: unknown key " ^ key)
  in
  let fields =
    List.filter (fun f -> f <> "") (String.split_on_char ',' (String.trim s))
  in
  List.fold_left parse_field winspec_default fields

let winspec_to_string ws =
  String.concat ","
    ([ Printf.sprintf "window=%d" ws.ws_window; Printf.sprintf "rto=%d" ws.ws_rto ]
    @ List.map
        (fun ((src, dst), w) -> Printf.sprintf "link-%d-%d=%d" src dst w)
        ws.ws_links)

(** Effective window of one directed link under a spec. *)
let winspec_window ws ~src ~dst =
  match List.assoc_opt (src, dst) ws.ws_links with
  | Some w -> w
  | None -> ws.ws_window

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

(* One message posted into the pipelined engine, awaiting flush. *)
type pending = {
  pd_ticket : int;
  pd_src : int;
  pd_dst : int;
  pd_seq : int;
  pd_payload : Bytes.t;
}

type t = {
  n : int;
  faults : Faultplan.t option;
  retry_budget : int; (* retransmissions allowed per message *)
  backoff_base : int;
  backoff_cap : int;
  rto : int; (* windowed retransmission timeout, simulated ticks *)
  wins : Window.w array array option; (* per-link windows; None = stop-and-wait *)
  mutable kill_after : int; (* abort injection: -1 disabled *)
  send_seq : int array array; (* next seq to assign, per (src, dst) *)
  recv_seq : int array array; (* next seq expected, per (src, dst) *)
  fault_draws : int array array; (* fault-plan draws consumed, per (src, dst) *)
  limbo : (int, Bytes.t list) Hashtbl.t; (* held (reordered) envelopes *)
  mutable posted : pending list; (* pipelined engine: newest first *)
  mutable posted_n : int;
  mutable batch_res : (int * Bytes.t) list; (* stop-and-wait post results *)
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

let create ?faults ?(retry_budget = 8) ?(backoff_base = 1)
    ?(backoff_cap = 64) ?(flight_cap = Flightrec.default_capacity) ?window
    ?(kill_after = -1) ~n () =
  let ws = Option.value ~default:winspec_default window in
  let windowed =
    ws.ws_window > 1 || List.exists (fun (_, w) -> w > 1) ws.ws_links
  in
  {
    n;
    faults;
    retry_budget;
    backoff_base;
    backoff_cap;
    rto = ws.ws_rto;
    wins =
      (if windowed then
         Some
           (Array.init n (fun src ->
                Array.init n (fun dst ->
                    Window.create (winspec_window ws ~src ~dst))))
       else None);
    kill_after;
    send_seq = Array.make_matrix n n 0;
    recv_seq = Array.make_matrix n n 0;
    fault_draws = Array.make_matrix n n 0;
    limbo = Hashtbl.create 7;
    posted = [];
    posted_n = 0;
    batch_res = [];
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

(** Whether the pipelined windowed engine is engaged (some link's
    window exceeds 1).  When false, {!post}/{!flush} degrade to the
    stop-and-wait {!send} — byte-identical to PR 5. *)
let is_windowed t = t.wins <> None

let phys_sent t = Array.copy t.phys_sent
let phys_received t = Array.copy t.phys_received
let retrans_by_src t = Array.copy t.retrans_by_src
let env_bytes_by_src t = Array.copy t.env_by_src
let flight t = t.flight
let transcript_sha t = Sha256.hex_of_digest t.digest

(** The causal ledger in send order (empty unless tracing was enabled
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
   so the digest pins the exact fault schedule too).  [seq] is known at
   every call site except limbo/drain flushes of held stale copies
   (passed as -1 there); it feeds only the flight recorder. *)
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
  (* Stop-and-wait charges every wire touch one serialized tick; the
     windowed engine accounts elapsed time per link instead. *)
  if t.wins = None then t.st.sim_ticks <- t.st.sim_ticks + 1;
  let ctx = Sha256.init () in
  Sha256.feed_bytes ctx t.digest;
  Sha256.feed_bytes ctx wire_bytes;
  t.digest <- Sha256.finalize ctx

(* Receiver logic: validate the envelope, suppress stale sequence
   numbers.  Returns the accepted payload, or None when the arrival was
   discarded (corrupt or duplicate). *)
let receive t ~src ~dst (wire_bytes : Bytes.t) =
  match Wire.decode_envelope wire_bytes with
  | exception Wire.Malformed _ ->
      t.st.crc_rejects <- t.st.crc_rejects + 1;
      Flightrec.record t.flight ~party:dst Flightrec.Crc_reject ~src ~dst ~seq:(-1)
        ~info:(Bytes.length wire_bytes);
      None
  | env ->
      if env.Wire.env_src <> src || env.Wire.env_dst <> dst then begin
        (* A CRC-valid envelope on the wrong link: misrouted; refuse. *)
        t.st.crc_rejects <- t.st.crc_rejects + 1;
        Flightrec.record t.flight ~party:dst Flightrec.Crc_reject ~src ~dst
          ~seq:env.Wire.env_seq ~info:(Bytes.length wire_bytes);
        None
      end
      else if env.Wire.env_seq < t.recv_seq.(src).(dst) then begin
        t.st.dup_suppressed <- t.st.dup_suppressed + 1;
        None
      end
      else if env.Wire.env_seq > t.recv_seq.(src).(dst) then
        (* Unreachable with a per-link-sequential sender; a real async
           receiver would buffer.  Refuse loudly rather than mis-order. *)
        raise
          (Wire.Malformed
             (Printf.sprintf "future sequence %d on link %d->%d (expected %d)"
                env.Wire.env_seq src dst
                t.recv_seq.(src).(dst)))
      else begin
        t.recv_seq.(src).(dst) <- env.Wire.env_seq + 1;
        Flightrec.record t.flight ~party:dst Flightrec.Receive ~src ~dst
          ~seq:env.Wire.env_seq
          ~info:(Bytes.length env.Wire.env_payload);
        Some env.Wire.env_payload
      end

let link_key ~src ~dst n = (src * n) + dst

(* Stale copies held for reordering arrive once something else makes it
   through the link; sequence numbers mark them as duplicates. *)
let flush_limbo t ~src ~dst =
  let k = link_key ~src ~dst t.n in
  match Hashtbl.find_opt t.limbo k with
  | None | Some [] -> ()
  | Some held ->
      Hashtbl.remove t.limbo k;
      List.iter
        (fun env ->
          transmit t ~src ~dst ~seq:(-1) env;
          match receive t ~src ~dst env with
          | None -> ()
          | Some _ ->
              (* Cannot happen: the held seq was already accepted via a
                 retransmission before anything newer went through. *)
              assert false)
        (List.rev held)

(* Every fault-plan draw goes through here so the per-link draw counts
   are part of the persistable state: a resumed run fast-forwards a
   fresh plan to exactly this position and faces the same schedule. *)
let draw_fault t ~src ~dst =
  t.fault_draws.(src).(dst) <- t.fault_draws.(src).(dst) + 1;
  match t.faults with None -> Faultplan.Deliver | Some p -> Faultplan.next p ~src ~dst

(* Deterministic abort injection for the restart battery: once the
   physical transmission count reaches [kill_after], the next delivery
   attempt raises {!Party_dropped} with a "killed" event instead of
   touching the wire. *)
let check_kill t ~src ~dst ~seq ~attempts ~events =
  if t.kill_after >= 0 && t.st.phys_messages >= t.kill_after then begin
    let f =
      {
        fr_step = t.step;
        fr_src = src;
        fr_dst = dst;
        fr_seq = seq;
        fr_attempts = attempts;
        fr_events = List.rev ("killed" :: events);
        fr_recent = List.rev t.recent_rev;
        fr_flight = Flightrec.tail t.flight ~party:src;
        fr_digest = transcript_sha t;
      }
    in
    raise (Party_dropped f)
  end

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

(** Deliver [payload] from [src] to [dst], reliably.  Returns the bytes
    the receiver accepted (a fresh copy).
    @raise Party_dropped when the retry budget is exhausted. *)
let send t ~src ~dst (payload : Bytes.t) =
  let seq = t.send_seq.(src).(dst) in
  t.send_seq.(src).(dst) <- seq + 1;
  let env = Wire.encode_envelope ~src ~dst ~seq payload in
  (* Causal ledger send endpoint, captured before any wire touch so the
     flow arrow starts where the protocol decided to send.  Tracing
     off → no ledger entry and no clock reads. *)
  let tracing = Trace.enabled () in
  let fl_send_us = if tracing then now_us () else 0. in
  let fl_send_span = if tracing then Trace.current_span_id () else -1 in
  let fl_send_slot = if tracing then Ppgr_exec.Meter.slot () else 0 in
  let events = ref [] in
  let result = ref None in
  let attempt = ref 0 in
  while !result = None do
    if !attempt > t.retry_budget then begin
      let f =
        {
          fr_step = t.step;
          fr_src = src;
          fr_dst = dst;
          fr_seq = seq;
          fr_attempts = !attempt;
          fr_events = List.rev !events;
          fr_recent = List.rev t.recent_rev;
          fr_flight = Flightrec.tail t.flight ~party:src;
          fr_digest = transcript_sha t;
        }
      in
      if Trace.enabled () then
        Trace.instant
          ~attrs:
            [
              ("party", Trace.Int src);
              ("src", Trace.Int src);
              ("dst", Trace.Int dst);
              ("seq", Trace.Int seq);
              ("attempts", Trace.Int !attempt);
              ("step", Trace.Str t.step);
            ]
          "runtime.party_dropped";
      raise (Party_dropped f)
    end;
    check_kill t ~src ~dst ~seq ~attempts:!attempt ~events:!events;
    if !attempt > 0 then begin
      t.st.retransmits <- t.st.retransmits + 1;
      t.retrans_by_src.(src) <- t.retrans_by_src.(src) + 1;
      t.link_retrans.(src).(dst) <- t.link_retrans.(src).(dst) + 1;
      (* Capped exponential backoff before a retransmission, accounted
         in simulated timer ticks. *)
      let wait =
        Stdlib.min t.backoff_cap (t.backoff_base lsl Stdlib.min 20 (!attempt - 1))
      in
      t.st.backoff_ticks <- t.st.backoff_ticks + wait;
      t.st.sim_ticks <- t.st.sim_ticks + wait;
      Hist.record Hist.backoff_ticks wait;
      Flightrec.record t.flight ~party:src Flightrec.Retransmit ~src ~dst ~seq
        ~info:!attempt
    end;
    let fault = draw_fault t ~src ~dst in
    let record kind = retry_span t ~kind ~src ~dst ~seq ~attempt:!attempt in
    let deliver wire =
      transmit t ~src ~dst ~seq wire;
      match receive t ~src ~dst wire with
      | Some p ->
          result := Some p;
          (* Accept endpoint of the causal arrow: after every
             retransmission the fault schedule demanded, so the arrow's
             extent is the message's true delivery latency. *)
          if tracing then
            t.flows_rev <-
              {
                fl_src = src;
                fl_dst = dst;
                fl_seq = seq;
                fl_step = t.step;
                fl_bytes = Bytes.length p;
                fl_send_us;
                fl_recv_us = now_us ();
                fl_send_span;
                fl_recv_span = Trace.current_span_id ();
                fl_send_slot;
                fl_recv_slot = Ppgr_exec.Meter.slot ();
              }
              :: t.flows_rev;
          flush_limbo t ~src ~dst
      | None -> ()
    in
    (match fault with
    | Faultplan.Deliver -> deliver env
    | Faultplan.Drop ->
        t.st.drops <- t.st.drops + 1;
        record "drop";
        events := "drop" :: !events
    | Faultplan.Corrupt c ->
        (* The damaged copy occupies the wire; the receiver's CRC check
           turns it into a drop the sender times out on. *)
        deliver (Faultplan.apply_corruption c env);
        record "corrupt";
        events := "corrupt" :: !events
    | Faultplan.Duplicate ->
        deliver env;
        (* The second copy arrives stale and is suppressed. *)
        transmit t ~src ~dst ~seq env;
        (match receive t ~src ~dst env with Some _ -> assert false | None -> ());
        record "duplicate";
        events := "duplicate" :: !events
    | Faultplan.Reorder ->
        (* Held in link limbo: it will arrive after a later delivery on
           this link and be suppressed as stale.  For the sender this
           attempt is a timeout. *)
        t.st.reorders <- t.st.reorders + 1;
        let k = link_key ~src ~dst t.n in
        let held = Option.value ~default:[] (Hashtbl.find_opt t.limbo k) in
        Hashtbl.replace t.limbo k (env :: held);
        record "reorder";
        events := "reorder" :: !events
    | Faultplan.Delay d ->
        (* Arrives, late: the link clock advances but no retransmission
           is provoked (the timer is generous against jitter). *)
        t.st.delays <- t.st.delays + 1;
        t.st.backoff_ticks <- t.st.backoff_ticks + d;
        t.st.sim_ticks <- t.st.sim_ticks + d;
        record "delay";
        events := Printf.sprintf "delay:%d" d :: !events;
        deliver env);
    incr attempt
  done;
  match !result with Some p -> Bytes.copy p | None -> assert false

(** Orphaned limbo entries at end of run (a reorder whose link never
    carried traffic again): deliver and suppress them so the physical
    log is complete. *)
let drain t =
  Hashtbl.iter
    (fun k held ->
      let src = k / t.n and dst = k mod t.n in
      List.iter
        (fun env ->
          transmit t ~src ~dst ~seq:(-1) env;
          ignore (receive t ~src ~dst env))
        (List.rev held))
    t.limbo;
  Hashtbl.reset t.limbo

(** {1 The pipelined windowed engine}

    {!post} enqueues a message; {!flush} delivers everything posted
    since the last flush and returns the accepted payloads indexed by
    ticket.  With every window at 1 the pair degrades exactly to
    {!send} (post sends immediately, flush collects) — the byte-level
    PR 5 stop-and-wait path.  With a window above 1 the engine runs a
    deterministic discrete-event simulation per directed link: up to
    [window] sequences in flight, transmissions serialized on the link
    at one tick each, arrivals after one tick (plus any injected
    delay), a fixed [rto]-tick retransmission timeout per attempt, and
    cumulative + selective acks from the receiver.  Links are
    independent, so a step's simulated elapsed time is its {e slowest
    link}, not the sum — the overlap that {!stats}' [sim_ticks]
    measures against stop-and-wait's serialized total.

    Determinism: fault draws stay keyed per (link, attempt) in per-link
    sequential order, links are processed in a fixed order, and event
    ties break on insertion order — the transcript digest is a pure
    function of seed, spec and window configuration at any job count.

    Acks are control-plane traffic on a clean reverse channel: counted
    in [acks_sent]/[ack_bytes], never faulted, and kept off the data
    transcript digest and the per-link physical tallies (so the
    [retransmits = injected faults] and tiling invariants survive). *)

let post t ~src ~dst (payload : Bytes.t) =
  let ticket = t.posted_n in
  t.posted_n <- t.posted_n + 1;
  (match t.wins with
  | None ->
      let r = send t ~src ~dst payload in
      t.batch_res <- (ticket, r) :: t.batch_res
  | Some _ ->
      let seq = t.send_seq.(src).(dst) in
      t.send_seq.(src).(dst) <- seq + 1;
      t.posted <-
        { pd_ticket = ticket; pd_src = src; pd_dst = dst; pd_seq = seq; pd_payload = payload }
        :: t.posted);
  ticket

(* Deterministic discrete-event delivery of one link's posted batch
   under its sliding window.  [batch] is in post (= sequence) order;
   accepted payloads land in [out] at the same indices.  Returns the
   link-local elapsed ticks. *)
let run_link t ~src ~dst (batch : pending array) (out : Bytes.t array) =
  let w =
    match t.wins with Some ws -> ws.(src).(dst) | None -> assert false
  in
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
  (* Pending arrivals (time, insertion serial, batch index, wire bytes),
     kept sorted; ties break on insertion order. *)
  let arrivals = ref [] in
  let add_arrival at idx bytes =
    incr serial;
    let s = !serial in
    let e = (at, s, idx, bytes) in
    let rec ins = function
      | ((t0, s0, _, _) as h) :: tl when t0 < at || (t0 = at && s0 < s) ->
          h :: ins tl
      | rest -> e :: rest
    in
    arrivals := ins !arrivals
  in
  let dropped idx attempts =
    let f =
      {
        fr_step = t.step;
        fr_src = src;
        fr_dst = dst;
        fr_seq = batch.(idx).pd_seq;
        fr_attempts = attempts;
        fr_events = List.rev events_log.(idx);
        fr_recent = List.rev t.recent_rev;
        fr_flight = Flightrec.tail t.flight ~party:src;
        fr_digest = transcript_sha t;
      }
    in
    if Trace.enabled () then
      Trace.instant
        ~attrs:
          [
            ("party", Trace.Int src);
            ("src", Trace.Int src);
            ("dst", Trace.Int dst);
            ("seq", Trace.Int batch.(idx).pd_seq);
            ("attempts", Trace.Int attempts);
            ("step", Trace.Str t.step);
          ]
        "runtime.party_dropped";
    raise (Party_dropped f)
  in
  (* One delivery attempt of batch index [idx] (window slot [slot]) no
     earlier than [at]; transmissions serialize on the link wire at one
     tick each. *)
  let transmit_attempt slot idx ~at =
    let seq = batch.(idx).pd_seq in
    check_kill t ~src ~dst ~seq
      ~attempts:(w.Window.attempts.(slot) - 1)
      ~events:events_log.(idx);
    let tx = if at > !wire_free then at else !wire_free in
    wire_free := tx + 1;
    (* The retransmission timer arms from the attempt's expected
       arrival; an injected delay extends it (generous against jitter,
       like stop-and-wait: delays never provoke a retransmission). *)
    let arm d = w.Window.timer.(slot) <- tx + 1 + d + t.rto in
    let attempt = w.Window.attempts.(slot) - 1 in
    match draw_fault t ~src ~dst with
    | Faultplan.Deliver ->
        transmit t ~src ~dst ~seq envs.(idx);
        add_arrival (tx + 1) idx envs.(idx);
        arm 0
    | Faultplan.Drop ->
        t.st.drops <- t.st.drops + 1;
        retry_span t ~kind:"drop" ~src ~dst ~seq ~attempt;
        events_log.(idx) <- "drop" :: events_log.(idx);
        arm 0
    | Faultplan.Corrupt c ->
        let bad = Faultplan.apply_corruption c envs.(idx) in
        transmit t ~src ~dst ~seq bad;
        add_arrival (tx + 1) idx bad;
        retry_span t ~kind:"corrupt" ~src ~dst ~seq ~attempt;
        events_log.(idx) <- "corrupt" :: events_log.(idx);
        arm 0
    | Faultplan.Duplicate ->
        transmit t ~src ~dst ~seq envs.(idx);
        add_arrival (tx + 1) idx envs.(idx);
        wire_free := tx + 2;
        transmit t ~src ~dst ~seq envs.(idx);
        add_arrival (tx + 2) idx envs.(idx);
        retry_span t ~kind:"duplicate" ~src ~dst ~seq ~attempt;
        events_log.(idx) <- "duplicate" :: events_log.(idx);
        arm 0
    | Faultplan.Reorder ->
        t.st.reorders <- t.st.reorders + 1;
        let key = link_key ~src ~dst t.n in
        let held = Option.value ~default:[] (Hashtbl.find_opt t.limbo key) in
        Hashtbl.replace t.limbo key (envs.(idx) :: held);
        retry_span t ~kind:"reorder" ~src ~dst ~seq ~attempt;
        events_log.(idx) <- "reorder" :: events_log.(idx);
        arm 0
    | Faultplan.Delay d ->
        t.st.delays <- t.st.delays + 1;
        transmit t ~src ~dst ~seq envs.(idx);
        add_arrival (tx + 1 + d) idx envs.(idx);
        retry_span t ~kind:"delay" ~src ~dst ~seq ~attempt;
        events_log.(idx) <- Printf.sprintf "delay:%d" d :: events_log.(idx);
        arm d
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
      ~info:(Bytes.length payload)
  in
  let process_arrival at bytes =
    match Wire.decode_envelope bytes with
    | exception Wire.Malformed _ ->
        t.st.crc_rejects <- t.st.crc_rejects + 1;
        Flightrec.record t.flight ~party:dst Flightrec.Crc_reject ~src ~dst
          ~seq:(-1) ~info:(Bytes.length bytes)
    | env ->
        if env.Wire.env_src <> src || env.Wire.env_dst <> dst then begin
          t.st.crc_rejects <- t.st.crc_rejects + 1;
          Flightrec.record t.flight ~party:dst Flightrec.Crc_reject ~src ~dst
            ~seq:env.Wire.env_seq ~info:(Bytes.length bytes)
        end
        else begin
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
            flush_limbo t ~src ~dst
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
        end
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
    let ta = match !arrivals with [] -> max_int | (t0, _, _, _) :: _ -> t0 in
    let tslot = Window.next_timer w in
    let tt = if tslot < 0 then max_int else w.Window.timer.(tslot) in
    if ta = max_int && tt = max_int then begin
      if !accepted < k then failwith "Transport.flush: windowed engine stalled"
    end
    else if ta <= tt then begin
      match !arrivals with
      | [] -> assert false
      | (at, _, _, bytes) :: tl ->
          arrivals := tl;
          if at > !time then time := at;
          process_arrival at bytes
    end
    else begin
      (* Retransmission timeout: selective retransmit of that slot. *)
      time := tt;
      let idx = w.Window.seq.(tslot) - seq0 in
      if w.Window.attempts.(tslot) > t.retry_budget then
        dropped idx w.Window.attempts.(tslot);
      t.st.retransmits <- t.st.retransmits + 1;
      t.retrans_by_src.(src) <- t.retrans_by_src.(src) + 1;
      t.link_retrans.(src).(dst) <- t.link_retrans.(src).(dst) + 1;
      t.st.backoff_ticks <- t.st.backoff_ticks + t.rto;
      Hist.record Hist.backoff_ticks t.rto;
      Flightrec.record t.flight ~party:src Flightrec.Retransmit ~src ~dst
        ~seq:batch.(idx).pd_seq ~info:w.Window.attempts.(tslot);
      w.Window.attempts.(tslot) <- w.Window.attempts.(tslot) + 1;
      transmit_attempt tslot idx ~at:!time
    end
  done;
  if !wire_free > !finish_time then !wire_free else !finish_time

(** Deliver everything posted since the last flush; the result array is
    indexed by ticket.  A step's simulated elapsed time is the maximum
    over its links (they run concurrently), added to [sim_ticks]. *)
let flush t =
  let out = Array.make t.posted_n Window.no_payload in
  (match t.wins with
  | None -> List.iter (fun (tk, r) -> out.(tk) <- r) t.batch_res
  | Some _ ->
      let posted = List.rev t.posted in
      let step_elapsed = ref 0 in
      for src = 0 to t.n - 1 do
        for dst = 0 to t.n - 1 do
          let batch =
            Array.of_list
              (List.filter (fun p -> p.pd_src = src && p.pd_dst = dst) posted)
          in
          if Array.length batch > 0 then begin
            let lout = Array.make (Array.length batch) Window.no_payload in
            let elapsed = run_link t ~src ~dst batch lout in
            Array.iteri (fun i p -> out.(p.pd_ticket) <- Bytes.copy lout.(i)) batch;
            if elapsed > !step_elapsed then step_elapsed := elapsed
          end
        done
      done;
      t.st.sim_ticks <- t.st.sim_ticks + !step_elapsed);
  t.posted <- [];
  t.posted_n <- 0;
  t.batch_res <- [];
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
    ts_limbo =
      (let entries =
         Hashtbl.fold (fun k held acc -> (k, List.rev held) :: acc) t.limbo []
       in
       List.sort (fun (a, _) (b, _) -> compare a b) entries);
  }

let restore ?faults ?(retry_budget = 8) ?(backoff_base = 1) ?(backoff_cap = 64)
    ?(flight_cap = Flightrec.default_capacity) ?window ?(kill_after = -1)
    (snap : Wire.transport_snap) =
  let n = snap.Wire.ts_n in
  let t =
    create ?faults ~retry_budget ~backoff_base ~backoff_cap ~flight_cap ?window
      ~kill_after ~n ()
  in
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
  List.iter
    (fun (k, held) -> Hashtbl.replace t.limbo k (List.rev held))
    snap.Wire.ts_limbo;
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
