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

    Each protocol step posts at most one message per directed link, so
    {!flush} delivers each link's one message with {!deliver}, a loop
    over its attempts.

    Determinism: the fault schedule is keyed by (link, attempt), the
    protocol bytes are identical at any job count, and {!flush} walks
    links in (src, dst) order, so the physical transcript — and hence
    the digest — is byte-identical at [jobs=1] and [jobs=k]. *)

open Ppgr_mpcnet
module Trace = Ppgr_obs.Trace
module Flightrec = Ppgr_obs.Flightrec
module Sha256 = Ppgr_hash.Sha256

type forensics = {
  fr_step : string; (* protocol step being delivered *)
  fr_src : int;
  fr_dst : int;
  fr_seq : int; (* sequence number of the undeliverable message *)
  fr_attempts : int; (* attempts spent, budget included *)
  fr_events : string list; (* per-attempt fault outcomes, oldest first *)
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

(** {1 Link configuration}

    A [Faultplan.spec]-style grammar: ["rto=4"] sets the retransmission
    timeout, in simulated ticks, of every directed link (default 4).
    The [window] key is parsed and range-checked to [1..max_window]
    but changes nothing: each protocol step posts at most one message
    per link, so a link never has a second frame to put in flight
    (DESIGN.md §5k). *)

type winspec = {
  ws_window : int; (* accepted for compatibility; no engine code reads it *)
  ws_rto : int; (* retransmission timeout, simulated ticks *)
}

(* The accepted range of the [window] key is 1..[max_window]. *)
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

(** Physical traffic of one directed link. *)
type link = {
  lk_src : int;
  lk_dst : int;
  lk_msgs : int; (* wire touches, retransmissions included *)
  lk_bytes : int;
  lk_retrans : int;
}

(* One posted message awaiting flush. *)
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
  rto : int; (* retransmission timeout per attempt, simulated ticks *)
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
  mutable step : string;
  mutable round_rev : Netsim.message list; (* current step's attempts *)
  mutable rounds_rev : (string * Netsim.message list) list;
  mutable digest : Bytes.t; (* chained transcript digest *)
}

let create ?faults ?(retry_budget = 8) ?(flight_cap = Flightrec.default_capacity)
    ?(rto = winspec_default.ws_rto) ?(kill_after = -1) ~n () =
  {
    n;
    faults;
    retry_budget;
    rto;
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
    step = "init";
    round_rev = [];
    rounds_rev = [];
    digest = Sha256.digest_string "ppgr-transcript-v1";
  }

let stats t = t.st
let phys_sent t = Array.copy t.phys_sent
let phys_received t = Array.copy t.phys_received
let retrans_by_src t = Array.copy t.retrans_by_src
let env_bytes_by_src t = Array.copy t.env_by_src
let flight t = t.flight
let transcript_sha t = Sha256.hex_of_digest t.digest

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

(* Every wire touch: per-party and per-link physical tallies, the
   message's size in the step's round, the sender's flight-recorder
   entry, and the chained transcript digest (corrupted copies hash as
   transmitted, so the digest pins the exact fault schedule too).
   [seq] feeds only the flight recorder; limbo flushes of held stale
   copies pass -1. *)
let transmit t ~src ~dst ~seq (wire_bytes : Bytes.t) =
  let len = Bytes.length wire_bytes in
  t.st.phys_messages <- t.st.phys_messages + 1;
  t.st.phys_bytes <- t.st.phys_bytes + len;
  t.phys_sent.(src) <- t.phys_sent.(src) + len;
  t.phys_received.(dst) <- t.phys_received.(dst) + len;
  t.link_msgs.(src).(dst) <- t.link_msgs.(src).(dst) + 1;
  t.link_bytes.(src).(dst) <- t.link_bytes.(src).(dst) + len;
  t.env_by_src.(src) <- t.env_by_src.(src) + Wire.envelope_overhead;
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
      fr_flight = Flightrec.tail t.flight ~party:src;
      fr_digest = transcript_sha t;
    }

let retry_span ~kind ~src ~dst ~seq =
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
      "runtime.retry"

(** {1 The delivery engine}

    {!post} enqueues a message; {!flush} delivers everything posted
    since the last flush and returns the accepted payloads indexed by
    ticket.  Each protocol step posts at most one message per directed
    link, so a flush is one {!deliver} per link: a loop over the
    attempts of that link's one message.  Attempt [k] leaves at tick
    [k·(1+rto)] and spends one tick on the wire.  A Deliver is accepted
    one tick later, a Delay [d] after [1+d]; a Duplicate is accepted
    after one tick and its second copy keeps the link busy one tick
    more.  A Drop, Corrupt or Reorder costs one [rto] timer, then the
    next attempt.  Links are independent, so a flush's simulated
    elapsed time is its {e slowest link}, which {!stats}' [sim_ticks]
    accumulates.

    Acks are control-plane traffic on a clean reverse channel: counted
    in [acks_sent]/[ack_bytes], never faulted, and kept off the data
    transcript digest and the per-link physical tallies (so the
    [retransmits = injected faults] and tiling invariants hold). *)

let post t ~src ~dst (payload : Bytes.t) =
  let ticket = t.posted_n in
  t.posted_n <- t.posted_n + 1;
  let seq = t.send_seq.(src).(dst) in
  t.send_seq.(src).(dst) <- seq + 1;
  t.posted <-
    { pd_ticket = ticket; pd_src = src; pd_dst = dst; pd_seq = seq; pd_payload = payload }
    :: t.posted;
  (* The tail of the message's trace arrow, where the protocol decided
     to send; the exporter pairs it with the accept by (src, dst, seq)
     (DESIGN.md §5i). *)
  if Trace.enabled () then
    Trace.instant
      ~attrs:[ ("src", Trace.Int src); ("dst", Trace.Int dst); ("seq", Trace.Int seq) ]
      "msg.send";
  ticket

(* Deliver one posted message: attempt after attempt until the receiver
   accepts a copy or the retry budget is spent.  Returns the accepted
   payload and the link's elapsed ticks. *)
let deliver t (p : pending) =
  let src = p.pd_src and dst = p.pd_dst and seq = p.pd_seq in
  let env = Wire.encode_envelope ~src ~dst ~seq p.pd_payload in
  let send bytes = transmit t ~src ~dst ~seq bytes in
  (* The receiver: the payload of a copy that carries the expected
     sequence number, [None] for any other copy.  A copy that fails its
     CRC, or names another link, is refused as a CRC reject; a copy
     below the expected sequence is a suppressed duplicate.  A copy
     ahead of it cannot come from this link's sender. *)
  let receive (bytes : Bytes.t) =
    match Wire.decode_envelope bytes with
    | exception Wire.Malformed _ ->
        t.st.crc_rejects <- t.st.crc_rejects + 1;
        Flightrec.record t.flight ~party:dst Flightrec.Crc_reject ~src ~dst
          ~seq:(-1) ~info:(Bytes.length bytes);
        None
    | env when env.Wire.env_src <> src || env.Wire.env_dst <> dst ->
        t.st.crc_rejects <- t.st.crc_rejects + 1;
        Flightrec.record t.flight ~party:dst Flightrec.Crc_reject ~src ~dst
          ~seq:env.Wire.env_seq ~info:(Bytes.length bytes);
        None
    | env ->
        let expected = t.recv_seq.(src).(dst) in
        let got = env.Wire.env_seq in
        if got < expected then begin
          t.st.dup_suppressed <- t.st.dup_suppressed + 1;
          None
        end
        else if got = expected then Some env.Wire.env_payload
        else
          Wire.fail "sequence %d ahead of the expected %d on link %d->%d" got
            expected src dst
  in
  let events = ref [] in (* per-attempt fault outcomes, newest first *)
  (* Reordered copies held back on the link, newest first.  They arrive,
     stale, right after the accept, or vanish with a Party_dropped. *)
  let held = ref [] in
  let accept payload =
    t.recv_seq.(src).(dst) <- seq + 1;
    Flightrec.record t.flight ~party:dst Flightrec.Receive ~src ~dst ~seq
      ~info:(Bytes.length payload);
    (* The arrow's head: after every retransmission the fault schedule
       demanded, so the arrow spans the message's true delivery
       latency. *)
    if Trace.enabled () then
      Trace.instant
        ~attrs:
          [
            ("src", Trace.Int src);
            ("dst", Trace.Int dst);
            ("seq", Trace.Int seq);
            ("step", Trace.Str t.step);
            ("bytes", Trace.Int (Bytes.length payload));
          ]
        "msg.accept";
    let ack =
      Wire.encode_ack { Wire.ack_src = dst; ack_dst = src; ack_cum = seq + 1 }
    in
    t.st.acks_sent <- t.st.acks_sent + 1;
    t.st.ack_bytes <- t.st.ack_bytes + Bytes.length ack;
    List.iter
      (fun copy ->
        transmit t ~src ~dst ~seq:(-1) copy;
        ignore (receive copy))
      (List.rev !held)
  in
  let rec attempt k =
    (* Deterministic abort injection for the restart battery: once the
       physical transmission count reaches [kill_after], the next
       attempt raises {!Party_dropped} instead of touching the wire. *)
    if t.kill_after >= 0 && t.st.phys_messages >= t.kill_after then
      raise (party_dropped t ~src ~dst ~seq ~attempts:k ("killed" :: !events));
    let fault kind event =
      retry_span ~kind ~src ~dst ~seq;
      events := event :: !events
    in
    (* The copies that reach the receiver, in arrival order, and the
       ticks after departure at which the link goes idle if one of
       them is accepted. *)
    let copies, busy =
      match draw_fault t ~src ~dst with
      | Faultplan.Deliver ->
          send env;
          ([ env ], 1)
      | Faultplan.Duplicate ->
          (* The second copy follows on the wire and arrives stale. *)
          send env;
          send env;
          fault "duplicate" "duplicate";
          ([ env; env ], 2)
      | Faultplan.Delay d ->
          t.st.delays <- t.st.delays + 1;
          send env;
          fault "delay" (Printf.sprintf "delay:%d" d);
          ([ env ], 1 + d)
      | Faultplan.Corrupt c ->
          (* The damaged copy occupies the wire; the receiver's CRC
             check turns it into a loss the sender times out on. *)
          let bad = Faultplan.apply_corruption c env in
          send bad;
          fault "corrupt" "corrupt";
          ([ bad ], 1)
      | Faultplan.Drop ->
          t.st.drops <- t.st.drops + 1;
          fault "drop" "drop";
          ([], 1)
      | Faultplan.Reorder ->
          (* Held in link limbo until the accept; for the sender it is
             a timeout. *)
          t.st.reorders <- t.st.reorders + 1;
          held := env :: !held;
          fault "reorder" "reorder";
          ([], 1)
    in
    let accepted =
      List.fold_left
        (fun got copy ->
          match receive copy with
          | Some payload ->
              accept payload;
              Some payload
          | None -> got)
        None copies
    in
    match accepted with
    | Some payload -> (payload, (k * (1 + t.rto)) + busy)
    | None -> timeout k
  and timeout k =
    let attempts = k + 1 in
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
      raise (party_dropped t ~src ~dst ~seq ~attempts !events)
    end;
    t.st.retransmits <- t.st.retransmits + 1;
    t.retrans_by_src.(src) <- t.retrans_by_src.(src) + 1;
    t.link_retrans.(src).(dst) <- t.link_retrans.(src).(dst) + 1;
    t.st.backoff_ticks <- t.st.backoff_ticks + t.rto;
    Flightrec.record t.flight ~party:src Flightrec.Retransmit ~src ~dst ~seq
      ~info:attempts;
    attempt (k + 1)
  in
  attempt 0

(** Deliver everything posted since the last flush; the result array is
    indexed by ticket.  A flush's simulated elapsed time is the maximum
    over its links (they run concurrently), added to [sim_ticks].
    @raise Invalid_argument if two messages were posted on one directed
    link, before delivering any. *)
let flush t =
  let by_link a b =
    match Int.compare a.pd_src b.pd_src with
    | 0 -> Int.compare a.pd_dst b.pd_dst
    | c -> c
  in
  let posted = List.sort by_link t.posted in
  let rec one_per_link = function
    | a :: (b :: _ as tl) ->
        if by_link a b = 0 then
          invalid_arg
            (Printf.sprintf "Transport.flush: two messages posted on link %d->%d"
               a.pd_src a.pd_dst);
        one_per_link tl
    | _ -> ()
  in
  one_per_link posted;
  let out = Array.make t.posted_n Bytes.empty in
  let step_elapsed = ref 0 in
  List.iter
    (fun p ->
      let payload, elapsed = deliver t p in
      out.(p.pd_ticket) <- payload;
      if elapsed > !step_elapsed then step_elapsed := elapsed)
    posted;
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
    ?rto ?(kill_after = -1) (snap : Wire.transport_snap) =
  let n = snap.Wire.ts_n in
  let t = create ?faults ~retry_budget ~flight_cap ?rto ~kill_after ~n () in
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
