(** Phase 2 (Fig. 1 steps 5–8): each participant learns the rank of
    its [l]-bit masked gain among all [n], and nothing else, in [O(n)]
    rounds — key generation with proofs of key knowledge and the joint
    key (5), bitwise encryption (6), the blind comparison
    {!compare_circuit} against every other party (7), and the
    decryption ring that strips, blinds and permutes every set before
    each owner counts its zeros (8).  Parties are {e isolated state
    machines that exchange only bytes} through the {!Wire} codecs:
    every group element, proof and ciphertext crosses a party boundary
    serialized, is validated on decode, and no party ever touches
    another's secrets.

    One deliberate deviation from Fig. 1: key-knowledge proofs use the
    Fiat–Shamir non-interactive variant instead of the 3-round
    multi-verifier interaction, so that each protocol step is a single
    message flight (DESIGN.md §2).

    The driver below posts each protocol step's sends with
    {!Transport.post} and delivers them with one {!Transport.flush},
    which carries each link's one message through loss, retransmission
    and the link clock.  The party logic itself is transport-agnostic, and
    completed steps checkpoint so an aborted run can resume (see {!run}
    and {!run_with_restart}). *)

open Ppgr_bigint
open Ppgr_rng
module Trace = Ppgr_obs.Trace
module Hist = Ppgr_obs.Hist

module Make (G : Ppgr_group.Group_intf.GROUP) = struct
  module E = Ppgr_elgamal.Elgamal.Make (G)
  module Z = Ppgr_zkp.Schnorr.Make (G)
  module W = Wire.Make (G)

  (* Rng.split labels of the parallel hot loops, preformatted once per
     run and shared by every party (byte-identical to the original
     Printf-formatted strings, so all derived streams are unchanged). *)
  type labels = {
    lab_enc : string array; (* "enc-bit-<b>", length l *)
    lab_blind : string array; (* "blind-<c>", length (n-1)*l *)
    lab_owner : string array; (* "hop-owner-<j>", length n *)
  }

  let make_labels ~n ~l =
    let idx prefix k = Array.init k (fun i -> prefix ^ string_of_int i) in
    {
      lab_enc = idx "enc-bit-" l;
      lab_blind = idx "blind-" ((n - 1) * l);
      lab_owner = idx "hop-owner-" n;
    }

  (** A reusable per-(n, l) session: every preformatted label a run
      needs.  The sharded orchestrator builds one session per distinct
      shard size and reuses it across all shards of that size, so a
      625-shard run formats its labels once, not 625 times.  All label
      strings are byte-identical to the per-run originals, so derived
      Rng streams — and hence transcripts — are unchanged. *)
  type session = {
    s_labels : labels;
    s_party : string array; (* "runtime-<j>", length n *)
  }

  let make_session ~n ~l =
    {
      s_labels = make_labels ~n ~l;
      s_party = Array.init n (fun j -> "runtime-" ^ string_of_int j);
    }

  type party = {
    index : int;
    n : int;
    l : int;
    rng : Rng.t;
    labels : labels; (* shared, immutable *)
    beta_bits : int array;
    seckey : E.seckey;
    pub_msg : Bytes.t; (* announced public key *)
    proof_msg : Bytes.t; (* announced NI proof *)
  }

  let zkp_context = "ppgr-runtime-key-knowledge"

  (** Create a party: generates its key pair and announcement messages.
      [labels] is the one preformatted label set all parties share. *)
  let create_party ~index ~n ~l ~labels ~beta rng =
    if Bigint.sign beta < 0 || Bigint.numbits beta > l then
      invalid_arg "Runtime.create_party: beta out of range";
    let seckey, pub = E.keygen rng in
    let proof = Z.prove_fs rng ~secret:seckey ~statement:pub ~context:zkp_context in
    {
      index;
      n;
      l;
      rng;
      labels;
      beta_bits = Bigint.bits_of beta ~width:l;
      seckey;
      pub_msg = W.encode_pubkey pub;
      proof_msg =
        W.encode_zkp
          {
            Z.commitment = proof.Z.ni_commitment;
            challenges = [];
            response = proof.Z.ni_response;
          };
    }

  (* The NI proof rides in a transcript envelope with no challenges; the
     challenge is recomputed from the statement on verify. *)
  let verify_announcement ~pub_bytes ~proof_bytes =
    let y = W.decode_pubkey pub_bytes in
    let t = W.decode_zkp proof_bytes in
    if
      not
        (Z.verify_fs ~statement:y ~context:zkp_context
           { Z.ni_commitment = t.Z.commitment; ni_response = t.Z.response })
    then invalid_arg "Runtime: a key-knowledge proof failed";
    y

  (** Step 5-6: receive everyone's announcements, verify the other
      parties' proofs, form the joint key, and emit the bitwise
      encryption of one's own beta.  A party does not re-verify its own
      proof, so the count stays at §VI-B's n-1 verifications. *)
  let receive_keys_and_encrypt p ~(pub_msgs : Bytes.t array)
      ~(proof_msgs : Bytes.t array) : Bytes.t =
    let pubs =
      Array.mapi
        (fun i pub_bytes ->
          if i = p.index then W.decode_pubkey pub_bytes
          else verify_announcement ~pub_bytes ~proof_bytes:proof_msgs.(i))
        pub_msgs
    in
    let joint = E.keytable (E.joint_pubkey (Array.to_list pubs)) in
    (* Each bit encrypts under its own child stream keyed by position,
       so the bits fan out over the domain pool with a transcript
       independent of the job count. *)
    let bit_rngs =
      Array.init p.l (fun b -> Rng.split p.rng ~label:p.labels.lab_enc.(b))
    in
    let enc =
      Ppgr_exec.Pool.parallel_init p.l (fun b ->
          E.encrypt_exp_int_with bit_rngs.(b) joint p.beta_bits.(b))
    in
    W.encode_cipher_batch enc

  (** The step-7 circuit: [P_j]'s clear bits [own_bits] against [P_i]'s
      encrypted bits, giving [E(tau^b)] for [gamma^b = own^b XOR other^b],
      [tau^b = (l-b)(1 - gamma^b) + Σ_{v>b} gamma^v + own^b], which is 0
      for at most one [b], iff own < other.  The suffix sums take one
      O(l) pass; [naive_omega] recomputes each, the paper's O(l^2)
      accounting, as the ablation reference. *)
  let compare_circuit ?(naive_omega = false) ~l ~own_bits
      (enc_bits : E.cipher array) =
    if Array.length enc_bits <> l then invalid_arg "Runtime: bad bit batch length";
    let enc_zero = { E.c = G.identity; c' = G.identity } in
    (* gamma^b = own XOR other: linear because own bits are clear.  The
       flipped bit 1 - other^b is gamma^b for a set own bit and
       1 - gamma^b for a clear one, so each bit is negated once. *)
    let flipped = Array.map (fun c -> E.add_clear (E.neg c) Bigint.one) enc_bits in
    let gamma =
      Array.init l (fun b -> if own_bits.(b) = 0 then enc_bits.(b) else flipped.(b))
    in
    let s = Array.make l enc_zero in
    for b = l - 2 downto 0 do
      s.(b) <-
        (if naive_omega then
           Array.fold_left E.add enc_zero (Array.sub gamma (b + 1) (l - 1 - b))
         else E.add s.(b + 1) gamma.(b + 1))
    done;
    Array.init l (fun b ->
        let one_minus = if own_bits.(b) = 0 then flipped.(b) else enc_bits.(b) in
        let omega = E.add (E.scale_int one_minus (l - b)) s.(b) in
        if own_bits.(b) = 0 then omega else E.add_clear omega Bigint.one)

  (** Step 7: consume everyone's encrypted-bit announcements and emit
      this party's comparison sets, flattened in owner order with own
      slot empty, as one message to P_1. *)
  let compare_all p ~(enc_msgs : Bytes.t array) : Bytes.t =
    (* Deterministic homomorphic evaluation: the n-1 pairs fan out. *)
    let sets =
      Ppgr_exec.Pool.parallel_init p.n (fun i ->
          if i = p.index then [||]
          else
            compare_circuit ~l:p.l ~own_bits:p.beta_bits
              (W.decode_cipher_batch enc_msgs.(i)))
    in
    W.encode_cipher_batch (Array.concat (Array.to_list sets))
  (* The flattened array has (n-1) * l ciphertexts; the ring treats it
     as one opaque set owned by this party. *)

  (** Step 8, one hop: decode the full vector (n sets), partially
      decrypt + blind + permute every set but one's own, re-encode.

      The [(owner set × slot)] pairs are flattened into one index space
      so the hop saturates every domain instead of parallelizing only
      within one owner's [l]-ish slots.  Determinism is unchanged: each
      owner stream is a [split] of the party stream (splitting never
      disturbs the parent, so the split order is immaterial), each slot
      stream a split of its owner stream keyed by stable position, and
      the closing per-owner shuffles draw from the owner streams the
      splits left undisturbed — byte-identical transcripts to the
      per-owner nested loops. *)
  let ring_hop p ~(v_msgs : Bytes.t array) : Bytes.t array =
    let n = Array.length v_msgs in
    let sets =
      Array.init n (fun owner ->
          if owner = p.index then [||]
          else W.decode_cipher_batch v_msgs.(owner))
    in
    let orngs =
      Array.init n (fun owner ->
          if owner = p.index then p.rng (* unused *)
          else Rng.split p.rng ~label:p.labels.lab_owner.(owner))
    in
    (* Flat task index -> (owner, slot). *)
    let total = Array.fold_left (fun acc s -> acc + Array.length s) 0 sets in
    let owner_of = Array.make (Stdlib.max total 1) 0 in
    let slot_of = Array.make (Stdlib.max total 1) 0 in
    let t = ref 0 in
    Array.iteri
      (fun owner set ->
        Array.iteri
          (fun c _ ->
            owner_of.(!t) <- owner;
            slot_of.(!t) <- c;
            incr t)
          set)
      sets;
    let slot_rngs =
      Array.init total (fun t ->
          Rng.split orngs.(owner_of.(t)) ~label:p.labels.lab_blind.(slot_of.(t)))
    in
    Ppgr_exec.Pool.parallel_for total (fun t ->
        let set = sets.(owner_of.(t)) in
        let c = slot_of.(t) in
        set.(c) <- E.partial_decrypt_blind slot_rngs.(t) p.seckey set.(c));
    Array.mapi
      (fun owner set_bytes ->
        if owner = p.index then set_bytes
        else begin
          Rng.shuffle orngs.(owner) sets.(owner);
          W.encode_cipher_batch sets.(owner)
        end)
      v_msgs

  (** Unpack one framed ring-hop message back into the [n] per-owner
      set payloads; validating (tag, lengths, count). *)
  let ring_receive_frame p (frame : Bytes.t) : Bytes.t array =
    let payloads = Wire.decode_hop_frame frame in
    if Array.length payloads <> p.n then
      raise
        (Wire.Malformed
           (Printf.sprintf "hop frame carries %d sets, expected %d"
              (Array.length payloads) p.n));
    payloads

  (** Final step: strip one's own layer from the returned set and flag
      its zero plaintexts; the rank is one plus the number of zeros. *)
  let finish p ~(own_set : Bytes.t) : bool array =
    let set = W.decode_cipher_batch own_set in
    Ppgr_exec.Pool.parallel_map (fun c -> E.decrypt_exp_is_zero p.seckey c) set

  type stats = {
    ranks : int array;
    bytes_on_wire : int; (* every serialized payload, summed (logical) *)
    messages : int; (* logical sends: retransmissions not counted *)
    party_sent : int array; (* payload bytes out, per party *)
    party_received : int array; (* payload bytes in, per party *)
    (* Physical level, owned by {!Transport}: envelope overhead and
       every retransmission included. *)
    phys_bytes : int;
    phys_messages : int;
    phys_party_sent : int array;
    phys_party_received : int array;
    retransmits : int;
    drops : int;
    crc_rejects : int;
    dup_suppressed : int;
    backoff_ticks : int;
    acks_sent : int; (* control-plane acks: one per logical message *)
    ack_bytes : int;
    sim_ticks : int;
        (* simulated link-clock elapsed: each flush charged its slowest
           link *)
    faults_injected : (string * int) list; (* by kind, fixed order *)
    transcript_sha : string; (* chained digest of all physical bytes *)
    net_rounds : Ppgr_mpcnet.Netsim.schedule;
        (* physical traffic per protocol step, replayable on a topology *)
    links : Transport.link list; (* per-directed-link physical traffic *)
    flows : Transport.flow list;
        (* causal ledger (empty unless tracing was on) *)
    flight : Ppgr_obs.Flightrec.t; (* recent-wire-event ring, per party *)
    per_party_ops : int array; (* group operations in each party's spans *)
    per_party_exps : int array; (* full-size exponentiations, likewise *)
    schedule : Cost.schedule;
        (* [net_rounds] priced with each step's critical-path ops, then
           the count as a round without messages *)
    zero_flags : bool array array;
        (* .(j).(c): slot c of P_j's returned, permuted set is zero *)
  }

  (** Drive a full distributed execution.  All inter-party state passes
      through bytes, every byte through {!Transport}: sequenced,
      CRC-protected envelopes with timeout/retransmit recovery.  Without
      [faults] every attempt delivers; with a {!Faultplan.spec} the run
      faces that seeded schedule and either completes with correct ranks
      or aborts with the typed {!Transport.Party_dropped}.

      [window] sets the retransmission timeout from its [rto] (default
      4 ticks).  Its [window] size is accepted and changes nothing:
      every step posts at most one message per link, and the transport
      delivers each link's one message on its own (DESIGN.md §5k).

      [checkpoint_cb] receives a serialized {!Wire.checkpoint_frame}
      after every completed wire step; [resume] accepts one and restarts
      the run at the first step the checkpoint does not cover.  A
      resumed run is byte-identical (ranks, transcript, meters, replay
      schedule) to the uninterrupted original because party randomness
      is re-derived from [rng] splits that the aborted attempt never
      disturbed, and the fault schedule is a pure function of the seed
      fast-forwarded to the persisted position.
      @raise Invalid_argument if [resume] is for another party count.
      @raise Wire.Malformed if [resume] does not decode, or its step is
      outside [1..n+3] or disagrees with its [ck_enc]/[ck_v] sections;
      both are raised before any party work.
      @raise Transport.Party_dropped when a message exhausts
      [retry_budget] retransmissions (or [kill_after] physical
      transmissions are reached, for crash injection). *)
  let run ?faults ?(retry_budget = 8) ?flight_cap ?session ?shard ?window
      ?(kill_after = -1) ?resume ?checkpoint_cb rng ~l
      ~(betas : Bigint.t array) : stats =
    let n = Array.length betas in
    if n < 2 then invalid_arg "Runtime.run: need at least 2 parties";
    let ck = Option.map Wire.decode_checkpoint resume in
    (match ck with
    | Some c when c.Wire.ck_n <> n ->
        invalid_arg
          (Printf.sprintf
             "Runtime.run: checkpoint is for %d parties, this run has %d"
             c.Wire.ck_n n)
    | Some c ->
        (* A CRC-valid frame can still contradict itself: its step fixes
           which sections it carries (see [checkpoint] below). *)
        let step = c.Wire.ck_step in
        if step < 1 || step > n + 3 then
          Wire.fail "checkpoint ck_step %d outside 1..%d" step (n + 3);
        let expect field got want =
          if got <> want then
            Wire.fail "checkpoint %s has %d entries, step %d needs %d" field got
              step want
        in
        expect "ck_enc" (Array.length c.Wire.ck_enc) (if step = 2 then n else 0);
        expect "ck_v" (Array.length c.Wire.ck_v) (if step >= 3 then n else 0)
    | None -> ());
    let start = match ck with None -> 0 | Some c -> c.Wire.ck_step in
    let shard_attrs =
      match shard with None -> [] | Some s -> [ ("shard", Trace.Int s) ]
    in
    let resume_attrs =
      match ck with
      | None -> []
      | Some _ -> [ ("resumed_from", Trace.Int start) ]
    in
    Trace.with_span
      ~attrs:
        ([ ("group", Trace.Str G.name); ("n", Trace.Int n); ("l", Trace.Int l) ]
        @ resume_attrs @ shard_attrs)
      "runtime"
    @@ fun () ->
    let plan = Option.map Ppgr_mpcnet.Faultplan.create faults in
    let rto = Option.map (fun w -> w.Transport.ws_rto) window in
    let tr =
      match ck with
      | None ->
          Transport.create ?faults:plan ~retry_budget ?flight_cap ?rto ~kill_after
            ~n ()
      | Some c ->
          Transport.restore ?faults:plan ~retry_budget ?flight_cap ?rto ~kill_after
            c.Wire.ck_snap
    in
    let bytes_total =
      ref (match ck with None -> 0 | Some c -> c.Wire.ck_bytes_total)
    in
    let msg_total =
      ref (match ck with None -> 0 | Some c -> c.Wire.ck_msg_total)
    in
    let sent =
      match ck with None -> Array.make n 0 | Some c -> Array.copy c.Wire.ck_sent
    in
    let received =
      match ck with
      | None -> Array.make n 0
      | Some c -> Array.copy c.Wire.ck_received
    in
    (* [post] is the only channel between parties; it tallies every
       serialized payload globally and per endpoint (the logical view),
       then hands the bytes to the transport, which owns delivery,
       recovery and the physical accounting: the post enqueues and the
       step's closing {!Transport.flush} delivers. *)
    let post ~src ~dst (b : Bytes.t) =
      let len = Bytes.length b in
      bytes_total := !bytes_total + len;
      incr msg_total;
      sent.(src) <- sent.(src) + len;
      received.(dst) <- received.(dst) + len;
      Transport.post tr ~src ~dst b
    in
    (* One instant wire span per party per protocol step, carrying the
       in/out byte deltas of that step at both accounting levels.  Also
       the transport's step boundary, so its physical rounds mirror the
       protocol steps. *)
    let wire_mark step f =
      Transport.begin_step tr step;
      if not (Trace.enabled ()) then f ()
      else begin
        let s0 = Array.copy sent and r0 = Array.copy received in
        let ps0 = Transport.phys_sent tr and pr0 = Transport.phys_received tr in
        let rt0 = Transport.retrans_by_src tr in
        let ev0 = Transport.env_bytes_by_src tr in
        let r = f () in
        let ps1 = Transport.phys_sent tr and pr1 = Transport.phys_received tr in
        let rt1 = Transport.retrans_by_src tr in
        let ev1 = Transport.env_bytes_by_src tr in
        for j = 0 to n - 1 do
          let out = sent.(j) - s0.(j) and inb = received.(j) - r0.(j) in
          if out > 0 || inb > 0 then begin
            let base =
              [
                ("party", Trace.Int j);
                ("bytes_out", Trace.Int out);
                ("bytes_in", Trace.Int inb);
                ("phys_out", Trace.Int (ps1.(j) - ps0.(j)));
                ("phys_in", Trace.Int (pr1.(j) - pr0.(j)));
                ("env_bytes", Trace.Int (ev1.(j) - ev0.(j)));
              ]
              @ shard_attrs
            in
            (* Per-party physical recovery cost of the step; the
               retransmits column tiles Transport.stats the same way
               phys_out tiles phys_bytes. *)
            let attrs =
              if rt1.(j) - rt0.(j) > 0 then
                base @ [ ("retransmits", Trace.Int (rt1.(j) - rt0.(j))) ]
              else base
            in
            Trace.instant ~attrs ("runtime." ^ step ^ ".wire")
          end
        done;
        r
      end
    in
    (* Each party's group ops and exponentiations, metered in its spans
       (which tile the run); [step_ops.(k)] is the largest per-party op
       delta feeding wire step k: 0 announce (key generation), 1
       encrypt, 2 compare, 3+h ring hop h, n+3 the closing count. *)
    let ops = Array.make n 0 and exps = Array.make n 0 in
    let step_ops = Array.make (n + 4) 0 in
    let party_span ?(attrs = []) ~k step j f =
      Trace.with_span
        ~attrs:((("party", Trace.Int j) :: attrs) @ shard_attrs)
        ("runtime." ^ step)
        (fun () ->
          let ops0 = G.op_snapshot () and exps0 = Ppgr_group.Opmeter.snapshot () in
          let r = f () in
          let d = G.ops_since ops0 in
          ops.(j) <- ops.(j) + d;
          exps.(j) <- exps.(j) + Ppgr_group.Opmeter.since exps0;
          step_ops.(k) <- Stdlib.max step_ops.(k) d;
          r)
    in
    (* Serialize the complete post-step state (logical ledgers, the
       step's data dependencies, transport snapshot) and hand it to the
       caller; a later run resumes from it via [?resume].  [step_done]
       counts completed wire steps: 1 announce, 2 encrypt, 3 compare,
       4+h ring hop h. *)
    let checkpoint step_done ~enc ~v =
      match checkpoint_cb with
      | None -> ()
      | Some cb ->
          let c =
            {
              Wire.ck_step = step_done;
              ck_n = n;
              ck_bytes_total = !bytes_total;
              ck_msg_total = !msg_total;
              ck_sent = Array.copy sent;
              ck_received = Array.copy received;
              ck_enc = enc;
              ck_v = v;
              ck_snap = Transport.persist tr;
            }
          in
          cb (Wire.encode_checkpoint c)
    in
    let session =
      match session with Some s -> s | None -> make_session ~n ~l
    in
    let labels = session.s_labels in
    let parties =
      Array.init n (fun index ->
          party_span ~k:0 "keygen" index (fun () ->
              create_party ~index ~n ~l ~labels ~beta:betas.(index)
                (Rng.split rng ~label:session.s_party.(index))))
    in
    (* Announcements broadcast: count each as n-1 sends.  A broadcast
       posts its whole fan-out and flushes once, so every link makes
       progress concurrently on the link clock. *)
    let broadcast (msgs : Bytes.t array) =
      Array.iteri
        (fun src (m : Bytes.t) ->
          for dst = 0 to n - 1 do
            if dst <> src then ignore (post ~src ~dst m)
          done)
        msgs;
      ignore (Transport.flush tr)
    in
    let pub_msgs = Array.map (fun p -> p.pub_msg) parties in
    let proof_msgs = Array.map (fun p -> p.proof_msg) parties in
    if start <= 0 then begin
      wire_mark "announce" (fun () ->
          broadcast pub_msgs;
          broadcast proof_msgs);
      checkpoint 1 ~enc:[||] ~v:[||]
    end;
    (* Bit encryptions broadcast.  A run resumed past this step takes
       the ciphertext batch from the checkpoint instead of recomputing
       it (the joint key is only ever needed here). *)
    let enc_msgs =
      match ck with
      | Some c when start >= 2 -> c.Wire.ck_enc
      | _ ->
          Array.mapi
            (fun j p ->
              party_span ~k:1 "encrypt" j (fun () ->
                  receive_keys_and_encrypt p ~pub_msgs ~proof_msgs))
            parties
    in
    if start <= 1 then begin
      wire_mark "encrypt" (fun () -> broadcast enc_msgs);
      checkpoint 2 ~enc:enc_msgs ~v:[||]
    end;
    (* Comparison sets to P_1 (party 0). *)
    let v =
      match ck with
      | Some c when start >= 3 -> c.Wire.ck_v
      | _ ->
          wire_mark "compare" (fun () ->
              let tickets =
                Array.mapi
                  (fun j p ->
                    post ~src:j ~dst:0
                      (party_span ~k:2 "compare" j (fun () ->
                           compare_all p ~enc_msgs)))
                  parties
              in
              let out = Transport.flush tr in
              Array.map (fun tk -> out.(tk)) tickets)
    in
    if start <= 2 then checkpoint 3 ~enc:[||] ~v;
    (* Ring pass: each hop receives the vector, processes, forwards.
       Intermediate hops ship all n sets as ONE framed message (the
       receiver unpacks and validates it); the final hop returns each
       set to its owner and keeps its own.  Hops the checkpoint already
       covers are skipped wholesale: [!v] restores to the post-hop
       vector and the recreated parties' streams stay undisturbed. *)
    let v = ref v in
    for hop = 0 to n - 1 do
      if start <= 3 + hop then begin
        let hop_t0 = if Hist.enabled () then Unix.gettimeofday () else 0. in
        let processed =
          party_span ~attrs:[ ("hop", Trace.Int hop) ] ~k:(3 + hop) "ring" hop
            (fun () -> ring_hop parties.(hop) ~v_msgs:!v)
        in
        if Hist.enabled () then
          Hist.record_us Hist.hop_us ((Unix.gettimeofday () -. hop_t0) *. 1e6);
        if hop < n - 1 then begin
          let frame =
            wire_mark "ring" (fun () ->
                let tk =
                  post ~src:hop ~dst:(hop + 1) (Wire.encode_hop_frame processed)
                in
                (Transport.flush tr).(tk))
          in
          v := ring_receive_frame parties.(hop + 1) frame
        end
        else
          v :=
            wire_mark "ring" (fun () ->
                let tickets =
                  Array.mapi
                    (fun owner _ ->
                      if owner = hop then -1
                      else post ~src:hop ~dst:owner processed.(owner))
                    processed
                in
                let out = Transport.flush tr in
                Array.mapi
                  (fun owner m ->
                    if tickets.(owner) < 0 then m else out.(tickets.(owner)))
                  processed);
        checkpoint (4 + hop) ~enc:[||] ~v:!v
      end
    done;
    (* Return each set to its owner; owners decode and count. *)
    let zero_flags =
      Array.mapi
        (fun j p ->
          party_span ~k:(n + 3) "count" j (fun () -> finish p ~own_set:!v.(j)))
        parties
    in
    let ranks =
      Array.map
        (Array.fold_left (fun rank z -> if z then rank + 1 else rank) 1)
        zero_flags
    in
    let st = Transport.stats tr in
    let net_rounds = Transport.net_rounds tr in
    {
      ranks;
      bytes_on_wire = !bytes_total;
      messages = !msg_total;
      party_sent = sent;
      party_received = received;
      phys_bytes = st.Transport.phys_bytes;
      phys_messages = st.Transport.phys_messages;
      phys_party_sent = Transport.phys_sent tr;
      phys_party_received = Transport.phys_received tr;
      retransmits = st.Transport.retransmits;
      drops = st.Transport.drops;
      crc_rejects = st.Transport.crc_rejects;
      dup_suppressed = st.Transport.dup_suppressed;
      backoff_ticks = st.Transport.backoff_ticks;
      acks_sent = st.Transport.acks_sent;
      ack_bytes = st.Transport.ack_bytes;
      sim_ticks = st.Transport.sim_ticks;
      faults_injected =
        (match plan with
        | None -> List.map (fun k -> (k, 0)) Ppgr_mpcnet.Faultplan.kinds
        | Some p -> Ppgr_mpcnet.Faultplan.injected p);
      transcript_sha = Transport.transcript_sha tr;
      net_rounds;
      links = Transport.links tr;
      flows = Transport.flows tr;
      flight = Transport.flight tr;
      per_party_ops = ops;
      per_party_exps = exps;
      schedule =
        List.mapi
          (fun k (r : Ppgr_mpcnet.Netsim.round) ->
            { Cost.critical_ops = step_ops.(k); messages = r.Ppgr_mpcnet.Netsim.messages })
          net_rounds
        @ [ { Cost.critical_ops = step_ops.(n + 3); messages = [] } ];
      zero_flags;
    }

  (** Outcome of a supervised execution: the completed run's stats plus
      how it got there. *)
  type recovery = {
    rec_stats : stats;
    rec_resumes : int; (* resume attempts consumed (successful or not) *)
    rec_reelected : int option;
        (* [Some dead] when the ring was re-elected without that party *)
    rec_abandoned_bytes : int;
        (* logical bytes of the wire steps the abandoned session
           completed before a re-election (0 without one) *)
  }

  (** Supervise a run with checkpoint/restart.  The run checkpoints
      after every wire step; on {!Transport.Party_dropped} it resumes
      from the latest checkpoint (crash injection via [kill_after] is
      disabled on resume — the simulated crash already happened).  After
      [max_restarts] failed resumes the destination party of the last
      abort is declared dead and the ring is {e re-elected}: the
      survivors rerun the whole protocol as an (n-1)-party session on a
      fresh ["re-elect-<dead>"] split of [rng] — byte-identical to a
      fresh (n-1)-party run on that stream.

      Privacy note (mirrors the sharded s-2 trade): a re-elected
      session tolerates n-3 colluding parties rather than the paper's
      n-2, because the dead party's comparisons from the aborted
      session plus the survivors' new session give an adversary two
      transcripts over overlapping inputs.  See DESIGN.md §5k. *)
  let run_with_restart ?faults ?(retry_budget = 8) ?flight_cap ?session ?shard
      ?window ?(max_restarts = 1) ?(kill_after = -1) rng ~l
      ~(betas : Bigint.t array) : recovery =
    let latest = ref None in
    let cb b = latest := Some b in
    let go ?resume ~kill_after () =
      run ?faults ~retry_budget ?flight_cap ?session ?shard ?window ~kill_after
        ?resume ~checkpoint_cb:cb rng ~l ~betas
    in
    let reelect ~resumes (f : Transport.forensics) =
      let dead = f.Transport.fr_dst in
      let n = Array.length betas in
      if n < 3 then raise (Transport.Party_dropped f);
      let betas' =
        Array.init (n - 1) (fun j -> if j < dead then betas.(j) else betas.(j + 1))
      in
      let rng' = Rng.split rng ~label:("re-elect-" ^ string_of_int dead) in
      let st =
        run ?faults ~retry_budget ?flight_cap ?shard ?window rng' ~l
          ~betas:betas'
      in
      let rec_abandoned_bytes =
        match !latest with
        | None -> 0
        | Some ck -> (Wire.decode_checkpoint ck).Wire.ck_bytes_total
      in
      { rec_stats = st; rec_resumes = resumes; rec_reelected = Some dead; rec_abandoned_bytes }
    in
    let completed ~resumes st =
      { rec_stats = st; rec_resumes = resumes; rec_reelected = None; rec_abandoned_bytes = 0 }
    in
    match go ~kill_after () with
    | st -> completed ~resumes:0 st
    | exception Transport.Party_dropped f0 ->
        let rec retry k last_f =
          if k >= max_restarts then reelect ~resumes:k last_f
          else
            match go ?resume:!latest ~kill_after:(-1) () with
            | st -> completed ~resumes:(k + 1) st
            | exception Transport.Party_dropped f -> retry (k + 1) f
        in
        retry 0 f0
end
