(** The complete privacy-preserving group ranking framework (Fig. 1):
    secure gain computation, unlinkable gain comparison, and ranking
    submission, glued together over a chosen group instantiation.

    The entry point {!Make.run} executes all three phases for an
    initiator (criterion + weights) and [n] participants (information
    vectors), returning everyone's view: each participant's rank, the
    top-[k] submissions received by the initiator, the over-claim check,
    and the full cost ledger for the evaluation harness.  Phase 2 is one
    {!Runtime} session over the wire transport. *)

open Ppgr_bigint
open Ppgr_mpcnet
module Trace = Ppgr_obs.Trace
module Metrics = Ppgr_obs.Metrics

type config = {
  spec : Attrs.spec;
  k : int; (* how many top participants the initiator invites *)
  h : int; (* mask bits (rho) *)
  s_dim : int; (* dot-product hiding dimension *)
}

let config ?(h = 15) ?(s_dim = 6) ~spec ~k () =
  if k < 1 then invalid_arg "Framework.config: k must be >= 1";
  { spec; k; h; s_dim }

(** A top-k submission as received by the initiator. *)
type submission = {
  participant : int;
  claimed_rank : int;
  info : Attrs.info;
}

type costs = {
  participant_ops : int array; (* phase-2 group multiplications *)
  participant_exps : int array; (* phase-2 full exponentiations *)
  initiator_field_mults : int; (* phase-1 work on the initiator *)
  schedule : Cost.schedule; (* phases 1-3; phase 2 as physical traffic *)
  wire_bytes : int;
      (* payload bytes of phases 1-3 (every phase-2 attempt's completed
         steps), the quantity the wire spans tile *)
  beta_bits : int; (* the l of this run *)
}

type outcome = {
  ranks : int array; (* what each participant learned *)
  submissions : submission list; (* what the initiator received *)
  accepted : submission list; (* submissions passing the recheck *)
  flagged : submission list; (* inconsistent claims *)
  costs : costs;
}

module Make (G : Ppgr_group.Group_intf.GROUP) = struct
  module RT = Runtime.Make (G)

  (** Over-claim detection (§V, ranking submission): the initiator
      recomputes each submitter's gain and rejects a submission whose
      claimed rank ordering contradicts the recomputed gains, i.e. a
      submitter whose gain is smaller than that of a submitter it
      claims to outrank. *)
  let vet_submissions spec criterion (subs : submission list) =
    let scored =
      List.map (fun s -> (s, Attrs.partial_gain spec criterion s.info)) subs
    in
    let consistent (s, g) =
      List.for_all
        (fun (s', g') ->
          if s'.participant = s.participant then true
          else if s.claimed_rank < s'.claimed_rank then g >= g'
          else if s.claimed_rank > s'.claimed_rank then g <= g'
          else true)
        scored
    in
    List.partition consistent scored
    |> fun (ok, bad) -> (List.map fst ok, List.map fst bad)

  (* Per-party wire tallies of one schedule round, recorded as instant
     spans (party indices 0..n-1 are participants, n is the
     initiator, traced as party -1 so participant tables stay dense). *)
  let record_wire ~step ~n (messages : Netsim.message list) =
    if Trace.enabled () then
      for j = 0 to n do
        let out = ref 0 and inb = ref 0 in
        List.iter
          (fun (m : Netsim.message) ->
            if m.Netsim.src = j then out := !out + m.Netsim.bytes;
            if m.Netsim.dst = j then inb := !inb + m.Netsim.bytes)
          messages;
        if !out > 0 || !inb > 0 then
          Trace.instant
            ~attrs:
              [
                ("party", Trace.Int (if j = n then -1 else j));
                ("bytes_out", Trace.Int !out);
                ("bytes_in", Trace.Int !inb);
              ]
            (step ^ ".wire")
      done

  (** [faults], [window] and [restarts] shape the phase-2 session as in
      {!Shard.run}; the session's recovery record comes back with the
      outcome.  After a ring re-election the dead participant learns no
      rank ([n + 1], so it never submits) and costs nothing.
      @raise Invalid_argument below two participants (phase 2's ring).
      @raise Transport.Party_dropped when the session aborts. *)
  let run ?faults ?window ?(restarts = 0) rng (cfg : config)
      ~(criterion : Attrs.criterion) ~(infos : Attrs.info array) :
      outcome * RT.recovery =
    let n = Array.length infos in
    if n < 2 then invalid_arg "Framework.run: need at least 2 participants";
    if cfg.k > n then invalid_arg "Framework.run: k larger than group";
    Trace.with_span
      ~attrs:
        [
          ("group", Trace.Str G.name);
          ("n", Trace.Int n);
          ("k", Trace.Int cfg.k);
        ]
      "framework"
    @@ fun () ->
    (* Phase 1: secure gain computation. *)
    let p1cfg = Phase1.config ~spec:cfg.spec ~h:cfg.h ~s_dim:cfg.s_dim () in
    let field = p1cfg.Phase1.field in
    Ppgr_dotprod.Zfield.reset_mult_count field;
    (* Give the tracer a probe over this run's field instance so the
       phase-1 spans carry field-multiplication deltas; removed again
       before returning since the closure holds the field alive. *)
    if Trace.enabled () then
      Metrics.register ~name:"field_mults" (fun () ->
          Ppgr_dotprod.Zfield.mult_count field);
    Fun.protect ~finally:(fun () -> Metrics.unregister ~name:"field_mults")
    @@ fun () ->
    let _secrets, interactions = Phase1.run rng p1cfg ~criterion ~infos in
    let initiator_field_mults = Ppgr_dotprod.Zfield.mult_count field in
    let l = Phase1.beta_bits p1cfg in
    let field_bytes = (Bigint.numbits (Ppgr_dotprod.Zfield.modulus field) + 7) / 8 in
    (* Phase-1 message schedule: party indices 0..n-1 are participants,
       index n is the initiator. *)
    let phase1_rounds =
      [
        {
          Cost.critical_ops = 0;
          messages =
            List.concat_map
              (fun j ->
                Netsim.unicast ~src:j ~dst:n
                  ~bytes:(interactions.(j).Phase1.round1_elements * field_bytes))
              (List.init n (fun j -> j));
        };
        {
          Cost.critical_ops = 0;
          messages =
            List.concat_map
              (fun j ->
                Netsim.unicast ~src:n ~dst:j
                  ~bytes:(interactions.(j).Phase1.round2_elements * field_bytes))
              (List.init n (fun j -> j));
        };
      ]
    in
    List.iter
      (fun (r : Cost.round) -> record_wire ~step:"phase1" ~n r.Cost.messages)
      phase1_rounds;
    (* Phase 2: unlinkable comparison on the unsigned masked gains. *)
    let betas = Array.map (fun i -> i.Phase1.beta_unsigned) interactions in
    let rc =
      if restarts > 0 then
        RT.run_with_restart ?faults ?window ~max_restarts:restarts rng ~l ~betas
      else
        let st = RT.run ?faults ?window rng ~l ~betas in
        { RT.rec_stats = st; rec_resumes = 0; rec_reelected = None; rec_abandoned_bytes = 0 }
    in
    let st = rc.RT.rec_stats in
    (* Session index -> participant index: the identity unless the ring
       was re-elected without [dead], whose slot takes [absent]. *)
    let seat_of j =
      match rc.RT.rec_reelected with Some dead when j >= dead -> j + 1 | _ -> j
    in
    let seated absent (a : int array) =
      let out = Array.make n absent in
      Array.iteri (fun j v -> out.(seat_of j) <- v) a;
      out
    in
    let ranks = seated (n + 1) st.RT.ranks in
    let seat_msg (m : Netsim.message) =
      { m with Netsim.src = seat_of m.Netsim.src; dst = seat_of m.Netsim.dst }
    in
    let phase2_rounds =
      List.map
        (fun (r : Cost.round) -> { r with Cost.messages = List.map seat_msg r.Cost.messages })
        st.RT.schedule
    in
    (* Phase 3: top-k submission and over-claim vetting. *)
    let submissions, accepted, flagged, phase3_round =
      Trace.with_span ~attrs:[ ("n", Trace.Int n) ] "phase3" @@ fun () ->
      let submissions =
        List.filter_map
          (fun j ->
            if ranks.(j) <= cfg.k then
              Some { participant = j; claimed_rank = ranks.(j); info = infos.(j) }
            else None)
          (List.init n (fun j -> j))
      in
      let accepted, flagged = vet_submissions cfg.spec criterion submissions in
      let info_bytes = cfg.spec.Attrs.m * 8 in
      let phase3_round =
        {
          Cost.critical_ops = 0;
          messages =
            List.map
              (fun s -> { Netsim.src = s.participant; dst = n; bytes = info_bytes + 8 })
              submissions;
        }
      in
      record_wire ~step:"phase3" ~n phase3_round.Cost.messages;
      (submissions, accepted, flagged, phase3_round)
    in
    ( {
        ranks;
        submissions;
        accepted;
        flagged;
        costs =
          {
            participant_ops = seated 0 st.RT.per_party_ops;
            participant_exps = seated 0 st.RT.per_party_exps;
            initiator_field_mults;
            schedule = phase1_rounds @ phase2_rounds @ [ phase3_round ];
            wire_bytes =
              Cost.total_bytes (phase3_round :: phase1_rounds)
              + st.RT.bytes_on_wire + rc.RT.rec_abandoned_bytes;
            beta_bits = l;
          };
      },
      rc )
end

(** Runtime-dispatch convenience: run the framework over a first-class
    group value, keeping the outcome. *)
let run_with_group (g : Ppgr_group.Group_intf.group) rng cfg ~criterion ~infos =
  let module G = (val g) in
  let module F = Make (G) in
  fst (F.run rng cfg ~criterion ~infos)
