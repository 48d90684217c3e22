(* Chaos conformance suite: the full message-passing protocol replayed
   under seeded fault schedules, and one message under every scripted
   schedule its retry budget admits.

   The contract under test (lib/grouprank/transport.ml): whatever the
   fault plan does, a run TERMINATES and is either correct — ranks
   identical to the fault-free golden — or aborts with the typed
   Transport.Party_dropped carrying forensics.  Never a deadlock, never
   a silently wrong ranking.  And the whole ordeal is deterministic:
   the same fault seed yields a byte-identical physical transcript, at
   any job count. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_group
open Ppgr_grouprank
module Faultplan = Ppgr_mpcnet.Faultplan
module Pool = Ppgr_exec.Pool
module Metrics = Ppgr_obs.Metrics
module Trace = Ppgr_obs.Trace

let ranks_of_betas betas =
  Array.map
    (fun b ->
      1
      + Array.fold_left
          (fun acc b' -> if Bigint.compare b' b > 0 then acc + 1 else acc)
          0 betas)
    betas

(* One shared instance: n = 4 with a tie, l = 5 bits.  The protocol RNG
   seed is fixed across scenarios, so only the fault schedule varies. *)
let betas = Array.map Bigint.of_int [| 9; 3; 14; 3 |]
let l = 5
let golden = ranks_of_betas betas
let retry_budget = 8

(* The scenario matrix: >= 20 seeded fault mixes, single-kind and
   compound, mild to hostile.  Parsed through spec_of_string so the
   scenarios double as parser coverage. *)
let scenarios =
  [
    ("calm-baseline", "seed=calm");
    ("drop-light", "drop=0.05,seed=chaos-1");
    ("drop-moderate", "drop=0.2,seed=chaos-2");
    ("drop-heavy", "drop=0.5,seed=chaos-3");
    ("drop-storm", "drop=0.9,seed=chaos-4");
    ("corrupt-light", "corrupt=0.1,seed=chaos-5");
    ("corrupt-moderate", "corrupt=0.3,seed=chaos-6");
    ("corrupt-heavy", "corrupt=0.5,seed=chaos-7");
    ("dup-light", "dup=0.2,seed=chaos-8");
    ("dup-heavy", "dup=0.5,seed=chaos-9");
    ("reorder-light", "reorder=0.1,seed=chaos-10");
    ("reorder-moderate", "reorder=0.3,seed=chaos-11");
    ("reorder-heavy", "reorder=0.5,seed=chaos-12");
    ("delay-moderate", "delay=0.3,maxdelay=4,seed=chaos-13");
    ("delay-heavy", "delay=0.8,maxdelay=16,seed=chaos-14");
    ("drop-corrupt", "drop=0.1,corrupt=0.1,seed=chaos-15");
    ("loss-trio", "drop=0.05,dup=0.05,reorder=0.05,seed=chaos-16");
    ( "all-faults-mild",
      "drop=0.05,corrupt=0.05,dup=0.05,reorder=0.05,delay=0.05,seed=chaos-17" );
    ( "all-faults-moderate",
      "drop=0.1,corrupt=0.1,dup=0.1,reorder=0.1,delay=0.1,maxdelay=8,\
       seed=chaos-18" );
    ("drop-delay", "drop=0.3,delay=0.3,maxdelay=4,seed=chaos-19");
    ("corrupt-dup", "corrupt=0.15,dup=0.15,seed=chaos-20");
    ("perfect-storm", "drop=0.25,corrupt=0.25,dup=0.2,reorder=0.2,seed=chaos-21");
  ]

(* Only faults the sender times out on can exhaust the retry budget;
   duplicates and delays always deliver on the first attempt. *)
let may_abort (s : Faultplan.spec) =
  s.Faultplan.f_drop > 0. || s.f_corrupt > 0. || s.f_reorder > 0.

module Conformance (G : Group_intf.GROUP) = struct
  module RT = Runtime.Make (G)

  type outcome =
    | Completed of RT.stats
    | Aborted of Transport.forensics

  let run_spec spec =
    let rng = Rng.create ~seed:"chaos-protocol" in
    match RT.run ~faults:spec ~retry_budget rng ~l ~betas with
    | st -> Completed st
    | exception Transport.Party_dropped f -> Aborted f

  let digest_of = function
    | Completed st -> st.RT.transcript_sha
    | Aborted f -> f.Transport.fr_digest

  (* The fault-free link clock: one tick per flush. *)
  let calm =
    lazy
      (match run_spec (Faultplan.spec_of_string "seed=calm") with
      | Completed st -> st
      | Aborted _ -> Alcotest.fail "calm baseline aborted")

  let check_hex64 what s =
    Alcotest.(check int) (what ^ " digest length") 64 (String.length s);
    String.iter
      (fun c ->
        match c with
        | '0' .. '9' | 'a' .. 'f' -> ()
        | _ -> Alcotest.failf "%s digest not lowercase hex: %S" what s)
      s

  (* The conformance predicate for one scenario. *)
  let check_outcome name spec = function
    | Completed st ->
        Alcotest.(check (array int)) (name ^ ": ranks golden") golden st.RT.ranks;
        check_hex64 name st.RT.transcript_sha;
        Alcotest.(check bool)
          (name ^ ": physical >= logical messages")
          true
          (st.RT.phys_messages >= st.RT.messages);
        Alcotest.(check bool)
          (name ^ ": physical bytes cover envelopes")
          true
          (st.RT.phys_bytes
          >= st.RT.bytes_on_wire + (st.RT.messages * Wire.envelope_overhead));
        let injected =
          List.fold_left (fun a (_, c) -> a + c) 0 st.RT.faults_injected
        in
        if injected = 0 then begin
          (* A clean schedule must add exactly one envelope per message
             and recover nothing. *)
          Alcotest.(check int)
            (name ^ ": clean phys messages")
            st.RT.messages st.RT.phys_messages;
          Alcotest.(check int)
            (name ^ ": clean phys bytes")
            (st.RT.bytes_on_wire + (st.RT.messages * Wire.envelope_overhead))
            st.RT.phys_bytes;
          Alcotest.(check int) (name ^ ": clean retransmits") 0 st.RT.retransmits
        end;
        (* Every corruption that reached the wire was refused by CRC,
           and every timed-out attempt was retransmitted. *)
        let kind k = List.assoc k st.RT.faults_injected in
        Alcotest.(check int)
          (name ^ ": corruptions all CRC-rejected")
          (kind "corrupt") st.RT.crc_rejects;
        Alcotest.(check int)
          (name ^ ": timeouts all retransmitted")
          (kind "drop" + kind "corrupt" + kind "reorder")
          st.RT.retransmits;
        (* One timer rule: each retransmission waits one rto (4 ticks
           by default), and the clean reverse channel acks every
           message exactly once. *)
        Alcotest.(check int)
          (name ^ ": backoff = rto x retransmits")
          (4 * st.RT.retransmits) st.RT.backoff_ticks;
        Alcotest.(check int)
          (name ^ ": one ack per message")
          st.RT.messages st.RT.acks_sent;
        (* The control plane ran off the transcript: framed acks only. *)
        Alcotest.(check int)
          (name ^ ": ack bytes are framed acks")
          (st.RT.acks_sent * Wire.ack_overhead)
          st.RT.ack_bytes;
        (* Every second copy of a duplicate and every held reordered
           copy reaches the receiver after the accept, as stale. *)
        Alcotest.(check int)
          (name ^ ": stale copies all suppressed")
          (kind "duplicate" + kind "reorder")
          st.RT.dup_suppressed;
        (* Per-link tiling covers the physical totals exactly. *)
        let msgs, bytes, retrans =
          List.fold_left
            (fun (m, b, r) lk ->
              ( m + lk.Transport.lk_msgs,
                b + lk.Transport.lk_bytes,
                r + lk.Transport.lk_retrans ))
            (0, 0, 0) st.RT.links
        in
        Alcotest.(check int) (name ^ ": links tile phys messages")
          st.RT.phys_messages msgs;
        Alcotest.(check int) (name ^ ": links tile phys bytes") st.RT.phys_bytes
          bytes;
        Alcotest.(check int) (name ^ ": links tile retransmits")
          st.RT.retransmits retrans;
        if kind "delay" > 0 then
          Alcotest.(check bool)
            (name ^ ": delays advance the link clock")
            true
            (st.RT.sim_ticks > (Lazy.force calm).RT.sim_ticks)
    | Aborted f ->
        Alcotest.(check bool)
          (name ^ ": abort only under timeout faults")
          true (may_abort spec);
        Alcotest.(check int)
          (name ^ ": abort after full budget")
          (retry_budget + 1) f.Transport.fr_attempts;
        Alcotest.(check int)
          (name ^ ": one event per attempt")
          (retry_budget + 1)
          (List.length f.Transport.fr_events);
        check_hex64 name f.Transport.fr_digest;
        Alcotest.(check bool)
          (name ^ ": forensics name a protocol step")
          true
          (f.Transport.fr_step <> "")

  let scenario_cases =
    List.map
      (fun (name, spec_str) ->
        Alcotest.test_case name `Quick (fun () ->
            let spec = Faultplan.spec_of_string spec_str in
            check_outcome name spec (run_spec spec)))
      scenarios

  (* Same seed, same schedule, same transcript — byte-identical. *)
  let determinism_cases =
    let replayed = [ "calm-baseline"; "drop-storm"; "all-faults-moderate"; "reorder-heavy" ] in
    List.map
      (fun name ->
        let spec_str = List.assoc name scenarios in
        Alcotest.test_case (name ^ " replays identically") `Quick (fun () ->
            let spec = Faultplan.spec_of_string spec_str in
            let a = run_spec spec and b = run_spec spec in
            Alcotest.(check string) "transcript digest" (digest_of a) (digest_of b);
            match (a, b) with
            | Completed x, Completed y ->
                Alcotest.(check (array int)) "ranks" x.RT.ranks y.RT.ranks;
                Alcotest.(check int) "retransmits" x.RT.retransmits y.RT.retransmits
            | Aborted x, Aborted y ->
                Alcotest.(check string) "abort step" x.Transport.fr_step
                  y.Transport.fr_step;
                Alcotest.(check int) "abort seq" x.Transport.fr_seq
                  y.Transport.fr_seq
            | _ -> Alcotest.fail "outcome kind differs between replays"))
      replayed

  (* The transcript must not depend on the domain-pool job count. *)
  let jobs_cases =
    let crossed = [ "calm-baseline"; "drop-storm"; "all-faults-moderate" ] in
    List.map
      (fun name ->
        let spec_str = List.assoc name scenarios in
        Alcotest.test_case (name ^ ": jobs=1 = jobs=4") `Quick (fun () ->
            let spec = Faultplan.spec_of_string spec_str in
            let prev = Pool.jobs () in
            Fun.protect
              ~finally:(fun () -> Pool.set_jobs prev)
              (fun () ->
                Pool.set_jobs 1;
                let a = run_spec spec in
                Pool.set_jobs 4;
                let b = run_spec spec in
                Alcotest.(check string) "transcript digest" (digest_of a)
                  (digest_of b))))
      crossed

  let cases = scenario_cases @ determinism_cases @ jobs_cases

  (* What the delivery engine is pinned to: for a completed run its
     transcript digest, link clock, physical bytes and retransmissions;
     for an abort the step, sequence number and digest it stopped at. *)
  let pin_render = function
    | Completed st ->
        Printf.sprintf "%s ticks=%d phys_bytes=%d retransmits=%d"
          st.RT.transcript_sha st.RT.sim_ticks st.RT.phys_bytes st.RT.retransmits
    | Aborted f ->
        Printf.sprintf "abort %s#%d %s" f.Transport.fr_step f.Transport.fr_seq
          f.Transport.fr_digest

  let pinned_case pins =
    Alcotest.test_case (G.name ^ ": six pinned scenarios") `Quick (fun () ->
        List.iter
          (fun (name, want) ->
            let spec = Faultplan.spec_of_string (List.assoc name scenarios) in
            Alcotest.(check string) name want (pin_render (run_spec spec)))
          pins)
end

(* The engine's output on this file's instance, pinned on both groups. *)
let dl_512_pins =
  [
    ( "calm-baseline",
      "59dcb1475e1599f12a270cb66bcb033e196013b8fa981c5de5fb0e69d80e347d ticks=8 \
       phys_bytes=45612 retransmits=0" );
    ( "drop-storm",
      "abort announce#0 \
       45bfba94f204fbbe8c037d65e76eef1c2c5c517704d5982cfb4a670b8826589d" );
    ( "dup-heavy",
      "427d63d9ff26304ac41d46128ca84957e89dc4e77e95ee7cfb72dfa9377807a4 ticks=12 \
       phys_bytes=56694 retransmits=0" );
    ( "reorder-heavy",
      "df6d0cec84edb76f9f0af82a785179162878398cb1a53f100a5de33a23610c8f ticks=98 \
       phys_bytes=76268 retransmits=41" );
    ( "delay-heavy",
      "59dcb1475e1599f12a270cb66bcb033e196013b8fa981c5de5fb0e69d80e347d ticks=97 \
       phys_bytes=45612 retransmits=0" );
    ( "perfect-storm",
      "abort ring#4 b452f7efe151aa7d2d099dfb4fe46253e795d146270f76bddb9630b8bfa331e8"
    );
  ]

let ecc_160_pins =
  [
    ( "calm-baseline",
      "9654bb063200e630933d4f4da011cb94dfdac926f95ad636f92ee86e868de462 ticks=8 \
       phys_bytes=29352 retransmits=0" );
    ( "drop-storm",
      "abort announce#0 \
       45bfba94f204fbbe8c037d65e76eef1c2c5c517704d5982cfb4a670b8826589d" );
    ( "dup-heavy",
      "12dc92199e3452ed7cd3a99627bd1f2f61adf3cb00dd0c3499e717283237f6ed ticks=12 \
       phys_bytes=36490 retransmits=0" );
    ( "reorder-heavy",
      "f9acbc210cb986fc7897402d01204cd468984c5addc3f33e717fb06f4b26d5d4 ticks=98 \
       phys_bytes=49103 retransmits=41" );
    ( "delay-heavy",
      "9654bb063200e630933d4f4da011cb94dfdac926f95ad636f92ee86e868de462 ticks=97 \
       phys_bytes=29352 retransmits=0" );
    ( "perfect-storm",
      "abort ring#4 0484091c6c8a862d6bf2e473dabb5f44a168b9be1e7728f94dbf28db35facd94"
    );
  ]

(* ---- Invariant 1: one transcript across jobs, windows, telemetry ---- *)

module Invariant (G : Group_intf.GROUP) = struct
  module RT = Runtime.Make (G)

  (* Telemetry on is everything the CLI's observability flags switch
     on: span tracing with probe sampling, the message instants
     included.  Returns the run and its spans. *)
  let with_telemetry f =
    let probes =
      ("exps", Opmeter.count) :: ("group_mults", G.op_count) :: G.probes
    in
    List.iter (fun (name, read) -> Metrics.register ~name read) probes;
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun (name, _) -> Metrics.unregister ~name) probes)
      (fun () -> Trace.capture f)

  let run ~jobs ~window ~telemetry spec =
    let prev = Pool.jobs () in
    Pool.set_jobs jobs;
    Fun.protect ~finally:(fun () -> Pool.set_jobs prev) @@ fun () ->
    let go () =
      RT.run ?window ~faults:spec ~retry_budget
        (Rng.create ~seed:"chaos-protocol")
        ~l ~betas
    in
    if telemetry then with_telemetry go else (go (), [])

  let cases =
    [
      Alcotest.test_case
        "all-faults-moderate: one digest over jobs x window x telemetry"
        `Quick (fun () ->
          let spec =
            Faultplan.spec_of_string (List.assoc "all-faults-moderate" scenarios)
          in
          let base, _ = run ~jobs:1 ~window:None ~telemetry:false spec in
          Alcotest.(check (array int)) "ranks golden" golden base.RT.ranks;
          List.iter
            (fun jobs ->
              List.iter
                (fun (wname, window) ->
                  List.iter
                    (fun telemetry ->
                      let st, spans = run ~jobs ~window ~telemetry spec in
                      let what =
                        Printf.sprintf "jobs=%d %s telemetry=%b" jobs wname
                          telemetry
                      in
                      Alcotest.(check string) (what ^ ": transcript digest")
                        base.RT.transcript_sha st.RT.transcript_sha;
                      Alcotest.(check (array int)) (what ^ ": ranks") golden
                        st.RT.ranks;
                      if telemetry then
                        Alcotest.(check int)
                          (what ^ ": one runtime.ring span per party")
                          (Array.length betas)
                          (List.length
                             (List.filter
                                (fun (sp : Trace.span) ->
                                  sp.Trace.name = "runtime.ring")
                                spans));
                      (* The arrow heads: one msg.accept instant per
                         logical message when traced, none otherwise. *)
                      Alcotest.(check int) (what ^ ": flows")
                        (if telemetry then st.RT.messages else 0)
                        (List.length
                           (List.filter
                              (fun (sp : Trace.span) -> sp.Trace.name = "msg.accept")
                              spans)))
                    [ false; true ])
                [
                  ("stop-and-wait", None);
                  ("window=4", Some (Transport.winspec_of_string "window=4,rto=4"));
                ])
            [ 1; 2; 4 ]);
    ]
end

(* Group-independent window-spec grammar behaviour. *)
let winspec_tests =
  [
    Alcotest.test_case "winspec parses and round-trips" `Quick (fun () ->
        let s = Transport.winspec_of_string "window=8,rto=6" in
        Alcotest.(check string)
          "round trip"
          (Transport.winspec_to_string s)
          (Transport.winspec_to_string
             (Transport.winspec_of_string (Transport.winspec_to_string s))));
    Alcotest.test_case "bad winspecs rejected" `Quick (fun () ->
        let bad s =
          try
            ignore (Transport.winspec_of_string s);
            false
          with Invalid_argument _ -> true
        in
        Alcotest.(check bool) "unknown key" true (bad "frob=1");
        Alcotest.(check bool) "zero window" true (bad "window=0");
        Alcotest.(check bool) "window above cap" true
          (bad (Printf.sprintf "window=%d" (Transport.max_window + 1)));
        Alcotest.(check bool) "zero rto" true (bad "rto=0");
        Alcotest.(check bool) "per-link override rejected" true
          (bad "link-0-1=4");
        Alcotest.(check bool) "no equals sign" true (bad "window"));
  ]

(* ---- Flight recorder: the per-party ring of recent wire events ---- *)

module Flightrec = Ppgr_obs.Flightrec

module Flight (G : Group_intf.GROUP) = struct
  module RT = Runtime.Make (G)

  let run_spec ?flight_cap ?(seed = "chaos-protocol") spec_str =
    let rng = Rng.create ~seed in
    let faults = Faultplan.spec_of_string spec_str in
    RT.run ~faults ~retry_budget ?flight_cap rng ~l ~betas

  let cases =
    [
      Alcotest.test_case "ring wraps at capacity, keeping the newest" `Quick
        (fun () ->
          let cap = 8 in
          let st = run_spec ~flight_cap:cap "drop=0.2,dup=0.2,seed=chaos-2" in
          let fl = st.RT.flight in
          Alcotest.(check int) "capacity as configured" cap
            (Flightrec.capacity fl);
          (* Every party both sends and receives in every step, so with
             dozens of messages each ring must have overflowed. *)
          Array.iteri
            (fun p _ ->
              let n = Flightrec.recorded fl ~party:p in
              Alcotest.(check bool)
                (Printf.sprintf "party %d overflowed" p)
                true (n > cap);
              Alcotest.(check bool)
                (Printf.sprintf "party %d wrapped" p)
                true
                (Flightrec.wrapped fl ~party:p);
              Alcotest.(check int)
                (Printf.sprintf "party %d tail is capacity-bounded" p)
                cap
                (List.length (Flightrec.tail fl ~party:p)))
            betas);
      Alcotest.test_case "unwrapped ring retains everything, oldest first"
        `Quick (fun () ->
          let fl = Flightrec.create ~parties:1 ~capacity:16 () in
          for seq = 0 to 9 do
            Flightrec.record fl ~party:0 Send ~src:0 ~dst:1 ~seq ~info:seq
          done;
          Alcotest.(check bool) "not wrapped" false
            (Flightrec.wrapped fl ~party:0);
          let tl = Flightrec.tail fl ~party:0 in
          Alcotest.(check (list int)) "oldest first, none lost"
            [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
            (List.map (fun e -> e.Flightrec.ev_seq) tl));
      Alcotest.test_case "wrapped ring keeps exactly the newest" `Quick
        (fun () ->
          let fl = Flightrec.create ~parties:2 ~capacity:4 () in
          for seq = 0 to 10 do
            Flightrec.record fl ~party:1 Receive ~src:0 ~dst:1 ~seq ~info:0
          done;
          Alcotest.(check int) "recorded all" 11 (Flightrec.recorded fl ~party:1);
          Alcotest.(check (list int)) "last capacity events, oldest first"
            [ 7; 8; 9; 10 ]
            (List.map
               (fun e -> e.Flightrec.ev_seq)
               (Flightrec.tail fl ~party:1));
          (* The other party's ring is untouched. *)
          Alcotest.(check int) "party 0 empty" 0 (Flightrec.recorded fl ~party:0));
      Alcotest.test_case "clean run records no recovery events" `Quick
        (fun () ->
          let st = run_spec "seed=calm" in
          Array.iteri
            (fun p _ ->
              List.iter
                (fun e ->
                  match e.Flightrec.ev_kind with
                  | Flightrec.Retransmit | Flightrec.Crc_reject ->
                      Alcotest.failf
                        "party %d: clean run recorded a %s event" p
                        (Flightrec.kind_name e.Flightrec.ev_kind)
                  | _ -> ())
                (Flightrec.tail st.RT.flight ~party:p))
            betas);
      Alcotest.test_case "abort forensics carry the failing link's tail"
        `Quick (fun () ->
          (* Hostile enough that the retry budget cannot absorb it. *)
          let rng = Rng.create ~seed:"chaos-protocol" in
          let faults = Faultplan.spec_of_string "drop=0.9,seed=chaos-abort" in
          match RT.run ~faults ~retry_budget:2 rng ~l ~betas with
          | _ -> Alcotest.fail "expected Party_dropped under drop=0.9"
          | exception Transport.Party_dropped f ->
              Alcotest.(check bool) "flight tail present" true
                (f.Transport.fr_flight <> []);
              (* The tail must show the sender actually fighting the
                 link: at least one retransmit among the recent events. *)
              Alcotest.(check bool) "tail shows retransmissions" true
                (List.exists
                   (fun e -> e.Flightrec.ev_kind = Flightrec.Retransmit)
                   f.Transport.fr_flight);
              (* And every rendered line is non-empty (the CLI prints
                 these verbatim in the exit-3 report). *)
              List.iter
                (fun e ->
                  let line = Format.asprintf "%a" Flightrec.pp_event e in
                  Alcotest.(check bool) "pp_event renders" true (line <> ""))
                f.Transport.fr_flight);
    ]
end

(* Group-independent fault-plan behaviour. *)
let faultplan_tests =
  [
    Alcotest.test_case "spec parses and round-trips" `Quick (fun () ->
        let s =
          Faultplan.spec_of_string
            "drop=0.1,corrupt=0.02,dup=0.01,reorder=0.05,delay=0.1,maxdelay=4,\
             seed=x"
        in
        Alcotest.(check string)
          "round trip"
          (Faultplan.spec_to_string s)
          (Faultplan.spec_to_string
             (Faultplan.spec_of_string (Faultplan.spec_to_string s))));
    Alcotest.test_case "unknown keys and bad rates rejected" `Quick (fun () ->
        let bad s =
          try
            ignore (Faultplan.spec_of_string s);
            false
          with Invalid_argument _ -> true
        in
        Alcotest.(check bool) "unknown key" true (bad "frobnicate=0.1");
        Alcotest.(check bool) "rate above 1" true (bad "drop=1.5");
        Alcotest.(check bool) "negative rate" true (bad "corrupt=-0.1");
        Alcotest.(check bool) "no equals sign" true (bad "drop");
        Alcotest.(check bool) "zero maxdelay" true (bad "maxdelay=0"));
    Alcotest.test_case "schedule is independent of link interleaving" `Quick
      (fun () ->
        (* Draw the same 40 per-link decisions in sequential and in
           round-robin link order: the per-link schedules must agree. *)
        let spec =
          Faultplan.spec_of_string
            "drop=0.2,corrupt=0.2,dup=0.2,reorder=0.2,delay=0.1,seed=ilv"
        in
        let links = [ (0, 1); (1, 2); (2, 0) ] in
        let a = Faultplan.create spec and b = Faultplan.create spec in
        let seq_order =
          List.concat_map
            (fun (src, dst) ->
              List.init 40 (fun _ -> Faultplan.next a ~src ~dst))
            links
        in
        let rr = Array.make (3 * 40) Faultplan.Deliver in
        for k = 0 to 39 do
          List.iteri
            (fun li (src, dst) -> rr.((li * 40) + k) <- Faultplan.next b ~src ~dst)
            links
        done;
        Alcotest.(check bool)
          "same per-link decisions" true
          (seq_order = Array.to_list rr));
    Alcotest.test_case "corruption damages exactly one byte" `Quick (fun () ->
        let spec = Faultplan.spec_of_string "corrupt=1,seed=corr" in
        let plan = Faultplan.create spec in
        for _ = 1 to 50 do
          match Faultplan.next plan ~src:0 ~dst:1 with
          | Faultplan.Corrupt c ->
              let msg = Bytes.init 33 (fun i -> Char.chr (i * 7 land 0xFF)) in
              let out = Faultplan.apply_corruption c msg in
              let diff = ref 0 in
              Bytes.iteri
                (fun i ch -> if ch <> Bytes.get out i then incr diff)
                msg;
              Alcotest.(check int) "one byte differs" 1 !diff
          | _ -> Alcotest.fail "corrupt=1 must always corrupt"
        done);
    Alcotest.test_case "tallies account every non-deliver decision" `Quick
      (fun () ->
        let spec =
          Faultplan.spec_of_string
            "drop=0.3,corrupt=0.2,dup=0.2,reorder=0.2,delay=0.1,seed=tally"
        in
        let plan = Faultplan.create spec in
        let non_deliver = ref 0 in
        for src = 0 to 2 do
          for k = 0 to 99 do
            ignore k;
            match Faultplan.next plan ~src ~dst:((src + 1) mod 3) with
            | Faultplan.Deliver -> ()
            | _ -> incr non_deliver
          done
        done;
        Alcotest.(check int)
          "total tally" !non_deliver
          (Faultplan.total_injected plan));
  ]

(* ---- Every fault schedule of one message ---- *)

(* Within a flush, links are independent: only the sequence counters
   and the per-link fault-draw counts cross a flush boundary.  So the
   engine is covered by one message on one link under every schedule
   its retry budget admits, plus the seeded protocol runs above.

   A schedule is k <= 8 timeouts (drop, corrupt or reorder) followed by
   an ending outcome (deliver, duplicate, delay 1 or delay 3), or nine
   timeouts, which spend the default budget of 8 retransmissions:
   4 · (3^0 + … + 3^8) + 3^9 = 59,047 schedules.  Each runs on link
   0->1 of a two-party transport at the default rto of 4 ticks. *)
let schedule_tests =
  let rto = 4 and budget = 8 in
  let timeout_of code attempt =
    match code with
    | 0 -> Faultplan.Drop
    | 1 -> Faultplan.Corrupt { Faultplan.cor_offset = 7 * attempt; cor_mask = 0x41 }
    | _ -> Faultplan.Reorder
  in
  let name_of = function
    | Faultplan.Deliver -> "deliver"
    | Faultplan.Drop -> "drop"
    | Faultplan.Corrupt _ -> "corrupt"
    | Faultplan.Duplicate -> "duplicate"
    | Faultplan.Reorder -> "reorder"
    | Faultplan.Delay d -> Printf.sprintf "delay:%d" d
  in
  let payload = Bytes.of_string "one phase-2 message" in
  (* Run one schedule; [timeouts] then [ending] ([None]: abort). *)
  let check (timeouts : Faultplan.fault list) (ending : Faultplan.fault option) =
    let sched = Array.of_list (timeouts @ Option.to_list ending) in
    let what =
      String.concat "," (List.map name_of (Array.to_list sched))
    in
    let expect field want got =
      if want <> got then
        Alcotest.failf "schedule [%s]: %s = %d, expected %d" what field got want
    in
    let plan =
      Faultplan.scripted (fun ~src ~dst ~attempt ->
          if (src, dst) <> (0, 1) then
            Alcotest.failf "schedule [%s]: draw on link %d->%d" what src dst;
          sched.(attempt))
    in
    let t = Transport.create ~faults:plan ~n:2 () in
    let ticket = Transport.post t ~src:0 ~dst:1 payload in
    let count f = List.length (List.filter f timeouts) in
    let drops = count (( = ) Faultplan.Drop) in
    let reorders = count (( = ) Faultplan.Reorder) in
    let corrupts = List.length timeouts - drops - reorders in
    let outcome =
      match Transport.flush t with
      | out -> Ok out.(ticket)
      | exception Transport.Party_dropped f -> Error f
    in
    let st = Transport.stats t in
    expect "drops" drops st.Transport.drops;
    expect "crc_rejects" corrupts st.Transport.crc_rejects;
    expect "reorders" reorders st.Transport.reorders;
    let k = min (List.length timeouts) budget in
    expect "retransmits" k st.Transport.retransmits;
    expect "backoff_ticks" (rto * k) st.Transport.backoff_ticks;
    match (ending, outcome) with
    | Some e, Ok got ->
        if not (Bytes.equal got payload) then
          Alcotest.failf "schedule [%s]: accepted payload differs" what;
        (match Transport.links t with
        | [ lk ] ->
            expect "link messages" st.Transport.phys_messages lk.Transport.lk_msgs;
            expect "link bytes" st.Transport.phys_bytes lk.Transport.lk_bytes;
            expect "link retransmits" k lk.Transport.lk_retrans
        | lks -> Alcotest.failf "schedule [%s]: %d links" what (List.length lks));
        let dup = if e = Faultplan.Duplicate then 1 else 0 in
        expect "dup_suppressed" (reorders + dup) st.Transport.dup_suppressed;
        expect "phys_messages" (corrupts + reorders + 1 + dup)
          st.Transport.phys_messages;
        let busy = match e with Faultplan.Delay d -> 1 + d | _ -> 1 + dup in
        expect "sim_ticks" ((k * (1 + rto)) + busy) st.Transport.sim_ticks;
        expect "acks_sent" 1 st.Transport.acks_sent;
        expect "ack_bytes" Wire.ack_overhead st.Transport.ack_bytes
    | None, Error f ->
        expect "fr_attempts" (budget + 1) f.Transport.fr_attempts;
        if f.Transport.fr_events <> List.map name_of timeouts then
          Alcotest.failf "schedule [%s]: forensics events [%s]" what
            (String.concat "," f.Transport.fr_events);
        expect "phys_messages" corrupts st.Transport.phys_messages;
        expect "dup_suppressed" 0 st.Transport.dup_suppressed;
        expect "acks_sent" 0 st.Transport.acks_sent
    | Some _, Error f ->
        Alcotest.failf "schedule [%s]: aborted after %d attempts" what
          f.Transport.fr_attempts
    | None, Ok _ -> Alcotest.failf "schedule [%s]: completed past its budget" what
  in
  [
    Alcotest.test_case "every schedule of one message" `Quick (fun () ->
        let endings =
          [ Faultplan.Deliver; Faultplan.Duplicate; Faultplan.Delay 1; Faultplan.Delay 3 ]
        in
        let runs = ref 0 in
        (* Every sequence of [len] timeouts, as base-3 digits of [code]. *)
        let rec pow3 i = if i = 0 then 1 else 3 * pow3 (i - 1) in
        let each_prefix len f =
          for code = 0 to pow3 len - 1 do
            f (List.init len (fun i -> timeout_of (code / pow3 i mod 3) i))
          done
        in
        for len = 0 to budget do
          each_prefix len (fun timeouts ->
              List.iter
                (fun e ->
                  check timeouts (Some e);
                  incr runs)
                endings)
        done;
        each_prefix (budget + 1) (fun timeouts ->
            check timeouts None;
            incr runs);
        Alcotest.(check int) "schedules enumerated" 59_047 !runs);
    Alcotest.test_case "two posts on one link in one flush" `Quick (fun () ->
        let t = Transport.create ~n:2 () in
        ignore (Transport.post t ~src:0 ~dst:1 payload);
        ignore (Transport.post t ~src:0 ~dst:1 payload);
        match Transport.flush t with
        | _ -> Alcotest.fail "flush accepted two messages on one link"
        | exception Invalid_argument _ -> ());
  ]

module G_dl = (val Dl_group.dl_512 () : Group_intf.GROUP)
module G_ec = (val Ec_group.ecc_160 () : Group_intf.GROUP)
module Dl = Conformance (G_dl)
module Ec = Conformance (G_ec)
module G_small = (val Dl_group.dl_test_64 () : Group_intf.GROUP)
module Fl = Flight (G_small)
module G_tiny = (val Ec_group.ecc_tiny () : Group_intf.GROUP)
module Inv_dl = Invariant (G_small)
module Inv_ec = Invariant (G_tiny)

let () =
  Alcotest.run "chaos"
    [
      ("faultplan", faultplan_tests);
      ("winspec", winspec_tests);
      ("dl-512", Dl.cases);
      ("ecc-160", Ec.cases);
      (* The longest suite name sets where alcotest cuts every test
         name it displays in this binary: keep it at 16 characters. *)
      ( "pinned-transport",
        [ Dl.pinned_case dl_512_pins; Ec.pinned_case ecc_160_pins ] );
      ("schedules", schedule_tests);
      ("flightrec", Fl.cases);
      ("invariant-1", Inv_dl.cases @ Inv_ec.cases);
    ]
