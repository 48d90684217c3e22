(* Chaos conformance suite: the full message-passing protocol replayed
   under seeded fault schedules.

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
module Hist = Ppgr_obs.Hist
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
end

(* ---- Window sizes: the one delivery engine at every window ---- *)

module Windowed (G : Group_intf.GROUP) = struct
  module RT = Runtime.Make (G)

  type outcome =
    | Completed of RT.stats
    | Aborted of Transport.forensics

  let run_spec ?window spec =
    let rng = Rng.create ~seed:"chaos-protocol" in
    match RT.run ?window ~faults:spec ~retry_budget rng ~l ~betas with
    | st -> Completed st
    | exception Transport.Party_dropped f -> Aborted f

  let digest_of = function
    | Completed st -> st.RT.transcript_sha
    | Aborted f -> f.Transport.fr_digest

  let winspec w = Transport.winspec_of_string (Printf.sprintf "window=%d,rto=4" w)

  (* Scenarios that stress the window: loss, reordering and latency. *)
  let windowed_scenarios =
    [
      "calm-baseline";
      "drop-moderate";
      "reorder-heavy";
      "delay-moderate";
      "delay-heavy";
      "drop-delay";
      "loss-trio";
      "all-faults-moderate";
    ]

  (* A window changes no output: the run at window [w] equals the run
     with no window spec (stop-and-wait) on the transcript, every
     physical and recovery counter, the link clock and the per-link
     tiling — and acks one per logical message. *)
  let check_same name (a : RT.stats) (b : RT.stats) =
    let what = Printf.sprintf "%s: %s" name in
    Alcotest.(check (array int)) (what "ranks") a.RT.ranks b.RT.ranks;
    Alcotest.(check int) (what "phys_messages") a.RT.phys_messages
      b.RT.phys_messages;
    Alcotest.(check int) (what "phys_bytes") a.RT.phys_bytes b.RT.phys_bytes;
    Alcotest.(check int) (what "retransmits") a.RT.retransmits b.RT.retransmits;
    Alcotest.(check int) (what "sim_ticks") a.RT.sim_ticks b.RT.sim_ticks;
    Alcotest.(check int) (what "backoff_ticks") a.RT.backoff_ticks
      b.RT.backoff_ticks;
    Alcotest.(check int) (what "acks_sent") a.RT.acks_sent b.RT.acks_sent;
    Alcotest.(check int) (what "one ack per message") b.RT.messages
      b.RT.acks_sent;
    Alcotest.(check bool) (what "links") true (a.RT.links = b.RT.links)

  (* window=1 is stop-and-wait: an explicit window=1 spec and no spec
     at all give the same run, byte for byte. *)
  let window_one_cases =
    List.map
      (fun name ->
        let spec_str = List.assoc name scenarios in
        Alcotest.test_case (name ^ ": window=1 = stop-and-wait") `Quick
          (fun () ->
            let spec = Faultplan.spec_of_string spec_str in
            let sync = run_spec spec in
            let w1 = run_spec ~window:(winspec 1) spec in
            Alcotest.(check string) "transcript digest" (digest_of sync)
              (digest_of w1);
            match (sync, w1) with
            | Completed a, Completed b -> check_same name a b
            | Aborted a, Aborted b ->
                Alcotest.(check string) "abort step" a.Transport.fr_step
                  b.Transport.fr_step;
                Alcotest.(check int) "abort attempts" a.Transport.fr_attempts
                  b.Transport.fr_attempts
            | _ -> Alcotest.fail "outcome kind differs at window=1"))
      windowed_scenarios

  (* Larger windows: every protocol step posts at most one message per
     directed link, so the run is window-invariant.  Check exactly
     that, plus the recovery invariants under chaos. *)
  let check_windowed name sync = function
    | Completed st ->
        Alcotest.(check (array int)) (name ^ ": ranks golden") golden st.RT.ranks;
        Alcotest.(check string)
          (name ^ ": transcript is window-invariant")
          (digest_of sync) st.RT.transcript_sha;
        let kind k = List.assoc k st.RT.faults_injected in
        Alcotest.(check int)
          (name ^ ": corruptions all CRC-rejected")
          (kind "corrupt") st.RT.crc_rejects;
        Alcotest.(check int)
          (name ^ ": timeouts all retransmitted")
          (kind "drop" + kind "corrupt" + kind "reorder")
          st.RT.retransmits;
        (* Per-link tiling still covers the physical totals exactly. *)
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
        Alcotest.(check int) (name ^ ": links tile phys bytes")
          st.RT.phys_bytes bytes;
        Alcotest.(check int) (name ^ ": links tile retransmits")
          st.RT.retransmits retrans;
        (* The control plane ran off the transcript: framed acks only. *)
        Alcotest.(check int)
          (name ^ ": ack bytes are framed acks")
          (st.RT.acks_sent * Wire.ack_overhead)
          st.RT.ack_bytes;
        (match sync with
        | Completed ss -> check_same name ss st
        | Aborted _ -> ())
    | Aborted f ->
        (match sync with
        | Aborted sf ->
            Alcotest.(check string)
              (name ^ ": abort digest is window-invariant")
              sf.Transport.fr_digest f.Transport.fr_digest
        | Completed _ -> Alcotest.fail (name ^ ": windowed run aborted where stop-and-wait completed"));
        Alcotest.(check int)
          (name ^ ": abort after full budget")
          (retry_budget + 1) f.Transport.fr_attempts

  (* Why the transcript is window-invariant: a link never holds more
     than one frame in flight, so selective acks and the out-of-order
     buffer never engage.  Every windowed run records the occupancy it
     saw at each admission and pins it at 1. *)
  let run_recording_occupancy spec w =
    Hist.reset Hist.window_occupancy;
    Hist.set_enabled true;
    let out =
      Fun.protect
        ~finally:(fun () -> Hist.set_enabled false)
        (fun () -> run_spec ~window:(winspec w) spec)
    in
    Alcotest.(check bool) "admissions recorded" true
      (Hist.count Hist.window_occupancy > 0);
    Alcotest.(check int) "window occupancy never exceeds 1" 1
      (Hist.max_value Hist.window_occupancy);
    out

  let windowed_cases =
    List.concat_map
      (fun name ->
        let spec_str = List.assoc name scenarios in
        List.map
          (fun w ->
            Alcotest.test_case
              (Printf.sprintf "%s: window=%d" name w)
              `Quick
              (fun () ->
                let spec = Faultplan.spec_of_string spec_str in
                let sync = run_spec spec in
                check_windowed name sync (run_recording_occupancy spec w)))
          [ 4; 16 ])
      windowed_scenarios

  (* Same window, same seed, same transcript — at any job count. *)
  let windowed_jobs_case =
    Alcotest.test_case "all-faults-moderate: window=4 jobs=1 = jobs=4" `Quick
      (fun () ->
        let spec =
          Faultplan.spec_of_string (List.assoc "all-faults-moderate" scenarios)
        in
        let prev = Pool.jobs () in
        Fun.protect
          ~finally:(fun () -> Pool.set_jobs prev)
          (fun () ->
            Pool.set_jobs 1;
            let a = run_spec ~window:(winspec 4) spec in
            Pool.set_jobs 4;
            let b = run_spec ~window:(winspec 4) spec in
            Alcotest.(check string) "transcript digest" (digest_of a)
              (digest_of b)))

  let cases = window_one_cases @ windowed_cases @ [ windowed_jobs_case ]
end

(* ---- Invariant 1: one transcript across jobs, windows, telemetry ---- *)

module Invariant (G : Group_intf.GROUP) = struct
  module RT = Runtime.Make (G)

  (* Telemetry on is everything the CLI's observability flags switch
     on: span tracing with probe sampling, histograms and the causal
     flow ledger. *)
  let with_telemetry f =
    let probes =
      ("exps", Opmeter.count) :: ("group_mults", G.op_count) :: G.probes
    in
    List.iter (fun (name, read) -> Metrics.register ~name read) probes;
    Hist.reset Hist.hop_us;
    Hist.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Hist.set_enabled false;
        List.iter (fun (name, _) -> Metrics.unregister ~name) probes)
      (fun () -> fst (Trace.capture f))

  let run ~jobs ~window ~telemetry spec =
    let prev = Pool.jobs () in
    Pool.set_jobs jobs;
    Fun.protect ~finally:(fun () -> Pool.set_jobs prev) @@ fun () ->
    let go () =
      RT.run ?window ~faults:spec ~retry_budget
        (Rng.create ~seed:"chaos-protocol")
        ~l ~betas
    in
    if telemetry then with_telemetry go else go ()

  let cases =
    [
      Alcotest.test_case
        "all-faults-moderate: one digest over jobs x window x telemetry"
        `Quick (fun () ->
          let spec =
            Faultplan.spec_of_string (List.assoc "all-faults-moderate" scenarios)
          in
          let base = run ~jobs:1 ~window:None ~telemetry:false spec in
          Alcotest.(check (array int)) "ranks golden" golden base.RT.ranks;
          List.iter
            (fun jobs ->
              List.iter
                (fun (wname, window) ->
                  List.iter
                    (fun telemetry ->
                      let st = run ~jobs ~window ~telemetry spec in
                      let what =
                        Printf.sprintf "jobs=%d %s telemetry=%b" jobs wname
                          telemetry
                      in
                      Alcotest.(check string) (what ^ ": transcript digest")
                        base.RT.transcript_sha st.RT.transcript_sha;
                      Alcotest.(check (array int)) (what ^ ": ranks") golden
                        st.RT.ranks;
                      if telemetry then
                        Alcotest.(check int) (what ^ ": one hop sample per party")
                          (Array.length betas) (Hist.count Hist.hop_us);
                      (* The causal ledger: one flow per logical
                         message when traced, none otherwise. *)
                      Alcotest.(check int) (what ^ ": flows")
                        (if telemetry then st.RT.messages else 0)
                        (List.length st.RT.flows))
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

module G_dl = (val Dl_group.dl_512 () : Group_intf.GROUP)
module G_ec = (val Ec_group.ecc_160 () : Group_intf.GROUP)
module Dl = Conformance (G_dl)
module Ec = Conformance (G_ec)
module Win_dl = Windowed (G_dl)
module Win_ec = Windowed (G_ec)
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
      ("windowed-dl-512", Win_dl.cases);
      ("windowed-ecc-160", Win_ec.cases);
      ("flightrec", Fl.cases);
      ("invariant-1", Inv_dl.cases @ Inv_ec.cases);
    ]
