(* Restart conformance: checkpoint/restart must be invisible.

   The contract under test (lib/grouprank/runtime.ml): a run aborted by
   Transport.Party_dropped at ANY wire step and resumed from the last
   checkpoint produces exactly the uninterrupted run — same ranks, same
   transcript digest, same logical and physical meters, same replay
   schedule.  This works because party randomness comes from rng splits
   the aborted attempt never disturbed, and the fault schedule is a pure
   function of the seed fast-forwarded to the persisted draw count.

   When resume itself is exhausted, the ring is re-elected without the
   dead party; that path must be byte-identical to a fresh (n-1)-party
   run on the "re-elect-<dead>" split (collusion bound degrades to n-3,
   DESIGN.md §5k). *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_group
open Ppgr_grouprank
module Pool = Ppgr_exec.Pool

let ranks_of_betas betas =
  Array.map
    (fun b ->
      1
      + Array.fold_left
          (fun acc b' -> if Bigint.compare b' b > 0 then acc + 1 else acc)
          0 betas)
    betas

(* Same instance as the chaos suite: n = 4 with a tie, l = 5 bits. *)
let betas = Array.map Bigint.of_int [| 9; 3; 14; 3 |]
let l = 5
let n = Array.length betas
let seed = "restart-proto"

(* Wire steps: announce, encrypt, compare, then n ring hops. *)
let wire_steps = 3 + n

(* phys_messages recorded in a checkpoint's transport snapshot —
   slot 7 of Wire.ts_counters (order fixed by Transport.persist). *)
let phys_at ck = (Wire.decode_checkpoint ck).Wire.ck_snap.Wire.ts_counters.(7)

module Battery (G : Group_intf.GROUP) = struct
  module RT = Runtime.Make (G)

  (* Uninterrupted golden, collecting the checkpoint emitted after each
     completed wire step.  Computed once per group. *)
  let golden =
    lazy
      (let cks = ref [] in
       let rng = Rng.create ~seed in
       let st =
         RT.run ~checkpoint_cb:(fun b -> cks := b :: !cks) rng ~l ~betas
       in
       (st, Array.of_list (List.rev !cks)))

  (* Full stats equality, field by field so a divergence names itself. *)
  let check_stats name (a : RT.stats) (b : RT.stats) =
    let ck_int what x y = Alcotest.(check int) (name ^ ": " ^ what) x y in
    let ck_arr what x y = Alcotest.(check (array int)) (name ^ ": " ^ what) x y in
    ck_arr "ranks" a.RT.ranks b.RT.ranks;
    ck_int "bytes_on_wire" a.RT.bytes_on_wire b.RT.bytes_on_wire;
    ck_int "messages" a.RT.messages b.RT.messages;
    ck_arr "party_sent" a.RT.party_sent b.RT.party_sent;
    ck_arr "party_received" a.RT.party_received b.RT.party_received;
    ck_int "phys_bytes" a.RT.phys_bytes b.RT.phys_bytes;
    ck_int "phys_messages" a.RT.phys_messages b.RT.phys_messages;
    ck_arr "phys_party_sent" a.RT.phys_party_sent b.RT.phys_party_sent;
    ck_arr "phys_party_received" a.RT.phys_party_received
      b.RT.phys_party_received;
    ck_int "retransmits" a.RT.retransmits b.RT.retransmits;
    ck_int "drops" a.RT.drops b.RT.drops;
    ck_int "crc_rejects" a.RT.crc_rejects b.RT.crc_rejects;
    ck_int "dup_suppressed" a.RT.dup_suppressed b.RT.dup_suppressed;
    ck_int "backoff_ticks" a.RT.backoff_ticks b.RT.backoff_ticks;
    ck_int "acks_sent" a.RT.acks_sent b.RT.acks_sent;
    ck_int "ack_bytes" a.RT.ack_bytes b.RT.ack_bytes;
    ck_int "sim_ticks" a.RT.sim_ticks b.RT.sim_ticks;
    Alcotest.(check (list (pair string int)))
      (name ^ ": faults_injected") a.RT.faults_injected b.RT.faults_injected;
    Alcotest.(check string)
      (name ^ ": transcript_sha") a.RT.transcript_sha b.RT.transcript_sha;
    Alcotest.(check bool)
      (name ^ ": net_rounds identical") true
      (a.RT.net_rounds = b.RT.net_rounds);
    Alcotest.(check bool)
      (name ^ ": per-link tiling identical") true (a.RT.links = b.RT.links)

  let checkpoint_shape_case =
    Alcotest.test_case "one checkpoint per wire step, monotone" `Quick
      (fun () ->
        let _, cks = Lazy.force golden in
        Alcotest.(check int) "checkpoint count" wire_steps (Array.length cks);
        Array.iteri
          (fun i b ->
            let c = Wire.decode_checkpoint b in
            Alcotest.(check int)
              (Printf.sprintf "checkpoint %d covers %d steps" i (i + 1))
              (i + 1) c.Wire.ck_step;
            Alcotest.(check int) "party count" n c.Wire.ck_n;
            if i > 0 then
              Alcotest.(check bool)
                (Printf.sprintf "phys_messages grew by step %d" i)
                true
                (phys_at b > phys_at cks.(i - 1)))
          cks)

  (* The headline battery: kill at the entry of EVERY wire step, let the
     supervisor resume from the last checkpoint, compare everything to
     the uninterrupted golden. *)
  let kill_every_step_cases =
    List.init wire_steps (fun s ->
        Alcotest.test_case
          (Printf.sprintf "kill at step %d, resume = golden" s)
          `Quick
          (fun () ->
            let gst, cks = Lazy.force golden in
            (* First transmission of step s trips the kill: phys count
               at the end of step s-1 (0 kills the very first send). *)
            let kill_after = if s = 0 then 0 else phys_at cks.(s - 1) in
            let rng = Rng.create ~seed in
            let rc =
              RT.run_with_restart ~max_restarts:1 ~kill_after rng ~l ~betas
            in
            Alcotest.(check int) "one resume consumed" 1 rc.RT.rec_resumes;
            Alcotest.(check bool) "no re-election" true
              (rc.RT.rec_reelected = None);
            check_stats (Printf.sprintf "step %d" s) gst rc.RT.rec_stats))

  (* Mid-step kill: die after a few transmissions of the encrypt
     broadcast; the resume replays the whole interrupted step. *)
  let mid_step_case =
    Alcotest.test_case "kill mid-step, resume = golden" `Quick (fun () ->
        let gst, cks = Lazy.force golden in
        let kill_after = phys_at cks.(0) + 3 in
        let rng = Rng.create ~seed in
        let rc =
          RT.run_with_restart ~max_restarts:1 ~kill_after rng ~l ~betas
        in
        Alcotest.(check int) "one resume consumed" 1 rc.RT.rec_resumes;
        check_stats "mid-step" gst rc.RT.rec_stats)

  (* The low-level resume API, without the supervisor: abort, then feed
     the captured checkpoint back through ?resume on a fresh rng. *)
  let manual_resume_case =
    Alcotest.test_case "manual ?resume from captured checkpoint" `Quick
      (fun () ->
        let gst, cks = Lazy.force golden in
        let kill_after = phys_at cks.(2) in
        let latest = ref None in
        let rng = Rng.create ~seed in
        (match
           RT.run ~kill_after
             ~checkpoint_cb:(fun b -> latest := Some b)
             rng ~l ~betas
         with
        | _ -> Alcotest.fail "expected Party_dropped at the kill point"
        | exception Transport.Party_dropped f ->
            Alcotest.(check bool) "killed event recorded" true
              (List.mem "killed" f.Transport.fr_events));
        let ck = Option.get !latest in
        Alcotest.(check int) "aborted at ring entry" 3
          (Wire.decode_checkpoint ck).Wire.ck_step;
        let st = RT.run ~resume:ck (Rng.create ~seed) ~l ~betas in
        check_stats "manual resume" gst st)

  (* A checkpoint binds its party count. *)
  let resume_wrong_n_case =
    Alcotest.test_case "resume rejects a wrong-n checkpoint" `Quick (fun () ->
        let _, cks = Lazy.force golden in
        let betas3 = Array.sub betas 0 3 in
        match RT.run ~resume:cks.(1) (Rng.create ~seed) ~l ~betas:betas3 with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ())

  (* A checkpoint's step fixes which sections it carries: ck_enc only
     at step 2, ck_v from step 3 on, l and (n - 1)·l ciphertexts per
     set.  A CRC-valid frame re-encoded with one field out of line is
     refused before any keygen, and every golden checkpoint, the last
     (step n+3) included, still resumes. *)
  let resume_inconsistent_case =
    Alcotest.test_case "resume rejects a checkpoint inconsistent with its step"
      `Quick (fun () ->
        let gst, cks = Lazy.force golden in
        let mutate i f =
          Wire.encode_checkpoint (f (Wire.decode_checkpoint cks.(i)))
        in
        (* Set [j] of [sets] re-encoded with [k] ciphertexts. *)
        let resize sets j k =
          let cs = RT.W.decode_cipher_batch sets.(j) in
          let sets = Array.copy sets in
          sets.(j) <-
            RT.W.encode_cipher_batch
              (Array.init k (fun i -> cs.(i mod Array.length cs)));
          sets
        in
        List.iter
          (fun (what, field, frame) ->
            let ops0 = G.op_count () in
            match RT.run ~resume:frame (Rng.create ~seed) ~l ~betas with
            | _ -> Alcotest.fail (what ^ ": expected Wire.Malformed")
            | exception Wire.Malformed msg ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %S names %s" what msg field)
                  true
                  (String.starts_with ~prefix:("checkpoint " ^ field ^ " ") msg);
                Alcotest.(check int) (what ^ ": no group op before refusal") 0
                  (G.op_count () - ops0))
          [
            ( "step-3 frame, ck_step = n+4", "ck_step",
              mutate 2 (fun c -> { c with Wire.ck_step = n + 4 }) );
            ( "step-3 frame, ck_step = 99", "ck_step",
              mutate 2 (fun c -> { c with Wire.ck_step = 99 }) );
            ( "step-1 frame, ck_step = 0", "ck_step",
              mutate 0 (fun c -> { c with Wire.ck_step = 0 }) );
            ( "step-2 frame, empty ck_enc", "ck_enc",
              mutate 1 (fun c -> { c with Wire.ck_enc = [||] }) );
            ( "step-3 frame, empty ck_v", "ck_v",
              mutate 2 (fun c -> { c with Wire.ck_v = [||] }) );
            ( "step-2 frame, a ck_enc set of l - 1", "ck_enc",
              mutate 1 (fun c ->
                  { c with Wire.ck_enc = resize c.Wire.ck_enc 2 (l - 1) }) );
            ( "step-5 frame, a ck_v set of (n - 1)l + 1", "ck_v",
              mutate 4 (fun c ->
                  { c with Wire.ck_v = resize c.Wire.ck_v 0 (((n - 1) * l) + 1) })
            );
          ];
        Array.iteri
          (fun i ck ->
            check_stats
              (Printf.sprintf "resume from step %d" (i + 1))
              gst
              (RT.run ~resume:ck (Rng.create ~seed) ~l ~betas))
          cks)

  (* Restart under an active fault plan: the restored transport must
     fast-forward the fault schedule to the persisted position, so the
     resumed run still matches its own (faulty) golden. *)
  let faulty_spec = "drop=0.1,delay=0.2,maxdelay=4,seed=restart-faults"

  let faulty_restart_case =
    Alcotest.test_case "resume under a fault plan = faulty golden" `Quick
      (fun () ->
        let faults = Ppgr_mpcnet.Faultplan.spec_of_string faulty_spec in
        let cks = ref [] in
        let gst =
          RT.run ~faults
            ~checkpoint_cb:(fun b -> cks := b :: !cks)
            (Rng.create ~seed) ~l ~betas
        in
        let cks = Array.of_list (List.rev !cks) in
        let kill_after = phys_at cks.(3) in
        let rc =
          RT.run_with_restart ~faults ~max_restarts:1 ~kill_after
            (Rng.create ~seed) ~l ~betas
        in
        Alcotest.(check int) "one resume consumed" 1 rc.RT.rec_resumes;
        check_stats "faulty resume" gst rc.RT.rec_stats)

  (* Windowed restart: the pipelined engine persists and restores the
     same way; resumed windowed run = windowed golden (acks, sim_ticks
     and all). *)
  let windowed_restart_case =
    Alcotest.test_case "resume a windowed run = windowed golden" `Quick
      (fun () ->
        let window = Transport.winspec_of_string "window=4,rto=4" in
        let cks = ref [] in
        let gst =
          RT.run ~window
            ~checkpoint_cb:(fun b -> cks := b :: !cks)
            (Rng.create ~seed) ~l ~betas
        in
        let cks = Array.of_list (List.rev !cks) in
        let kill_after = phys_at cks.(1) in
        let rc =
          RT.run_with_restart ~window ~max_restarts:1 ~kill_after
            (Rng.create ~seed) ~l ~betas
        in
        Alcotest.(check int) "one resume consumed" 1 rc.RT.rec_resumes;
        check_stats "windowed resume" gst rc.RT.rec_stats)

  (* Re-election differential: after max_restarts failed resumes the
     dead party is dropped and the survivors rerun as n-1 parties on
     the "re-elect-<dead>" split — byte-identical to a fresh run on
     that stream, with golden (n-1)-party ranks. *)
  let reelection_case =
    Alcotest.test_case "re-election = fresh (n-1)-party run" `Quick
      (fun () ->
        let _, cks = Lazy.force golden in
        let kill_after = phys_at cks.(2) in
        let rc =
          RT.run_with_restart ~max_restarts:0 ~kill_after
            (Rng.create ~seed) ~l ~betas
        in
        Alcotest.(check int) "no resumes before re-election" 0
          rc.RT.rec_resumes;
        let dead =
          match rc.RT.rec_reelected with
          | Some d -> d
          | None -> Alcotest.fail "expected a re-elected ring"
        in
        Alcotest.(check bool) "dead party in range" true
          (dead >= 0 && dead < n);
        let betas' =
          Array.init (n - 1) (fun j ->
              if j < dead then betas.(j) else betas.(j + 1))
        in
        let rng' =
          Rng.split (Rng.create ~seed)
            ~label:("re-elect-" ^ string_of_int dead)
        in
        let fresh = RT.run rng' ~l ~betas:betas' in
        Alcotest.(check (array int))
          "re-elected ranks are the survivors' golden"
          (ranks_of_betas betas') rc.RT.rec_stats.RT.ranks;
        check_stats "re-election differential" fresh rc.RT.rec_stats)

  (* The resumed transcript must not depend on the domain-pool job
     count. *)
  let jobs_cases =
    List.map
      (fun s ->
        Alcotest.test_case
          (Printf.sprintf "kill at step %d: jobs=1 = jobs=4" s)
          `Quick
          (fun () ->
            let _, cks = Lazy.force golden in
            let kill_after = if s = 0 then 0 else phys_at cks.(s - 1) in
            let resumed () =
              RT.run_with_restart ~max_restarts:1 ~kill_after
                (Rng.create ~seed) ~l ~betas
            in
            let prev = Pool.jobs () in
            Fun.protect
              ~finally:(fun () -> Pool.set_jobs prev)
              (fun () ->
                Pool.set_jobs 1;
                let a = resumed () in
                Pool.set_jobs 4;
                let b = resumed () in
                Alcotest.(check string) "transcript digest"
                  a.RT.rec_stats.RT.transcript_sha
                  b.RT.rec_stats.RT.transcript_sha;
                check_stats "jobs differential" a.RT.rec_stats
                  b.RT.rec_stats)))
      [ 0; 2; 5 ]

  let cases =
    (checkpoint_shape_case :: kill_every_step_cases)
    @ [
        mid_step_case;
        manual_resume_case;
        resume_wrong_n_case;
        resume_inconsistent_case;
        faulty_restart_case;
        windowed_restart_case;
        reelection_case;
      ]
    @ jobs_cases
end

module G_dl = (val Dl_group.dl_512 () : Group_intf.GROUP)
module G_ec = (val Ec_group.ecc_160 () : Group_intf.GROUP)
module Dl = Battery (G_dl)
module Ec = Battery (G_ec)

(* A DL value above q encodes no element: the element it names is its
   pair's canonical value p - y.  One element of a set swapped for the
   other member of its pair is refused as a typed Wire.Malformed,
   whether the set comes back from a checkpoint (before any key
   generation) or in a hop frame. *)
let dl_above_q_cases =
  let p = Modp_params.p_512 and eb = G_dl.element_bytes in
  let header = Wire.cipher_batch_bytes ~elem_bytes:eb 0 in
  let flip_first set =
    let b = Bytes.copy set in
    let y = Bigint.of_bytes_be (Bytes.sub b header eb) in
    Bytes.blit (Bigint.to_bytes_be_padded eb (Bigint.sub p y)) 0 b header eb;
    b
  in
  let refused f =
    match f () with
    | _ -> Alcotest.fail "expected Wire.Malformed"
    | exception Wire.Malformed msg ->
        Alcotest.(check string) "reason" "invalid group element (not in the group)" msg
  in
  [
    Alcotest.test_case "DL checkpoint with an element above q refused" `Quick
      (fun () ->
        let _, cks = Lazy.force Dl.golden in
        (* Step 3 holds the comparison sets; hop 0 decodes P_2's first. *)
        let c = Wire.decode_checkpoint cks.(2) in
        let ck_v = Array.copy c.Wire.ck_v in
        ck_v.(1) <- flip_first ck_v.(1);
        let frame = Wire.encode_checkpoint { c with Wire.ck_v } in
        let ops0 = G_dl.op_count () in
        refused (fun () -> Dl.RT.run ~resume:frame (Rng.create ~seed) ~l ~betas);
        Alcotest.(check int) "no group op before refusal" 0 (G_dl.op_count () - ops0));
    Alcotest.test_case "DL hop frame with an element above q refused" `Quick
      (fun () ->
        let _, cks = Lazy.force Dl.golden in
        (* Step 4 holds the vector hop 0 forwards to P_2 in one frame. *)
        let v = Array.copy (Wire.decode_checkpoint cks.(3)).Wire.ck_v in
        v.(0) <- flip_first v.(0);
        let session = Dl.RT.make_session ~n ~l in
        let p2 =
          Dl.RT.create_party ~index:1 ~n ~l ~labels:session.Dl.RT.s_labels
            ~beta:betas.(1) (Rng.create ~seed)
        in
        let v_msgs = Dl.RT.ring_receive_frame p2 (Wire.encode_hop_frame v) in
        refused (fun () -> Dl.RT.ring_hop p2 ~v_msgs));
  ]

let () =
  Alcotest.run "restart"
    [ ("dl-512", Dl.cases @ dl_above_q_cases); ("ecc-160", Ec.cases) ]
