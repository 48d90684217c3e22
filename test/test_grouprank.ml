(* End-to-end tests of the group ranking framework: the gain model,
   both secure phases, phase-3 vetting, the framework under faults, and
   agreement between the HE frameworks and the SS baseline.  Phase 2
   runs on Runtime; its wire-level behaviour is tested in test_runtime. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_group
open Ppgr_grouprank

let rng = Rng.create ~seed:"test-grouprank"
let spec = Attrs.spec ~m:5 ~t:2 ~d1:6 ~d2:4

let attrs_tests =
  [
    Alcotest.test_case "gain formula (hand computed)" `Quick (fun () ->
        (* m=3, t=1: g = -w0 (v0-c0)^2 + w1 (v1-c1) + w2 (v2-c2). *)
        let s = Attrs.spec ~m:3 ~t:1 ~d1:6 ~d2:4 in
        let c = { Attrs.v0 = [| 10; 5; 0 |]; w = [| 2; 3; 1 |] } in
        let v = [| 12; 9; 7 |] in
        (* -2*4 + 3*4 + 1*7 = -8 + 12 + 7 = 11 *)
        Alcotest.(check int) "gain" 11 (Attrs.gain s c v));
    Alcotest.test_case "partial gain differs by the criterion constant" `Quick
      (fun () ->
        for _ = 1 to 30 do
          let c = Attrs.random_criterion rng spec in
          let offset = Attrs.gain_offset spec c in
          let v = Attrs.random_info rng spec in
          Alcotest.(check int) "g = p - offset"
            (Attrs.gain spec c v)
            (Attrs.partial_gain spec c v - offset)
        done);
    Alcotest.test_case "partial gain respects the bit bound" `Quick (fun () ->
        let bound = Attrs.partial_gain_bits spec in
        for _ = 1 to 200 do
          let c = Attrs.random_criterion rng spec in
          let v = Attrs.random_info rng spec in
          let p = Bigint.of_int (Attrs.partial_gain spec c v) in
          Alcotest.(check bool) "fits" true (Bigint.numbits p < bound)
        done);
    Alcotest.test_case "vector encodings reproduce the partial gain" `Quick
      (fun () ->
        (* w'_j . v'_j must equal rho * p_j + rho_j. *)
        for _ = 1 to 30 do
          let c = Attrs.random_criterion rng spec in
          let v = Attrs.random_info rng spec in
          let rho = Bigint.of_int (1 + Rng.int_below rng 1000) in
          let rho_j = Rng.bigint_below rng rho in
          let wv = Attrs.participant_vector spec v in
          let vv = Attrs.initiator_vector spec c ~rho ~rho_j in
          let dot = Array.fold_left Bigint.add Bigint.zero (Array.map2 Bigint.mul wv vv) in
          let expect =
            Bigint.add (Bigint.mul rho (Bigint.of_int (Attrs.partial_gain spec c v))) rho_j
          in
          Alcotest.(check string) "dot = rho p + rho_j" (Bigint.to_string expect)
            (Bigint.to_string dot)
        done);
    Alcotest.test_case "out-of-range values rejected" `Quick (fun () ->
        let c = Attrs.random_criterion rng spec in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Attrs.gain spec c [| 1000; 0; 0; 0; 0 |]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "reference ranks non-increasing in gain" `Quick (fun () ->
        let c = Attrs.random_criterion rng spec in
        let infos = Array.init 8 (fun _ -> Attrs.random_info rng spec) in
        let ranks = Attrs.reference_ranks spec c infos in
        let gains = Array.map (Attrs.partial_gain spec c) infos in
        Array.iteri
          (fun i ri ->
            Array.iteri
              (fun j rj ->
                if ri < rj then
                  Alcotest.(check bool) "ordered" true (gains.(i) >= gains.(j)))
              ranks)
          ranks);
  ]

let phase1_tests =
  let cfg = Phase1.config ~spec ~h:8 () in
  [
    Alcotest.test_case "beta equals the reference masked gain" `Quick (fun () ->
        for _ = 1 to 15 do
          let criterion = Attrs.random_criterion rng spec in
          let infos = Array.init 4 (fun _ -> Attrs.random_info rng spec) in
          let secrets, res = Phase1.run rng cfg ~criterion ~infos in
          Array.iteri
            (fun j r ->
              let expect =
                Phase1.reference_beta cfg ~criterion ~secrets ~j ~info:infos.(j)
              in
              Alcotest.(check string) "beta" (Bigint.to_string expect)
                (Bigint.to_string r.Phase1.beta_signed))
            res
        done);
    Alcotest.test_case "betas preserve strict gain order" `Quick (fun () ->
        for _ = 1 to 15 do
          let criterion = Attrs.random_criterion rng spec in
          let infos = Array.init 6 (fun _ -> Attrs.random_info rng spec) in
          let _, res = Phase1.run rng cfg ~criterion ~infos in
          let gains = Array.map (Attrs.partial_gain spec criterion) infos in
          Array.iteri
            (fun i ri ->
              Array.iteri
                (fun j rj ->
                  if gains.(i) > gains.(j) then
                    Alcotest.(check bool) "order kept" true
                      (Bigint.compare ri.Phase1.beta_unsigned rj.Phase1.beta_unsigned > 0))
                res)
            res
        done);
    Alcotest.test_case "unsigned betas fit in l bits" `Quick (fun () ->
        let l = Phase1.beta_bits cfg in
        let criterion = Attrs.random_criterion rng spec in
        let infos = Array.init 5 (fun _ -> Attrs.random_info rng spec) in
        let _, res = Phase1.run rng cfg ~criterion ~infos in
        Array.iter
          (fun r ->
            Alcotest.(check bool) "in range" true
              (Bigint.sign r.Phase1.beta_unsigned >= 0
              && Bigint.numbits r.Phase1.beta_unsigned <= l))
          res);
    Alcotest.test_case "rho has the top bit set (order preservation)" `Quick
      (fun () ->
        for _ = 1 to 20 do
          let s = Phase1.draw_masks rng cfg ~n:3 in
          Alcotest.(check int) "h bits" cfg.Phase1.h (Bigint.numbits s.Phase1.rho);
          Array.iter
            (fun rj ->
              Alcotest.(check bool) "rho_j < rho" true
                (Bigint.compare rj s.Phase1.rho < 0 && Bigint.sign rj >= 0))
            s.Phase1.rho_js
        done);
  ]

(* Expected ranks from beta values: 1 + number of strictly larger betas. *)
let ranks_of_betas betas =
  Array.map
    (fun b ->
      1 + Array.fold_left (fun acc b' -> if Bigint.compare b' b > 0 then acc + 1 else acc) 0 betas)
    betas

let phase2_tests =
  let module G = (val Dl_group.dl_test_64 ()) in
  let module RT = Runtime.Make (G) in
  [
    Alcotest.test_case "ranks match beta ordering (random)" `Quick (fun () ->
        for _ = 1 to 6 do
          let n = 2 + Rng.int_below rng 5 in
          let l = 10 in
          let betas = Array.init n (fun _ -> Rng.bigint_below rng (Bigint.nth_bit_weight l)) in
          let r = RT.run rng ~l ~betas in
          Alcotest.(check (array int)) "ranks" (ranks_of_betas betas) r.RT.ranks
        done);
    Alcotest.test_case "equal betas share a rank" `Quick (fun () ->
        let betas = Array.map Bigint.of_int [| 5; 9; 5; 1; 9 |] in
        let r = RT.run rng ~l:8 ~betas in
        Alcotest.(check (array int)) "ranks" [| 3; 1; 3; 5; 1 |] r.RT.ranks);
    Alcotest.test_case "two participants" `Quick (fun () ->
        let r = RT.run rng ~l:8 ~betas:(Array.map Bigint.of_int [| 200; 100 |]) in
        Alcotest.(check (array int)) "ranks" [| 1; 2 |] r.RT.ranks);
    Alcotest.test_case "extreme betas (0 and 2^l - 1)" `Quick (fun () ->
        let l = 12 in
        let betas =
          [| Bigint.zero; Bigint.pred (Bigint.nth_bit_weight l); Bigint.of_int 5 |]
        in
        let r = RT.run rng ~l ~betas in
        Alcotest.(check (array int)) "ranks" [| 3; 1; 2 |] r.RT.ranks);
    Alcotest.test_case "rejects out-of-range beta" `Quick (fun () ->
        Alcotest.check_raises "too big"
          (Invalid_argument "Runtime.create_party: beta out of range") (fun () ->
            ignore (RT.run rng ~l:4 ~betas:[| Bigint.of_int 16; Bigint.one |])));
    Alcotest.test_case "ranks agree across group families" `Quick (fun () ->
        let module Gec = (val Ec_group.ecc_tiny ()) in
        let module RTec = Runtime.Make (Gec) in
        let betas = Array.init 5 (fun _ -> Rng.bigint_below rng (Bigint.nth_bit_weight 10)) in
        let a = (RT.run rng ~l:10 ~betas).RT.ranks in
        let b = (RTec.run rng ~l:10 ~betas).RTec.ranks in
        Alcotest.(check (array int)) "same" a b);
  ]

let framework_tests =
  let cfg = Framework.config ~h:8 ~spec ~k:2 () in
  [
    Alcotest.test_case "end-to-end ranks consistent with gains" `Quick (fun () ->
        for _ = 1 to 3 do
          let n = 3 + Rng.int_below rng 3 in
          let criterion = Attrs.random_criterion rng spec in
          let infos = Array.init n (fun _ -> Attrs.random_info rng spec) in
          let out =
            Framework.run_with_group (Dl_group.dl_test_64 ()) rng cfg ~criterion ~infos
          in
          let gains = Array.map (Attrs.partial_gain spec criterion) infos in
          Array.iteri
            (fun i ri ->
              Array.iteri
                (fun j rj ->
                  if ri < rj then
                    Alcotest.(check bool) "no inversion" true (gains.(i) >= gains.(j)))
                out.Framework.ranks)
            out.Framework.ranks
        done);
    Alcotest.test_case "top-k submissions reach the initiator" `Quick (fun () ->
        let criterion = Attrs.random_criterion rng spec in
        let infos = Array.init 6 (fun _ -> Attrs.random_info rng spec) in
        let out =
          Framework.run_with_group (Dl_group.dl_test_64 ()) rng cfg ~criterion ~infos
        in
        Alcotest.(check bool) "at least k submissions (ties may add more)" true
          (List.length out.Framework.submissions >= 2);
        List.iter
          (fun s ->
            Alcotest.(check bool) "claimed rank <= k" true (s.Framework.claimed_rank <= 2))
          out.Framework.submissions;
        Alcotest.(check int) "nothing flagged" 0 (List.length out.Framework.flagged));
    Alcotest.test_case "over-claim detection flags liars" `Quick (fun () ->
        let criterion = { Attrs.v0 = [| 0; 0; 0; 0; 0 |]; w = [| 1; 1; 1; 1; 1 |] } in
        (* Gains here are dominated by "greater than" attributes; build
           submissions by hand with an inconsistent claimed order. *)
        let low = [| 0; 0; 1; 1; 1 |] and high = [| 0; 0; 60; 60; 60 |] in
        let module G = (val Dl_group.dl_test_64 ()) in
        let module F = Framework.Make (G) in
        let subs =
          [
            { Framework.participant = 0; claimed_rank = 1; info = low };
            { Framework.participant = 1; claimed_rank = 2; info = high };
          ]
        in
        let ok, bad = F.vet_submissions spec criterion subs in
        Alcotest.(check int) "both flagged" 0 (List.length ok);
        Alcotest.(check int) "two inconsistent" 2 (List.length bad));
    Alcotest.test_case "honest submissions pass vetting" `Quick (fun () ->
        let criterion = { Attrs.v0 = [| 0; 0; 0; 0; 0 |]; w = [| 1; 1; 1; 1; 1 |] } in
        let low = [| 0; 0; 1; 1; 1 |] and high = [| 0; 0; 60; 60; 60 |] in
        let module G = (val Dl_group.dl_test_64 ()) in
        let module F = Framework.Make (G) in
        let subs =
          [
            { Framework.participant = 0; claimed_rank = 2; info = low };
            { Framework.participant = 1; claimed_rank = 1; info = high };
          ]
        in
        let ok, bad = F.vet_submissions spec criterion subs in
        Alcotest.(check int) "accepted" 2 (List.length ok);
        Alcotest.(check int) "none flagged" 0 (List.length bad));
    Alcotest.test_case "HE framework agrees with SS baseline" `Quick (fun () ->
        let criterion = Attrs.random_criterion rng spec in
        let infos = Array.init 5 (fun _ -> Attrs.random_info rng spec) in
        (* Distinct gains so rankings are unique regardless of masks. *)
        let gains = Array.map (Attrs.partial_gain spec criterion) infos in
        let distinct =
          Array.length gains
          = List.length (List.sort_uniq compare (Array.to_list gains))
        in
        if distinct then begin
          let he =
            Framework.run_with_group (Ec_group.ecc_tiny ()) rng cfg ~criterion ~infos
          in
          let ss = Ss_framework.run rng cfg ~criterion ~infos in
          Alcotest.(check (array int)) "same ranks" he.Framework.ranks ss
        end);
    Alcotest.test_case "cost ledger is populated" `Quick (fun () ->
        let criterion = Attrs.random_criterion rng spec in
        let infos = Array.init 4 (fun _ -> Attrs.random_info rng spec) in
        let out =
          Framework.run_with_group (Dl_group.dl_test_64 ()) rng cfg ~criterion ~infos
        in
        let c = out.Framework.costs in
        Alcotest.(check bool) "ops counted" true
          (Array.for_all (fun o -> o > 0) c.Framework.participant_ops);
        Alcotest.(check bool) "exps counted" true
          (Array.for_all (fun o -> o > 0) c.Framework.participant_exps);
        Alcotest.(check bool) "initiator worked" true (c.Framework.initiator_field_mults > 0);
        Alcotest.(check bool) "schedule nonempty" true (List.length c.Framework.schedule > 5));
    Alcotest.test_case "ss baseline needs 3 parties" `Quick (fun () ->
        let criterion = Attrs.random_criterion rng spec in
        let infos = Array.init 2 (fun _ -> Attrs.random_info rng spec) in
        Alcotest.check_raises "too few"
          (Invalid_argument "Ss_framework.run: need at least 3 parties") (fun () ->
            ignore (Ss_framework.run rng cfg ~criterion ~infos)));
    Alcotest.test_case "survives faults at every transport setting" `Quick
      (fun () ->
        (* test_chaos's all-faults-moderate plan, at stop-and-wait, at
           window=4 and supervised with one restart: every run returns
           the clean run's ranks and accepted submissions, and the
           transcript does not depend on the window. *)
        let module G = (val Dl_group.dl_test_64 ()) in
        let module F = Framework.Make (G) in
        let criterion = Attrs.random_criterion rng spec in
        let infos = Array.init 4 (fun _ -> Attrs.random_info rng spec) in
        let faults =
          Ppgr_mpcnet.Faultplan.spec_of_string
            "drop=0.1,corrupt=0.1,dup=0.1,reorder=0.1,delay=0.1,maxdelay=8,\
             seed=chaos-18"
        in
        let run ?faults ?window ?restarts () =
          F.run ?faults ?window ?restarts (Rng.create ~seed:"framework-faults")
            cfg ~criterion ~infos
        in
        let submitted (out : Framework.outcome) =
          List.map (fun s -> (s.Framework.participant, s.Framework.claimed_rank))
            out.Framework.accepted
        in
        let clean, _ = run () in
        let digest what (out, rc) =
          Alcotest.(check (array int)) (what ^ ": ranks") clean.Framework.ranks
            out.Framework.ranks;
          Alcotest.(check (list (pair int int)))
            (what ^ ": accepted") (submitted clean) (submitted out);
          let st = rc.F.RT.rec_stats in
          Alcotest.(check bool) (what ^ ": the plan bit") true
            (st.F.RT.retransmits > 0);
          st.F.RT.transcript_sha
        in
        let stop_and_wait = digest "stop-and-wait" (run ~faults ()) in
        let windowed =
          digest "window=4"
            (run ~faults ~window:(Transport.winspec_of_string "window=4") ())
        in
        ignore (digest "restarts=1" (run ~faults ~restarts:1 ()));
        Alcotest.(check string) "one digest at both windows" stop_and_wait
          windowed);
    Alcotest.test_case "needs a ring of two" `Quick (fun () ->
        let criterion = Attrs.random_criterion rng spec in
        let infos = [| Attrs.random_info rng spec |] in
        let cfg1 = Framework.config ~h:8 ~spec ~k:1 () in
        Alcotest.check_raises "one participant"
          (Invalid_argument "Framework.run: need at least 2 participants")
          (fun () ->
            ignore
              (Framework.run_with_group (Dl_group.dl_test_64 ()) rng cfg1
                 ~criterion ~infos)));
  ]


(* Validate the cost model: the quadratic fit from n = 3,4,5 must
   predict direct instrumented runs at larger n, and its schedule must
   be the one Runtime posts, round by round. *)

let test_groups = [ Dl_group.dl_test_64 (); Ec_group.ecc_tiny () ]
let he_fit_16 = lazy (Cost_model.He_model.fit (Rng.create ~seed:"he-fit-16") ~l:16)

let random_betas rng ~n ~l =
  Array.init n (fun _ -> Rng.bigint_below rng (Bigint.nth_bit_weight l))

(* A round's messages as a sorted multiset of (src, dst, bytes). *)
let triples (r : Cost.round) =
  List.sort compare
    (List.map
       (fun (m : Ppgr_mpcnet.Netsim.message) ->
         (m.Ppgr_mpcnet.Netsim.src, m.dst, m.bytes))
       r.Cost.messages)

(* The busiest party's exponentiations in each step, read off the
   runtime's party spans: announce, encrypt, compare, ring hop, count. *)
let step_exps_of_spans spans =
  Array.map
    (fun step ->
      List.fold_left
        (fun acc (s : Ppgr_obs.Trace.span) ->
          match List.assoc_opt "exps" s.Ppgr_obs.Trace.attrs with
          | Some (Ppgr_obs.Trace.Int e) when s.Ppgr_obs.Trace.name = step ->
              Stdlib.max acc e
          | _ -> acc)
        0 spans)
    [| "runtime.keygen"; "runtime.encrypt"; "runtime.compare"; "runtime.ring";
       "runtime.count" |]

let cost_model_tests =
  [
    Alcotest.test_case "HE model predicts direct runs" `Slow (fun () ->
        let l = 20 in
        let m = Cost_model.He_model.fit rng ~l in
        List.iter
          (fun n ->
            let ops, exps = Cost_model.He_model.measure_once rng ~l ~n in
            let pred_ops = Cost_model.He_model.predict_test_ops m ~n in
            let pred_exps = Cost_model.He_model.predict_exps m ~n in
            let rel a b = abs_float (a -. float_of_int b) /. float_of_int b in
            Alcotest.(check bool)
              (Printf.sprintf "ops within 5%% at n=%d (pred %.0f actual %d)" n pred_ops ops)
              true
              (rel pred_ops ops < 0.05);
            Alcotest.(check bool)
              (Printf.sprintf "exps within 5%% at n=%d" n)
              true
              (rel pred_exps exps < 0.05))
          [ 7; 9 ]);
    Alcotest.test_case "SS model predicts direct field mults" `Slow (fun () ->
        (* Exact at every n: the model's ledger is the one a direct
           rank_via_sort keeps, field multiplications, rounds and
           elements included, and the direct run's field meter reads
           what the engine's pricing of its ledger says. *)
        let open Ppgr_shamir in
        let l = 16 in
        let m = Cost_model.Ss_model.measure rng ~l () in
        let f = Ppgr_dotprod.Zfield.default () in
        List.iter
          (fun n ->
            let e = Engine.create rng f ~n in
            Engine.reset_costs e;
            let betas = Array.init n (fun _ -> Rng.bigint_below rng (Bigint.nth_bit_weight l)) in
            ignore (Ss_sort.rank_via_sort e (Compare.default_params ~l ()) betas);
            let c = Engine.costs e and p = Cost_model.Ss_model.ledger m ~n in
            let at what = Printf.sprintf "%s at n=%d" what n in
            Alcotest.(check int) (at "priced field mults") c.Engine.c_field_mults
              (n * Engine.field_mults_per_party ~n c);
            Alcotest.(check int) (at "field mults per party")
              (c.Engine.c_field_mults / n)
              (int_of_float (Cost_model.Ss_model.predict_party_field_mults m ~n));
            Alcotest.(check int) (at "rounds") c.Engine.c_rounds
              (int_of_float (Cost_model.Ss_model.predict_rounds m ~n));
            Alcotest.(check int) (at "elements") c.Engine.c_elements p.Engine.c_elements;
            Alcotest.(check (list int)) (at "invocations")
              [ c.Engine.c_mults; c.Engine.c_randoms; c.Engine.c_opens;
                c.Engine.c_inputs; c.Engine.c_scalings ]
              [ p.Engine.c_mults; p.Engine.c_randoms; p.Engine.c_opens;
                p.Engine.c_inputs; p.Engine.c_scalings ])
          [ 3; 4; 5; 6; 7; 8; 9 ]);
    Alcotest.test_case "schedules have positive costs and traffic" `Quick
      (fun () ->
        let l = 16 in
        let hm = Cost_model.He_model.fit rng ~l in
        let sched =
          Cost_model.He_model.schedule hm ~n:10 ~elem_bytes:32
            ~scalar_bytes:32 ~mpe_target:100.
        in
        Alcotest.(check bool) "rounds" true (List.length sched > 10);
        Alcotest.(check bool) "bytes" true (Cost.total_bytes sched > 0);
        Alcotest.(check bool) "ops" true (Cost.total_critical_ops sched > 0);
        let sm = Cost_model.Ss_model.measure rng ~l () in
        let ss_sched =
          Cost_model.Ss_model.schedule sm ~n:10 ~field_bytes:24
            ~sec_per_field_mult:1e-6 ~sec_per_op:1e-6
        in
        Alcotest.(check bool) "ss rounds" true (List.length ss_sched > 10);
        Alcotest.(check bool) "ss bytes" true (Cost.total_bytes ss_sched > 0));
    Alcotest.test_case "HE schedule is the one Runtime posts" `Slow (fun () ->
        (* Same rounds, and per round the same (src, dst, bytes)
           multiset.  The one slack: a Schnorr response is a
           minimal-length bigint, so a proof can travel up to
           scalar_bytes - 1 shorter than the model's full width. *)
        let l = 16 in
        let m = Lazy.force he_fit_16 in
        let rng = Rng.create ~seed:"he-schedule-bytes" in
        List.iter
          (fun g ->
            let module G = (val g : Group_intf.GROUP) in
            let module RT = Runtime.Make (G) in
            let scalar_bytes = (Bigint.numbits G.order + 7) / 8 in
            let proof = 7 + G.element_bytes + scalar_bytes + Wire.envelope_overhead in
            for n = 3 to 9 do
              let st = RT.run rng ~l ~betas:(random_betas rng ~n ~l) in
              let model =
                Cost_model.He_model.schedule m ~n ~elem_bytes:G.element_bytes
                  ~scalar_bytes ~mpe_target:1.
              in
              Alcotest.(check int)
                (Printf.sprintf "%s n=%d rounds" G.name n)
                (List.length st.RT.schedule) (List.length model);
              List.iteri
                (fun k (mr, rr) ->
                  let want = triples mr and got = triples rr in
                  if List.length want <> List.length got then
                    Alcotest.failf "%s n=%d round %d: %d messages, model %d" G.name
                      n k (List.length got) (List.length want);
                  List.iter2
                    (fun (s, d, b) (s', d', b') ->
                      let short_proof =
                        k = 0 && b = proof && b' < b && b - b' < scalar_bytes
                      in
                      if s <> s' || d <> d' || (b <> b' && not short_proof) then
                        Alcotest.failf
                          "%s n=%d round %d: runtime (%d,%d,%d), model (%d,%d,%d)"
                          G.name n k s' d' b' s d b)
                    want got)
                (List.combine model st.RT.schedule)
            done)
          test_groups);
    Alcotest.test_case "HE step exponentiations match the closed form" `Quick
      (fun () ->
        let rng = Rng.create ~seed:"he-step-exps" in
        let l = 16 in
        Ppgr_obs.Metrics.register ~name:"exps" Opmeter.count;
        Fun.protect ~finally:(fun () -> Ppgr_obs.Metrics.unregister ~name:"exps")
        @@ fun () ->
        List.iter
          (fun g ->
            let module G = (val g : Group_intf.GROUP) in
            let module RT = Runtime.Make (G) in
            for n = 3 to 6 do
              let betas = random_betas rng ~n ~l in
              let _, spans = Ppgr_obs.Trace.capture (fun () -> RT.run rng ~l ~betas) in
              Alcotest.(check (array int))
                (Printf.sprintf "%s n=%d" G.name n)
                (Cost_model.He_model.step_exps ~n ~l)
                (step_exps_of_spans spans)
            done)
          test_groups);
    Alcotest.test_case "HE per-round ops predict direct runs" `Slow (fun () ->
        (* Outside the fit (n = 3, 4, 5): every ring hop within 5% of the
           run's, the whole critical path within 2%. *)
        let l = 16 in
        let m = Lazy.force he_fit_16 in
        let rng = Rng.create ~seed:"he-round-ops" in
        let module G = (val Dl_group.dl_test_64 ()) in
        let module RT = Runtime.Make (G) in
        List.iter
          (fun n ->
            let st = RT.run rng ~l ~betas:(random_betas rng ~n ~l) in
            let model =
              Cost_model.He_model.schedule m ~n ~elem_bytes:G.element_bytes
                ~scalar_bytes:((Bigint.numbits G.order + 7) / 8)
                ~mpe_target:m.Cost_model.He_model.mpe_test
            in
            let rel a b = abs_float (float_of_int a -. float_of_int b) /. float_of_int b in
            List.iteri
              (fun k ((mr : Cost.round), (rr : Cost.round)) ->
                if k >= 3 && k < n + 3 then
                  Alcotest.(check bool)
                    (Printf.sprintf "n=%d hop %d: model %d, run %d" n (k - 3)
                       mr.Cost.critical_ops rr.Cost.critical_ops)
                    true
                    (rel mr.Cost.critical_ops rr.Cost.critical_ops < 0.05))
              (List.combine model st.RT.schedule);
            let pred = Cost.total_critical_ops model
            and run = Cost.total_critical_ops st.RT.schedule in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d total: model %d, run %d" n pred run)
              true
              (rel pred run < 0.02))
          [ 7; 9 ]);
  ]

let () =
  Alcotest.run "grouprank"
    [
      ("attrs", attrs_tests);
      ("phase1", phase1_tests);
      ("phase2", phase2_tests);
      ("framework", framework_tests);
      ("cost-model", cost_model_tests);
    ]
