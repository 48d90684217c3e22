(* Committee-sharded ranking: partition-plan invariants, transcript
   determinism across job counts and shard-size sweeps, and the
   differential check of sharded top-k membership against the
   monolithic ranking. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_grouprank
module Pool = Ppgr_exec.Pool
module G = (val Ppgr_group.Dl_group.dl_test_64 () : Ppgr_group.Group_intf.GROUP)
module S = Shard.Make (G)
module RT = Runtime.Make (G)

let bi = Bigint.of_int
let fresh_rng seed = Rng.create ~seed

(* Distinct betas make the top-k unique, so set equality is the right
   check; the tie tests below use duplicated betas. *)
let distinct_betas rng n ~l =
  let perm = Rng.permutation rng (1 lsl l) in
  Array.init n (fun i -> bi perm.(i))

let sharded ?(seed = "shard-run") ?(shard_size = 4) ?(k = 3) ~n ~l () =
  let rng = fresh_rng seed in
  let betas = distinct_betas (fresh_rng (seed ^ "-betas")) n ~l in
  (betas, S.run ~shard_size ~committee:3 ~k rng ~l ~betas)

(* The k largest betas' owners under the merge's tie rule: the values
   above the cut, then the lowest indices at the cut. *)
let expect_top_k betas k =
  let idx = Array.init (Array.length betas) (fun i -> i) in
  Array.sort
    (fun a b ->
      match Bigint.compare betas.(b) betas.(a) with 0 -> compare a b | c -> c)
    idx;
  List.sort compare (Array.to_list (Array.sub idx 0 k))

let plan_tests =
  [
    Alcotest.test_case "partition covers everyone exactly once" `Quick
      (fun () ->
        List.iter
          (fun (n, s) ->
            let plan = Shard.make_plan (fresh_rng "plan") ~n ~shard_size:s in
            let seen = Array.make n 0 in
            Array.iter
              (Array.iter (fun p -> seen.(p) <- seen.(p) + 1))
              plan.Shard.members;
            Array.iteri
              (fun p c ->
                Alcotest.(check int) (Printf.sprintf "participant %d" p) 1 c)
              seen;
            (* Inverse maps agree with the member lists. *)
            Array.iteri
              (fun i ms ->
                Array.iteri
                  (fun j p ->
                    Alcotest.(check int) "shard_of" i plan.Shard.shard_of.(p);
                    Alcotest.(check int) "local_of" j plan.Shard.local_of.(p))
                  ms)
              plan.Shard.members)
          [ (1, 2); (2, 2); (5, 2); (7, 3); (16, 16); (17, 16); (100, 16) ])
    ;
    Alcotest.test_case "shard sizes bounded by s and balanced" `Quick
      (fun () ->
        List.iter
          (fun (n, s) ->
            let plan = Shard.make_plan (fresh_rng "plan") ~n ~shard_size:s in
            let sizes = Shard.sizes plan in
            let mx = Array.fold_left Stdlib.max 0 sizes in
            let mn = Array.fold_left Stdlib.min n sizes in
            Alcotest.(check bool) "bounded" true (mx <= s);
            Alcotest.(check bool) "balanced" true (mx - mn <= 1))
          [ (2, 2); (5, 2); (7, 3); (16, 16); (17, 16); (100, 16); (1000, 16) ])
    ;
    Alcotest.test_case "plan is a pure function of the seed" `Quick
      (fun () ->
        let p1 = Shard.make_plan (fresh_rng "same") ~n:50 ~shard_size:8 in
        let p2 = Shard.make_plan (fresh_rng "same") ~n:50 ~shard_size:8 in
        let p3 = Shard.make_plan (fresh_rng "other") ~n:50 ~shard_size:8 in
        Alcotest.(check bool) "same seed, same plan" true
          (p1.Shard.members = p2.Shard.members);
        Alcotest.(check bool) "different seed, different plan" true
          (p1.Shard.members <> p3.Shard.members));
  ]

let determinism_tests =
  [
    Alcotest.test_case "transcripts byte-identical at jobs 1, 2 and 4" `Quick
      (fun () ->
        let run jobs =
          Pool.set_jobs jobs;
          Fun.protect ~finally:(fun () -> Pool.set_jobs 1)
            (fun () -> snd (sharded ~n:10 ~l:6 ()))
        in
        let r1 = run 1 in
        List.iter
          (fun jobs ->
            let rj = run jobs in
            let what s = Printf.sprintf "%s (jobs=%d)" s jobs in
            Alcotest.(check string) (what "global transcript")
              r1.Shard.transcript_sha rj.Shard.transcript_sha;
            Array.iteri
              (fun i (st1 : Shard.shard_stat) ->
                Alcotest.(check string)
                  (what (Printf.sprintf "shard %d transcript" i))
                  st1.Shard.shard_sha rj.Shard.shard_stats.(i).Shard.shard_sha)
              r1.Shard.shard_stats;
            Alcotest.(check (array int)) (what "local ranks")
              r1.Shard.local_ranks rj.Shard.local_ranks;
            Alcotest.(check (array int)) (what "winners") r1.Shard.winners
              rj.Shard.winners)
          [ 2; 4 ])
    ;
    Alcotest.test_case "same seed reruns to the same digest" `Quick
      (fun () ->
        let _, r1 = sharded ~n:9 ~l:6 () in
        let _, r2 = sharded ~n:9 ~l:6 () in
        Alcotest.(check string) "digest" r1.Shard.transcript_sha
          r2.Shard.transcript_sha)
    ;
    Alcotest.test_case "winners invariant under shard-size sweep" `Quick
      (fun () ->
        let k = 3 and n = 12 and l = 6 in
        let winners_at shard_size =
          let _, r = sharded ~shard_size ~k ~n ~l () in
          Array.to_list r.Shard.winners
        in
        let w4 = winners_at 4 in
        List.iter
          (fun s ->
            Alcotest.(check (list int))
              (Printf.sprintf "shard_size %d" s)
              w4 (winners_at s))
          [ 2; 3; 6; 12 ])
    ;
  ]

let differential_tests =
  [
    Alcotest.test_case "sharded winners = k largest betas" `Quick
      (fun () ->
        List.iter
          (fun (n, shard_size, k) ->
            let betas, r = sharded ~shard_size ~k ~n ~l:7 () in
            Alcotest.(check (list int))
              (Printf.sprintf "n=%d s=%d k=%d" n shard_size k)
              (expect_top_k betas k)
              (Array.to_list r.Shard.winners))
          [ (6, 2, 2); (9, 3, 3); (12, 4, 5); (10, 16, 4) ])
    ;
    Alcotest.test_case "sharded membership agrees with monolithic ranking"
      `Quick (fun () ->
        let n = 8 and l = 6 and k = 3 in
        let betas = distinct_betas (fresh_rng "diff-betas") n ~l in
        let mono = RT.run (fresh_rng "diff-mono") ~l ~betas in
        let mono_top =
          List.filter (fun j -> mono.RT.ranks.(j) <= k) (List.init n Fun.id)
        in
        let r = S.run ~shard_size:3 ~committee:3 ~k (fresh_rng "diff") ~l ~betas in
        Alcotest.(check (list int)) "membership" mono_top
          (Array.to_list r.Shard.winners))
    ;
    Alcotest.test_case "local ranks match per-shard monolithic runs" `Quick
      (fun () ->
        let n = 10 and l = 6 in
        let betas, r = sharded ~shard_size:5 ~n ~l () in
        Array.iter
          (fun ms ->
            (* The shard-local ranking must equal the plain rank of each
               member's beta among its shard-mates. *)
            let expect =
              Array.map
                (fun p ->
                  1
                  + Array.fold_left
                      (fun acc q ->
                        if Bigint.compare betas.(q) betas.(p) > 0 then acc + 1
                        else acc)
                      0 ms)
                ms
            in
            Array.iteri
              (fun j p ->
                Alcotest.(check int)
                  (Printf.sprintf "participant %d" p)
                  expect.(j)
                  r.Shard.local_ranks.(p))
              ms)
          r.Shard.plan.Shard.members)
    ;
    Alcotest.test_case "ties at the cut resolve deterministically" `Quick
      (fun () ->
        (* All betas equal: any k-subset is a valid top-k; the run must
           terminate and return exactly k winners, stably. *)
        let n = 8 and l = 5 and k = 3 in
        let betas = Array.make n (bi 11) in
        let r1 = S.run ~shard_size:3 ~committee:3 ~k (fresh_rng "tie") ~l ~betas in
        let r2 = S.run ~shard_size:3 ~committee:3 ~k (fresh_rng "tie") ~l ~betas in
        Alcotest.(check int) "k winners" k (Array.length r1.Shard.winners);
        Alcotest.(check (array int)) "stable" r1.Shard.winners r2.Shard.winners)
    ;
    Alcotest.test_case "merge = clear rule on every small input" `Quick
      (fun () ->
        (* Every l = 3 vector of 3 candidates and every l = 2 vector of
           4 candidates, at every k: 2,560 merges, ties at the cut
           included. *)
        let rng = fresh_rng "merge-exhaustive" in
        List.iter
          (fun (r, l) ->
            for v = 0 to (1 lsl (r * l)) - 1 do
              let betas =
                Array.init r (fun i -> bi ((v lsr (i * l)) land ((1 lsl l) - 1)))
              in
              for k = 1 to r do
                let st =
                  Shard.merge_top_k rng ~l ~committee:3 ~k
                    ~candidates:(Array.mapi (fun i b -> (i, b)) betas)
                in
                Alcotest.(check (list int))
                  (Printf.sprintf "l=%d vector %d k=%d" l v k)
                  (expect_top_k betas k)
                  (Array.to_list st.Shard.winners)
              done
            done)
          [ (3, 3); (4, 2) ])
    ;
    Alcotest.test_case "merge rejects a beta outside [0, 2^l)" `Quick
      (fun () ->
        List.iter
          (fun b ->
            Alcotest.check_raises (Printf.sprintf "beta %d at l = 3" b)
              (Invalid_argument "Shard.merge_top_k: beta outside [0, 2^l)")
              (fun () ->
                ignore
                  (Shard.merge_top_k (fresh_rng "merge-range") ~l:3 ~committee:3 ~k:1
                     ~candidates:[| (0, bi 5); (1, bi b) |])))
          [ 8; -1 ])
    ;
  ]

(* The merge at the benchmark's shape (six candidates, a committee of
   five, k = 3, l = 16): the winners and the whole protocol ledger are
   pinned, so neither the share representation nor the probe arithmetic
   can move the protocol unnoticed.  The sharded workload's per-party
   wire bytes are derived from these counters.  Each candidate deals its
   16 bits in the one input round; each of the 17 probes (16 search
   steps, then the membership bits of the cut) runs one bitwise
   comparison per candidate, 49 multiplications for the suffix ORs and
   16 for the products, so 17 * 6 * 65 = 6630.  A probe's six
   comparisons run in lockstep, five rounds for all of them, so the
   rounds are 17 * 5, one per opening and the input round: 103.  The
   only openings are the 16 counts and the 6 membership bits, and no
   random bit is drawn.  Priced at n = 5 (t = 2), a multiplication costs a party 21
   field multiplications and an input 3, so the field meter reads
   5 * (6630 * 21 + 22 + 96 * 3) = 697700. *)
let invariance_tests =
  [
    Alcotest.test_case "merge ledger pinned at the benchmark shape" `Quick
      (fun () ->
        let betas = [| 40000; 1234; 65535; 7; 30000; 512 |] in
        let candidates = Array.mapi (fun i b -> (10 + i, bi b)) betas in
        let st =
          Shard.merge_top_k (fresh_rng "merge-invariance") ~l:16 ~committee:5 ~k:3
            ~candidates
        in
        let c = st.Shard.merge_costs in
        Alcotest.(check (array int)) "winners" [| 10; 12; 14 |] st.Shard.winners;
        Alcotest.(check int) "c_mults" 6630 c.Ppgr_shamir.Engine.c_mults;
        Alcotest.(check int) "c_rounds" 103 c.Ppgr_shamir.Engine.c_rounds;
        Alcotest.(check int) "c_opens" 22 c.Ppgr_shamir.Engine.c_opens;
        Alcotest.(check int) "c_elements" 133424 c.Ppgr_shamir.Engine.c_elements;
        Alcotest.(check int) "c_randoms" 0 c.Ppgr_shamir.Engine.c_randoms;
        Alcotest.(check int) "c_field_mults" 697700
          c.Ppgr_shamir.Engine.c_field_mults;
        Alcotest.(check int) "c_inputs" 96 c.Ppgr_shamir.Engine.c_inputs;
        Alcotest.(check int) "c_scalings" 0 c.Ppgr_shamir.Engine.c_scalings;
        Alcotest.(check int) "priced field mults" c.Ppgr_shamir.Engine.c_field_mults
          (5 * Ppgr_shamir.Engine.field_mults_per_party ~n:5 c))
    ;
    Alcotest.test_case "sharded transcript pinned at the benchmark shape" `Quick
      (fun () ->
        (* n = 16 in two shards of 8: the global digest chains both
           shard transcripts and the merge's candidates, winners and
           ledger. *)
        let betas = Array.init 16 (fun i -> bi (((i * 7919) + 13) mod 65536)) in
        let r =
          S.run ~shard_size:8 ~committee:5 ~k:3 (fresh_rng "shard-invariance") ~l:16
            ~betas
        in
        Alcotest.(check (array int)) "winners" [| 7; 8; 15 |] r.Shard.winners;
        Alcotest.(check string) "digest"
          "4c47daa5334567b52640991168d11d31cce40207aca352df3cf2e863594aed5c"
          r.Shard.transcript_sha)
    ;
    Alcotest.test_case "merge wall is timed with histograms off" `Quick
      (fun () ->
        let _, r = sharded ~n:8 ~l:6 () in
        Alcotest.(check int) "one stat per shard" 2
          (Array.length r.Shard.shard_stats);
        Array.iter
          (fun (st : Shard.shard_stat) ->
            Alcotest.(check bool) "shard_wall_s > 0" true
              (st.Shard.shard_wall_s > 0.))
          r.Shard.shard_stats;
        Alcotest.(check bool) "merge_wall_s > 0" true
          (r.Shard.merge.Shard.merge_wall_s > 0.))
    ;
  ]

let topology_tests =
  [
    Alcotest.test_case "two-level tree shape" `Quick (fun () ->
        let shard_sizes = [| 3; 3; 2 |] in
        let topo = Ppgr_mpcnet.Topology.two_level_tree ~shard_sizes () in
        (* 1 root + 3 aggregators + 8 leaves; a tree has nodes-1 edges. *)
        Alcotest.(check int) "nodes" 12 (Ppgr_mpcnet.Topology.nodes topo);
        Alcotest.(check int) "edges" 11 (Ppgr_mpcnet.Topology.edge_count topo);
        let root, aggs, leaves =
          Ppgr_mpcnet.Topology.two_level_layout ~shard_sizes
        in
        Alcotest.(check int) "root" 0 root;
        Alcotest.(check (array int)) "aggregators" [| 1; 2; 3 |] aggs;
        Alcotest.(check int) "first leaf" 4 leaves.(0).(0);
        (* A leaf reaches the root through its aggregator: 2 hops. *)
        let next = Ppgr_mpcnet.Topology.routing topo in
        Alcotest.(check (list int)) "leaf->root path" [ 1; 0 ]
          (Ppgr_mpcnet.Topology.path ~next ~src:4 ~dst:0))
    ;
    Alcotest.test_case "overlay merges rounds index-wise" `Quick (fun () ->
        let open Ppgr_mpcnet.Netsim in
        let s1 =
          [
            { compute_s = 1.; messages = unicast ~src:0 ~dst:1 ~bytes:10 };
            { compute_s = 3.; messages = [] };
          ]
        in
        let s2 = [ { compute_s = 2.; messages = unicast ~src:2 ~dst:3 ~bytes:5 } ] in
        match overlay [ s1; s2 ] with
        | [ r1; r2 ] ->
            Alcotest.(check (float 0.)) "round 1 compute" 2. r1.compute_s;
            Alcotest.(check int) "round 1 msgs" 2 (List.length r1.messages);
            Alcotest.(check (float 0.)) "round 2 compute" 3. r2.compute_s;
            Alcotest.(check int) "round 2 msgs" 0 (List.length r2.messages)
        | _ -> Alcotest.fail "expected 2 rounds")
    ;
    Alcotest.test_case "fan-in simulation runs on the tree" `Quick (fun () ->
        let _, r = sharded ~n:10 ~l:6 () in
        let st = S.simulate_fan_in r in
        Alcotest.(check bool) "progress" true (st.Ppgr_mpcnet.Netsim.elapsed_s > 0.);
        Alcotest.(check bool) "traffic" true (st.Ppgr_mpcnet.Netsim.bytes_sent > 0))
    ;
  ]

let cost_model_tests =
  [
    Alcotest.test_case "sharded op total grows near-linearly" `Quick (fun () ->
        (* Fixed s: doubling n should roughly double the sharded group
           work (one quadratic ring would quadruple it). *)
        let ops n =
          let rng = fresh_rng (Printf.sprintf "shard-linear-%d" n) in
          let betas = Array.init n (fun _ -> bi (Rng.int_below rng 16)) in
          (S.run ~shard_size:4 ~committee:3 ~k:3 rng ~l:4 ~betas).Shard.group_ops
        in
        let ratio = float_of_int (ops 64) /. float_of_int (ops 32) in
        Alcotest.(check bool)
          (Printf.sprintf "x%.3f" ratio)
          true
          (ratio > 1.8 && ratio < 2.2));
  ]

let observability_tests =
  [
    Alcotest.test_case "summary rolls up per shard" `Quick (fun () ->
        let module Trace = Ppgr_obs.Trace in
        Trace.set_enabled true;
        Trace.reset ();
        let _ = sharded ~n:8 ~l:6 () in
        let spans = Trace.spans () in
        Trace.set_enabled false;
        Trace.reset ();
        let rows = Ppgr_obs.Summary.by_shard spans in
        (* n=8 at shard_size=4: exactly shards 0 and 1. *)
        Alcotest.(check (list int)) "shards" [ 0; 1 ]
          (List.map (fun (r : Ppgr_obs.Summary.row) -> r.Ppgr_obs.Summary.party) rows);
        List.iter
          (fun (r : Ppgr_obs.Summary.row) ->
            Alcotest.(check bool) "wall accrued" true (r.Ppgr_obs.Summary.wall_us > 0.))
          rows)
    ;
  ]

let () =
  Alcotest.run "shard"
    [
      ("plan", plan_tests);
      ("determinism", determinism_tests);
      ("differential", differential_tests);
      ("invariance", invariance_tests);
      ("topology", topology_tests);
      ("cost-model", cost_model_tests);
      ("observability", observability_tests);
    ]
