(* Tests for the extension substrates: the probabilistic top-k baseline
   (Burkhart-Dimitropoulos style) and the re-encryption mix-net. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_dotprod
open Ppgr_shamir

let rng = Rng.create ~seed:"test-extensions"
let f = Zfield.default ()
let bi = Bigint.of_int

let engine ?(n = 5) () =
  let e = Engine.create rng f ~n in
  Engine.reset_costs e;
  e

let topk_tests =
  let prm = Compare.default_params ~l:10 () in
  [
    Alcotest.test_case "selects the k largest (distinct values)" `Quick
      (fun () ->
        for _ = 1 to 5 do
          let n = 6 in
          (* Distinct values guarantee exact termination. *)
          let perm = Rng.permutation rng 50 in
          let vals = Array.init n (fun i -> 10 + (perm.(i) * 3)) in
          let e = engine () in
          let shared = Array.map (fun v -> Engine.input e (bi v)) vals in
          let k = 1 + Rng.int_below rng (n - 1) in
          match Topk.top_k e prm ~k shared with
          | Topk.Top_k idx ->
              Alcotest.(check int) "k results" k (List.length idx);
              (* Every selected value beats every unselected one. *)
              List.iter
                (fun i ->
                  Array.iteri
                    (fun j v ->
                      if not (List.mem j idx) then
                        Alcotest.(check bool) "dominates" true (vals.(i) > v))
                    vals)
                idx
          | Topk.Tie_at_cut _ -> Alcotest.fail "unexpected tie with distinct values"
        done);
    Alcotest.test_case "reports ties at the cut" `Quick (fun () ->
        let vals = [| 100; 100; 100; 5; 5 |] in
        let e = engine () in
        let shared = Array.map (fun v -> Engine.input e (bi v)) vals in
        (* k = 2 cannot be met exactly: three values tie above any cut. *)
        match Topk.top_k e prm ~k:2 shared with
        | Topk.Tie_at_cut (idx, count) ->
            Alcotest.(check int) "count" 3 count;
            Alcotest.(check (list int)) "tied indices" [ 0; 1; 2 ] (List.sort compare idx)
        | Topk.Top_k _ -> Alcotest.fail "tie not detected");
    Alcotest.test_case "k = n returns everyone" `Quick (fun () ->
        let vals = [| 3; 1; 4; 1 |] in
        let e = engine () in
        let shared = Array.map (fun v -> Engine.input e (bi v)) vals in
        match Topk.top_k e prm ~k:4 shared with
        | Topk.Top_k idx -> Alcotest.(check int) "all" 4 (List.length idx)
        | Topk.Tie_at_cut _ -> Alcotest.fail "k = n always succeeds");
    Alcotest.test_case "scales linearly in n (vs superlinear sort)" `Quick
      (fun () ->
        (* Multiplication counts as the input count quadruples: top-k
           should grow ~linearly, the sorting network markedly faster. *)
        let run_topk n =
          let vals = Array.init n (fun i -> 7 * (i + 1)) in
          let e = engine ~n:5 () in
          let shared = Array.map (fun v -> Engine.input e (bi v)) vals in
          ignore (Topk.top_k e prm ~k:2 shared);
          (Engine.costs e).Engine.c_mults
        in
        let run_sort n =
          let vals = Array.init n (fun i -> 7 * (i + 1)) in
          let e = engine ~n:5 () in
          let shared = Array.map (fun v -> Engine.input e (bi v)) vals in
          ignore (Ss_sort.sort e prm shared);
          (Engine.costs e).Engine.c_mults
        in
        let topk_ratio = float_of_int (run_topk 16) /. float_of_int (run_topk 4) in
        let sort_ratio = float_of_int (run_sort 16) /. float_of_int (run_sort 4) in
        Alcotest.(check bool)
          (Printf.sprintf "topk x%.1f vs sort x%.1f" topk_ratio sort_ratio)
          true
          (topk_ratio < 6. && sort_ratio > 8.));
    Alcotest.test_case "k out of range rejected" `Quick (fun () ->
        let e = engine () in
        let shared = [| Engine.input e (bi 1) |] in
        Alcotest.check_raises "bad k" (Invalid_argument "Topk.top_k: k out of range")
          (fun () -> ignore (Topk.top_k e prm ~k:2 shared)));
  ]

(* The deterministic tie-break variant used by the sharded-ranking
   merge stage: always exactly k winners, ties at the cut resolved by
   ascending input index. *)
let topk_det_tests =
  let prm = Compare.default_params ~l:10 () in
  let prop ?(count = 30) name gen f =
    QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)
  in
  (* Reference: winners of the same tie-break computed in the clear. *)
  let expected_det vals k =
    let idx = Array.to_list (Array.init (Array.length vals) Fun.id) in
    let sorted =
      (* descending value, ascending index among equals *)
      List.sort
        (fun a b ->
          if vals.(a) <> vals.(b) then compare vals.(b) vals.(a) else compare a b)
        idx
    in
    List.sort compare (List.filteri (fun i _ -> i < k) sorted)
  in
  let check_det vals k =
    let e = engine () in
    let shared = Array.map (fun v -> Engine.input e (bi v)) vals in
    Topk.top_k_det e prm ~k shared = expected_det vals k
  in
  let vals_gen =
    (* Small domain forces frequent duplicates, including at the cut. *)
    QCheck2.Gen.(
      pair
        (array_size (int_range 2 8) (int_range 0 6))
        (int_range 0 1000))
  in
  [
    prop "matches the clear tie-break on duplicate-heavy inputs" vals_gen
      (fun (vals, kseed) ->
        let k = 1 + (kseed mod Array.length vals) in
        check_det vals k);
    prop ~count:10 "all-equal inputs: lowest k indices win"
      QCheck2.Gen.(pair (int_range 2 7) (int_range 0 1000))
      (fun (n, kseed) ->
        let k = 1 + (kseed mod n) in
        let vals = Array.make n 5 in
        let e = engine () in
        let shared = Array.map (fun v -> Engine.input e (bi v)) vals in
        Topk.top_k_det e prm ~k shared = List.init k Fun.id);
    Alcotest.test_case "duplicate exactly at the cut" `Quick (fun () ->
        (* Two values tie at the cut with room for one: the lower index
           wins. *)
        let vals = [| 9; 7; 7; 3 |] in
        let e = engine () in
        let shared = Array.map (fun v -> Engine.input e (bi v)) vals in
        Alcotest.(check (list int)) "winners" [ 0; 1 ]
          (Topk.top_k_det e prm ~k:2 shared));
    Alcotest.test_case "agrees with top_k when there is no tie" `Quick
      (fun () ->
        let vals = [| 12; 44; 3; 27; 8 |] in
        let e1 = engine () and e2 = engine () in
        let sh v e = Array.map (fun x -> Engine.input e (bi x)) v in
        match Topk.top_k e1 prm ~k:3 (sh vals e1) with
        | Topk.Top_k idx ->
            Alcotest.(check (list int)) "same winners" (List.sort compare idx)
              (Topk.top_k_det e2 prm ~k:3 (sh vals e2))
        | Topk.Tie_at_cut _ -> Alcotest.fail "distinct values cannot tie");
    Alcotest.test_case "k out of range rejected" `Quick (fun () ->
        let e = engine () in
        let shared = [| Engine.input e (bi 1) |] in
        Alcotest.check_raises "bad k" (Invalid_argument "Topk.top_k: k out of range")
          (fun () -> ignore (Topk.top_k_det e prm ~k:0 shared)));
  ]

let mixnet_tests =
  let module G = (val Ppgr_group.Dl_group.dl_test_64 ()) in
  let module M = Ppgr_elgamal.Mixnet.Make (G) in
  [
    Alcotest.test_case "output is the input multiset" `Quick (fun () ->
        for trial = 1 to 5 do
          let n = 2 + Rng.int_below rng 5 in
          let messages = Array.init n (fun _ -> G.pow_gen (G.random_scalar rng)) in
          let r =
            M.collect (Rng.split rng ~label:(string_of_int trial)) messages
          in
          Alcotest.(check bool) "multiset" true
            (M.same_multiset messages r.M.plaintexts)
        done);
    Alcotest.test_case "duplicate messages survive" `Quick (fun () ->
        let m = G.pow_gen (Bigint.of_int 5) in
        let messages = [| m; m; G.pow_gen (Bigint.of_int 9) |] in
        let r = M.collect rng messages in
        Alcotest.(check bool) "multiset with dupes" true
          (M.same_multiset messages r.M.plaintexts));
    Alcotest.test_case "positions are unlinkable (distribution)" `Quick
      (fun () ->
        (* Track where sender 0's distinguished message lands over many
           runs: it must not stick to any position. *)
        let n = 4 in
        let special = G.pow_gen (Bigint.of_int 424242) in
        let counts = Array.make n 0 in
        let trials = 80 in
        for trial = 1 to trials do
          let messages =
            Array.init n (fun i ->
                if i = 0 then special else G.pow_gen (Bigint.of_int (1000 + i)))
          in
          let r =
            M.collect (Rng.split rng ~label:(Printf.sprintf "pos-%d" trial)) messages
          in
          Array.iteri
            (fun pos p -> if G.equal p special then counts.(pos) <- counts.(pos) + 1)
            r.M.plaintexts
        done;
        Alcotest.(check int) "found every time" trials (Array.fold_left ( + ) 0 counts);
        Array.iter
          (fun c ->
            Alcotest.(check bool) "no sticky position" true (c > 5 && c < 40))
          counts);
    Alcotest.test_case "needs two members" `Quick (fun () ->
        Alcotest.check_raises "n=1"
          (Invalid_argument "Mixnet.collect: need at least 2 members") (fun () ->
            ignore (M.collect rng [| G.generator |])));
  ]

let () =
  Alcotest.run "extensions"
    [
      ("topk", topk_tests);
      ("topk-det", topk_det_tests);
      ("mixnet", mixnet_tests);
    ]
