(* Tests for the secret-shared top-k selection (Burkhart-Dimitropoulos
   style) that the sharded-ranking merge stage runs. *)

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
    Alcotest.test_case "scales linearly in n (vs superlinear sort)" `Quick
      (fun () ->
        (* Multiplication counts as the input count quadruples: top-k
           should grow ~linearly, the sorting network markedly faster. *)
        let run_topk n =
          let vals = Array.init n (fun i -> 7 * (i + 1)) in
          let e = engine ~n:5 () in
          let shared = Array.map (fun v -> Engine.input e (bi v)) vals in
          ignore (Topk.top_k_det e prm ~k:2 shared);
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
  ]

(* The tie rule the sharded-ranking merge stage relies on: always
   exactly k winners, ties at the cut resolved by ascending input
   index. *)
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
    Alcotest.test_case "k out of range rejected" `Quick (fun () ->
        let e = engine () in
        let shared = [| Engine.input e (bi 1) |] in
        Alcotest.check_raises "bad k" (Invalid_argument "Topk.top_k: k out of range")
          (fun () -> ignore (Topk.top_k_det e prm ~k:0 shared)));
  ]

let () =
  Alcotest.run "extensions"
    [
      ("topk", topk_tests);
      ("topk-det", topk_det_tests);
    ]
