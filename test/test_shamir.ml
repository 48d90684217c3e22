(* Shamir sharing, MPC engine, secure comparison and oblivious sorting
   tests. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_dotprod
open Ppgr_shamir

let rng = Rng.create ~seed:"test-shamir"
let f = Zfield.default ()
let bi = Bigint.of_int

let sharing_tests =
  [
    Alcotest.test_case "reconstruct from first t+1 shares" `Quick (fun () ->
        for _ = 1 to 20 do
          let s = Zfield.random rng f in
          let shares = Shamir.share rng f ~t:3 ~n:9 s in
          Alcotest.(check bool) "exact" true
            (Bigint.equal s (Shamir.reconstruct_first f ~t:3 shares))
        done);
    Alcotest.test_case "reconstruct from any t+1 subset" `Quick (fun () ->
        let s = bi 987654 in
        let shares = Shamir.share rng f ~t:2 ~n:7 s in
        List.iter
          (fun ids ->
            let pts = Array.of_list (List.map (fun i -> (i, shares.(i - 1))) ids) in
            Alcotest.(check bool)
              (String.concat "," (List.map string_of_int ids))
              true
              (Bigint.equal s (Shamir.reconstruct f pts)))
          [ [ 1; 2; 3 ]; [ 5; 6; 7 ]; [ 1; 4; 7 ]; [ 2; 3; 5 ] ]);
    Alcotest.test_case "t shares are not enough (wrong value)" `Quick (fun () ->
        (* With only t points the interpolation through them and 0 is
           underdetermined; reconstructing from t points gives a value
           unrelated to the secret almost surely. *)
        let s = bi 123456789 in
        let mismatches = ref 0 in
        for _ = 1 to 20 do
          let shares = Shamir.share rng f ~t:2 ~n:5 s in
          let guess = Shamir.reconstruct f [| (1, shares.(0)); (2, shares.(1)) |] in
          if not (Bigint.equal guess s) then incr mismatches
        done;
        Alcotest.(check bool) "mostly wrong" true (!mismatches >= 19));
    Alcotest.test_case "t shares leak nothing (uniform in pairing)" `Quick
      (fun () ->
        (* For any two secrets, a fixed single share value is equally
           consistent: verify share at point 1 for secret s1 can equal
           any field value by choice of polynomial — sampled check that
           share distributions overlap. *)
        let count_low = ref 0 in
        for _ = 1 to 200 do
          let shares = Shamir.share rng f ~t:1 ~n:3 (bi 0) in
          if Bigint.compare shares.(0) (Zfield.modulus f) < 0 then incr count_low
        done;
        Alcotest.(check int) "all valid field elements" 200 !count_low);
    Alcotest.test_case "invalid parameters rejected" `Quick (fun () ->
        Alcotest.check_raises "n < t+1"
          (Invalid_argument "Shamir.share: need n >= t + 1") (fun () ->
            ignore (Shamir.share rng f ~t:3 ~n:3 (bi 1))));
  ]

(* Values pinned for fixed seeds on the 64-bit test field: the share
   representation is an implementation detail, but the coefficient draw
   order, the evaluation points and the choice of square root under
   each random bit decide every value a run deals and opens. *)
let pinned_tests =
  let f64 = Zfield.create Ppgr_group.Modp_params.test_64 in
  [
    Alcotest.test_case "shares pinned for a fixed seed" `Quick (fun () ->
        let shares =
          Shamir.share (Rng.create ~seed:"shamir-pin") f64 ~t:2 ~n:5 (bi 123456789)
        in
        Alcotest.(check (array string)) "shares"
          [| "2b82570e2558e73a"; "7d98c07d0275f24e"; "71dcd8646177f3ae"; "84e9ec4425eeb5a";
             "49badb6d1fa0ce98" |]
          (Array.map Bigint.to_string_hex shares));
    Alcotest.test_case "engine openings pinned for a fixed seed" `Quick (fun () ->
        let e = Engine.create (Rng.create ~seed:"engine-pin") f64 ~n:5 in
        let x = Engine.input e (bi 1000) and y = Engine.input e (bi 2024) in
        let r = Engine.random e in
        let _, v = Engine.random_bits e 16 in
        Alcotest.(check string) "x * y" "2024000" (Bigint.to_string (Engine.open_ e (Engine.mul e x y)));
        Alcotest.(check string) "random" "7f47bee142484d39" (Bigint.to_string_hex (Engine.open_ e r));
        Alcotest.(check string) "random bits" "27506" (Bigint.to_string (Engine.open_ e v)));
    Alcotest.test_case "fields other than 3 mod 4 rejected" `Quick (fun () ->
        Alcotest.check_raises "p = 1 mod 4"
          (Invalid_argument "Engine.create: field prime must be 3 mod 4") (fun () ->
            ignore (Engine.create rng (Zfield.create (bi 1000033)) ~n:3)));
  ]

let make_engine ?(n = 7) () =
  let e = Engine.create rng f ~n in
  Engine.reset_costs e;
  e

let engine_tests =
  [
    Alcotest.test_case "linear ops are exact and free" `Quick (fun () ->
        let e = make_engine () in
        let a = Engine.input e (bi 120) and b = Engine.input e (bi 45) in
        let mults_before = (Engine.costs e).Engine.c_mults in
        let s = Engine.add e a b in
        let d = Engine.sub e a b in
        let k = Engine.scale e (bi 3) a in
        let p = Engine.add_public e a (bi 1000) in
        Alcotest.(check int) "no mult protocol" mults_before (Engine.costs e).Engine.c_mults;
        Alcotest.(check string) "add" "165" (Bigint.to_string (Engine.open_ e s));
        Alcotest.(check string) "sub" "75" (Bigint.to_string (Engine.open_ e d));
        Alcotest.(check string) "scale" "360" (Bigint.to_string (Engine.open_ e k));
        Alcotest.(check string) "add_public" "1120" (Bigint.to_string (Engine.open_ e p)));
    Alcotest.test_case "multiplication with degree reduction" `Quick (fun () ->
        let e = make_engine () in
        for _ = 1 to 10 do
          let x = Rng.int_below rng 100000 and y = Rng.int_below rng 100000 in
          let p = Engine.mul e (Engine.input e (bi x)) (Engine.input e (bi y)) in
          Alcotest.(check string) "product" (string_of_int (x * y))
            (Bigint.to_string (Engine.open_ e p))
        done);
    Alcotest.test_case "multiplication needs n >= 2t+1" `Quick (fun () ->
        (* The threshold is t = (n-1)/2, so n >= 2t+1 holds at every
           n >= 1; no party at all is the one unusable size. *)
        Alcotest.check_raises "no parties"
          (Invalid_argument "Engine.create: need n >= 1") (fun () ->
            ignore (Engine.create rng f ~n:0)));
    Alcotest.test_case "chained multiplications stay correct" `Quick (fun () ->
        let e = make_engine () in
        let x = Engine.input e (bi 3) in
        (* x^8 via repeated squaring through the MPC. *)
        let x2 = Engine.mul e x x in
        let x4 = Engine.mul e x2 x2 in
        let x8 = Engine.mul e x4 x4 in
        Alcotest.(check string) "3^8" "6561" (Bigint.to_string (Engine.open_ e x8)));
    Alcotest.test_case "random bits are bits" `Quick (fun () ->
        let e = make_engine () in
        let bits = Engine.random_bit_batch e 40 in
        Array.iter
          (fun b ->
            let v = Engine.open_ e b in
            Alcotest.(check bool) "0 or 1" true
              (Bigint.is_zero v || Bigint.equal v Bigint.one))
          bits);
    Alcotest.test_case "random bits are balanced-ish" `Quick (fun () ->
        let e = make_engine () in
        let bits = Engine.random_bit_batch e 200 in
        let ones =
          Array.fold_left
            (fun acc b -> acc + Bigint.to_int_exn (Engine.open_ e b))
            0 bits
        in
        Alcotest.(check bool) "balanced" true (ones > 60 && ones < 140));
    Alcotest.test_case "random_bits weighted value matches bits" `Quick (fun () ->
        let e = make_engine () in
        let bits, value = Engine.random_bits e 16 in
        let v = Bigint.to_int_exn (Engine.open_ e value) in
        let from_bits = ref 0 in
        Array.iteri
          (fun i b ->
            if Bigint.equal (Engine.open_ e b) Bigint.one then
              from_bits := !from_bits lor (1 lsl i))
          bits;
        Alcotest.(check int) "consistent" !from_bits v);
    Alcotest.test_case "cost ledger counts" `Quick (fun () ->
        let e = make_engine () in
        Engine.reset_costs e;
        let a = Engine.input e (bi 5) and b = Engine.input e (bi 6) in
        ignore (Engine.mul e a b);
        let c = Engine.costs e in
        Alcotest.(check int) "one mult" 1 c.Engine.c_mults;
        Alcotest.(check bool) "rounds counted" true (c.Engine.c_rounds >= 3);
        Alcotest.(check bool) "traffic counted" true (c.Engine.c_elements > 0));
    Alcotest.test_case "ledger prices the field meter" `Quick (fun () ->
        (* Every invocation kind at every small n, and a forked batch
           absorbed back: the field meter reads n times the engine's
           per-party pricing of the ledger. *)
        List.iter
          (fun n ->
            let e = make_engine ~n () in
            let a = Engine.input e (bi 5) and b = Engine.input e (bi 6) in
            let subs = Array.init 2 (fun i -> Engine.fork e ~label:(string_of_int i)) in
            Array.iter (fun sub -> ignore (Engine.random_bits sub 3)) subs;
            Engine.absorb e subs;
            let p = Engine.mul e (Engine.scale e (bi 3) a) (Engine.random e) in
            ignore (Engine.open_batch e [ p; b ]);
            let c = Engine.costs e in
            Alcotest.(check int) (Printf.sprintf "n=%d" n) c.Engine.c_field_mults
              (n * Engine.field_mults_per_party ~n c))
          [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]);
    Alcotest.test_case "mul_batch counts one round" `Quick (fun () ->
        let e = make_engine () in
        let a = Engine.input e (bi 2) and b = Engine.input e (bi 3) in
        let r0 = (Engine.costs e).Engine.c_rounds in
        let ps = Engine.mul_batch e [ (a, b); (a, a); (b, b) ] in
        Alcotest.(check int) "one round for 3 mults" (r0 + 1) (Engine.costs e).Engine.c_rounds;
        Alcotest.(check int) "three mults counted" 3
          ((Engine.costs e).Engine.c_mults);
        List.iter2
          (fun p expect ->
            Alcotest.(check string) "batch value" expect (Bigint.to_string (Engine.open_ e p)))
          ps [ "6"; "4"; "9" ]);
  ]

let compare_tests =
  let prm = Compare.default_params ~l:16 () in
  [
    Alcotest.test_case "ge on specific pairs" `Quick (fun () ->
        let e = make_engine () in
        List.iter
          (fun (x, y) ->
            let sx = Engine.input e (bi x) and sy = Engine.input e (bi y) in
            let g = Bigint.to_int_exn (Engine.open_ e (Compare.ge e prm sx sy)) in
            Alcotest.(check int) (Printf.sprintf "%d >= %d" x y)
              (if x >= y then 1 else 0)
              g)
          [ (0, 0); (1, 0); (0, 1); (65535, 65535); (65535, 0); (0, 65535);
            (32768, 32767); (32767, 32768); (12345, 12345) ]);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:40 ~name:"ge matches integer comparison"
         QCheck2.Gen.(pair (int_range 0 65535) (int_range 0 65535))
         (fun (x, y) ->
           let e = make_engine ~n:5 () in
           let sx = Engine.input e (bi x) and sy = Engine.input e (bi y) in
           let g = Bigint.to_int_exn (Engine.open_ e (Compare.ge e prm sx sy)) in
           g = if x >= y then 1 else 0));
    Alcotest.test_case "field too small is rejected" `Quick (fun () ->
        let small_f = Zfield.create (Bigint.of_string "1000003") in
        let e = Engine.create rng small_f ~n:3 in
        Alcotest.check_raises "too small"
          (Invalid_argument "Compare: field too small for l + kappa") (fun () ->
            let x = Engine.input e (bi 1) in
            ignore (Compare.ge e prm x x)));
    Alcotest.test_case "nishide-ohta cost constant" `Quick (fun () ->
        Alcotest.(check int) "279l+5" ((279 * 32) + 5)
          (Compare.nishide_ohta_mults ~l:32));
  ]

let network_tests =
  [
    Alcotest.test_case "comparator counts are O(n log^2 n)" `Quick (fun () ->
        List.iter
          (fun n ->
            let net = Sort_network.generate n in
            let c = Sort_network.comparator_count net in
            (* Upper bound for Batcher: n log2(n) (log2(n)+1) / 4. *)
            let log2n = int_of_float (ceil (log (float_of_int n) /. log 2.)) in
            let bound = (n * log2n * (log2n + 1) / 4) + n in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d count=%d bound=%d" n c bound)
              true (c <= bound))
          [ 2; 4; 8; 16; 32; 64 ]);
    Alcotest.test_case "sorts all 0-1 inputs (0-1 principle, n<=10)" `Quick
      (fun () ->
        List.iter
          (fun n ->
            let net = Sort_network.generate n in
            for mask = 0 to (1 lsl n) - 1 do
              let a = Array.init n (fun i -> (mask lsr i) land 1) in
              let s = Sort_network.apply_plain net ~compare a in
              let expect = Array.copy a in
              Array.sort compare expect;
              if s <> expect then
                Alcotest.fail (Printf.sprintf "n=%d mask=%d not sorted" n mask)
            done)
          [ 1; 2; 3; 5; 7; 10 ]);
    Alcotest.test_case "layers touch disjoint wires" `Quick (fun () ->
        List.iter
          (fun n ->
            List.iter
              (fun layer ->
                let seen = Hashtbl.create 16 in
                List.iter
                  (fun (i, j) ->
                    Alcotest.(check bool) "disjoint" false
                      (Hashtbl.mem seen i || Hashtbl.mem seen j);
                    Hashtbl.add seen i ();
                    Hashtbl.add seen j ())
                  layer)
              (Sort_network.generate n))
          [ 8; 13; 21 ]);
    Alcotest.test_case "depth grows like log^2" `Quick (fun () ->
        let d16 = Sort_network.depth (Sort_network.generate 16) in
        Alcotest.(check int) "batcher depth 16" 10 d16);
  ]

let ss_sort_tests =
  [
    Alcotest.test_case "shared sort produces sorted opening" `Quick (fun () ->
        let e = make_engine ~n:5 () in
        let prm = Compare.default_params ~l:10 () in
        let vals = Array.init 6 (fun _ -> Rng.int_below rng 1000) in
        let shared = Array.map (fun v -> Engine.input e (bi v)) vals in
        let sorted = Ss_sort.sort e prm shared in
        let opened = Array.map (fun s -> Bigint.to_int_exn (Engine.open_ e s)) sorted in
        let expect = Array.copy vals in
        Array.sort compare expect;
        Alcotest.(check (array int)) "sorted" expect opened);
    Alcotest.test_case "rank_via_sort gives non-increasing ranking" `Quick
      (fun () ->
        let e = make_engine ~n:5 () in
        let prm = Compare.default_params ~l:10 () in
        let vals = [| 100; 900; 500; 500; 1 |] in
        let ranks = Ss_sort.rank_via_sort e prm (Array.map bi vals) in
        (* Largest value gets rank 1; ties get distinct adjacent slots. *)
        Alcotest.(check int) "max is rank 1" 1 ranks.(1);
        Alcotest.(check int) "min is rank 5" 5 ranks.(4);
        let sorted_ranks = Array.copy ranks in
        Array.sort compare sorted_ranks;
        Alcotest.(check (array int)) "ranks form 1..n" [| 1; 2; 3; 4; 5 |] sorted_ranks);
  ]

let () =
  Alcotest.run "shamir"
    [
      ("sharing", sharing_tests);
      ("pinned", pinned_tests);
      ("engine", engine_tests);
      ("compare", compare_tests);
      ("sort-network", network_tests);
      ("ss-sort", ss_sort_tests);
    ]
