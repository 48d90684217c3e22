(* Tests for primality testing and prime generation, including
   validation of every vendored group constant. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_group

let rng = Rng.create ~seed:"test-prime"
let rand = Rng.as_prime_rand rng
let bi = Bigint.of_int
let bs = Bigint.of_string

let is_prime ?rounds v = Prime.is_probable_prime ?rounds rand v

let unit_tests =
  [
    Alcotest.test_case "small primes and composites" `Quick (fun () ->
        List.iter
          (fun (v, expect) ->
            Alcotest.(check bool) (string_of_int v) expect (is_prime (bi v)))
          [
            (0, false); (1, false); (2, true); (3, true); (4, false); (17, true);
            (561, false) (* Carmichael *); (997, true); (1000003, true);
            (1000001, false); (999983, true);
          ]);
    Alcotest.test_case "Mersenne primes and non-primes" `Quick (fun () ->
        Alcotest.(check bool) "2^61-1 prime" true
          (is_prime (Bigint.pred (Bigint.nth_bit_weight 61)));
        Alcotest.(check bool) "2^67-1 composite" false
          (is_prime (Bigint.pred (Bigint.nth_bit_weight 67)));
        Alcotest.(check bool) "2^89-1 prime" true
          (is_prime (Bigint.pred (Bigint.nth_bit_weight 89)));
        Alcotest.(check bool) "2^127-1 prime" true
          (is_prime (Bigint.pred (Bigint.nth_bit_weight 127))));
    Alcotest.test_case "strong pseudoprime to few bases caught" `Quick (fun () ->
        (* 3215031751 is a strong pseudoprime to bases 2,3,5,7... but not all. *)
        Alcotest.(check bool) "3215031751" false (is_prime (bs "3215031751")));
    Alcotest.test_case "random_prime has requested size" `Quick (fun () ->
        List.iter
          (fun bits ->
            let p = Prime.random_prime rand ~bits in
            Alcotest.(check int) "bits" bits (Bigint.numbits p);
            Alcotest.(check bool) "prime" true (is_prime p))
          [ 16; 32; 64 ]);
    Alcotest.test_case "random_safe_prime" `Quick (fun () ->
        let p = Prime.random_safe_prime rand ~bits:48 in
        let q = Bigint.shift_right (Bigint.pred p) 1 in
        Alcotest.(check bool) "p prime" true (is_prime p);
        Alcotest.(check bool) "q prime" true (is_prime q));
    Alcotest.test_case "small_primes table" `Quick (fun () ->
        Alcotest.(check int) "first" 2 Prime.small_primes.(0);
        Alcotest.(check bool) "all prime" true
          (Array.for_all (fun p -> is_prime (bi p)) Prime.small_primes);
        Alcotest.(check bool) "sorted" true
          (let ok = ref true in
           Array.iteri
             (fun i p -> if i > 0 && p <= Prime.small_primes.(i - 1) then ok := false)
             Prime.small_primes;
           !ok));
  ]

(* Every vendored constant must be what it claims to be; this is the
   guard against transcription errors in the parameter files. *)
let vendored_constants_tests =
  let safe_prime name p =
    Alcotest.test_case name `Slow (fun () ->
        let q = Bigint.shift_right (Bigint.pred p) 1 in
        Alcotest.(check bool) "p prime" true (is_prime ~rounds:4 p);
        Alcotest.(check bool) "q prime" true (is_prime ~rounds:4 q))
  in
  let curve name (prm : Ec_curve.params) =
    Alcotest.test_case name `Slow (fun () ->
        Alcotest.(check bool) "field prime" true (is_prime ~rounds:4 prm.Ec_curve.p);
        Alcotest.(check bool) "order prime" true (is_prime ~rounds:4 prm.Ec_curve.n);
        let cv = Ec_curve.make_curve prm in
        let g = Ec_curve.base_point cv in
        Alcotest.(check bool) "G on curve" true (Ec_curve.on_curve cv g);
        Alcotest.(check bool) "nG = O" true
          (Ec_curve.is_infinity cv (Ec_curve.scalar_mul cv g prm.Ec_curve.n)))
  in
  [
    safe_prime "MODP 512" Modp_params.p_512;
    safe_prime "MODP 1024" Modp_params.p_1024;
    safe_prime "MODP 2048" Modp_params.p_2048;
    safe_prime "test 64" Modp_params.test_64;
    safe_prime "test 96" Modp_params.test_96;
    safe_prime "test 128" Modp_params.test_128;
    safe_prime "test 256" Modp_params.test_256;
    curve "secp160r1" Ec_params.secp160r1;
    curve "secp192r1" Ec_params.secp192r1;
    curve "secp224r1" Ec_params.secp224r1;
    curve "secp256r1" Ec_params.secp256r1;
    curve "tiny" (Ec_params.tiny ());
    Alcotest.test_case "MODP 3072" `Slow (fun () ->
        let p = Modp_params.p_3072 in
        Alcotest.(check int) "bits" 3072 (Bigint.numbits p);
        Alcotest.(check bool) "p prime" true (is_prime ~rounds:2 p);
        Alcotest.(check bool) "q prime" true
          (is_prime ~rounds:2 (Bigint.shift_right (Bigint.pred p) 1)));
  ]

let () =
  Alcotest.run "prime"
    [ ("unit", unit_tests); ("vendored-constants", vendored_constants_tests) ]
