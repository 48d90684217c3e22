(* Tests for the ChaCha20 CSPRNG and SplitMix64. *)

open Ppgr_bigint
open Ppgr_rng

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

let chacha_tests =
  [
    Alcotest.test_case "RFC 8439 block vector" `Quick (fun () ->
        (* Section 2.3.2: key 00..1f, nonce 00:00:00:09:00:00:00:4a:..., ctr 1. *)
        let key = Bytes.init 32 Char.chr in
        let nonce =
          Bytes.of_string "\x00\x00\x00\x09\x00\x00\x00\x4a\x00\x00\x00\x00"
        in
        let block = Chacha20.block ~key ~nonce ~counter:1 in
        let expect_prefix = "\x10\xf1\xe7\xe4\xd1\x3b\x59\x15\x50\x0f\xdd\x1f\xa3\x20\x71\xc4" in
        Alcotest.(check string) "first 16 bytes" expect_prefix
          (Bytes.to_string (Bytes.sub block 0 16)));
    Alcotest.test_case "bad sizes rejected" `Quick (fun () ->
        Alcotest.check_raises "key"
          (Invalid_argument "Chacha20.block: key must be 32 bytes") (fun () ->
            ignore (Chacha20.block ~key:(Bytes.create 16) ~nonce:(Bytes.create 12) ~counter:0)));
    Alcotest.test_case "counter changes output" `Quick (fun () ->
        let key = Bytes.make 32 'k' and nonce = Bytes.make 12 'n' in
        Alcotest.(check bool) "different" false
          (Chacha20.block ~key ~nonce ~counter:0 = Chacha20.block ~key ~nonce ~counter:1));
  ]

let rng_tests =
  [
    Alcotest.test_case "deterministic from seed" `Quick (fun () ->
        let a = Rng.create ~seed:"s" and b = Rng.create ~seed:"s" in
        Alcotest.(check bytes) "same stream" (Rng.bytes a 100) (Rng.bytes b 100));
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create ~seed:"s1" and b = Rng.create ~seed:"s2" in
        Alcotest.(check bool) "differ" false (Rng.bytes a 32 = Rng.bytes b 32));
    Alcotest.test_case "split independent of parent position" `Quick (fun () ->
        let a = Rng.create ~seed:"s" in
        let _ = Rng.bytes a 999 in
        let child1 = Rng.split a ~label:"x" in
        let b = Rng.create ~seed:"s" in
        let child2 = Rng.split b ~label:"x" in
        Alcotest.(check bytes) "same child stream" (Rng.bytes child1 32) (Rng.bytes child2 32));
    Alcotest.test_case "split labels give distinct streams" `Quick (fun () ->
        let a = Rng.create ~seed:"s" in
        let x = Rng.split a ~label:"x" and y = Rng.split a ~label:"y" in
        Alcotest.(check bool) "differ" false (Rng.bytes x 32 = Rng.bytes y 32));
    Alcotest.test_case "int_below bounds and rough uniformity" `Quick (fun () ->
        let r = Rng.create ~seed:"uniform" in
        let counts = Array.make 16 0 in
        for _ = 1 to 16000 do
          let v = Rng.int_below r 16 in
          Alcotest.(check bool) "in range" true (v >= 0 && v < 16);
          counts.(v) <- counts.(v) + 1
        done;
        Array.iter
          (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 800 && c < 1200))
          counts);
    Alcotest.test_case "int_below on non-power-of-two (rejection path)" `Quick
      (fun () ->
        let r = Rng.create ~seed:"reject" in
        for _ = 1 to 5000 do
          let v = Rng.int_below r 3 in
          Alcotest.(check bool) "range" true (v >= 0 && v < 3)
        done);
    Alcotest.test_case "int_in_range inclusive" `Quick (fun () ->
        let r = Rng.create ~seed:"range" in
        let seen_lo = ref false and seen_hi = ref false in
        for _ = 1 to 2000 do
          let v = Rng.int_in_range r ~lo:(-3) ~hi:3 in
          if v = -3 then seen_lo := true;
          if v = 3 then seen_hi := true;
          Alcotest.(check bool) "range" true (v >= -3 && v <= 3)
        done;
        Alcotest.(check bool) "endpoints reachable" true (!seen_lo && !seen_hi));
    Alcotest.test_case "permutation is a permutation" `Quick (fun () ->
        let r = Rng.create ~seed:"perm" in
        let p = Rng.permutation r 50 in
        let s = Array.copy p in
        Array.sort compare s;
        Alcotest.(check bool) "permutation" true (s = Array.init 50 (fun i -> i)));
    Alcotest.test_case "splitmix basic" `Quick (fun () ->
        let st = Rng.Splitmix.create 42 in
        let a = Rng.Splitmix.next st and b = Rng.Splitmix.next st in
        Alcotest.(check bool) "progresses" true (a <> b);
        Alcotest.(check bool) "nonneg" true (a >= 0 && b >= 0);
        let f = Rng.Splitmix.float st in
        Alcotest.(check bool) "unit float" true (f >= 0. && f < 1.));
  ]

let bigint_sampling_tests =
  [
    prop "bigint_below in range"
      QCheck2.Gen.(int_range 1 1000)
      (fun seed ->
        let r = Rng.create ~seed:(string_of_int seed) in
        let bound = Bigint.of_string "123456789012345678901234567890" in
        let v = Rng.bigint_below r bound in
        Bigint.sign v >= 0 && Bigint.compare v bound < 0);
    prop "bigint_bits within width"
      QCheck2.Gen.(pair (int_range 0 200) (int_range 0 1000))
      (fun (bits, seed) ->
        let r = Rng.create ~seed:(string_of_int seed) in
        Bigint.numbits (Rng.bigint_bits r bits) <= bits);
    Alcotest.test_case "bigint_below first draws pinned" `Quick (fun () ->
        (* A fixed seed's first draws below 2^bits - 189: the byte
           packing under each draw is an implementation detail, the
           values it yields are not. *)
        List.iter
          (fun (bits, want) ->
            let r = Rng.create ~seed:"bigint-below-pin" in
            let bound = Bigint.sub (Bigint.nth_bit_weight bits) (Bigint.of_int 189) in
            let got = List.init 3 (fun _ -> Bigint.to_string_hex (Rng.bigint_below r bound)) in
            Alcotest.(check (list string)) (Printf.sprintf "%d-bit bound" bits) want got)
          [
            (64, [ "640cb08628d39191"; "7295e05c4ff00d8a"; "2b495d8a6b84339b" ]);
            ( 192,
              [
                "640cb08628d391917295e05c4ff00d8a2b495d8a6b84339b";
                "db4bea845f5010f1cfbb97ba61d50b38a043cb99ff5309c0";
                "55c3568bf7f8ac24db88c74ca6f92364ad0ed21e135316de";
              ] );
            ( 1024,
              [
                "640cb08628d391917295e05c4ff00d8a2b495d8a6b84339bdb4bea845f5010f1cfbb97ba61d50b38a043cb99ff5309c055c3568bf7f8ac24db88c74ca6f92364ad0ed21e135316deda7ce74b5f7b4e623b33d2e2814b39145b56002f6a3b153812114aaeca126df0d9cd6d4e54c41c47664b11557989cc5f4e94769ee4a3f002";
                "b2514e14349ff761333166384038010671d8a6361f5d1b48b27070be24c1f8b03e0b67f8dbc8cadafa4f95a4f821f882f08499173b3407661494fb7b996d4cede7fc1a29bd624d7079cb18f23a408d479b85bd1360c29153e7e70f4860475e49dd7f914f7d395f6df9818c2b45e65b172db0ae5360031f50c94217097874eef9";
                "a80f9a4c42f41c948bbe88d1f8d993b005b2e8d600a54618efd388825dd219af86768786a2b417746d64ec589aa267199f341c147e8ec2c3e3776e8a7b52730ddfa881c88f142c5c91fdbb3ad69d021c37ef4e8697659c9630aa7daac198fe4ba4f65a35d90cf5e9b70e8ef625c20b4eb13c3e24b75d6be1db10cecfc8548e1c";
              ] );
          ]);
    prop "bigint_in_range inclusive"
      QCheck2.Gen.(int_range 0 500)
      (fun seed ->
        let r = Rng.create ~seed:(string_of_int seed) in
        let lo = Bigint.of_int 100 and hi = Bigint.of_int 110 in
        let v = Rng.bigint_in_range r ~lo ~hi in
        Bigint.compare v lo >= 0 && Bigint.compare v hi <= 0);
  ]

let () =
  Alcotest.run "rng"
    [
      ("chacha20", chacha_tests);
      ("rng", rng_tests);
      ("bigint-sampling", bigint_sampling_tests);
    ]
