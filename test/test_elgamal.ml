(* ElGamal tests: round trips, additive homomorphism, distributed
   decryption, blinding semantics — over both group families. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_group
open Ppgr_elgamal

let rng = Rng.create ~seed:"test-elgamal"

let suite name (g : Group_intf.group) =
  let module G = (val g) in
  let module E = Elgamal.Make (G) in
  let fresh_keys () = E.keygen rng in
  [
    Alcotest.test_case (name ^ ": standard round trip") `Quick (fun () ->
        let x, y = fresh_keys () in
        for _ = 1 to 10 do
          let m = G.pow_gen (G.random_scalar rng) in
          Alcotest.(check bool) "dec(enc m) = m" true
            (G.equal m (E.decrypt x (E.encrypt rng y m)))
        done);
    Alcotest.test_case (name ^ ": ciphertexts are randomized") `Quick (fun () ->
        let _, y = fresh_keys () in
        let m = G.pow_gen (Bigint.of_int 5) in
        let c1 = E.encrypt rng y m and c2 = E.encrypt rng y m in
        Alcotest.(check bool) "distinct" false
          (G.equal c1.E.c c2.E.c && G.equal c1.E.c' c2.E.c'));
    Alcotest.test_case (name ^ ": exponential zero test") `Quick (fun () ->
        let x, y = fresh_keys () in
        Alcotest.(check bool) "zero" true
          (E.decrypt_exp_is_zero x (E.encrypt_exp rng y Bigint.zero));
        Alcotest.(check bool) "nonzero" false
          (E.decrypt_exp_is_zero x (E.encrypt_exp rng y (Bigint.of_int 3))));
    Alcotest.test_case (name ^ ": additive homomorphism") `Quick (fun () ->
        let x, y = fresh_keys () in
        for _ = 1 to 10 do
          let a = Rng.int_below rng 1000 and b = Rng.int_below rng 1000 in
          let sum = E.add (E.encrypt_exp_int rng y a) (E.encrypt_exp_int rng y b) in
          Alcotest.(check bool) "E(a)+E(b) = E(a+b)" true
            (G.equal (E.plaintext_power x sum) (G.pow_gen (Bigint.of_int (a + b))))
        done);
    Alcotest.test_case (name ^ ": subtraction and negation") `Quick (fun () ->
        let x, y = fresh_keys () in
        let ca = E.encrypt_exp_int rng y 10 and cb = E.encrypt_exp_int rng y 4 in
        Alcotest.(check bool) "sub" true
          (G.equal (E.plaintext_power x (E.sub ca cb)) (G.pow_gen (Bigint.of_int 6)));
        Alcotest.(check bool) "a + (-a) = 0" true
          (E.decrypt_exp_is_zero x (E.add ca (E.neg ca))));
    Alcotest.test_case (name ^ ": scalar multiplication") `Quick (fun () ->
        let x, y = fresh_keys () in
        let c = E.encrypt_exp_int rng y 7 in
        Alcotest.(check bool) "scale 6" true
          (G.equal (E.plaintext_power x (E.scale_int c 6)) (G.pow_gen (Bigint.of_int 42)));
        Alcotest.(check bool) "scale 0 is zero" true
          (E.decrypt_exp_is_zero x (E.scale_int c 0)));
    Alcotest.test_case (name ^ ": add_clear") `Quick (fun () ->
        let x, y = fresh_keys () in
        let c = E.encrypt_exp_int rng y 5 in
        Alcotest.(check bool) "5+3" true
          (G.equal
             (E.plaintext_power x (E.add_clear c (Bigint.of_int 3)))
             (G.pow_gen (Bigint.of_int 8))));
    Alcotest.test_case (name ^ ": rerandomize preserves plaintext") `Quick
      (fun () ->
        let x, y = fresh_keys () in
        let c = E.encrypt_exp_int rng y 9 in
        let c' = E.rerandomize rng y c in
        Alcotest.(check bool) "ciphertext changed" false (G.equal c.E.c c'.E.c);
        Alcotest.(check bool) "plaintext kept" true
          (G.equal (E.plaintext_power x c') (G.pow_gen (Bigint.of_int 9))));
    Alcotest.test_case (name ^ ": distributed decryption, any order") `Quick
      (fun () ->
        let parties = List.init 4 (fun _ -> E.keygen rng) in
        let joint = E.joint_pubkey (List.map snd parties) in
        let c = E.encrypt_exp_int rng joint 0 in
        let cn = E.encrypt_exp_int rng joint 2 in
        let strip order cph =
          List.fold_left (fun acc (x, _) -> E.partial_decrypt x acc) cph order
        in
        Alcotest.(check bool) "zero via forward order" true
          (G.is_identity (strip parties c).E.c);
        Alcotest.(check bool) "zero via reverse order" true
          (G.is_identity (strip (List.rev parties) c).E.c);
        Alcotest.(check bool) "nonzero stays nonzero" false
          (G.is_identity (strip parties cn).E.c));
    Alcotest.test_case (name ^ ": partial strip leaves undecryptable") `Quick
      (fun () ->
        let parties = List.init 3 (fun _ -> E.keygen rng) in
        let joint = E.joint_pubkey (List.map snd parties) in
        let c = E.encrypt_exp_int rng joint 0 in
        (* Stripping only 2 of 3 layers must not reveal the zero. *)
        let partial =
          match parties with
          | a :: b :: _ -> E.partial_decrypt (fst b) (E.partial_decrypt (fst a) c)
          | _ -> assert false
        in
        Alcotest.(check bool) "still hidden" false (G.is_identity partial.E.c));
    Alcotest.test_case (name ^ ": exponent blinding") `Quick (fun () ->
        let x, y = fresh_keys () in
        let z = E.encrypt_exp_int rng y 0 and nz = E.encrypt_exp_int rng y 5 in
        let bz = E.exponent_blind rng z and bnz = E.exponent_blind rng nz in
        Alcotest.(check bool) "zero preserved" true (E.decrypt_exp_is_zero x bz);
        Alcotest.(check bool) "nonzero preserved" false (E.decrypt_exp_is_zero x bnz);
        (* The blinded nonzero plaintext is no longer 5 (randomized). *)
        Alcotest.(check bool) "plaintext randomized" false
          (G.equal (E.plaintext_power x bnz) (G.pow_gen (Bigint.of_int 5))));
    Alcotest.test_case (name ^ ": blinding commutes with partial decryption")
      `Quick (fun () ->
        let parties = List.init 3 (fun _ -> E.keygen rng) in
        let joint = E.joint_pubkey (List.map snd parties) in
        let c = E.encrypt_exp_int rng joint 0 in
        (* Interleave strip and blind as the ring pass does. *)
        let c =
          List.fold_left
            (fun acc (x, _) -> E.exponent_blind rng (E.partial_decrypt x acc))
            c parties
        in
        Alcotest.(check bool) "zero survives ring" true (G.is_identity c.E.c));
    Alcotest.test_case (name ^ ": strip-and-blind batch = per element") `Quick
      (fun () ->
        (* Same streams, same ciphertexts and two Opmeter ticks per
           element, at 0, 1 and above the EC crossover; zero plaintexts
           stay zero once every key is stripped. *)
        let x, y = fresh_keys () in
        List.iter
          (fun k ->
            let cs = Array.init k (fun i -> E.encrypt_exp_int rng y (i mod 3)) in
            let streams tag = Array.init k (fun i -> Rng.split rng ~label:(Printf.sprintf "%s-%d" tag i)) in
            let t0 = Ppgr_group.Opmeter.count () in
            let batch = E.partial_decrypt_blind_batch (streams "pdb") x cs in
            Alcotest.(check int) "two exps per element" (2 * k) (Ppgr_group.Opmeter.count () - t0);
            let each = Array.map2 (fun r c -> E.partial_decrypt_blind r x c) (streams "pdb") cs in
            Array.iteri
              (fun i c ->
                Alcotest.(check bool) "c" true (G.equal c.E.c each.(i).E.c);
                Alcotest.(check bool) "c'" true (G.equal c.E.c' each.(i).E.c');
                Alcotest.(check bool) "zero iff zero" (i mod 3 = 0) (G.is_identity c.E.c))
              batch)
          [ 0; 1; Ec_curve.batch_crossover + 4 ]);
    Alcotest.test_case (name ^ ": joint_pubkey requires keys") `Quick (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Elgamal.joint_pubkey: no keys")
          (fun () -> ignore (E.joint_pubkey [])));
  ]

let homomorphism_props =
  let module G = (val Dl_group.dl_test_64 ()) in
  let module E = Elgamal.Make (G) in
  let x, y = E.keygen rng in
  let prop name gen f =
    QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:50 ~name gen f)
  in
  [
    prop "E(a)+E(b)+E(c) linear" QCheck2.Gen.(triple (int_range 0 500) (int_range 0 500) (int_range 0 500))
      (fun (a, b, c) ->
        let enc v = E.encrypt_exp_int rng y v in
        let combined = E.add (E.add (enc a) (enc b)) (enc c) in
        G.equal (E.plaintext_power x combined) (G.pow_gen (Bigint.of_int (a + b + c))));
    prop "scale distributes over add" QCheck2.Gen.(triple (int_range 0 100) (int_range 0 100) (int_range 0 20))
      (fun (a, b, k) ->
        let enc v = E.encrypt_exp_int rng y v in
        let lhs = E.scale_int (E.add (enc a) (enc b)) k in
        G.equal (E.plaintext_power x lhs) (G.pow_gen (Bigint.of_int (k * (a + b)))));
  ]

(* The zero test compares c with c'^x instead of decrypting: it must
   agree with decrypt-then-test on every ciphertext, the degenerate ones
   included, and still tick exactly one exponentiation. *)
let zero_test_case name (g : Group_intf.group) =
  let module G = (val g) in
  let module E = Elgamal.Make (G) in
  Alcotest.test_case (name ^ ": zero test = decrypt then test") `Quick (fun () ->
      let x, y = E.keygen rng in
      let other = G.pow_gen (G.random_scalar rng) in
      List.iter
        (fun (what, c, zero) ->
          Alcotest.(check bool)
            (what ^ ": decrypt then test")
            zero
            (E.is_zero_plaintext_power (E.decrypt x c));
          let before = Opmeter.count () in
          let got = E.decrypt_exp_is_zero x c in
          Alcotest.(check int) (what ^ ": one exponentiation") 1 (Opmeter.count () - before);
          Alcotest.(check bool) what zero got)
        [
          ("plaintext 0", E.encrypt_exp_int rng y 0, true);
          ("plaintext 1", E.encrypt_exp_int rng y 1, false);
          ("random plaintext", E.encrypt_exp rng y (G.random_scalar rng), false);
          ("all-identity", { E.c = G.identity; c' = G.identity }, true);
          ("c' = identity, c <> identity", { E.c = other; c' = G.identity }, false);
        ])

let () =
  Alcotest.run "elgamal"
    [
      ("dl", suite "DL" (Dl_group.dl_test_64 ()));
      ("ec", suite "EC" (Ec_group.ecc_tiny ()));
      ("ecc-160", suite "ECC-160" (Ec_group.ecc_160 ()));
      ("homomorphism-props", homomorphism_props);
      ( "zero-test",
        [
          zero_test_case "DL-test-64" (Dl_group.dl_test_64 ());
          zero_test_case "DL-512" (Dl_group.dl_512 ());
          zero_test_case "ECC-tiny" (Ec_group.ecc_tiny ());
          zero_test_case "ECC-160" (Ec_group.ecc_160 ());
        ] );
    ]
