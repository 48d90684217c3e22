(* Tests for the message-passing (bytes-only) execution of phase 2. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_group
open Ppgr_grouprank

let rng = Rng.create ~seed:"test-runtime"

let ranks_of_betas betas =
  Array.map
    (fun b ->
      1
      + Array.fold_left
          (fun acc b' -> if Bigint.compare b' b > 0 then acc + 1 else acc)
          0 betas)
    betas

let suite (name, g) =
  let module G = (val g : Group_intf.GROUP) in
  let module RT = Runtime.Make (G) in
  (* Both step-7 circuits on one random pair: (suffix, naive) results
     with the group ops each cost. *)
  let circuits ~l =
    let bits () = Bigint.bits_of (Rng.bigint_below rng (Bigint.nth_bit_weight l)) ~width:l in
    let tbl = RT.E.keytable (snd (RT.E.keygen rng)) in
    let own_bits = bits () in
    let enc_bits = Array.map (RT.E.encrypt_exp_int_with rng tbl) (bits ()) in
    let run naive_omega =
      let s = G.op_count () in
      let c = RT.compare_circuit ~naive_omega ~l ~own_bits enc_bits in
      (c, G.op_count () - s)
    in
    (run false, run true)
  in
  [
    Alcotest.test_case (name ^ ": distributed ranks match beta order") `Quick
      (fun () ->
        for _ = 1 to 4 do
          let n = 2 + Rng.int_below rng 4 in
          let l = 10 in
          let betas =
            Array.init n (fun _ -> Rng.bigint_below rng (Bigint.nth_bit_weight l))
          in
          let r = RT.run rng ~l ~betas in
          Alcotest.(check (array int)) "ranks" (ranks_of_betas betas) r.RT.ranks
        done);
    Alcotest.test_case (name ^ ": naive omega circuit agrees") `Quick (fun () ->
        (* The suffix sums and the from-scratch sums add the same gamma
           ciphertexts in another order: equal group elements. *)
        let (fast, _), (naive, _) = circuits ~l:12 in
        Array.iter2
          (fun (a : RT.E.cipher) (b : RT.E.cipher) ->
            Alcotest.(check bool) "same ciphertext" true
              (G.equal a.RT.E.c b.RT.E.c && G.equal a.RT.E.c' b.RT.E.c'))
          fast naive);
    Alcotest.test_case (name ^ ": naive omega circuit costs more") `Quick
      (fun () ->
        let (_, fast_ops), (_, naive_ops) = circuits ~l:24 in
        Alcotest.(check bool)
          (Printf.sprintf "naive %d > suffix %d" naive_ops fast_ops)
          true (naive_ops > fast_ops));
    Alcotest.test_case (name ^ ": both circuits on every input, l <= 6") `Quick
      (fun () ->
        (* Every ordered pair of l-bit values: the circuit's output has
           exactly one zero plaintext iff own < other, none otherwise. *)
        let rng = Rng.create ~seed:"test-runtime-circuit" in
        let sk, pk = RT.E.keygen rng in
        let tbl = RT.E.keytable pk in
        for l = 1 to 6 do
          let bits x = Bigint.bits_of (Bigint.of_int x) ~width:l in
          let enc =
            Array.init (1 lsl l) (fun x ->
                Array.map (RT.E.encrypt_exp_int_with rng tbl) (bits x))
          in
          for own = 0 to (1 lsl l) - 1 do
            for other = 0 to (1 lsl l) - 1 do
              List.iter
                (fun naive_omega ->
                  let c =
                    RT.compare_circuit ~naive_omega ~l ~own_bits:(bits own)
                      enc.(other)
                  in
                  let zeros =
                    Array.fold_left
                      (fun k x -> if RT.E.decrypt_exp_is_zero sk x then k + 1 else k)
                      0 c
                  in
                  if zeros <> Bool.to_int (own < other) then
                    Alcotest.failf "l=%d own=%d other=%d naive=%b: %d zeros" l own
                      other naive_omega zeros)
                [ false; true ]
            done
          done
        done);
    Alcotest.test_case (name ^ ": every input at l = 3, n <= 3, two windows")
      `Slow (fun () ->
        (* Every vector of 3-bit betas for n = 2 (64) and n = 3 (512):
           clear-text ranks, equal betas sharing one, and the
           stop-and-wait transcript again at window=4. *)
        let l = 3 in
        let window = Transport.winspec_of_string "window=4" in
        List.iter
          (fun n ->
            for code = 0 to (1 lsl (l * n)) - 1 do
              let betas =
                Array.init n (fun j ->
                    Bigint.of_int ((code lsr (l * j)) land ((1 lsl l) - 1)))
              in
              let run ?window () =
                RT.run ?window
                  (Rng.create ~seed:(Printf.sprintf "every-input-%d-%d" n code))
                  ~l ~betas
              in
              let a = run () and b = run ~window () in
              let want = ranks_of_betas betas in
              if a.RT.ranks <> want || b.RT.ranks <> want then
                Alcotest.failf "n=%d code=%d: wrong ranks" n code;
              if a.RT.transcript_sha <> b.RT.transcript_sha then
                Alcotest.failf "n=%d code=%d: window=4 changed the transcript" n
                  code
            done)
          [ 2; 3 ]);
    Alcotest.test_case (name ^ ": O(n) rounds") `Quick (fun () ->
        let rounds n =
          List.length (RT.run rng ~l:6 ~betas:(Array.init n Bigint.of_int)).RT.schedule
        in
        Alcotest.(check int) "one more round per ring hop" 2 (rounds 6 - rounds 4));
    Alcotest.test_case (name ^ ": traffic accounted") `Quick (fun () ->
        let l = 6 in
        let betas = Array.map Bigint.of_int [| 1; 2; 3; 4 |] in
        let r = RT.run rng ~l ~betas in
        Alcotest.(check bool) "bytes" true (r.RT.bytes_on_wire > 0);
        Alcotest.(check bool) "messages" true (r.RT.messages > 20));
    Alcotest.test_case (name ^ ": exponentiations = n x the VI-B count") `Quick
      (fun () ->
        (* A party verifies the other n-1 key proofs, never its own. *)
        List.iter
          (fun n ->
            let l = 16 in
            let betas =
              Array.init n (fun _ -> Rng.bigint_below rng (Bigint.nth_bit_weight l))
            in
            let before = Opmeter.count () in
            ignore (RT.run rng ~l ~betas);
            Alcotest.(check int)
              (Printf.sprintf "n=%d l=%d" n l)
              (n * Cost_model.He_model.analytic_exps ~n ~l)
              (Opmeter.count () - before))
          [ 3; 4; 5 ]);
    Alcotest.test_case (name ^ ": rejects out-of-range beta") `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (RT.run rng ~l:4 ~betas:[| Bigint.of_int 16; Bigint.one |]);
             false
           with Invalid_argument _ -> true));
  ]

let forged_proof_tests =
  let module G = (val Dl_group.dl_test_64 () : Group_intf.GROUP) in
  let module RT = Runtime.Make (G) in
  [
    Alcotest.test_case "announcement with forged proof is rejected" `Quick
      (fun () ->
        let n = 3 and l = 6 in
        let labels = RT.make_labels ~n ~l in
        let parties =
          Array.init n (fun index ->
              RT.create_party ~index ~n ~l ~labels ~beta:(Bigint.of_int index)
                (Rng.split rng ~label:(Printf.sprintf "forge-%d" index)))
        in
        let pub_msgs = Array.map (fun p -> p.RT.pub_msg) parties in
        let proof_msgs = Array.map (fun p -> p.RT.proof_msg) parties in
        (* Party 1 announces party 0's proof with its own key: the
           verification binds proof to statement, so this must fail. *)
        let forged = Array.copy proof_msgs in
        forged.(1) <- proof_msgs.(0);
        Alcotest.(check bool) "rejected" true
          (try
             ignore
               (RT.receive_keys_and_encrypt parties.(2) ~pub_msgs
                  ~proof_msgs:forged);
             false
           with Invalid_argument _ -> true));
  ]

let () =
  Alcotest.run "runtime"
    [
      ("dl", suite ("DL", Dl_group.dl_test_64 ()));
      ("ec", suite ("EC", Ec_group.ecc_tiny ()));
      ("forged-proof", forged_proof_tests);
    ]
