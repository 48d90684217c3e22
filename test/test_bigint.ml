(* Unit and property tests for the arbitrary-precision integer core. *)

open Ppgr_bigint

let bi = Bigint.of_int
let bs = Bigint.of_string

let check_bi msg expected actual =
  Alcotest.(check string) msg (Bigint.to_string expected) (Bigint.to_string actual)

(* qcheck generator for moderate native ints (so reference arithmetic in
   native ints cannot overflow when combined). *)
let small_int = QCheck2.Gen.int_range (-1_000_000_000) 1_000_000_000

(* Random big integers via decimal strings of random length. *)
let big_gen =
  QCheck2.Gen.(
    let* digits = int_range 1 60 in
    let* neg = bool in
    let* ds = list_repeat digits (int_range 0 9) in
    let s = String.concat "" (List.map string_of_int ds) in
    return (if neg then Bigint.neg (bs s) else bs s))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)

let unit_tests =
  [
    Alcotest.test_case "constants" `Quick (fun () ->
        check_bi "zero" (bi 0) Bigint.zero;
        check_bi "one" (bi 1) Bigint.one;
        check_bi "minus_one" (bi (-1)) Bigint.minus_one;
        Alcotest.(check bool) "zero is_zero" true (Bigint.is_zero Bigint.zero));
    Alcotest.test_case "string round trips" `Quick (fun () ->
        List.iter
          (fun s -> Alcotest.(check string) s s (Bigint.to_string (bs s)))
          [ "0"; "1"; "-1"; "123456789012345678901234567890"; "-999999999999999999999" ]);
    Alcotest.test_case "hex parsing" `Quick (fun () ->
        check_bi "0xff" (bi 255) (bs "0xff");
        check_bi "0xFF" (bi 255) (bs "0xFF");
        check_bi "-0x10" (bi (-16)) (bs "-0x10");
        Alcotest.(check string) "to hex" "ff" (Bigint.to_string_hex (bi 255)));
    Alcotest.test_case "known multiplication" `Quick (fun () ->
        check_bi "mul"
          (bs "121932631137021795226185032733744855963362292333223746380111126352690")
          (Bigint.mul
             (bs "123456789012345678901234567890123456789")
             (bs "987654321098765432109876543210")));
    Alcotest.test_case "karatsuba agrees with schoolbook" `Quick (fun () ->
        (* A multiplication big enough to cross the Karatsuba cutoff. *)
        let a = Bigint.pred (Bigint.nth_bit_weight 2000) in
        let b = Bigint.add (Bigint.nth_bit_weight 1999) (bi 12345) in
        let p = Bigint.mul a b in
        (* (2^2000 - 1) * b = b * 2^2000 - b *)
        let expect = Bigint.sub (Bigint.shift_left b 2000) b in
        check_bi "karatsuba" expect p);
    Alcotest.test_case "division by zero" `Quick (fun () ->
        Alcotest.check_raises "raise" Division_by_zero (fun () ->
            ignore (Bigint.div (bi 5) Bigint.zero)));
    Alcotest.test_case "divmod truncation sign convention" `Quick (fun () ->
        List.iter
          (fun (a, b) ->
            let q, r = Bigint.divmod (bi a) (bi b) in
            Alcotest.(check int) "q" (a / b) (Bigint.to_int_exn q);
            Alcotest.(check int) "r" (a mod b) (Bigint.to_int_exn r))
          [ (7, 3); (-7, 3); (7, -3); (-7, -3); (0, 5); (6, 3); (-6, 3) ]);
    Alcotest.test_case "euclidean remainder nonneg" `Quick (fun () ->
        List.iter
          (fun (a, b) ->
            let r = Bigint.erem (bi a) (bi b) in
            Alcotest.(check bool) "nonneg" true (Bigint.sign r >= 0);
            Alcotest.(check int) "consistent" ((a mod b + abs b) mod abs b)
              (Bigint.to_int_exn r))
          [ (7, 3); (-7, 3); (7, -3); (-7, -3); (-1, 5) ]);
    Alcotest.test_case "big division with known quotient" `Quick (fun () ->
        let b = bs "987654321098765432109876543210" in
        let a = Bigint.add (Bigint.mul b (bs "1234567890123456789")) (bi 42) in
        let q, r = Bigint.divmod a b in
        check_bi "q" (bs "1234567890123456789") q;
        check_bi "r" (bi 42) r);
    Alcotest.test_case "shift left/right" `Quick (fun () ->
        check_bi "shl" (bi 40) (Bigint.shift_left (bi 5) 3);
        check_bi "shr" (bi 5) (Bigint.shift_right (bi 40) 3);
        check_bi "shr floor" (bi 2) (Bigint.shift_right (bi 5) 1);
        check_bi "big" (Bigint.nth_bit_weight 100)
          (Bigint.shift_right (Bigint.nth_bit_weight 163) 63));
    Alcotest.test_case "numbits / testbit" `Quick (fun () ->
        Alcotest.(check int) "numbits 0" 0 (Bigint.numbits Bigint.zero);
        Alcotest.(check int) "numbits 1" 1 (Bigint.numbits Bigint.one);
        Alcotest.(check int) "numbits 255" 8 (Bigint.numbits (bi 255));
        Alcotest.(check int) "numbits 256" 9 (Bigint.numbits (bi 256));
        Alcotest.(check bool) "bit0 of 5" true (Bigint.testbit (bi 5) 0);
        Alcotest.(check bool) "bit1 of 5" false (Bigint.testbit (bi 5) 1);
        Alcotest.(check bool) "bit far" false (Bigint.testbit (bi 5) 1000));
    Alcotest.test_case "bits_of / of_bits round trip" `Quick (fun () ->
        let v = bs "123456789123456789" in
        let bits = Bigint.bits_of v ~width:64 in
        check_bi "roundtrip" v (Bigint.of_bits bits));
    Alcotest.test_case "bytes round trip" `Quick (fun () ->
        let v = bs "0xdeadbeefcafebabe0123456789" in
        check_bi "roundtrip" v (Bigint.of_bytes_be (Bigint.to_bytes_be v));
        let padded = Bigint.to_bytes_be_padded 32 v in
        Alcotest.(check int) "padded length" 32 (Bytes.length padded);
        check_bi "padded roundtrip" v (Bigint.of_bytes_be padded));
    Alcotest.test_case "gcd / egcd / invmod" `Quick (fun () ->
        check_bi "gcd" (bi 6) (Bigint.gcd (bi 54) (bi 24));
        let g, u, v = Bigint.egcd (bi 240) (bi 46) in
        check_bi "egcd g" (bi 2) g;
        check_bi "bezout" g (Bigint.add (Bigint.mul u (bi 240)) (Bigint.mul v (bi 46)));
        let m = bs "1000000007" in
        let inv = Bigint.invmod (bi 12345) m in
        check_bi "invmod" Bigint.one (Bigint.erem (Bigint.mul inv (bi 12345)) m);
        Alcotest.check_raises "non-invertible" Division_by_zero (fun () ->
            ignore (Bigint.invmod (bi 6) (bi 9))));
    Alcotest.test_case "powmod odd and even moduli" `Quick (fun () ->
        check_bi "3^5 mod 7" (bi 5) (Bigint.powmod (bi 3) (bi 5) (bi 7));
        check_bi "2^10 mod 100" (bi 24) (Bigint.powmod (bi 2) (bi 10) (bi 100));
        check_bi "x^0" Bigint.one (Bigint.powmod (bi 7) Bigint.zero (bi 13));
        check_bi "mod 1" Bigint.zero (Bigint.powmod (bi 7) (bi 3) Bigint.one));
    Alcotest.test_case "jacobi symbol" `Quick (fun () ->
        (* Known values for p = 7: QRs are 1,2,4. *)
        List.iter
          (fun (a, expect) ->
            Alcotest.(check int) (Printf.sprintf "(%d/7)" a) expect
              (Bigint.jacobi (bi a) (bi 7)))
          [ (1, 1); (2, 1); (3, -1); (4, 1); (5, -1); (6, -1); (7, 0) ]);
    Alcotest.test_case "pow small" `Quick (fun () ->
        check_bi "2^62" (Bigint.nth_bit_weight 62) (Bigint.pow (bi 2) 62);
        check_bi "x^0" Bigint.one (Bigint.pow (bi 999) 0));
  ]

let property_tests =
  [
    prop "add matches native" QCheck2.Gen.(pair small_int small_int) (fun (a, b) ->
        Bigint.to_int_exn (Bigint.add (bi a) (bi b)) = a + b);
    prop "mul matches native" QCheck2.Gen.(pair small_int small_int) (fun (a, b) ->
        Bigint.to_int_exn (Bigint.mul (bi a) (bi b)) = a * b);
    prop "sub matches native" QCheck2.Gen.(pair small_int small_int) (fun (a, b) ->
        Bigint.to_int_exn (Bigint.sub (bi a) (bi b)) = a - b);
    prop "compare matches native" QCheck2.Gen.(pair small_int small_int) (fun (a, b) ->
        Bigint.compare (bi a) (bi b) = compare a b);
    prop "divmod reconstructs" QCheck2.Gen.(pair big_gen big_gen) (fun (a, b) ->
        QCheck2.assume (not (Bigint.is_zero b));
        let q, r = Bigint.divmod a b in
        Bigint.equal a (Bigint.add (Bigint.mul q b) r)
        && Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0);
    prop "string round trip" big_gen (fun a ->
        Bigint.equal a (bs (Bigint.to_string a)));
    prop "hex round trip (nonneg)" big_gen (fun a ->
        let a = Bigint.abs a in
        Bigint.equal a (bs ("0x" ^ Bigint.to_string_hex a)));
    prop "add commutative" QCheck2.Gen.(pair big_gen big_gen) (fun (a, b) ->
        Bigint.equal (Bigint.add a b) (Bigint.add b a));
    prop "mul distributes" QCheck2.Gen.(triple big_gen big_gen big_gen)
      (fun (a, b, c) ->
        Bigint.equal
          (Bigint.mul a (Bigint.add b c))
          (Bigint.add (Bigint.mul a b) (Bigint.mul a c)));
    prop "neg involutive" big_gen (fun a -> Bigint.equal a (Bigint.neg (Bigint.neg a)));
    prop "shift then unshift" QCheck2.Gen.(pair big_gen (int_range 0 200))
      (fun (a, s) ->
        let a = Bigint.abs a in
        Bigint.equal a (Bigint.shift_right (Bigint.shift_left a s) s));
    prop "powmod agrees with naive" QCheck2.Gen.(triple small_int (int_range 0 40) small_int)
      (fun (b, e, m) ->
        let m = abs m + 3 in
        let b = abs b in
        let naive = ref 1 in
        for _ = 1 to e do
          naive := !naive * b mod m
        done;
        Bigint.to_int_exn (Bigint.powmod (bi b) (bi e) (bi m)) = !naive);
    prop "invmod inverts (odd prime field)" small_int (fun a ->
        let p = bs "1000000007" in
        let a = Bigint.erem (bi a) p in
        QCheck2.assume (not (Bigint.is_zero a));
        Bigint.equal Bigint.one (Bigint.erem (Bigint.mul (Bigint.invmod a p) a) p));
  ]

let modring_tests =
  let m = bs "0xfffffffffffffffffffffffffffffffeffffffffffffffff" in
  let ctx = Bigint.Modring.ctx ~modulus:m in
  let enter = Bigint.Modring.enter ctx in
  let leave = Bigint.Modring.leave ctx in
  [
    Alcotest.test_case "enter/leave round trip" `Quick (fun () ->
        let v = bs "123456789012345678901234567890" in
        check_bi "roundtrip" v (leave (enter v)));
    Alcotest.test_case "mul agrees with erem-mul" `Quick (fun () ->
        let a = bs "98765432109876543210987654321" in
        let b = bs "11111111111111111111111111111" in
        check_bi "mul"
          (Bigint.erem (Bigint.mul a b) m)
          (leave (Bigint.Modring.mul ctx (enter a) (enter b))));
    Alcotest.test_case "add/sub/neg" `Quick (fun () ->
        let a = bs "999999999999999999999999" and b = bs "31337" in
        check_bi "add" (Bigint.erem (Bigint.add a b) m)
          (leave (Bigint.Modring.add ctx (enter a) (enter b)));
        check_bi "sub" (Bigint.erem (Bigint.sub b a) m)
          (leave (Bigint.Modring.sub ctx (enter b) (enter a)));
        check_bi "neg" (Bigint.erem (Bigint.neg a) m)
          (leave (Bigint.Modring.neg ctx (enter a))));
    Alcotest.test_case "pow agrees with powmod" `Quick (fun () ->
        let b = bs "1234567890" and e = bs "98765432123456789" in
        check_bi "pow" (Bigint.powmod b e m)
          (leave (Bigint.Modring.pow ctx (enter b) e)));
    Alcotest.test_case "inv" `Quick (fun () ->
        let a = bs "424242424242" in
        let ia = Bigint.Modring.inv ctx (enter a) in
        check_bi "inv" Bigint.one (leave (Bigint.Modring.mul ctx ia (enter a))));
    Alcotest.test_case "mul_small and double" `Quick (fun () ->
        let a = bs "5555555555555" in
        check_bi "x7" (Bigint.erem (Bigint.mul_int a 7) m)
          (leave (Bigint.Modring.mul_small ctx (enter a) 7));
        check_bi "double" (Bigint.erem (Bigint.mul_int a 2) m)
          (leave (Bigint.Modring.double ctx (enter a))));
    Alcotest.test_case "even modulus rejected" `Quick (fun () ->
        Alcotest.check_raises "invalid"
          (Invalid_argument "Modring.ctx: modulus must be odd and > 2") (fun () ->
            ignore (Bigint.Modring.ctx ~modulus:(bi 100))));
  ]


(* Division stress: structured magnitudes that exercise the Knuth-D
   correction paths (qhat refinement and the rare add-back), validated
   through the division identity a = q b + r with 0 <= r < |b|, which
   characterizes the quotient uniquely. *)
let division_stress_tests =
  let rng = ref 123456789 in
  let next_rand () =
    rng := ((!rng * 0x27BB2EE687B0B0FD) + 0x14057B7EF767814F) land max_int;
    !rng
  in
  let check_division a b =
    let q, r = Bigint.divmod a b in
    Alcotest.(check bool) "identity" true
      (Bigint.equal a (Bigint.add (Bigint.mul q b) r));
    Alcotest.(check bool) "remainder range" true
      (Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0);
    Alcotest.(check bool) "remainder sign" true
      (Bigint.is_zero r || Bigint.sign r = Bigint.sign a)
  in
  [
    Alcotest.test_case "divisors with saturated top limbs" `Quick (fun () ->
        (* b = 2^k - small: top limbs are all ones, the classic trigger
           for qhat overestimation. *)
        List.iter
          (fun (kbits, small, abits) ->
            let b = Bigint.sub (Bigint.nth_bit_weight kbits) (bi small) in
            let a =
              Bigint.add
                (Bigint.mul (Bigint.pred (Bigint.nth_bit_weight abits)) b)
                (Bigint.pred b)
            in
            check_division a b)
          [ (52, 1, 100); (78, 1, 200); (104, 3, 150); (260, 1, 300); (52, 2, 52) ]);
    Alcotest.test_case "dividend just below divisor multiples" `Quick (fun () ->
        for _ = 1 to 200 do
          let bbits = 30 + (next_rand () mod 200) in
          let abits = bbits + (next_rand () mod 200) in
          let b = Bigint.add (Bigint.nth_bit_weight bbits) (bi (next_rand () mod 1000)) in
          let q0 = Bigint.add (Bigint.nth_bit_weight (abits - bbits)) (bi (next_rand () mod 1000)) in
          (* a = q0 * b - 1: the remainder lands at b - 1, a boundary. *)
          let a = Bigint.pred (Bigint.mul q0 b) in
          check_division a b;
          check_division (Bigint.neg a) b;
          check_division a (Bigint.neg b)
        done);
    Alcotest.test_case "single-limb and two-limb divisors" `Quick (fun () ->
        for _ = 1 to 100 do
          let a = Bigint.of_string (Printf.sprintf "%d%07d%07d" (1 + (next_rand () mod 999)) (next_rand () mod 10000000) (next_rand () mod 10000000)) in
          let b1 = bi (1 + (next_rand () mod ((1 lsl 26) - 1))) in
          let b2 = Bigint.add (Bigint.shift_left b1 26) (bi (next_rand () mod (1 lsl 26))) in
          check_division a b1;
          check_division a b2
        done);
    Alcotest.test_case "power-of-two divisors match shifts" `Quick (fun () ->
        for k = 0 to 120 do
          let a = Bigint.pred (Bigint.nth_bit_weight 150) in
          let q = Bigint.div a (Bigint.nth_bit_weight k) in
          Alcotest.(check bool) (Printf.sprintf "k=%d" k) true
            (Bigint.equal q (Bigint.shift_right a k))
        done);
  ]

(* ---- Kernels: byte packing and the binary Jacobi ---- *)

(* The Euclid-style Jacobi the library used before the binary rewrite,
   kept as the oracle: a Euclidean remainder per round and one shift
   per factor of two. *)
let jacobi_ref a n =
  let open Bigint in
  let rec go a n acc =
    let a = erem a n in
    if is_zero a then if equal n one then acc else 0
    else begin
      let rec twos a acc =
        if is_even a then begin
          let nmod8 = to_int_exn (logand n (of_int 7)) in
          let acc = if nmod8 = 3 || nmod8 = 5 then -acc else acc in
          twos (shift_right a 1) acc
        end
        else (a, acc)
      in
      let a, acc = twos a acc in
      if equal a one then acc
      else begin
        let amod4 = to_int_exn (logand a (of_int 3)) in
        let nmod4 = to_int_exn (logand n (of_int 3)) in
        let acc = if amod4 = 3 && nmod4 = 3 then -acc else acc in
        go n a acc
      end
    end
  in
  go a n 1

(* Shift-and-add references for the big-endian byte codecs. *)
let of_bytes_ref b =
  Bytes.fold_left
    (fun acc c -> Bigint.add (Bigint.shift_left acc 8) (bi (Char.code c)))
    Bigint.zero b

let to_bytes_ref v =
  let rec go v acc =
    if Bigint.is_zero v then acc
    else
      go (Bigint.shift_right v 8)
        (Char.chr (Bigint.to_int_exn (Bigint.logand v (bi 255))) :: acc)
  in
  Bytes.of_seq (List.to_seq (go v []))

let kernel_rng = Ppgr_rng.Rng.create ~seed:"test-bigint-kernels"

(* A random odd modulus of exactly [bits] bits. *)
let odd_of_bits bits =
  let v = Ppgr_rng.Rng.bigint_bits kernel_rng bits in
  Bigint.logor v (Bigint.logor (Bigint.nth_bit_weight (bits - 1)) Bigint.one)

let kernel_tests =
  [
    Alcotest.test_case "jacobi: every odd n < 1024, every a in [0, n)" `Quick
      (fun () ->
        let n = ref 1 in
        while !n < 1024 do
          let bn = bi !n in
          for a = 0 to !n - 1 do
            let got = Bigint.jacobi (bi a) bn and want = jacobi_ref (bi a) bn in
            if got <> want then Alcotest.failf "(%d/%d): got %d, oracle %d" a !n got want
          done;
          n := !n + 2
        done);
    Alcotest.test_case "jacobi: random pairs across the native hand-off" `Quick
      (fun () ->
        (* Moduli at 61-65 bits straddle the 62-bit switch to native
           ints; 128 and 1024 bits take several bigint rounds first.
           Numerators range past the modulus and below zero, and a
           shared factor of 3 must give 0. *)
        List.iter
          (fun (bits, count) ->
            for i = 1 to count do
              let n = odd_of_bits bits in
              let a = Ppgr_rng.Rng.bigint_bits kernel_rng (bits + 8) in
              let a = if i mod 5 = 0 then Bigint.neg a else a in
              let n, a =
                if i mod 7 = 0 then (Bigint.mul_int n 3, Bigint.mul_int a 3) else (n, a)
              in
              let got = Bigint.jacobi a n and want = jacobi_ref a n in
              if got <> want then
                Alcotest.failf "(%s/%s) at %d bits: got %d, oracle %d"
                  (Bigint.to_string a) (Bigint.to_string n) bits got want
            done)
          [ (61, 300); (62, 300); (63, 300); (64, 300); (65, 300); (128, 200); (1024, 20) ]);
    Alcotest.test_case "byte codecs match shift-and-add at lengths 0-300" `Quick
      (fun () ->
        for len = 0 to 300 do
          let random = Ppgr_rng.Rng.bytes kernel_rng len in
          let leading_zeros = Bytes.copy random in
          Bytes.fill leading_zeros 0 (Stdlib.min len (1 + (len / 3))) '\000';
          List.iter
            (fun (what, b) ->
              let ctx = Printf.sprintf "%s, %d bytes" what len in
              let v = Bigint.of_bytes_be b in
              check_bi ("of_bytes_be " ^ ctx) (of_bytes_ref b) v;
              Alcotest.(check string) ("to_bytes_be " ^ ctx)
                (Bytes.to_string (to_bytes_ref v))
                (Bytes.to_string (Bigint.to_bytes_be v));
              Alcotest.(check string) ("to_bytes_be_padded " ^ ctx) (Bytes.to_string b)
                (Bytes.to_string (Bigint.to_bytes_be_padded len v)))
            [
              ("random", random);
              ("leading zeros", leading_zeros);
              ("all 0xFF", Bytes.make len '\255');
            ]
        done;
        Alcotest.check_raises "padded length too short"
          (Invalid_argument "Bigint.to_bytes_be_padded: too large") (fun () ->
            ignore (Bigint.to_bytes_be_padded 8 (Bigint.of_bytes_be (Bytes.make 9 '\255')))));
  ]

(* Alcotest.run can only be called once per binary; re-run the full set
   including the stress suite. *)

let () =
  Alcotest.run "bigint"
    [
      ("unit", unit_tests);
      ("properties", property_tests);
      ("modring", modring_tests);
      ("division-stress", division_stress_tests);
      ("kernels", kernel_tests);
    ]
