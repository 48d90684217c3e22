(* Group-law and serialization tests across every group instantiation,
   plus wNAF recoding properties and op-counter behaviour. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_group

let rng = Rng.create ~seed:"test-group"

(* A battery of algebraic checks run against any GROUP instance. *)
let group_suite name (g : Group_intf.group) =
  let module G = (val g) in
  let random_elt () = G.pow_gen (G.random_scalar rng) in
  [
    Alcotest.test_case (name ^ ": identity laws") `Quick (fun () ->
        let x = random_elt () in
        Alcotest.(check bool) "e*x" true (G.equal x (G.mul G.identity x));
        Alcotest.(check bool) "x*e" true (G.equal x (G.mul x G.identity));
        Alcotest.(check bool) "is_identity e" true (G.is_identity G.identity));
    Alcotest.test_case (name ^ ": associativity and commutativity") `Quick
      (fun () ->
        let a = random_elt () and b = random_elt () and c = random_elt () in
        Alcotest.(check bool) "assoc" true
          (G.equal (G.mul (G.mul a b) c) (G.mul a (G.mul b c)));
        Alcotest.(check bool) "comm" true (G.equal (G.mul a b) (G.mul b a)));
    Alcotest.test_case (name ^ ": inverse") `Quick (fun () ->
        let a = random_elt () in
        Alcotest.(check bool) "a/a" true (G.is_identity (G.mul a (G.inv a)));
        Alcotest.(check bool) "inv inv" true (G.equal a (G.inv (G.inv a))));
    Alcotest.test_case (name ^ ": exponent homomorphism") `Quick (fun () ->
        let x = G.random_scalar rng and y = G.random_scalar rng in
        Alcotest.(check bool) "g^x g^y = g^(x+y)" true
          (G.equal (G.mul (G.pow_gen x) (G.pow_gen y)) (G.pow_gen (Bigint.add x y)));
        Alcotest.(check bool) "(g^x)^y = (g^y)^x" true
          (G.equal (G.pow (G.pow_gen x) y) (G.pow (G.pow_gen y) x)));
    Alcotest.test_case (name ^ ": order annihilates") `Quick (fun () ->
        Alcotest.(check bool) "g^q = e" true (G.is_identity (G.pow_gen G.order));
        let a = random_elt () in
        Alcotest.(check bool) "a^q = e" true (G.is_identity (G.pow a G.order)));
    Alcotest.test_case (name ^ ": negative exponents") `Quick (fun () ->
        let x = G.random_scalar rng in
        Alcotest.(check bool) "g^-x = (g^x)^-1" true
          (G.equal (G.pow_gen (Bigint.neg x)) (G.inv (G.pow_gen x)));
        Alcotest.(check bool) "g^0 = e" true (G.is_identity (G.pow_gen Bigint.zero)));
    Alcotest.test_case (name ^ ": serialization round trip") `Quick (fun () ->
        let a = random_elt () in
        let b = G.to_bytes a in
        Alcotest.(check int) "length" G.element_bytes (Bytes.length b);
        (match G.of_bytes b with
        | Some a' -> Alcotest.(check bool) "round trip" true (G.equal a a')
        | None -> Alcotest.fail "decode failed");
        (match G.of_bytes (G.to_bytes G.identity) with
        | Some e -> Alcotest.(check bool) "identity round trip" true (G.is_identity e)
        | None -> Alcotest.fail "identity decode failed"));
    Alcotest.test_case (name ^ ": of_bytes rejects junk") `Quick (fun () ->
        Alcotest.(check bool) "wrong length" true (G.of_bytes (Bytes.create 3) = None));
    Alcotest.test_case (name ^ ": random scalars in range") `Quick (fun () ->
        for _ = 1 to 50 do
          let x = G.random_scalar rng in
          Alcotest.(check bool) "1 <= x < q" true
            (Bigint.compare x Bigint.zero > 0 && Bigint.compare x G.order < 0)
        done);
    Alcotest.test_case (name ^ ": op counter moves") `Quick (fun () ->
        let a = random_elt () in
        let before = G.op_count () in
        ignore (G.mul a a);
        Alcotest.(check bool) "counted" true (G.op_count () > before));
    Alcotest.test_case (name ^ ": batch serialization = per-element") `Quick
      (fun () ->
        (* Identity elements sprinkled in exercise the EC family's
           infinity-skipping inside the shared-inversion batch. *)
        let els =
          Array.init 17 (fun i ->
              if i mod 5 = 2 then G.identity else random_elt ())
        in
        let batch = G.to_bytes_batch els in
        Array.iteri
          (fun i e -> Alcotest.(check bytes) "element" (G.to_bytes e) batch.(i))
          els;
        Alcotest.(check int) "empty batch" 0
          (Array.length (G.to_bytes_batch [||]));
        let ids = G.to_bytes_batch (Array.make 3 G.identity) in
        Array.iter
          (fun b ->
            Alcotest.(check bytes) "all-identity batch" (G.to_bytes G.identity) b)
          ids);
    Alcotest.test_case (name ^ ": batch inversion = per-element") `Quick (fun () ->
        List.iter
          (fun k ->
            let els =
              Array.init k (fun i -> if i mod 4 = 3 then G.identity else random_elt ())
            in
            let inv = G.inv_batch els in
            Alcotest.(check int) "length" k (Array.length inv);
            Array.iteri
              (fun i x ->
                Alcotest.(check bool) "= inv" true (G.equal inv.(i) (G.inv x));
                Alcotest.(check bool) "x * x^-1 = e" true
                  (G.is_identity (G.mul x inv.(i))))
              els)
          [ 0; 1; 2; 9 ]);
    Alcotest.test_case (name ^ ": pow2_pow_batch = per-element pow2 and pow") `Quick
      (fun () ->
        (* Batch sizes 0 and 1, just below and at the EC crossover, and
           one that splits into three EC chunks; some exponents above the
           order.  Batches mix full-width exponents with shorter ones, so
           ladders of different lengths run in lockstep (and DL-1024
           stays quick).  The reference is the group's own per-element
           pow2/pow, and the batch of Group_intf.Naive must agree too. *)
        let module N = Group_intf.Naive (G) in
        List.iter
          (fun k ->
            let a = Array.init k (fun _ -> random_elt ())
            and b = Array.init k (fun _ -> random_elt ()) in
            let scalar i =
              if i mod 17 = 5 then Bigint.add G.order (G.random_scalar rng)
              else if k <= 1 || i mod 8 = 0 then G.random_scalar rng
              else Bigint.succ (Rng.bigint_below rng (Bigint.nth_bit_weight (8 + (i mod 40))))
            in
            let e = Array.init k scalar and f = Array.init k scalar in
            let r1 = Array.copy a and r2 = Array.copy b in
            G.pow2_pow_batch r1 e r2 f;
            let n1 = Array.copy a and n2 = Array.copy b in
            N.pow2_pow_batch n1 e n2 f;
            Alcotest.(check (pair int int)) "lengths" (k, k) (Array.length r1, Array.length r2);
            for i = 0 to k - 1 do
              let p2 = G.pow2 a.(i) e.(i) b.(i) f.(i) and p = G.pow b.(i) e.(i) in
              if not (G.equal r1.(i) p2 && G.equal r2.(i) p) then
                Alcotest.failf "K = %d, ladder %d differs from pow2/pow" k i;
              if not (G.equal n1.(i) p2 && G.equal n2.(i) p) then
                Alcotest.failf "K = %d, ladder %d: naive batch differs" k i
            done)
          [ 0; 1; Ec_curve.batch_crossover - 1; Ec_curve.batch_crossover;
            (2 * Ec_curve.batch_chunk) + 1 ]);
  ]

let wnaf_tests =
  let prop name gen f =
    QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)
  in
  [
    prop "wnaf4 reconstructs the exponent" QCheck2.Gen.(int_range 0 1_000_000_000)
      (fun e ->
        let digits = Group_intf.wnaf4 (Bigint.of_int e) in
        let v = List.fold_left (fun acc d -> (2 * acc) + d) 0 digits in
        v = e);
    prop "wnaf4 digits are odd or zero, |d| <= 7"
      QCheck2.Gen.(int_range 0 1_000_000_000)
      (fun e ->
        List.for_all
          (fun d -> d = 0 || (abs d <= 7 && abs d land 1 = 1))
          (Group_intf.wnaf4 (Bigint.of_int e)));
  ]

(* EC-specific structural tests on the toy curve where exhaustive checks
   are affordable. *)
let ec_structural_tests =
  let prm = Ec_params.tiny () in
  let cv = Ec_curve.make_curve prm in
  let g = Ec_curve.base_point cv in
  let q = Bigint.to_int_exn prm.Ec_curve.n in
  (* The batch on copies: it writes its results over a and b. *)
  let batch a e b f =
    let x = Array.copy a and y = Array.copy b in
    Ec_curve.pow2_pow_batch cv x e y f;
    (x, y)
  in
  [
    Alcotest.test_case "tiny curve has prime order, cofactor 1" `Quick (fun () ->
        Alcotest.(check int) "cofactor" 1 prm.Ec_curve.h);
    Alcotest.test_case "scalar ladder agrees with repeated addition" `Quick
      (fun () ->
        let acc = ref (Ec_curve.infinity cv) in
        for k = 0 to 40 do
          let direct = Ec_curve.scalar_mul cv g (Bigint.of_int k) in
          Alcotest.(check bool) (Printf.sprintf "k=%d" k) true
            (Ec_curve.equal cv direct !acc);
          acc := Ec_curve.add cv !acc g
        done);
    Alcotest.test_case "point negation" `Quick (fun () ->
        let p = Ec_curve.scalar_mul cv g (Bigint.of_int 7) in
        Alcotest.(check bool) "P + (-P) = O" true
          (Ec_curve.is_infinity cv (Ec_curve.add cv p (Ec_curve.neg cv p))));
    Alcotest.test_case "doubling a 2-torsion-free point" `Quick (fun () ->
        let p = Ec_curve.scalar_mul cv g (Bigint.of_int 5) in
        Alcotest.(check bool) "2P = P+P" true
          (Ec_curve.equal cv (Ec_curve.double cv p) (Ec_curve.add cv p p)));
    Alcotest.test_case "scalar wraps modulo order" `Quick (fun () ->
        let k = 3 in
        Alcotest.(check bool) "(q+k)G = kG" true
          (Ec_curve.equal cv
             (Ec_curve.scalar_mul cv g (Bigint.of_int (q + k)))
             (Ec_curve.scalar_mul cv g (Bigint.of_int k))));
    Alcotest.test_case "all small multiples lie on the curve" `Quick (fun () ->
        for k = 1 to 60 do
          Alcotest.(check bool) (Printf.sprintf "on curve %d" k) true
            (Ec_curve.on_curve cv (Ec_curve.scalar_mul cv g (Bigint.of_int k)))
        done);
    Alcotest.test_case "off-curve point rejected by of_bytes" `Quick (fun () ->
        let module G = (val Ec_group.of_params prm) in
        let b = G.to_bytes G.generator in
        (* Corrupt the y coordinate. *)
        Bytes.set b (Bytes.length b - 1)
          (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 1));
        Alcotest.(check bool) "rejected" true (G.of_bytes b = None));
    Alcotest.test_case "batch normalization = per-point, incl. infinity" `Quick
      (fun () ->
        (* Jacobian points with non-trivial z (built by additions), the
           point at infinity at the batch edges and in the middle. *)
        let pts =
          Array.init 15 (fun k ->
              if k = 0 || k = 7 || k = 14 then Ec_curve.infinity cv
              else Ec_curve.scalar_mul cv g (Bigint.of_int k))
        in
        let batch = Ec_curve.to_affine_batch cv pts in
        Array.iteri
          (fun k pt ->
            match (Ec_curve.to_affine cv pt, batch.(k)) with
            | None, None -> ()
            | Some (x, y), Some (x', y') ->
                Alcotest.(check bool) (Printf.sprintf "x %d" k) true
                  (Bigint.equal x x');
                Alcotest.(check bool) (Printf.sprintf "y %d" k) true
                  (Bigint.equal y y')
            | _ -> Alcotest.failf "infinity mismatch at %d" k)
          pts;
        Alcotest.(check int) "all-infinity batch" 0
          (List.length
             (List.filter Option.is_some
                (Array.to_list
                   (Ec_curve.to_affine_batch cv
                      (Array.make 4 (Ec_curve.infinity cv)))))));
    Alcotest.test_case "batch ladders: every exponent, some fall back" `Quick
      (fun () ->
        (* Every e in [0, q) in batches of one chunk, against the
           Jacobian scalar_mul2/scalar_mul.  On a curve this small equal
           x-coordinates meet often, and e = 0 meets infinity, so chunks
           fall back as well as finish affine. *)
        let fb = Ppgr_exec.Meter.read cv.Ec_curve.fallbacks in
        let chunks = ref 0 in
        let rec go lo =
          if lo < q then begin
            let k = min Ec_curve.batch_chunk (q - lo) in
            let pt i = Ec_curve.scalar_mul cv g (Bigint.of_int (((i * 7919) mod (q - 1)) + 1)) in
            let a = Array.init k (fun i -> pt (lo + i))
            and b = Array.init k (fun i -> pt (lo + i + 101)) in
            let e = Array.init k (fun i -> Bigint.of_int (lo + i))
            and f = Array.init k (fun i -> Bigint.of_int ((((lo + i) * 31) + 1) mod q)) in
            let r1, r2 = batch a e b f in
            for i = 0 to k - 1 do
              if not
                   (Ec_curve.equal cv r1.(i) (Ec_curve.scalar_mul2 cv a.(i) e.(i) b.(i) f.(i))
                   && Ec_curve.equal cv r2.(i) (Ec_curve.scalar_mul cv b.(i) e.(i)))
              then Alcotest.failf "e = %d" (lo + i)
            done;
            incr chunks;
            go (lo + k)
          end
        in
        go 0;
        let fell = Ppgr_exec.Meter.read cv.Ec_curve.fallbacks - fb in
        if fell = 0 || fell = !chunks then
          Alcotest.failf "%d of %d chunks fell back: both paths must run" fell !chunks);
    Alcotest.test_case "batch ladders: b = a, b = -a, identity, zero, e >= q" `Quick
      (fun () ->
        let k = Ec_curve.batch_crossover + 4 in
        let pt i = Ec_curve.scalar_mul cv g (Bigint.of_int ((i * 389) + 17)) in
        let check label ~falls a e b f =
          let fb = Ppgr_exec.Meter.read cv.Ec_curve.fallbacks in
          let r1, r2 = batch a e b f in
          Array.iteri
            (fun i _ ->
              if not
                   (Ec_curve.equal cv r1.(i) (Ec_curve.scalar_mul2 cv a.(i) e.(i) b.(i) f.(i))
                   && Ec_curve.equal cv r2.(i) (Ec_curve.scalar_mul cv b.(i) e.(i)))
              then Alcotest.failf "%s: ladder %d" label i)
            a;
          if falls then
            Alcotest.(check int) (label ^ ": fell back") 1
              (Ppgr_exec.Meter.read cv.Ec_curve.fallbacks - fb)
        in
        let a = Array.init k pt in
        let e = Array.init k (fun i -> Bigint.of_int ((i * 577) + 3))
        and f = Array.init k (fun i -> Bigint.of_int ((i * 811) + 5)) in
        check "b = a" ~falls:false a e a f;
        check "b = -a" ~falls:false a e (Array.map (Ec_curve.neg cv) a) f;
        let with_at i v arr = Array.mapi (fun j x -> if j = i then v else x) arr in
        check "identity base a" ~falls:true (with_at 5 (Ec_curve.infinity cv) a) e a f;
        check "identity base b" ~falls:true a e (with_at 5 (Ec_curve.infinity cv) a) f;
        check "zero exponent e" ~falls:true a (with_at 5 Bigint.zero e) a f;
        check "zero exponent f" ~falls:true a e a (with_at 5 Bigint.zero f);
        (* e + q reduces to e: the same chunk without the wrap. *)
        let wrapped = Array.map (fun x -> Bigint.add x prm.Ec_curve.n) e in
        let r1, r2 = batch a wrapped (Array.map (Ec_curve.neg cv) a) f
        and s1, s2 = batch a e (Array.map (Ec_curve.neg cv) a) f in
        Array.iteri
          (fun i _ ->
            Alcotest.(check bool) "e + q = e" true
              (Ec_curve.equal cv r1.(i) s1.(i) && Ec_curve.equal cv r2.(i) s2.(i)))
          a;
        (* Results overwrite the inputs, so a and b must be two arrays. *)
        Alcotest.check_raises "one array"
          (Invalid_argument "Ec_curve.pow2_pow_batch: a and b are one array") (fun () ->
            Ec_curve.pow2_pow_batch cv a e a f));
    Alcotest.test_case "P and -P = (x, p - y) are distinct elements" `Quick
      (fun () ->
        (* Unlike the DL family's x and p - x, a point and its negation
           are two elements; only the identity is its own negation. *)
        let module G = (val Ec_group.of_params prm) in
        let fbytes = (G.element_bytes - 1) / 2 in
        let y_of b = Bigint.of_bytes_be (Bytes.sub b (1 + fbytes) fbytes) in
        for k = 1 to Stdlib.min 20 (q - 1) do
          let pt = G.pow_gen (Bigint.of_int k) in
          let neg = G.inv pt in
          Alcotest.(check bool) "y + y' = p" true
            (Bigint.equal prm.Ec_curve.p
               (Bigint.add (y_of (G.to_bytes pt)) (y_of (G.to_bytes neg))));
          Alcotest.(check bool) "P <> -P" false (G.equal pt neg);
          Alcotest.(check bool) "-P <> P" false (G.equal neg pt);
          Alcotest.(check bool) "-P is not the identity" false (G.is_identity neg)
        done;
        let neg_o = G.inv G.identity in
        Alcotest.(check bool) "-O is the identity" true (G.is_identity neg_o);
        Alcotest.(check bool) "-O = O" true (G.equal neg_o G.identity));
    Alcotest.test_case "batch normalization costs one field inversion" `Quick
      (fun () ->
        let pts =
          Array.init 9 (fun k ->
              if k = 4 then Ec_curve.infinity cv
              else Ec_curve.scalar_mul cv g (Bigint.of_int (k + 1)))
        in
        let before = Ppgr_exec.Meter.read cv.Ec_curve.invs in
        ignore (Ec_curve.to_affine_batch cv pts);
        Alcotest.(check int) "one inversion for the whole batch" (before + 1)
          (Ppgr_exec.Meter.read cv.Ec_curve.invs);
        let before = Ppgr_exec.Meter.read cv.Ec_curve.invs in
        Array.iter (fun p -> ignore (Ec_curve.to_affine cv p)) pts;
        Alcotest.(check int) "eight inversions per-point" (before + 8)
          (Ppgr_exec.Meter.read cv.Ec_curve.invs));
    Alcotest.test_case "ECC-160: the x + p alias is refused" `Quick (fun () ->
        (* x = 4 lies on secp160r1, and p + 4 still fits the 20-byte
           coordinate: without a range check the point has two
           encodings. *)
        let module G = (val Ec_group.ecc_160 ()) in
        let prm = Ec_params.secp160r1 in
        let p = prm.Ec_curve.p in
        let fbytes = (G.element_bytes - 1) / 2 in
        let x = Bigint.of_int 4 in
        let rhs =
          Bigint.erem
            (Bigint.add
               (Bigint.mul (Bigint.add (Bigint.mul x x) prm.Ec_curve.a) x)
               prm.Ec_curve.b)
            p
        in
        (* p = 3 mod 4, so rhs^((p + 1)/4) is a root of a square. *)
        let y = Bigint.powmod rhs (Bigint.shift_right (Bigint.succ p) 2) p in
        Alcotest.(check bool) "x = 4 is on the curve" true
          (Bigint.equal (Bigint.erem (Bigint.mul y y) p) rhs);
        let encode x =
          let b = Bytes.make G.element_bytes '\004' in
          Bytes.blit (Bigint.to_bytes_be_padded fbytes x) 0 b 1 fbytes;
          Bytes.blit (Bigint.to_bytes_be_padded fbytes y) 0 b (1 + fbytes) fbytes;
          b
        in
        let canonical = encode x in
        (match G.of_bytes canonical with
        | Some pt ->
            Alcotest.(check bool) "re-encodes to itself" true
              (Bytes.equal canonical (G.to_bytes pt))
        | None -> Alcotest.fail "canonical encoding refused");
        Alcotest.(check bool) "x + p refused" true
          (G.of_bytes (encode (Bigint.add x p)) = None));
    Alcotest.test_case "ECC-160: a decode ticks no field inversion" `Quick
      (fun () ->
        let module G = (val Ec_group.ecc_160 ()) in
        let invs = List.assoc "field_invs" G.probes in
        let encodings =
          Array.init 8 (fun k -> G.to_bytes (G.pow_gen (Bigint.of_int (k + 1))))
        in
        let before = invs () in
        let decoded = Array.map G.of_bytes encodings in
        Alcotest.(check int) "field inversions" 0 (invs () - before);
        Array.iteri
          (fun k d ->
            match d with
            | Some pt ->
                Alcotest.(check bool) "round trip" true
                  (Bytes.equal encodings.(k) (G.to_bytes pt))
            | None -> Alcotest.fail "honest encoding refused")
          decoded);
  ]

(* The test-only residue oracle, Euler's criterion: for a safe prime
   p = 2q + 1, y is a quadratic residue iff y^q = 1 (mod p). *)
let is_residue y p =
  Bigint.equal Bigint.one (Bigint.powmod y (Bigint.shift_right (Bigint.pred p) 1) p)

(* A 16-bit safe prime, 65063 = 2 * 32531 + 1: every two-byte string
   can be tried. *)
let p16 = Bigint.of_int 65063
let q16 = 32531
let dl_16 () = Dl_group.of_safe_prime ~name:"DL-16" ~security_bits:0 p16

let bytes16 y =
  let b = Bytes.create 2 in
  Bytes.set_uint16_be b 0 y;
  b

let dl_structural_tests =
  [
    Alcotest.test_case "DL elements are quadratic residues" `Quick (fun () ->
        (* Up to sign: the encoding y lies in [1, q], exactly one of y
           and p - y is a residue, and that one is the g^r computed. *)
        let module G = (val Dl_group.dl_test_128 ()) in
        let p = Modp_params.test_128 in
        for _ = 1 to 20 do
          let r = G.random_scalar rng in
          let y = Bigint.of_bytes_be (G.to_bytes (G.pow_gen r)) in
          Alcotest.(check bool) "1 <= y <= q" true
            (Bigint.sign y > 0 && Bigint.compare y G.order <= 0);
          let y' = Bigint.sub p y in
          Alcotest.(check bool) "one residue in {y, p - y}" true
            (is_residue y p <> is_residue y' p);
          Alcotest.(check bool) "the residue is g^r" true
            (Bigint.equal
               (if is_residue y p then y else y')
               (Bigint.powmod (Bigint.of_int 4) r p))
        done);
    Alcotest.test_case "DL of_bytes accepts exactly [1, q]" `Quick (fun () ->
        let module G = (val Dl_group.dl_test_128 ()) in
        let p = Modp_params.test_128 and q = G.order in
        let enc v = Bigint.to_bytes_be_padded G.element_bytes v in
        List.iter
          (fun (what, v, want) ->
            Alcotest.(check bool) what want (Option.is_some (G.of_bytes (enc v))))
          [
            ("0", Bigint.zero, false);
            ("1", Bigint.one, true);
            ("q", q, true);
            ("q + 1", Bigint.succ q, false);
            ("p - 1", Bigint.pred p, false);
            ("p", p, false);
            ("2^128 - 1", Bigint.pred (Bigint.nth_bit_weight 128), false);
          ];
        (* A non-residue below q encodes its pair, whose residue is p - y. *)
        let rec find v = if is_residue v p then find (Bigint.succ v) else v in
        let nr = find (Bigint.of_int 2) in
        match G.of_bytes (enc nr) with
        | None -> Alcotest.fail "a non-residue below q was rejected"
        | Some x -> Alcotest.(check bytes) "re-encodes to itself" (enc nr) (G.to_bytes x));
    Alcotest.test_case "order is (p-1)/2" `Quick (fun () ->
        let module G = (val Dl_group.dl_test_64 ()) in
        Alcotest.(check bool) "order" true
          (Bigint.equal G.order
             (Bigint.shift_right (Bigint.pred Modp_params.test_64) 1)));
    Alcotest.test_case "DL-16: exactly [1, q] decodes, all 65536 strings" `Quick
      (fun () ->
        let module G = (val dl_16 ()) in
        Alcotest.(check int) "element bytes" 2 G.element_bytes;
        Alcotest.(check int) "q" q16 (Bigint.to_int_exn G.order);
        let qm1 = Bigint.pred G.order in
        let decoded = ref 0 in
        for y = 0 to 65535 do
          let b = bytes16 y in
          match G.of_bytes b with
          | None -> if y >= 1 && y <= q16 then Alcotest.failf "%d rejected" y
          | Some x ->
              if y < 1 || y > q16 then Alcotest.failf "%d accepted" y;
              incr decoded;
              if not (Bytes.equal b (G.to_bytes x)) then
                Alcotest.failf "%d re-encodes to another string" y;
              if
                is_residue (Bigint.of_int y) p16
                = is_residue (Bigint.of_int (65063 - y)) p16
              then Alcotest.failf "%d: not exactly one residue in {y, p - y}" y;
              (* x^q by arithmetic (pow reduces q itself to 0): -1 for a
                 non-residue y, which must count as the identity. *)
              if not (G.is_identity (G.mul (G.pow x qm1) x)) then
                Alcotest.failf "%d: x^q is not the identity" y
        done;
        Alcotest.(check int) "values decoded" q16 !decoded);
    Alcotest.test_case "DL-16: x and p - x are one element" `Quick (fun () ->
        let module G = (val dl_16 ()) in
        let dec y = Option.get (G.of_bytes (bytes16 y)) in
        (* -1 in Z_p^*, reached by arithmetic: y^q for a non-residue y. *)
        let rec find y = if is_residue (Bigint.of_int y) p16 then find (y + 1) else y in
        let nr = dec (find 2) in
        let minus_one = G.mul (G.pow nr (Bigint.pred G.order)) nr in
        Alcotest.(check bool) "-1 is the identity" true (G.is_identity minus_one);
        Alcotest.(check bool) "-1 = 1" true (G.equal minus_one G.identity);
        Alcotest.(check bytes) "-1 encodes as 1" (G.to_bytes G.identity)
          (G.to_bytes minus_one);
        for y = 1 to q16 do
          let x = dec y in
          let neg = G.mul x minus_one in
          if not (G.equal x neg && G.equal neg x) then Alcotest.failf "%d: x <> p - x" y;
          if not (Bytes.equal (G.to_bytes x) (G.to_bytes neg)) then
            Alcotest.failf "%d: p - x encodes differently" y;
          if G.is_identity neg <> (y = 1) then Alcotest.failf "%d: is_identity of p - x" y;
          if y > 1 && G.equal x (dec (y - 1)) then Alcotest.failf "%d = %d" y (y - 1)
        done);
  ]

let () =
  Alcotest.run "group"
    [
      ("dl-test-64", group_suite "DL-test-64" (Dl_group.dl_test_64 ()));
      ("dl-test-128", group_suite "DL-test-128" (Dl_group.dl_test_128 ()));
      ("dl-1024", group_suite "DL-1024" (Dl_group.dl_1024 ()));
      ("ecc-tiny", group_suite "ECC-tiny" (Ec_group.ecc_tiny ()));
      ("ecc-160", group_suite "ECC-160" (Ec_group.ecc_160 ()));
      ("ecc-256", group_suite "ECC-256" (Ec_group.ecc_256 ()));
      ("wnaf", wnaf_tests);
      ("ec-structure", ec_structural_tests);
      ("dl-structure", dl_structural_tests);
    ]
