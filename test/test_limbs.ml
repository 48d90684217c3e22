(* Differential battery: the live 61-bit magnitude engine against the
   frozen 26-bit reference ([Mag26_ref]), with values bridged
   across the representations as big-endian bytes.  Covers add, sub, mul,
   divmod (both the single-limb and Knuth paths), powmod (Montgomery and
   even-modulus), invmod, serialization round trips, and sign handling,
   with generators biased toward carry boundaries, all-ones byte runs and
   limb-width edges.  Also pins the alias-safety contract of the Modring
   [_into] operations. *)

open Ppgr_bigint
module R = Mag26_ref

let bi = Bigint.of_int

let to_ref (v : Bigint.t) : R.t = R.of_bytes (Bigint.to_bytes_be (Bigint.abs v))
let of_ref (r : R.t) : Bigint.t = Bigint.of_bytes_be (R.to_bytes r)

let check_bi msg expect actual =
  Alcotest.(check string) msg (Bigint.to_string expect) (Bigint.to_string actual)

(* ---- generators ---- *)

(* Non-negative values rich in carry hazards: random byte strings,
   all-ones runs (maximal carry chains), and 2^k +/- small spikes that
   straddle both the 61-bit and 26-bit limb boundaries. *)
let gen_nonneg =
  QCheck2.Gen.(
    frequency
      [
        ( 6,
          let* nbytes = int_range 0 96 in
          let* l = list_repeat nbytes (int_range 0 255) in
          return (Bigint.of_bytes_be (Bytes.of_seq (List.to_seq (List.map Char.chr l)))) );
        ( 2,
          let* nbytes = int_range 1 96 in
          return (Bigint.of_bytes_be (Bytes.make nbytes '\xff')) );
        ( 3,
          let* k = int_range 0 780 in
          let* d = int_range (-2) 2 in
          let v = Bigint.add (Bigint.nth_bit_weight k) (bi d) in
          return (if Bigint.sign v < 0 then Bigint.zero else v) );
        (1, return Bigint.zero);
      ])

let gen_signed =
  QCheck2.Gen.(
    let* v = gen_nonneg in
    let* neg = bool in
    return (if neg then Bigint.neg v else v))

let gen_pos = QCheck2.Gen.(map Bigint.succ gen_nonneg)

(* Odd modulus > 2, bounded so the reference powmod stays fast; width is
   drawn across the 61-bit limb-count boundaries (1..6 limbs). *)
let gen_odd_modulus =
  QCheck2.Gen.(
    let* k = int_range 3 340 in
    let* lo = int_range 0 (1 lsl 20) in
    return (Bigint.succ (Bigint.add (Bigint.nth_bit_weight k) (bi (2 * lo)))))

let prop ?(count = 300) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* ---- differential properties ---- *)

let diff_props =
  [
    prop "add matches 26-bit reference" QCheck2.Gen.(pair gen_nonneg gen_nonneg) (fun (a, b) ->
        Bigint.equal (Bigint.add a b) (of_ref (R.add (to_ref a) (to_ref b))));
    prop "sub matches 26-bit reference" QCheck2.Gen.(pair gen_nonneg gen_nonneg) (fun (a, b) ->
        let hi = Bigint.max a b and lo = Bigint.min a b in
        Bigint.equal (Bigint.sub hi lo) (of_ref (R.sub (to_ref hi) (to_ref lo))));
    prop "mul matches 26-bit reference (signed)" QCheck2.Gen.(pair gen_signed gen_signed)
      (fun (a, b) ->
        let m = of_ref (R.mul (to_ref a) (to_ref b)) in
        let expect = if Bigint.sign a * Bigint.sign b < 0 then Bigint.neg m else m in
        Bigint.equal (Bigint.mul a b) expect);
    prop "divmod matches 26-bit reference (signed, truncating)"
      QCheck2.Gen.(pair gen_signed gen_signed)
      (fun (a, b) ->
        QCheck2.assume (not (Bigint.is_zero b));
        let q, r = Bigint.divmod a b in
        let rq, rr = R.divmod (to_ref a) (to_ref b) in
        let sq = Bigint.sign a * Bigint.sign b and sr = Bigint.sign a in
        let expect_q = if sq < 0 then Bigint.neg (of_ref rq) else of_ref rq in
        let expect_r = if sr < 0 then Bigint.neg (of_ref rr) else of_ref rr in
        Bigint.equal q expect_q && Bigint.equal r expect_r);
    prop "single-limb division matches reference"
      QCheck2.Gen.(pair gen_nonneg (int_range 1 ((1 lsl 31) - 1)))
      (fun (a, v) ->
        let q, r = Bigint.divmod a (bi v) in
        let rq, rr = R.divmod (to_ref a) (R.of_int v) in
        Bigint.equal q (of_ref rq) && Bigint.equal r (of_ref rr));
    prop ~count:60 "powmod matches reference (odd modulus)"
      QCheck2.Gen.(triple gen_nonneg gen_nonneg gen_odd_modulus)
      (fun (b, e, m) ->
        let e = Bigint.erem e (Bigint.nth_bit_weight 128) in
        Bigint.equal (Bigint.powmod b e m) (of_ref (R.powmod (to_ref b) (to_ref e) (to_ref m))));
    prop ~count:60 "powmod matches reference (even modulus)"
      QCheck2.Gen.(triple gen_nonneg gen_nonneg gen_pos)
      (fun (b, e, m) ->
        let m = Bigint.mul_int m 2 in
        let e = Bigint.erem e (Bigint.nth_bit_weight 64) in
        Bigint.equal (Bigint.powmod b e m) (of_ref (R.powmod (to_ref b) (to_ref e) (to_ref m))));
    prop "in_range agrees with 0 <= v < m" QCheck2.Gen.(pair gen_signed gen_pos)
      (fun (v, m) ->
        Bigint.in_range v m = (Bigint.sign v >= 0 && Bigint.compare v m < 0));
    prop ~count:120 "invmod matches reference" QCheck2.Gen.(pair gen_nonneg gen_odd_modulus)
      (fun (a, m) ->
        match R.invmod (to_ref a) (to_ref m) with
        | Some r -> Bigint.equal (Bigint.invmod a m) (of_ref r)
        | None -> (
            match Bigint.invmod a m with
            | exception Division_by_zero -> true
            | _ -> false));
    prop "mul_int agrees with general multiplication"
      QCheck2.Gen.(pair gen_signed (int_range (-(1 lsl 62)) ((1 lsl 62) - 1)))
      (fun (a, v) -> Bigint.equal (Bigint.mul_int a v) (Bigint.mul a (bi v)));
    prop "byte round trip agrees across engines" gen_nonneg (fun a ->
        let via_new = Bigint.to_bytes_be a in
        let via_ref = R.to_bytes (to_ref a) in
        Bytes.equal via_new via_ref
        && Bigint.equal a (Bigint.of_bytes_be via_new)
        && Bigint.equal a (of_ref (R.of_bytes via_ref)));
  ]

(* ---- deterministic carry/width edges ---- *)

let b61 = Bigint.nth_bit_weight 61

let edge_tests =
  [
    Alcotest.test_case "limb-boundary products" `Quick (fun () ->
        let cases =
          [
            (Bigint.pred b61, Bigint.pred b61);
            (b61, Bigint.pred b61);
            (Bigint.succ b61, Bigint.succ b61);
            (Bigint.pred (Bigint.nth_bit_weight 122), Bigint.pred (Bigint.nth_bit_weight 122));
            (Bigint.pred (Bigint.nth_bit_weight 512), Bigint.pred (Bigint.nth_bit_weight 512));
            (Bigint.of_bytes_be (Bytes.make 64 '\xff'), Bigint.of_bytes_be (Bytes.make 64 '\xff'));
          ]
        in
        List.iter
          (fun (a, b) ->
            check_bi "product" (of_ref (R.mul (to_ref a) (to_ref b))) (Bigint.mul a b))
          cases);
    Alcotest.test_case "division across both paths" `Quick (fun () ->
        let big = Bigint.pred (Bigint.nth_bit_weight 1220) in
        List.iter
          (fun d ->
            let q, r = Bigint.divmod big d in
            let rq, rr = R.divmod (to_ref big) (to_ref d) in
            check_bi "q" (of_ref rq) q;
            check_bi "r" (of_ref rr) r)
          [
            bi 3;
            bi ((1 lsl 26) - 1) (* top of the reference's limb *);
            bi ((1 lsl 31) - 1) (* top of the new single-limb fast path *);
            Bigint.succ b61 (* forces the Knuth path at 61-bit limbs *);
            Bigint.add (Bigint.nth_bit_weight 610) (bi 3);
          ]);
    Alcotest.test_case "powmod at exact limb widths" `Quick (fun () ->
        (* Odd moduli pinned at multiples of the limb width, where the
           Montgomery R and the top-limb handling are most fragile. *)
        List.iter
          (fun k ->
            let m = Bigint.add (Bigint.nth_bit_weight k) (bi 9) in
            let b = Bigint.pred m in
            let e = Bigint.sub m (bi 3) in
            check_bi
              (Printf.sprintf "width %d" k)
              (of_ref (R.powmod (to_ref b) (to_ref e) (to_ref m)))
              (Bigint.powmod b e m))
          [ 61; 62; 122; 183; 244 ]);
    Alcotest.test_case "zero and identity edges" `Quick (fun () ->
        check_bi "0 * 0" Bigint.zero (Bigint.mul Bigint.zero Bigint.zero);
        check_bi "mul_int 0" Bigint.zero (Bigint.mul_int (bi 7) 0);
        check_bi "mul_int max limb" (Bigint.mul (bi 12345) (Bigint.pred b61))
          (Bigint.mul_int (Bigint.pred b61) 12345);
        check_bi "0^0 mod m" Bigint.one (Bigint.powmod Bigint.zero Bigint.zero (bi 77));
        check_bi "0^e mod m" Bigint.zero (Bigint.powmod Bigint.zero (bi 5) (bi 77));
        check_bi "b^e mod 1" Bigint.zero (Bigint.powmod (bi 5) (bi 5) Bigint.one));
  ]

(* ---- Modring in-place operations ---- *)

let modring_tests =
  let open Bigint in
  let p = Ppgr_group.Modp_params.p_512 in
  let c = Modring.ctx ~modulus:p in
  let x = Modring.enter c (of_string "0xdeadbeefcafef00d1234567890abcdef") in
  let y = Modring.enter c (sub p (of_string "0x1337c0de8badf00d")) in
  let check_elt msg expect actual =
    Alcotest.(check string) msg (to_string (Modring.leave c expect)) (to_string (Modring.leave c actual))
  in
  [
    Alcotest.test_case "into ops match allocating ops" `Quick (fun () ->
        let d = Modring.alloc c in
        Modring.mul_into c d x y;
        check_elt "mul" (Modring.mul c x y) d;
        Modring.sqr_into c d x;
        check_elt "sqr" (Modring.sqr c x) d;
        Modring.add_into c d x y;
        check_elt "add" (Modring.add c x y) d;
        Modring.sub_into c d x y;
        check_elt "sub" (Modring.sub c x y) d;
        Modring.neg_into c d y;
        check_elt "neg" (Modring.neg c y) d;
        Modring.double_into c d y;
        check_elt "double" (Modring.double c y) d);
    Alcotest.test_case "into ops tolerate dst aliasing operands" `Quick (fun () ->
        let d = Modring.alloc c in
        Modring.copy_into c d x;
        Modring.mul_into c d d y;
        check_elt "dst = a" (Modring.mul c x y) d;
        Modring.copy_into c d y;
        Modring.mul_into c d x d;
        check_elt "dst = b" (Modring.mul c x y) d;
        Modring.copy_into c d x;
        Modring.mul_into c d d d;
        check_elt "dst = a = b" (Modring.sqr c x) d;
        Modring.copy_into c d x;
        Modring.sqr_into c d d;
        check_elt "sqr dst = a" (Modring.sqr c x) d;
        Modring.copy_into c d x;
        Modring.add_into c d d d;
        check_elt "add dst = a = b" (Modring.double c x) d;
        Modring.copy_into c d y;
        Modring.sub_into c d x d;
        check_elt "sub dst = b" (Modring.sub c x y) d;
        Modring.copy_into c d y;
        Modring.neg_into c d d;
        check_elt "neg dst = a" (Modring.neg c y) d);
    Alcotest.test_case "sqr agrees with mul on random residues" `Quick (fun () ->
        let rng = Ppgr_rng.Rng.create ~seed:"limbs-sqr" in
        for _ = 1 to 50 do
          let v = Ppgr_rng.Rng.bigint_below rng p in
          let e = Modring.enter c v in
          check_elt "sqr = mul self" (Modring.mul c e e) (Modring.sqr c e)
        done);
    Alcotest.test_case "inv_into matches invmod on random residues" `Quick (fun () ->
        let rng = Ppgr_rng.Rng.create ~seed:"limbs-inv" in
        let d = Modring.alloc c in
        for _ = 1 to 50 do
          let v = succ (Ppgr_rng.Rng.bigint_below rng (pred p)) in
          Modring.inv_into c d (Modring.enter c v);
          Alcotest.(check string) "inv" (to_string (invmod v p))
            (to_string (Modring.leave c d));
          (* Round trip: a * a^-1 = 1. *)
          Modring.mul_into c d d (Modring.enter c v);
          Alcotest.(check bool) "a * inv a = 1" true (Modring.is_one c d)
        done);
    Alcotest.test_case "inv_into tolerates dst aliasing its operand" `Quick (fun () ->
        let d = Modring.alloc c in
        Modring.copy_into c d x;
        Modring.inv_into c d d;
        check_elt "inv dst = a" (Modring.inv c x) d);
    Alcotest.test_case "inv_into raises on zero and non-coprime input" `Quick (fun () ->
        let d = Modring.alloc c in
        Modring.zero_into c d;
        Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
            Modring.inv_into c d d);
        (* Composite odd modulus 3p: a multiple of p shares a factor with
           the modulus and must be rejected exactly like [invmod]. *)
        let m3 = mul (of_int 3) p in
        let c3 = Modring.ctx ~modulus:m3 in
        let d3 = Modring.alloc c3 in
        Alcotest.check_raises "inv non-coprime" Division_by_zero (fun () ->
            Modring.inv_into c3 d3 (Modring.enter c3 p)));
  ]

(* ---- Field kernels at the limb-width boundaries ----

   Every in-place ring op against plain [Bigint] arithmetic, on 0, 1,
   m - 1, m - 2, R mod m, two values with single-limb Montgomery forms
   and 200 random residues, with [dst] fresh and
   aliasing each operand, and the [Flat] forms at non-zero offsets.
   Three limbs is the width with its own straight-line kernels; the two
   moduli above 2^182 (m > R/2) are the only 3-limb ones whose
   Montgomery accumulator can carry into a fourth limb.  The 2- and
   4-limb moduli run the width-generic loops on either side.  The
   composites name a factor, a non-unit that [inv] must reject. *)
let boundary_moduli =
  let open Bigint in
  let pow2 = nth_bit_weight in
  let rng = Ppgr_rng.Rng.create ~seed:"limbs-boundary" in
  let r183 = logor (add (pow2 182) (Ppgr_rng.Rng.bigint_below rng (pow2 182))) one in
  [
    ("ecc160 p", Ppgr_group.Ec_params.secp160r1.Ppgr_group.Ec_curve.p, None);
    ("dl-test-128 p", Ppgr_group.Modp_params.test_128, None);
    ("2^183 - 1", pred (pow2 183), Some (of_int 7));
    ("random odd 183-bit", r183, None);
    ("dl-test-64 p (2 limbs)", Ppgr_group.Modp_params.test_64, None);
    ("2^122 - 1 (2 limbs)", pred (pow2 122), Some (of_int 3));
    ("secp224r1 p (4 limbs)", Ppgr_group.Ec_params.secp224r1.Ppgr_group.Ec_curve.p, None);
    ("2^244 - 1 (4 limbs)", pred (pow2 244), Some (of_int 3));
  ]

let boundary_case (name, m, nonunit) =
  Alcotest.test_case name `Quick (fun () ->
      let open Bigint in
      let module F = Modring.Flat in
      let c = Modring.ctx ~modulus:m in
      let limbs = (numbits m + 60) / 61 in
      let rng = Ppgr_rng.Rng.create ~seed:("limbs-boundary-" ^ name) in
      (* R mod m, and the values whose Montgomery forms are the limb
         vectors 1 and B^(w-1): one non-zero limb, at the bottom or top. *)
      let r_inv = invmod (nth_bit_weight (61 * limbs)) m in
      let edges =
        [ zero; one; pred m; sub m two; erem (nth_bit_weight (61 * limbs)) m; r_inv;
          erem (mul r_inv (nth_bit_weight (61 * (limbs - 1)))) m ]
      in
      let randoms = Array.init 200 (fun _ -> Ppgr_rng.Rng.bigint_below rng m) in
      let values = edges @ Array.to_list randoms @ Option.to_list nonunit in
      let pairs =
        List.concat_map (fun a -> List.map (fun b -> (a, b)) edges) edges
        @ List.init 200 (fun i -> (randoms.(i), randoms.((i + 1) mod 200)))
      in
      let d = Modring.alloc c and fl = F.create c 4 in
      (* Limb for limb against the canonical Montgomery form: [leave]
         reduces modulo m, so it would pass a limb left out of range. *)
      let expect what args want got =
        if not (Modring.equal c (Modring.enter c want) got) then
          Alcotest.failf "%s %s: got %s, want %s" what
            (String.concat ", " (List.map to_string args))
            (to_string (Modring.leave c got)) (to_string want)
      in
      (* [op] through [_into] with dst fresh and aliasing each operand,
         then through [Flat] with the operands at elements 1 and 2. *)
      let binary what into flat a b want =
        let ea = Modring.enter c a and eb = Modring.enter c b in
        let check how = expect (what ^ " " ^ how) [ a; b ] want in
        Modring.zero_into c d;
        into c d ea eb;
        check "dst fresh" d;
        Modring.copy_into c d ea;
        into c d d eb;
        check "dst = a" d;
        Modring.copy_into c d eb;
        into c d ea d;
        check "dst = b" d;
        if equal a b then begin
          Modring.copy_into c d ea;
          into c d d d;
          check "dst = a = b" d
        end;
        List.iter
          (fun (dst, how) ->
            F.set c fl 1 ea;
            F.set c fl 2 eb;
            flat c fl dst fl 1 fl 2;
            check how (F.get c fl dst))
          [ (3, "Flat"); (1, "Flat dst = a"); (2, "Flat dst = b") ]
      in
      let unary what into a want =
        let ea = Modring.enter c a in
        let check how = expect (what ^ " " ^ how) [ a ] want in
        Modring.zero_into c d;
        into c d ea;
        check "dst fresh" d;
        Modring.copy_into c d ea;
        into c d d;
        check "dst = a" d
      in
      let unary_flat what flat a want =
        List.iter
          (fun (dst, how) ->
            F.set c fl 1 (Modring.enter c a);
            flat c fl dst fl 1;
            expect (what ^ " " ^ how) [ a ] want (F.get c fl dst))
          [ (2, "Flat"); (1, "Flat dst = a") ]
      in
      List.iter
        (fun (a, b) ->
          binary "mul" Modring.mul_into F.mul a b (erem (mul a b) m);
          binary "add" Modring.add_into F.add a b (erem (add a b) m);
          binary "sub" Modring.sub_into F.sub a b (erem (sub a b) m))
        pairs;
      List.iter
        (fun a ->
          let sq = erem (mul a a) m in
          unary "sqr" Modring.sqr_into a sq;
          unary_flat "sqr" F.sqr a sq;
          unary "double" Modring.double_into a (erem (add a a) m);
          unary "neg" Modring.neg_into a (erem (neg a) m);
          match invmod a m with
          | ia ->
              unary "inv" Modring.inv_into a ia;
              unary_flat "inv" F.inv a ia
          | exception Division_by_zero ->
              let ea = Modring.enter c a in
              Alcotest.check_raises ("inv_into " ^ to_string a) Division_by_zero (fun () ->
                  Modring.inv_into c d ea);
              F.set c fl 1 ea;
              Alcotest.check_raises ("Flat.inv " ^ to_string a) Division_by_zero (fun () ->
                  F.inv c fl 2 fl 1))
        values;
      (* The raising cases by name: 0 always, and the known factor of a
         composite modulus. *)
      List.iter
        (fun v ->
          Alcotest.check_raises ("inv " ^ to_string v) Division_by_zero (fun () ->
              Modring.inv_into c d (Modring.enter c v)))
        (zero :: Option.to_list nonunit))

let boundary_tests = List.map boundary_case boundary_moduli

let () =
  Alcotest.run "limbs"
    [
      ("differential", diff_props);
      ("edges", edge_tests);
      ("modring-into", modring_tests @ boundary_tests);
    ]
