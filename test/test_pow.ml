(* Exponentiation-engine tests: fixed-base tables and simultaneous
   (Shamir) exponentiation cross-checked against the naive variable-base
   path on every group family, plus a determinism regression for the
   instrumented phase-2 run. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_group
open Ppgr_grouprank

let rng = Rng.create ~seed:"test-pow"

(* Exponent edge cases relative to a group order q: zero, one, q-1, q,
   above q (reduction), far above q, and negative (Euclidean wrap). *)
let edge_exponents (order : Bigint.t) =
  [
    Bigint.zero;
    Bigint.one;
    Bigint.pred order;
    order;
    Bigint.add_int order 5;
    Bigint.add (Bigint.mul_int order 2) (Bigint.of_int 3);
    Bigint.neg (Bigint.of_int 5);
    Bigint.neg (Bigint.pred order);
  ]

let engine_suite name (g : Group_intf.group) =
  let module G = (val g) in
  let module N = Group_intf.Naive (G) in
  let random_elt () = G.pow_gen (G.random_scalar rng) in
  [
    Alcotest.test_case (name ^ ": pow_table matches naive pow") `Quick (fun () ->
        let x = random_elt () in
        let tbl = G.powtable x in
        for _ = 1 to 30 do
          let e = G.random_scalar rng in
          Alcotest.(check bool) "table = naive" true
            (G.equal (G.pow_table tbl e) (N.pow x e))
        done);
    Alcotest.test_case (name ^ ": pow_table edge exponents") `Quick (fun () ->
        let x = random_elt () in
        let tbl = G.powtable x in
        List.iter
          (fun e ->
            Alcotest.(check bool)
              (Printf.sprintf "e = %s" (Bigint.to_string e))
              true
              (G.equal (G.pow_table tbl e) (N.pow x e)))
          (edge_exponents G.order));
    Alcotest.test_case (name ^ ": pow_gen matches naive generator pow") `Quick
      (fun () ->
        for _ = 1 to 20 do
          let e = G.random_scalar rng in
          Alcotest.(check bool) "fixed-base = naive" true
            (G.equal (G.pow_gen e) (N.pow_gen e))
        done;
        List.iter
          (fun e ->
            Alcotest.(check bool)
              (Printf.sprintf "gen edge e = %s" (Bigint.to_string e))
              true
              (G.equal (G.pow_gen e) (N.pow_gen e)))
          (edge_exponents G.order));
    Alcotest.test_case (name ^ ": pow2 matches product of naive pows") `Quick
      (fun () ->
        let a = random_elt () and b = random_elt () in
        for _ = 1 to 30 do
          let e = G.random_scalar rng and f = G.random_scalar rng in
          Alcotest.(check bool) "pow2 = pow*pow" true
            (G.equal (G.pow2 a e b f) (N.pow2 a e b f))
        done);
    Alcotest.test_case (name ^ ": pow2 edge exponents") `Quick (fun () ->
        let a = random_elt () and b = random_elt () in
        let edges = edge_exponents G.order in
        List.iter
          (fun e ->
            List.iter
              (fun f ->
                Alcotest.(check bool)
                  (Printf.sprintf "e = %s, f = %s" (Bigint.to_string e)
                     (Bigint.to_string f))
                  true
                  (G.equal (G.pow2 a e b f) (N.pow2 a e b f)))
              edges)
          edges);
    Alcotest.test_case (name ^ ": pow2 with identity bases") `Quick (fun () ->
        let a = random_elt () in
        let e = G.random_scalar rng and f = G.random_scalar rng in
        Alcotest.(check bool) "identity left leg" true
          (G.equal (G.pow2 G.identity e a f) (N.pow a f));
        Alcotest.(check bool) "identity right leg" true
          (G.equal (G.pow2 a e G.identity f) (N.pow a e)));
    Alcotest.test_case (name ^ ": table ops are counted") `Quick (fun () ->
        let x = random_elt () in
        let before = G.op_count () in
        let tbl = G.powtable x in
        let built = G.op_count () in
        Alcotest.(check bool) "construction ticks mul" true (built > before);
        ignore (G.pow_table tbl (G.random_scalar rng));
        Alcotest.(check bool) "evaluation ticks mul" true (G.op_count () > built));
    Alcotest.test_case (name ^ ": fixed-base cheaper than variable-base") `Quick
      (fun () ->
        (* The whole point of the engine: a table-served exponentiation
           must expand into strictly fewer group operations. *)
        let x = random_elt () in
        let tbl = G.powtable x in
        let e = G.random_scalar rng in
        let ops0 = G.op_count () in
        ignore (G.pow_table tbl e);
        let fixed = G.op_count () - ops0 in
        let ops1 = G.op_count () in
        ignore (G.pow x e);
        let variable = G.op_count () - ops1 in
        Alcotest.(check bool)
          (Printf.sprintf "fixed %d < variable %d" fixed variable)
          true (fixed < variable));
  ]

(* QCheck properties on small int exponents, where an independent
   reference (repeated squaring over ints is unnecessary — the naive
   group pow is an already-tested independent code path). *)
let engine_props =
  let module G = (val Dl_group.dl_test_64 ()) in
  let module N = Group_intf.Naive (G) in
  let x = G.pow_gen (Bigint.of_int 7) in
  let tbl = G.powtable x in
  let prop name gen f =
    QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)
  in
  [
    prop "pow_table agrees on arbitrary int exponents"
      QCheck2.Gen.(int_range 0 max_int)
      (fun e ->
        let e = Bigint.of_int e in
        G.equal (G.pow_table tbl e) (N.pow x e));
    prop "pow2 agrees on arbitrary int exponent pairs"
      QCheck2.Gen.(pair (int_range 0 max_int) (int_range 0 max_int))
      (fun (e, f) ->
        let e = Bigint.of_int e and f = Bigint.of_int f in
        G.equal (G.pow2 x e (G.pow_gen Bigint.two) f)
          (N.pow2 x e (G.pow_gen Bigint.two) f));
  ]

(* DL exponentiation against an independent reference: [Bigint.powmod]
   runs a fixed 4-bit window over plain residues, with no signed digits
   and no group code.  An element encodes as min(r, p - r), and powmod
   on that value gives r^e up to sign, so results are compared by the
   same canonical value.  Exhaustive over small exponents on DL-test-64;
   random full-width exponents on the production sizes. *)
let dl_reference_suite name (g : Group_intf.group) p ~exhaustive =
  let module G = (val g) in
  let value x = Bigint.of_bytes_be (G.to_bytes x) in
  let canonical r = Bigint.min r (Bigint.sub p r) in
  let reference x e = Bigint.powmod (value x) (Bigint.erem e G.order) p in
  let check_pow x e =
    if not (Bigint.equal (value (G.pow x e)) (canonical (reference x e))) then
      Alcotest.failf "%s: pow x e <> powmod at e = %s" name (Bigint.to_string e)
  in
  let check_pow2 a e b f =
    let expected =
      canonical (Bigint.erem (Bigint.mul (reference a e) (reference b f)) p)
    in
    if not (Bigint.equal (value (G.pow2 a e b f)) expected) then
      Alcotest.failf "%s: pow2 a e b f <> powmod product at e = %s, f = %s" name
        (Bigint.to_string e) (Bigint.to_string f)
  in
  let random_elt () = G.pow_gen (G.random_scalar rng) in
  let k = Bigint.numbits G.order in
  let full_width () =
    let top = Bigint.nth_bit_weight (k - 1) in
    Bigint.add top (Rng.bigint_below rng (Bigint.sub G.order top))
  in
  if exhaustive then
    [
      Alcotest.test_case (name ^ ": pow = powmod, every e < 2^12 and edges") `Quick
        (fun () ->
          let x = random_elt () in
          for e = 0 to (1 lsl 12) - 1 do
            check_pow x (Bigint.of_int e)
          done;
          List.iter (check_pow x) (edge_exponents G.order));
      Alcotest.test_case (name ^ ": pow2 = powmod product, every e, f < 2^6") `Quick
        (fun () ->
          let a = random_elt () and b = random_elt () in
          for e = 0 to 63 do
            for f = 0 to 63 do
              check_pow2 a (Bigint.of_int e) b (Bigint.of_int f)
            done
          done);
    ]
  else
    [
      Alcotest.test_case (name ^ ": pow and pow2 = powmod, full-width exponents")
        `Quick (fun () ->
          let a = random_elt () and b = random_elt () in
          for _ = 1 to 50 do
            let e = full_width () and f = full_width () in
            check_pow a e;
            check_pow2 a e b f
          done);
    ]

(* The recoding behind DL [pow]/[pow2], at both widths the family uses:
   the digits sum back to the exponent, every non-zero digit is odd and
   below 2^w, at least w - 1 zero digits separate two non-zero ones, and
   the top digit is non-zero. *)
let recoding_tests =
  let check w e =
    let dst = Array.make (Stdlib.max 1 (Bigint.numbits e)) (-1) in
    let len = Dl_group.sliding_window_into ~w e dst in
    let where = Printf.sprintf "w = %d, e = %s" w (Bigint.to_string e) in
    let sum = ref Bigint.zero and last = ref (-w) in
    for i = len - 1 downto 0 do
      sum := Bigint.add (Bigint.shift_left !sum 1) (Bigint.of_int dst.(i))
    done;
    if not (Bigint.equal !sum e) then Alcotest.failf "digits do not sum back (%s)" where;
    if len > 0 && dst.(len - 1) = 0 then Alcotest.failf "top digit is zero (%s)" where;
    for i = 0 to len - 1 do
      let d = dst.(i) in
      if d <> 0 then begin
        if d < 0 || d land 1 = 0 || d >= 1 lsl w then
          Alcotest.failf "digit %d at %d (%s)" d i where;
        if i - !last < w then
          Alcotest.failf "digits at %d and %d too close (%s)" !last i where;
        last := i
      end
    done
  in
  [
    Alcotest.test_case "window width: 4 up to 256 bits, 5 above" `Quick (fun () ->
        List.iter
          (fun (bits, w) ->
            Alcotest.(check int)
              (Printf.sprintf "%d-bit order" bits)
              w
              (Dl_group.window_width (Bigint.pred (Bigint.nth_bit_weight bits))))
          [ (63, 4); (127, 4); (256, 4); (257, 5); (511, 5); (1023, 5) ]);
    Alcotest.test_case "every e < 2^12" `Quick (fun () ->
        for e = 0 to (1 lsl 12) - 1 do
          check 4 (Bigint.of_int e);
          check 5 (Bigint.of_int e)
        done);
    Alcotest.test_case "200 random 1023-bit exponents" `Quick (fun () ->
        let top = Bigint.nth_bit_weight 1022 in
        for _ = 1 to 200 do
          let e = Bigint.add top (Rng.bigint_below rng top) in
          check 4 e;
          check 5 e
        done);
  ]

(* Phase-2 regression: the engine must not change what the protocol
   computes, and the instrumented counters must stay deterministic for a
   fixed RNG seed (fresh group module per run so the lazily built
   generator table is attributed identically). *)
let runtime_regression =
  let run_once () =
    let module G = (val Dl_group.dl_test_64 ()) in
    let module R = Runtime.Make (G) in
    let rng = Rng.create ~seed:"pow-phase2-regression" in
    let l = 12 in
    let betas =
      Array.init 6 (fun _ -> Rng.bigint_below rng (Bigint.nth_bit_weight l))
    in
    let s = R.run rng ~l ~betas in
    (s.R.ranks, s.R.per_party_ops, s.R.per_party_exps)
  in
  [
    Alcotest.test_case "Runtime.run is deterministic under the engine" `Quick
      (fun () ->
        let r1, o1, e1 = run_once () in
        let r2, o2, e2 = run_once () in
        Alcotest.(check (array int)) "ranks" r1 r2;
        Alcotest.(check (array int)) "per-party ops" o1 o2;
        Alcotest.(check (array int)) "per-party exps" e1 e2);
    Alcotest.test_case "Runtime agrees with the naive engine" `Quick
      (fun () ->
        (* Same protocol, same RNG stream, engine on vs off: identical
           ranks and an identical wire transcript prove the fused/table
           paths change no group math.  On ECC-160 at n = 3, l = 12
           each hop is one 48-ladder batch, above the crossover, so the
           lockstep affine ladders run against the naive pows. *)
        let agree (g : Group_intf.group) ~n ~l =
          let module G = (val g) in
          let module NG = Group_intf.Naive (G) in
          let module R = Runtime.Make (G) in
          let module RN = Runtime.Make (NG) in
          let mk_betas rng =
            Array.init n (fun _ -> Rng.bigint_below rng (Bigint.nth_bit_weight l))
          in
          let rng1 = Rng.create ~seed:"pow-phase2-vs-naive" in
          let fast = R.run rng1 ~l ~betas:(mk_betas rng1) in
          let rng2 = Rng.create ~seed:"pow-phase2-vs-naive" in
          let naive = RN.run rng2 ~l ~betas:(mk_betas rng2) in
          Alcotest.(check (array int)) (G.name ^ " ranks") naive.RN.ranks fast.R.ranks;
          Alcotest.(check string) (G.name ^ " transcript digest") naive.RN.transcript_sha
            fast.R.transcript_sha
        in
        agree (Dl_group.dl_test_64 ()) ~n:5 ~l:10;
        let n = 3 and l = 12 in
        assert ((n - 1) * (n - 1) * l > Ec_curve.batch_crossover);
        agree (Ec_group.ecc_160 ()) ~n ~l);
  ]

(* The ROADMAP batch-inversion closure: building a fixed-base table
   spends exactly ONE field inversion (the Montgomery-shared
   normalization of the finished table), every entry comes out affine,
   and the normalized table computes the same function as the naive
   Jacobian path. *)
let powtable_batch_normalization =
  let module Meter = Ppgr_exec.Meter in
  [
    Alcotest.test_case "one shared inversion per table build" `Quick (fun () ->
        let cv = Ec_curve.make_curve Ec_params.secp160r1 in
        let g = Ec_curve.base_point cv in
        let bits = Bigint.numbits cv.Ec_curve.prm.Ec_curve.n in
        let before = Meter.read cv.Ec_curve.invs in
        let t = Ec_curve.make_powtable cv g ~bits in
        Alcotest.(check int) "field_invs delta" 1
          (Meter.read cv.Ec_curve.invs - before);
        (* Every entry normalized: z = 1 exactly. *)
        Array.iter
          (Array.iter (fun (pt : Ec_curve.point) ->
               Alcotest.(check bool) "entry is affine" true
                 (Ppgr_bigint.Bigint.Modring.equal cv.Ec_curve.fp
                    pt.Ec_curve.z
                    (Ppgr_bigint.Bigint.Modring.one cv.Ec_curve.fp))))
          t.Ec_curve.ptbl);
    Alcotest.test_case "normalized table = naive scalar_mul" `Quick (fun () ->
        let cv = Ec_curve.make_curve Ec_params.secp160r1 in
        let g = Ec_curve.base_point cv in
        let n = cv.Ec_curve.prm.Ec_curve.n in
        let t = Ec_curve.make_powtable cv g ~bits:(Bigint.numbits n) in
        for _ = 1 to 25 do
          let e = Bigint.succ (Rng.bigint_below rng (Bigint.pred n)) in
          Alcotest.(check bool) "same point" true
            (Ec_curve.equal cv
               (Ec_curve.scalar_mul_table cv t e)
               (Ec_curve.scalar_mul cv g e))
        done);
    Alcotest.test_case "group-level probe sees one inversion per powtable"
      `Quick (fun () ->
        (* Through the GROUP interface: the field_invs probe must tick
           exactly once when a fresh fixed-base table is built. *)
        let module G = (val Ec_group.ecc_160 ()) in
        let probe = List.assoc "field_invs" G.probes in
        let x = G.pow_gen (G.random_scalar rng) in
        let before = probe () in
        let tbl = G.powtable x in
        Alcotest.(check int) "one inversion" 1 (probe () - before);
        let e = G.random_scalar rng in
        (* pow_table itself must not invert at all. *)
        let mid = probe () in
        ignore (G.pow_table tbl e);
        Alcotest.(check int) "no inversion in pow_table" 0 (probe () - mid));
    Alcotest.test_case "DL probe sees one inversion per inv_batch" `Quick
      (fun () ->
        (* Montgomery's trick: 3(k - 1) multiplications and one
           inversion for k elements, where k inversions cost k. *)
        let module G = (val Dl_group.dl_1024 ()) in
        let probe = List.assoc "field_invs" G.probes in
        let els = Array.init 32 (fun _ -> G.pow_gen (G.random_scalar rng)) in
        let before = probe () and ops0 = G.op_count () in
        ignore (G.inv_batch els);
        Alcotest.(check int) "one inversion" 1 (probe () - before);
        Alcotest.(check int) "ops" ((3 * 31) + 1) (G.op_count () - ops0);
        let mid = probe () in
        Array.iter (fun x -> ignore (G.inv x)) els;
        Alcotest.(check int) "one per inv" 32 (probe () - mid));
    Alcotest.test_case "ECC-160 batch ladders: ops, inversions, muls" `Quick
      (fun () ->
        (* One chunk above the crossover: the group ops are the
           per-element pow2 + pow ladders' less b's shared table (4 per
           ladder), each lockstep step inverts once (Jacobian inputs,
           the table, at most 3 per digit position), and the field
           multiplications fall by a quarter or more. *)
        let module G = (val Ec_group.ecc_160 ()) in
        let probe = List.assoc "field_invs" G.probes in
        let k = Ec_curve.batch_crossover + 8 in
        let el () = G.pow_gen (G.random_scalar rng) in
        let a = Array.init k (fun _ -> el ()) and b = Array.init k (fun _ -> el ()) in
        let e = Array.init k (fun _ -> G.random_scalar rng)
        and f = Array.init k (fun _ -> G.random_scalar rng) in
        let ops0 = G.op_count () and muls0 = Bigint.mul_count () in
        for i = 0 to k - 1 do
          ignore (G.pow2 a.(i) e.(i) b.(i) f.(i));
          ignore (G.pow b.(i) e.(i))
        done;
        let each_ops = G.op_count () - ops0 and each_muls = Bigint.mul_count () - muls0 in
        let ops1 = G.op_count () and muls1 = Bigint.mul_count () and inv1 = probe () in
        G.pow2_pow_batch (Array.copy a) e (Array.copy b) f;
        Alcotest.(check int) "ops" (each_ops - (4 * k)) (G.op_count () - ops1);
        let invs = probe () - inv1 in
        let positions = Bigint.numbits G.order + 1 in
        if invs < 5 || invs > 5 + (3 * positions) then
          Alcotest.failf "%d inversions for one chunk" invs;
        let muls = Bigint.mul_count () - muls1 in
        if 4 * muls > 3 * each_muls then
          Alcotest.failf "%d field multiplications against %d per element" muls each_muls);
  ]

let () =
  Alcotest.run "pow-engine"
    [
      ("dl-test-64", engine_suite "DL-test-64" (Dl_group.dl_test_64 ()));
      ("dl-test-128", engine_suite "DL-test-128" (Dl_group.dl_test_128 ()));
      ("dl-1024", engine_suite "DL-1024" (Dl_group.dl_1024 ()));
      ("ecc-tiny", engine_suite "ECC-tiny" (Ec_group.ecc_tiny ()));
      ("ecc-160", engine_suite "ECC-160" (Ec_group.ecc_160 ()));
      ("props", engine_props);
      ( "dl-reference",
        dl_reference_suite "DL-test-64" (Dl_group.dl_test_64 ()) Modp_params.test_64
          ~exhaustive:true
        @ dl_reference_suite "DL-512" (Dl_group.dl_512 ()) Modp_params.p_512
            ~exhaustive:false
        @ dl_reference_suite "DL-1024" (Dl_group.dl_1024 ()) Modp_params.p_1024
            ~exhaustive:false );
      ("dl-recoding", recoding_tests);
      ("batch-normalization", powtable_batch_normalization);
      ("runtime-regression", runtime_regression);
    ]
