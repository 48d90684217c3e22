(* Allocation regression gate for the in-place bigint fast path.

   The whole point of the 61-bit rewrite is that the Montgomery kernels
   and the Modring [_into] operations allocate nothing per call once the
   per-domain scratch is warm; this suite pins that with exact
   [Gc.minor_words] deltas via [Ppgr_obs.Allocs].  A regression that
   sneaks a box or a fresh array into a kernel fails here, not in a
   benchmark three PRs later. *)

open Ppgr_bigint
module Allocs = Ppgr_obs.Allocs

let p1024 = Ppgr_group.Modp_params.p_1024
let c = Bigint.Modring.ctx ~modulus:p1024

let x =
  Bigint.Modring.enter c
    (Bigint.of_string
       "0xfeedfacecafebeef00112233445566778899aabbccddeeff0123456789abcdef")

let y = Bigint.Modring.enter c (Bigint.sub p1024 (Bigint.of_int 987654321))

let check_zero name f =
  Alcotest.test_case name `Quick (fun () ->
      let s = Allocs.measure ~warmup:8 ~iters:200 f in
      if not (Allocs.is_alloc_free s) then
        Alcotest.failf "%s allocates: %s" name (Format.asprintf "%a" Allocs.pp s))

let zero_alloc_tests =
  let d = Bigint.Modring.alloc c in
  [
    check_zero "mont mul_into is allocation-free" (fun () -> Bigint.Modring.mul_into c d x y);
    check_zero "mont sqr_into is allocation-free" (fun () -> Bigint.Modring.sqr_into c d x);
    check_zero "add_into is allocation-free" (fun () -> Bigint.Modring.add_into c d x y);
    check_zero "sub_into is allocation-free" (fun () -> Bigint.Modring.sub_into c d x y);
    check_zero "neg_into is allocation-free" (fun () -> Bigint.Modring.neg_into c d y);
    check_zero "double_into is allocation-free" (fun () -> Bigint.Modring.double_into c d y);
    check_zero "copy_into is allocation-free" (fun () -> Bigint.Modring.copy_into c d x);
    (let nx = Bigint.Modring.neg c x in
     check_zero "equal_neg is allocation-free" (fun () ->
         if not (Bigint.Modring.equal_neg c x nx) then failwith "x <> -(-x)"));
  ]

(* The in-place ring ops at the narrow widths, where each is a handful
   of limb operations and a single boxed word would show. *)
let into_pins c x y =
  let d = Bigint.Modring.alloc c in
  [
    check_zero "mont mul_into is allocation-free" (fun () -> Bigint.Modring.mul_into c d x y);
    check_zero "mont sqr_into is allocation-free" (fun () -> Bigint.Modring.sqr_into c d x);
    check_zero "add_into is allocation-free" (fun () -> Bigint.Modring.add_into c d x y);
    check_zero "sub_into is allocation-free" (fun () -> Bigint.Modring.sub_into c d x y);
    check_zero "neg_into is allocation-free" (fun () -> Bigint.Modring.neg_into c d y);
    check_zero "double_into is allocation-free" (fun () -> Bigint.Modring.double_into c d y);
    check_zero "copy_into is allocation-free" (fun () -> Bigint.Modring.copy_into c d x);
    check_zero "mont inv_into is allocation-free" (fun () -> Bigint.Modring.inv_into c d x);
  ]

(* The same pins at the MPC engine's width: the shard-merge field is the
   64-bit test prime, two 61-bit limbs, and every share operation of the
   engine runs on these kernels. *)
let zero_alloc_64_tests =
  let p64 = Ppgr_group.Modp_params.test_64 in
  let c = Bigint.Modring.ctx ~modulus:p64 in
  let v = Bigint.sub p64 (Bigint.of_int 123456789) in
  let x = Bigint.Modring.enter c (Bigint.of_string "0xfeedfacecafebeef") in
  let y = Bigint.Modring.enter c v in
  let d = Bigint.Modring.alloc c in
  into_pins c x y
  @ [
    check_zero "enter_into of a canonical value is allocation-free" (fun () ->
        Bigint.Modring.enter_into c d v);
    Alcotest.test_case "Modring.pow allocates its result only" `Quick (fun () ->
        (* Two limbs plus the array header, whatever the exponent. *)
        List.iter
          (fun e ->
            let s = Allocs.measure ~warmup:8 ~iters:50 (fun () -> ignore (Bigint.Modring.pow c x e)) in
            Alcotest.(check (float 0.01))
              (Printf.sprintf "words/call at a %d-bit exponent" (Bigint.numbits e))
              3.0 s.Allocs.words_per_iter)
          [ Bigint.of_int 3; Bigint.shift_right (Bigint.succ p64) 2 ]);
  ]

(* And at ECC-160's field prime, three limbs: the width with its own
   straight-line kernels, whose working values live in locals and
   unboxed refs — no scratch, no fresh arrays, no local closures. *)
let zero_alloc_160_tests =
  let p160 = Ppgr_group.Ec_params.secp160r1.Ppgr_group.Ec_curve.p in
  let c = Bigint.Modring.ctx ~modulus:p160 in
  let x = Bigint.Modring.enter c (Bigint.of_string "0xfeedfacecafebeef00112233445566778899") in
  let y = Bigint.Modring.enter c (Bigint.sub p160 (Bigint.of_int 987654321)) in
  let module F = Bigint.Modring.Flat in
  let fl = F.create c 4 in
  F.set c fl 1 x;
  F.set c fl 2 y;
  into_pins c x y
  @ [
    check_zero "Flat.mul is allocation-free" (fun () -> F.mul c fl 3 fl 1 fl 2);
    check_zero "Flat.sqr is allocation-free" (fun () -> F.sqr c fl 3 fl 1);
    check_zero "Flat.add is allocation-free" (fun () -> F.add c fl 3 fl 1 fl 2);
    check_zero "Flat.sub is allocation-free" (fun () -> F.sub c fl 3 fl 1 fl 2);
    check_zero "Flat.inv is allocation-free" (fun () -> F.inv c fl 3 fl 1);
    check_zero "Flat.copy is allocation-free" (fun () -> F.copy c fl 3 fl 1);
    check_zero "Flat.is_zero is allocation-free" (fun () ->
        if F.is_zero c fl 1 then failwith "x = 0");
  ]

(* powmod allocates only its escaping result: the per-call figure must
   not grow with the exponent (the window table, accumulator and
   conversion temporaries all live in ctx scratch). *)
let powmod_tests =
  [
    Alcotest.test_case "powmod allocation is independent of exponent size" `Quick (fun () ->
        let base = Bigint.of_string "0x1234567890abcdef1234567890abcdef" in
        let e_small = Bigint.pred (Bigint.nth_bit_weight 64) in
        let e_big = Bigint.pred (Bigint.nth_bit_weight 1024) in
        let run e = Allocs.measure ~warmup:3 ~iters:20 (fun () -> ignore (Bigint.powmod base e p1024)) in
        let s_small = run e_small and s_big = run e_big in
        Alcotest.(check (float 0.01))
          "words/call equal for 64-bit and 1024-bit exponents"
          s_small.Allocs.words_per_iter s_big.Allocs.words_per_iter;
        (* Result magnitude (17 limbs + header) + sign wrapper and
           nothing else. *)
        Alcotest.(check bool) "powmod result allocation is small" true
          (s_big.Allocs.words_per_iter < 32.));
    Alcotest.test_case "mont inv_into is allocation-free" `Quick (fun () ->
        let d = Bigint.Modring.alloc c in
        let s =
          Allocs.measure ~warmup:8 ~iters:50 (fun () -> Bigint.Modring.inv_into c d x)
        in
        if not (Allocs.is_alloc_free s) then
          Alcotest.failf "inv_into allocates: %s" (Format.asprintf "%a" Allocs.pp s));
    Alcotest.test_case "probe detects allocation when present" `Quick (fun () ->
        (* Sanity-check the probe itself: an allocating loop must not
           report zero. *)
        let sink = ref Bigint.zero in
        let s = Allocs.measure ~iters:50 (fun () -> sink := Bigint.add !sink Bigint.one) in
        Alcotest.(check bool) "allocating loop detected" false (Allocs.is_alloc_free s));
  ]

(* Group layer (PR 7): steady-state exponentiations allocate exactly
   their escaping result — the odd-powers tables, recoding buffers and
   accumulators all live in per-domain scratch.  The pinned
   figures are the result object's own size:
   - DL-1024 element: 17 Montgomery limbs + array header = 18 words;
   - ECC-160 point: record (3 fields + header) + three 3-limb field
     elements (3 + header each) = 16 words. *)
let check_exact name expected f =
  Alcotest.test_case name `Quick (fun () ->
      let s = Allocs.measure ~warmup:8 ~iters:50 f in
      Alcotest.(check (float 0.01))
        (Printf.sprintf "%s allocates exactly %.0f words/op" name expected)
        expected s.Allocs.words_per_iter)

let group_tests =
  let rng = Ppgr_rng.Rng.create ~seed:"test-allocs-group" in
  let module G = (val Ppgr_group.Dl_group.dl_1024 ()) in
  let e = G.random_scalar rng and f = G.random_scalar rng in
  let gx = G.pow_gen e and gy = G.pow_gen f in
  let tbl = G.powtable gx in
  let dl_words = 18.0 in
  let module E = Ppgr_group.Ec_curve in
  let cv = E.make_curve Ppgr_group.Ec_params.secp160r1 in
  let n = cv.E.prm.E.n in
  let se = Bigint.succ (Ppgr_rng.Rng.bigint_below rng (Bigint.pred n)) in
  let sf = Bigint.succ (Ppgr_rng.Rng.bigint_below rng (Bigint.pred n)) in
  let pt = E.scalar_mul cv (E.base_point cv) se in
  let qt = E.scalar_mul cv (E.base_point cv) sf in
  let ptbl = E.make_powtable cv pt ~bits:(Bigint.numbits n) in
  let ec_words = 16.0 in
  (* A pair x, p - x: a residue above q, and its decoding, which is the
     canonical value p - x below q. *)
  let q = G.order and p = Ppgr_group.Modp_params.p_1024 in
  let rec above_q () =
    let e = G.random_scalar rng in
    if Bigint.compare (Bigint.powmod (Bigint.of_int 4) e p) q > 0 then G.pow_gen e
    else above_q ()
  in
  let hx = above_q () in
  let neg_hx = Option.get (G.of_bytes (G.to_bytes hx)) in
  let minus_one = G.mul neg_hx (G.inv hx) in
  [
    check_zero "DL-1024 equal on a negated pair allocates nothing" (fun () ->
        if not (G.equal hx neg_hx) then failwith "x <> p - x");
    check_zero "DL-1024 is_identity of p - 1 allocates nothing" (fun () ->
        if not (G.is_identity minus_one) then failwith "p - 1 is not the identity");
    check_exact "DL-1024 pow allocates result only" dl_words (fun () ->
        ignore (G.pow gx e));
    check_exact "DL-1024 pow_table allocates result only" dl_words (fun () ->
        ignore (G.pow_table tbl e));
    check_exact "DL-1024 pow2 allocates result only" dl_words (fun () ->
        ignore (G.pow2 gx e gy f));
    check_exact "ECC-160 scalar_mul allocates result only" ec_words (fun () ->
        ignore (E.scalar_mul cv pt se));
    check_exact "ECC-160 scalar_mul_table allocates result only" ec_words (fun () ->
        ignore (E.scalar_mul_table cv ptbl se));
    check_exact "ECC-160 scalar_mul2 allocates result only" ec_words (fun () ->
        ignore (E.scalar_mul2 cv pt se qt sf));
    Alcotest.test_case "ECC-160 128-ladder batch allocates results, not steps" `Quick
      (fun () ->
        (* One full chunk of lockstep ladders: a call allocates its
           2 x 128 result points (written over its inputs, which the next
           call reuses), the chunk's state (flat limb arrays, on the
           major heap, so both heaps are counted as in the wire case
           below) and a little bookkeeping, the same for 24-bit as for
           full-width exponents: nothing per lockstep step. *)
        let k = E.batch_chunk in
        let sc () = Bigint.succ (Ppgr_rng.Rng.bigint_below rng (Bigint.pred n)) in
        let pts () = Array.init k (fun _ -> E.scalar_mul cv (E.base_point cv) (sc ())) in
        let a = pts () and b = pts () in
        let words e f =
          let total () =
            let _, promoted, major = Gc.counters () in
            Gc.minor_words () +. major -. promoted
          in
          E.pow2_pow_batch cv a e b f;
          let before = total () in
          for _ = 1 to 3 do
            E.pow2_pow_batch cv a e b f
          done;
          (total () -. before) /. 3.
        in
        let full = words (Array.init k (fun _ -> sc ())) (Array.init k (fun _ -> sc ())) in
        let short () = Bigint.succ (Ppgr_rng.Rng.bigint_below rng (Bigint.nth_bit_weight 24)) in
        let short = words (Array.init k (fun _ -> short ())) (Array.init k (fun _ -> short ())) in
        Alcotest.(check (float 0.5)) "independent of ladder length" full short;
        (* The state per ladder: 10 points x 2 coordinates and 2 prefix
           products of 3 limbs, 2 x 3 operation slots, and 2 x 2 flag
           bytes with 2 rows of 82-byte nibble digits. *)
        let results = float_of_int (2 * k * int_of_float ec_words) in
        let state = float_of_int (k * (66 + 6 + ((4 + 164) / 8))) in
        if full < results || full > results +. state +. 512. then
          Alcotest.failf "%.0f words per batch: results %.0f, state about %.0f" full results state);
    Alcotest.test_case "DL pow allocation is independent of exponent size" `Quick
      (fun () ->
        let e_small = Bigint.of_int 3 in
        let run ex =
          Allocs.measure ~warmup:8 ~iters:30 (fun () -> ignore (G.pow gx ex))
        in
        let s_small = run e_small and s_big = run e in
        Alcotest.(check (float 0.01))
          "words/call equal for tiny and full-width exponents"
          s_small.Allocs.words_per_iter s_big.Allocs.words_per_iter);
  ]

(* A group or curve that goes out of scope must take its per-domain
   scratch with it.  The runtime frees no [Domain.DLS] key, so scratch
   under a key per instance would pin about 230 words per DL-test-64
   group for good.  Live words after a full major collection may not
   grow with the number of instances built. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let check_no_retention name build =
  Alcotest.test_case name `Quick (fun () ->
      build ();
      let before = live_words () in
      let instances = 200 in
      for _ = 1 to instances do
        build ()
      done;
      let grown = live_words () - before in
      if grown > 4 * instances then
        Alcotest.failf "%s: %d live words after %d instances" name grown instances)

let retention_tests =
  [
    check_no_retention "a dropped DL group retains nothing" (fun () ->
        let module G = (val Ppgr_group.Dl_group.dl_test_64 ()) in
        ignore (G.pow (G.pow_gen (Bigint.of_int 5)) (Bigint.of_int 7)));
    check_no_retention "a dropped EC curve retains nothing" (fun () ->
        let module E = Ppgr_group.Ec_curve in
        let cv = E.make_curve Ppgr_group.Ec_params.secp160r1 in
        ignore (E.scalar_mul cv (E.base_point cv) (Bigint.of_int 12345)));
  ]

(* Telemetry layer: recording into the always-on flight recorder is
   steady-state allocation-free (preallocated int-array lanes, no
   boxing). *)
let telemetry_tests =
  let module Flightrec = Ppgr_obs.Flightrec in
  let fl = Flightrec.create ~parties:4 () in
  let tick = ref 0 in
  [
    Alcotest.test_case "Flightrec.record is allocation-free" `Quick (fun () ->
        let s =
          Allocs.measure ~warmup:8 ~iters:200 (fun () ->
              incr tick;
              Flightrec.record fl ~party:(!tick land 3) Flightrec.Send ~src:0
                ~dst:1 ~seq:!tick ~info:64)
        in
        if not (Allocs.is_alloc_free s) then
          Alcotest.failf "Flightrec.record allocates: %s"
            (Format.asprintf "%a" Allocs.pp s));
  ]

(* Wire layer: decoding an envelope copies its payload once.  A payload
   over 2 KiB is allocated straight on the major heap, which
   [Allocs.measure] (minor words) does not see, so this case counts
   bytes on both heaps: one payload's worth plus a constant per decode,
   at a 1 KiB and a DL-1024 ring-hop-sized 24 KiB payload.  The count
   is [Gc.allocated_bytes]'s formula, minor + major - promoted words,
   with the minor term read from [Gc.minor_words]: on OCaml 5.1 the
   [Gc.counters] that [Gc.allocated_bytes] reads counts the words
   allocated since the last minor collection at an eighth of their
   number. *)
let wire_tests =
  let module Wire = Ppgr_grouprank.Wire in
  let allocated_bytes () =
    let _, promoted, major = Gc.counters () in
    (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)
  in
  let bytes_per_decode frame =
    let iters = 20 in
    for _ = 1 to 3 do
      ignore (Wire.decode_envelope frame)
    done;
    let before = allocated_bytes () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (Wire.decode_envelope frame))
    done;
    (allocated_bytes () -. before) /. float_of_int iters
  in
  [
    Alcotest.test_case "envelope decode copies its payload once" `Quick (fun () ->
        let over =
          List.filter_map
            (fun size ->
              let payload = Bytes.init size (fun i -> Char.chr (i land 0xFF)) in
              let frame = Wire.encode_envelope ~src:1 ~dst:2 ~seq:7 payload in
              let got = bytes_per_decode frame in
              let bound = float_of_int (size + 256) in
              if got > bound then
                Some
                  (Printf.sprintf "%d-byte payload: %.0f bytes per decode, bound %.0f" size
                     got bound)
              else None)
            [ 1024; 24 * 1024 ]
        in
        if over <> [] then Alcotest.fail (String.concat "; " over));
  ]

let () =
  Alcotest.run "allocs"
    [
      ("zero-alloc", zero_alloc_tests);
      ("zero-alloc-64", zero_alloc_64_tests);
      ("zero-alloc-160", zero_alloc_160_tests);
      ("powmod", powmod_tests);
      ("group-alloc", group_tests);
      ("group-retention", retention_tests);
      ("telemetry-alloc", telemetry_tests);
      ("wire-alloc", wire_tests);
    ]
