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
  [
    check_zero "mont mul_into is allocation-free" (fun () -> Bigint.Modring.mul_into c d x y);
    check_zero "mont sqr_into is allocation-free" (fun () -> Bigint.Modring.sqr_into c d x);
    check_zero "add_into is allocation-free" (fun () -> Bigint.Modring.add_into c d x y);
    check_zero "sub_into is allocation-free" (fun () -> Bigint.Modring.sub_into c d x y);
    check_zero "neg_into is allocation-free" (fun () -> Bigint.Modring.neg_into c d y);
    check_zero "double_into is allocation-free" (fun () -> Bigint.Modring.double_into c d y);
    check_zero "copy_into is allocation-free" (fun () -> Bigint.Modring.copy_into c d x);
    check_zero "mont inv_into is allocation-free" (fun () -> Bigint.Modring.inv_into c d x);
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
   their escaping result — the wNAF tables, inverse caches, recoding
   buffers and accumulators all live in per-domain scratch.  The pinned
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
  [
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

(* Telemetry layer (PR 8): recording into a histogram or the flight
   recorder is steady-state allocation-free in BOTH states — disabled
   (one ref read, the hot-path guarantee) and enabled (preallocated
   int-array lanes, no boxing). *)
let telemetry_tests =
  let module Hist = Ppgr_obs.Hist in
  let module Flightrec = Ppgr_obs.Flightrec in
  let h = Hist.create () in
  let fl = Flightrec.create ~parties:4 () in
  let tick = ref 0 in
  [
    Alcotest.test_case "disabled Hist.record is allocation-free" `Quick
      (fun () ->
        Hist.set_enabled false;
        let s =
          Allocs.measure ~warmup:8 ~iters:200 (fun () ->
              incr tick;
              Hist.record h !tick)
        in
        if not (Allocs.is_alloc_free s) then
          Alcotest.failf "disabled record allocates: %s"
            (Format.asprintf "%a" Allocs.pp s));
    Alcotest.test_case "enabled Hist.record is allocation-free" `Quick
      (fun () ->
        Hist.set_enabled true;
        Fun.protect ~finally:(fun () -> Hist.set_enabled false) @@ fun () ->
        let s =
          Allocs.measure ~warmup:8 ~iters:200 (fun () ->
              incr tick;
              Hist.record h (!tick * 7919))
        in
        if not (Allocs.is_alloc_free s) then
          Alcotest.failf "enabled record allocates: %s"
            (Format.asprintf "%a" Allocs.pp s));
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

(* Windowed transport (PR 10): the per-link sliding-window bookkeeping
   runs once per transmission and once per ack inside the pipelined
   event loop, so every operation must be straight arithmetic over the
   arrays preallocated at Window.create — zero words per op.  The only
   sanctioned allocation is rbuf_take's escaping [Some]. *)
let window_tests =
  let module Window = Ppgr_grouprank.Transport.Window in
  let w = Window.create 16 in
  let payload = Bytes.create 64 in
  let seq = ref 0 in
  [
    check_zero "Window.push/ack_cum cycle is allocation-free" (fun () ->
        (* Admit a sequence then cumulatively release it: the warm
           steady state of a healthy link. *)
        let s = Window.push w ~seq:!seq in
        assert (s >= 0);
        Window.ack_cum w ~cum:(!seq + 1);
        incr seq);
    check_zero "Window.occupancy is allocation-free" (fun () ->
        ignore (Window.occupancy w));
    check_zero "Window.next_timer is allocation-free" (fun () ->
        ignore (Window.next_timer w));
    check_zero "Window.sack is allocation-free" (fun () ->
        Window.sack w ~seq:!seq);
    check_zero "Window.sack_bits is allocation-free" (fun () ->
        ignore (Window.sack_bits w ~cum:!seq));
    check_zero "Window.rbuf_put of a buffered seq is allocation-free"
      (fun () ->
        (* First call buffers, every later call hits the idempotent
           already-held path — both stay on preallocated slots. *)
        ignore (Window.rbuf_put w ~seq:7 payload));
    check_exact "Window.rbuf_put/rbuf_take cycle allocates the option only"
      2.0 (fun () ->
        ignore (Window.rbuf_put w ~seq:9 payload);
        match Window.rbuf_take w ~seq:9 with
        | Some _ -> ()
        | None -> assert false);
  ]

let () =
  Alcotest.run "allocs"
    [
      ("zero-alloc", zero_alloc_tests);
      ("zero-alloc-64", zero_alloc_64_tests);
      ("powmod", powmod_tests);
      ("group-alloc", group_tests);
      ("group-retention", retention_tests);
      ("telemetry-alloc", telemetry_tests);
      ("window-alloc", window_tests);
    ]
