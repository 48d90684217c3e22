(* Regenerates every figure of the paper's evaluation (§VII).

   Methodology (EXPERIMENTS.md): per-participant cost is predicted by the
   validated cost models of {!Ppgr_grouprank.Cost_model} — instrumented
   protocol runs on a cheap group supply exact operation counts, and
   measured per-operation wall-clock on each production group converts
   counts to seconds.  The paper's absolute numbers (Pentium 4, Crypto++)
   are not reproducible; the claims under test are the cost *shapes*. *)

open Ppgr_rng
open Ppgr_group
open Ppgr_grouprank
open Ppgr_mpcnet

let rng = Rng.create ~seed:"ppgr-bench"

(* Paper defaults (§VII): n=25, m=10, d1=15, h=15; d2 is not stated, we
   use 10 (EXPERIMENTS.md).  t = m/2 "equal to" attributes. *)
type setting = { n : int; m : int; t : int; d1 : int; d2 : int; h : int }

let default = { n = 25; m = 10; t = 5; d1 = 15; d2 = 10; h = 15 }

let spec_of s = Attrs.spec ~m:s.m ~t:s.t ~d1:s.d1 ~d2:s.d2

let beta_bits s =
  Phase1.beta_bits (Phase1.config ~spec:(spec_of s) ~h:s.h ())

(* Per-participant phase-1 cost in field multiplications (measured once;
   tiny compared to phase 2 but included for completeness). *)
let phase1_party_field_mults s =
  let spec = spec_of s in
  let f = Ppgr_dotprod.Zfield.default () in
  let cfg = Phase1.config ~spec ~h:s.h ~field:f () in
  let criterion = Attrs.random_criterion rng spec in
  let info = Attrs.random_info rng spec in
  let secrets = Phase1.draw_masks rng cfg ~n:1 in
  Ppgr_dotprod.Zfield.reset_mult_count f;
  ignore (Phase1.run_one rng cfg ~criterion ~secrets ~j:0 ~info);
  Ppgr_dotprod.Zfield.mult_count f

(* Cache HE/SS models per l (fits are cheap but not free). *)
let he_models : (int, Cost_model.He_model.t) Hashtbl.t = Hashtbl.create 8
let ss_models : (int, Cost_model.Ss_model.t) Hashtbl.t = Hashtbl.create 8

let he_model ~l =
  match Hashtbl.find_opt he_models l with
  | Some m -> m
  | None ->
      let m = Cost_model.He_model.fit rng ~l in
      Hashtbl.add he_models l m;
      m

let ss_model ~l =
  match Hashtbl.find_opt ss_models l with
  | Some m -> m
  | None ->
      let m = Cost_model.Ss_model.measure rng ~l () in
      Hashtbl.add ss_models l m;
      m

(* For the network figure the SS baseline shares over the smallest field
   that fits the comparison (a 96-bit prime, 12-byte elements, kappa=30)
   instead of the 192-bit default, as a deployment tuned for the wire
   would. *)
let ss_net_models : (int, Cost_model.Ss_model.t) Hashtbl.t = Hashtbl.create 8

let ss_net_field = lazy (Ppgr_dotprod.Zfield.create Ppgr_group.Modp_params.test_96)

let ss_net_model ~l =
  match Hashtbl.find_opt ss_net_models l with
  | Some m -> m
  | None ->
      let m =
        Cost_model.Ss_model.measure rng ~l ~kappa:30
          ~field:(Lazy.force ss_net_field) ()
      in
      Hashtbl.add ss_net_models l m;
      m

(* Per-participant seconds for one framework at one setting. *)
let he_seconds (cal : Calibrate.group_cal) ~field_cal s =
  let l = beta_bits s in
  let m = he_model ~l in
  let phase2 =
    Cost_model.He_model.predict_seconds m ~n:s.n ~mpe_target:cal.Calibrate.mpe
      ~sec_per_mult:cal.Calibrate.sec_per_mult
  in
  let phase1 = float_of_int (phase1_party_field_mults s) *. field_cal in
  phase1 +. phase2

let ss_seconds ?faithful ~field_cal s =
  let l = beta_bits s in
  let m = ss_model ~l in
  let phase2 =
    Cost_model.Ss_model.predict_seconds ?faithful m ~n:s.n
      ~sec_per_field_mult:field_cal
  in
  let phase1 = float_of_int (phase1_party_field_mults s) *. field_cal in
  phase1 +. phase2

let header title cols =
  Printf.printf "\n== %s ==\n%-8s %s\n" title "x"
    (String.concat " " (List.map (Printf.sprintf "%14s") cols))

let row x cells =
  Printf.printf "%-8s %s\n%!" x
    (String.concat " " (List.map (fun v -> Printf.sprintf "%14.4g" v) cells))

(* Fig. 2: per-participant computation time under different framework
   settings, for the DL-1024, ECC-160 and SS frameworks. *)
let fig2 ~dl ~ecc ~field_cal () =
  (* "SS" is the baseline as the paper costs it (Nishide-Ohta comparison
     primitive, 279l+5 multiplications); "SS-impl" is the cheaper
     masked-open comparison this repository actually implements. *)
  let frameworks s =
    [
      he_seconds dl ~field_cal s;
      he_seconds ecc ~field_cal s;
      ss_seconds ~faithful:true ~field_cal s;
      ss_seconds ~field_cal s;
    ]
  in
  header "Fig 2(a): time vs number of participants n (m=10 d1=15 h=15)"
    [ "DL-1024 (s)"; "ECC-160 (s)"; "SS (s)"; "SS-impl (s)" ];
  List.iter
    (fun n -> row (string_of_int n) (frameworks { default with n }))
    [ 10; 20; 25; 30; 40; 50; 60; 70 ];
  header "Fig 2(b): time vs attribute dimension m (n=25)"
    [ "DL-1024 (s)"; "ECC-160 (s)"; "SS (s)"; "SS-impl (s)" ];
  List.iter
    (fun m -> row (string_of_int m) (frameworks { default with m; t = m / 2 }))
    [ 5; 10; 15; 20; 25; 30; 40 ];
  header "Fig 2(c): time vs attribute bit length d1 (n=25)"
    [ "DL-1024 (s)"; "ECC-160 (s)"; "SS (s)"; "SS-impl (s)" ];
  List.iter
    (fun d1 -> row (string_of_int d1) (frameworks { default with d1 }))
    [ 5; 10; 15; 20; 25; 30; 40 ];
  header "Fig 2(d): time vs mask bit length h (n=25)"
    [ "DL-1024 (s)"; "ECC-160 (s)"; "SS (s)"; "SS-impl (s)" ];
  List.iter
    (fun h -> row (string_of_int h) (frameworks { default with h }))
    [ 5; 10; 15; 20; 25; 30; 40 ]

(* Fig. 3(a): per-participant time vs security level at n=70.  The NIST
   equivalences the paper cites: 80-bit ~ ECC-160/DL-1024, 112-bit ~
   ECC-224/DL-2048, 128-bit ~ ECC-256/DL-3072. *)
let fig3a ~(levels : (Calibrate.group_cal * Calibrate.group_cal) list) ~field_cal () =
  header "Fig 3(a): time vs security level (n=70)"
    [ "ECC (s)"; "DL (s)"; "DL/ECC" ];
  List.iter
    (fun ((ecc : Calibrate.group_cal), (dl : Calibrate.group_cal)) ->
      let s = { default with n = 70 } in
      let te = he_seconds ecc ~field_cal s in
      let td = he_seconds dl ~field_cal s in
      row (Printf.sprintf "%d-bit" ecc.Calibrate.security_bits) [ te; td; td /. te ])
    levels

(* Fig. 3(b): execution time on the paper's random 80-node / 320-edge
   topology (2 Mbps links, 50 ms latency), communication and computation
   both simulated.  The HE frameworks replay the n+4 rounds Runtime
   posts: each ring hop processes all n-1 foreign sets before it
   forwards one frame.  The SS baseline exchanges over a 12-byte field
   with kappa=30.  "SS-paper" costs the comparison at the Nishide-Ohta
   constants of the paper's analysis.  The topology comes from its own
   split of the bench stream (a split ignores the parent's position),
   so the network is the same whichever sections ran before. *)
let fig3b ~dl ~ecc ~field_cal () =
  let topo =
    Topology.random_connected
      (Rng.split rng ~label:"fig3b-topology")
      ~nodes:80 ~edges:320 ()
  in
  header "Fig 3(b): elapsed time with network (80 nodes, 320 edges)"
    [ "DL-1024 (s)"; "ECC-160 (s)"; "SS (s)"; "SS-paper (s)" ];
  List.iter
    (fun n ->
      let s = { default with n } in
      let l = beta_bits s in
      let hm = he_model ~l in
      let run_he (cal : Calibrate.group_cal) =
        let sched =
          Cost_model.He_model.schedule hm ~n ~elem_bytes:cal.Calibrate.elem_bytes
            ~scalar_bytes:cal.Calibrate.scalar_bytes ~mpe_target:cal.Calibrate.mpe
        in
        let placement = Netsim.place_parties topo ~parties:n in
        (Netsim.run topo ~placement
           (Cost.to_netsim ~seconds_per_op:cal.Calibrate.sec_per_mult sched))
          .Netsim.elapsed_s
      in
      let run_ss ~faithful =
        let sm = ss_net_model ~l in
        let sched =
          Cost_model.Ss_model.schedule ~faithful sm ~n ~field_bytes:12
        in
        let placement = Netsim.place_parties topo ~parties:n in
        (Netsim.run topo ~placement (Cost.to_netsim ~seconds_per_op:field_cal sched))
          .Netsim.elapsed_s
      in
      row (string_of_int n)
        [ run_he dl; run_he ecc; run_ss ~faithful:false; run_ss ~faithful:true ])
    [ 10; 20; 30; 40; 50; 60; 70 ]

(* §VI-B analysis: operation counts, rounds and traffic per party, with
   the paper's asymptotic formulas alongside. *)
let analysis () =
  header "Analysis (VI-B): per-party cost counters vs n (l from defaults)"
    [ "HE exps"; "HE rounds"; "HE Mbytes"; "SS mults"; "SS rounds"; "paper-SS" ];
  List.iter
    (fun n ->
      let s = { default with n } in
      let l = beta_bits s in
      let hm = he_model ~l in
      let exps = Cost_model.He_model.predict_exps hm ~n in
      let sched =
        Cost_model.He_model.schedule hm ~n ~elem_bytes:128 ~scalar_bytes:128
          ~mpe_target:1500.
      in
      let rounds = float_of_int (List.length sched) in
      let mbytes = float_of_int (Cost.total_bytes sched) /. 1e6 /. float_of_int n in
      let sm = ss_model ~l in
      let ss_mults = Cost_model.Ss_model.predict_party_field_mults sm ~n in
      let ss_rounds = Cost_model.Ss_model.predict_rounds sm ~n in
      let paper_ss = Cost_model.Ss_model.paper_analytic_party_mults ~n ~l in
      row (string_of_int n) [ exps; rounds; mbytes; ss_mults; ss_rounds; paper_ss ])
    [ 10; 25; 40; 55; 70 ]

(* Ablations called out in DESIGN.md §5. *)
let ablations () =
  (* (1) Suffix-sum vs naive omega circuit in step 7: the group ops of
     the circuit over every ordered pair of an n=6 session, and its
     end-to-end share of a clean session's total (with the naive
     circuit swapped in for the suffix one). *)
  let module G = (val Dl_group.dl_test_64 ()) in
  let module RT = Runtime.Make (G) in
  let n = 6 in
  header "Ablation: suffix-sum vs naive omega circuit (group ops, n=6)"
    [ "suffix ops"; "naive ops"; "ratio"; "suffix share"; "naive share" ];
  List.iter
    (fun l ->
      let betas =
        Array.init n (fun _ -> Rng.bigint_below rng (Ppgr_bigint.Bigint.nth_bit_weight l))
      in
      let total = float_of_int (Array.fold_left ( + ) 0 (RT.run rng ~l ~betas).RT.per_party_ops) in
      let bits = Array.map (fun b -> Ppgr_bigint.Bigint.bits_of b ~width:l) betas in
      let tbl = RT.E.keytable (snd (RT.E.keygen rng)) in
      let enc = Array.map (Array.map (RT.E.encrypt_exp_int_with rng tbl)) bits in
      let circuit_ops naive_omega =
        let s = G.op_count () in
        Array.iteri
          (fun j own_bits ->
            Array.iteri
              (fun i e -> if i <> j then ignore (RT.compare_circuit ~naive_omega ~l ~own_bits e))
              enc)
          bits;
        float_of_int (G.op_count () - s)
      in
      let fast = circuit_ops false and naive = circuit_ops true in
      row (Printf.sprintf "l=%d" l)
        [ fast; naive; naive /. fast; fast /. total; naive /. (total -. fast +. naive) ])
    [ 16; 32; 64; 96 ];
  (* (2) Karatsuba cutoff. *)
  header "Ablation: multiplication time vs bits (Karatsuba on)" [ "ns/mult" ];
  let open Ppgr_bigint in
  List.iter
    (fun bits ->
      let a = Rng.bigint_bits rng bits and b = Rng.bigint_bits rng bits in
      let t = Calibrate.time_per_call (fun () -> ignore (Bigint.mul a b)) in
      row (string_of_int bits) [ t *. 1e9 ])
    [ 256; 1024; 4096; 16384 ];
  (* (3) Montgomery vs division-based exponentiation. *)
  header "Ablation: 1024-bit modexp, Montgomery vs divide-and-reduce" [ "ms/exp" ];
  let m = Modp_params.p_1024 in
  let b = Rng.bigint_below rng m and e = Rng.bigint_below rng m in
  let mont = Calibrate.time_per_call (fun () -> ignore (Bigint.powmod b e m)) in
  let plain () =
    (* Square-and-multiply with explicit Euclidean reductions. *)
    let acc = ref Bigint.one in
    for i = Bigint.numbits e - 1 downto 0 do
      acc := Bigint.erem (Bigint.mul !acc !acc) m;
      if Bigint.testbit e i then acc := Bigint.erem (Bigint.mul !acc b) m
    done;
    !acc
  in
  let naive = Calibrate.time_per_call ~min_time:0.5 (fun () -> ignore (plain ())) in
  row "montgomery" [ mont *. 1e3 ];
  row "divide" [ naive *. 1e3 ];
  (* (4) wNAF vs plain binary scalar multiplication on ECC-160. *)
  header "Ablation: ECC-160 scalar mult, wNAF-4 vs double-and-add" [ "point ops" ];
  let module E160 = (val Ec_group.ecc_160 ()) in
  let x = E160.pow_gen (E160.random_scalar rng) in
  let s = E160.op_count () in
  for _ = 1 to 20 do
    ignore (E160.pow x (E160.random_scalar rng))
  done;
  let wnaf_ops = float_of_int (E160.op_count () - s) /. 20. in
  (* Binary double-and-add through the group interface. *)
  let binary_pow e =
    let open Ppgr_bigint in
    let acc = ref E160.identity in
    for i = Bigint.numbits e - 1 downto 0 do
      acc := E160.mul !acc !acc;
      if Bigint.testbit e i then acc := E160.mul !acc x
    done;
    !acc
  in
  let s = E160.op_count () in
  for _ = 1 to 20 do
    ignore (binary_pow (E160.random_scalar rng))
  done;
  let bin_ops = float_of_int (E160.op_count () - s) /. 20. in
  row "wNAF-4" [ wnaf_ops ];
  row "binary" [ bin_ops ]
