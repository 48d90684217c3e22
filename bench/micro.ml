(* Bechamel micro-benchmarks: one [Test.make] per figure workload plus
   the cryptographic primitives everything reduces to.  These measure
   actual wall-clock on this machine; the figure sweeps in {!Figures}
   scale them through the cost models. *)

open Bechamel
open Toolkit
open Ppgr_bigint
open Ppgr_rng
open Ppgr_group
open Ppgr_grouprank

let rng = Rng.create ~seed:"ppgr-micro"

let primitive_tests () =
  let m1024 = Modp_params.p_1024 in
  let a = Rng.bigint_below rng m1024 and b = Rng.bigint_below rng m1024 in
  let ring = Bigint.Modring.ctx ~modulus:m1024 in
  let am = Bigint.Modring.enter ring a and bm = Bigint.Modring.enter ring b in
  (* ECC-160's base field, three limbs: the in-place ops the curve
     formulas run, one row each. *)
  let p160 = Ec_params.secp160r1.Ec_curve.p in
  let f160 = Bigint.Modring.ctx ~modulus:p160 in
  let fx = Bigint.Modring.enter f160 (Rng.bigint_below rng p160) in
  let fy = Bigint.Modring.enter f160 (Rng.bigint_below rng p160) in
  let fd = Bigint.Modring.alloc f160 in
  let module Dl = (val Dl_group.dl_1024 ()) in
  let module Ec = (val Ec_group.ecc_160 ()) in
  let dl_x = Dl.pow_gen (Dl.random_scalar rng) in
  let dl_y = Dl.pow_gen (Dl.random_scalar rng) in
  let ec_x = Ec.pow_gen (Ec.random_scalar rng) in
  let ec_y = Ec.pow_gen (Ec.random_scalar rng) in
  let dl_e = Dl.random_scalar rng and ec_e = Ec.random_scalar rng in
  let dl_f = Dl.random_scalar rng and ec_f = Ec.random_scalar rng in
  let f = Ppgr_dotprod.Zfield.default () in
  let fa = Ppgr_dotprod.Zfield.random rng f and fb = Ppgr_dotprod.Zfield.random rng f in
  let key = Rng.bytes rng 32 and nonce = Rng.bytes rng 12 in
  let block = Bytes.create 64 in
  [
    Test.make ~name:"bigint-mul-1024b" (Staged.stage (fun () -> ignore (Bigint.mul a b)));
    Test.make ~name:"montgomery-mult-1024b"
      (Staged.stage (fun () -> ignore (Bigint.Modring.mul ring am bm)));
    Test.make ~name:"ecc160-field-mul"
      (Staged.stage (fun () -> Bigint.Modring.mul_into f160 fd fx fy));
    Test.make ~name:"ecc160-field-sqr" (Staged.stage (fun () -> Bigint.Modring.sqr_into f160 fd fx));
    (* A hundred adds per sample: one costs about what Bechamel's own
       per-call overhead does, which would otherwise set the number. *)
    Test.make ~name:"ecc160-field-add-x100"
      (Staged.stage (fun () ->
           for _ = 1 to 100 do
             Bigint.Modring.add_into f160 fd fx fy
           done));
    Test.make ~name:"ecc160-field-inv" (Staged.stage (fun () -> Bigint.Modring.inv_into f160 fd fx));
    Test.make ~name:"dl1024-group-mult" (Staged.stage (fun () -> ignore (Dl.mul dl_x dl_x)));
    Test.make ~name:"dl1024-exp" (Staged.stage (fun () -> ignore (Dl.pow dl_x dl_e)));
    Test.make ~name:"dl1024-exp-fixed-base"
      (Staged.stage (fun () -> ignore (Dl.pow_gen dl_e)));
    Test.make ~name:"dl1024-pow2"
      (Staged.stage (fun () -> ignore (Dl.pow2 dl_x dl_e dl_y dl_f)));
    Test.make ~name:"ecc160-point-add" (Staged.stage (fun () -> ignore (Ec.mul ec_x ec_x)));
    Test.make ~name:"ecc160-scalar-mult" (Staged.stage (fun () -> ignore (Ec.pow ec_x ec_e)));
    Test.make ~name:"ecc160-scalar-mult-fixed-base"
      (Staged.stage (fun () -> ignore (Ec.pow_gen ec_e)));
    Test.make ~name:"ecc160-pow2"
      (Staged.stage (fun () -> ignore (Ec.pow2 ec_x ec_e ec_y ec_f)));
    Test.make ~name:"zfield-mult-192b"
      (Staged.stage (fun () -> ignore (Ppgr_dotprod.Zfield.mul f fa fb)));
    Test.make ~name:"sha256-block" (Staged.stage (fun () -> ignore (Ppgr_hash.Sha256.digest_bytes block)));
    Test.make ~name:"chacha20-block"
      (Staged.stage (fun () -> ignore (Ppgr_rng.Chacha20.block ~key ~nonce ~counter:0)));
  ]

(* One Test.make per figure: the unit workload that figure sweeps. *)
let figure_tests () =
  let spec = Attrs.spec ~m:10 ~t:5 ~d1:15 ~d2:10 in
  let criterion = Attrs.random_criterion rng spec in
  let info = Attrs.random_info rng spec in
  let p1cfg = Phase1.config ~spec ~h:15 () in
  let secrets = Phase1.draw_masks rng p1cfg ~n:1 in
  let module G = (val Dl_group.dl_test_64 ()) in
  let module RT = Runtime.Make (G) in
  let l = Phase1.beta_bits p1cfg in
  let betas5 = Array.init 5 (fun _ -> Rng.bigint_below rng (Bigint.nth_bit_weight l)) in
  let labels = RT.make_labels ~n:5 ~l in
  let field = Ppgr_dotprod.Zfield.default () in
  let engine () = Ppgr_shamir.Engine.create rng field ~n:5 in
  let prm = { Ppgr_shamir.Compare.l = 16; kappa = 40 } in
  let topo_rng = Rng.split rng ~label:"topo" in
  [
    (* Fig 2(a-d) unit: one secure gain computation + one phase-2 session. *)
    Test.make ~name:"fig2-unit-phase1-interaction"
      (Staged.stage (fun () ->
           ignore (Phase1.run_one rng p1cfg ~criterion ~secrets ~j:0 ~info)));
    Test.make ~name:"fig2-unit-ring-n5"
      (Staged.stage (fun () -> ignore (RT.run rng ~l ~betas:betas5)));
    (* Fig 3(a) unit: one full-size exponentiation at each level is the
       dominant term; covered by dl1024-exp/ecc160-scalar-mult above;
       here one party's step 5 (key pair, key proof, announcements). *)
    Test.make ~name:"fig3a-unit-keygen-and-proof"
      (Staged.stage (fun () ->
           ignore (RT.create_party ~index:0 ~n:5 ~l ~labels ~beta:Bigint.zero rng)));
    (* Fig 3(b) unit: routing + event simulation of one broadcast round. *)
    Test.make ~name:"fig3b-unit-netsim-round"
      (Staged.stage (fun () ->
           let topo =
             Ppgr_mpcnet.Topology.random_connected topo_rng ~nodes:20 ~edges:40 ()
           in
           let placement = Ppgr_mpcnet.Netsim.place_parties topo ~parties:10 in
           ignore
             (Ppgr_mpcnet.Netsim.run topo ~placement
                [
                  {
                    Ppgr_mpcnet.Netsim.compute_s = 0.;
                    messages = Ppgr_mpcnet.Netsim.all_broadcast ~parties:10 ~bytes:1024;
                  };
                ])));
    (* Analysis-table unit: one SS comparator (comparison + exchange). *)
    Test.make ~name:"analysis-unit-ss-comparator"
      (Staged.stage (fun () ->
           let e = engine () in
           let x = Ppgr_shamir.Engine.input e (Bigint.of_int 123) in
           let y = Ppgr_shamir.Engine.input e (Bigint.of_int 456) in
           ignore (Ppgr_shamir.Compare.ge e prm x y)));
  ]

let run () =
  let tests = Test.make_grouped ~name:"ppgr" ~fmt:"%s %s" (primitive_tests () @ figure_tests ()) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n== Bechamel micro-benchmarks (monotonic clock) ==\n";
  Printf.printf "%-40s %16s\n" "benchmark" "time/run";
  let rows = ref [] in
  Hashtbl.iter (fun name result -> rows := (name, result) :: !rows) results;
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
          let pretty =
            if est > 1e6 then Printf.sprintf "%10.3f ms" (est /. 1e6)
            else if est > 1e3 then Printf.sprintf "%10.3f us" (est /. 1e3)
            else Printf.sprintf "%10.1f ns" est
          in
          Printf.printf "%-40s %16s\n" name pretty
      | _ -> Printf.printf "%-40s %16s\n" name "n/a")
    (List.sort compare !rows)
