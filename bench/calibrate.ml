(* Wall-clock calibration of the primitive operations the cost models
   scale by: seconds per group multiplication, multiplications per full
   exponentiation, seconds per field multiplication.  The seconds are
   medians of interleaved passes, printed with their min-max. *)

open Ppgr_bigint
open Ppgr_group
open Ppgr_grouprank

type group_cal = {
  g_name : string;
  security_bits : int;
  sec_per_mult : float; (* median of the interleaved passes *)
  spm_min : float;
  spm_max : float;
  mpe : float; (* group multiplications per full exponentiation *)
  mpe_fixed : float; (* same, fixed-base via the cached generator table *)
  elem_bytes : int;
  scalar_bytes : int;
}

(* The field's seconds per multiplication: median and spread. *)
type field_cal = { f_median : float; f_min : float; f_max : float }

let time_per_call ?(min_time = 0.2) f =
  (* Run [f] in growing batches until [min_time] elapses. *)
  let rec go batch =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= min_time then dt /. float_of_int batch else go (batch * 4)
  in
  go 16

(* Timing passes per calibration.  One pass times every group's
   multiplication and then the field's, so a slow spell of a shared host
   lands on one sample of each rather than on every sample of one; the
   median of the passes is the price the figures use. *)
let passes = 5
let pass_time = 0.1

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let k = Array.length a in
  if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

let spread xs = (median xs, List.fold_left min infinity xs, List.fold_left max neg_infinity xs)

(* One group's multiplication timer and its operation counts. *)
let group_probe (g : Group_intf.group) rng =
  let module G = (val g) in
  let a = G.pow_gen (G.random_scalar rng) in
  let b = G.pow_gen (G.random_scalar rng) in
  let acc = ref a in
  let time () = time_per_call ~min_time:pass_time (fun () -> acc := G.mul !acc b) in
  let mpe = Cost_model.He_model.measure_mpe g ~samples:30 rng in
  let mpe_fixed =
    (* Warm the cached generator table first so its one-time
       construction cost is not averaged into the per-exponentiation
       figure. *)
    let samples = 30 in
    ignore (G.pow_gen (G.random_scalar rng));
    let s = G.op_count () in
    for _ = 1 to samples do
      ignore (G.pow_gen (G.random_scalar rng))
    done;
    float_of_int (G.op_count () - s) /. float_of_int samples
  in
  let finish samples =
    let med, lo, hi = spread samples in
    {
      g_name = G.name;
      security_bits = G.security_bits;
      sec_per_mult = med;
      spm_min = lo;
      spm_max = hi;
      mpe;
      mpe_fixed;
      elem_bytes = G.element_bytes;
      scalar_bytes = (Bigint.numbits G.order + 7) / 8;
    }
  in
  (time, finish)

(** Calibrate [groups] and the field in [passes] interleaved passes:
    the groups' calibrations in order, and the field's. *)
let run (groups : Group_intf.group list) rng : group_cal list * field_cal =
  let probes = List.map (fun g -> group_probe g rng) groups in
  let f = Ppgr_dotprod.Zfield.default () in
  let fa = Ppgr_dotprod.Zfield.random rng f in
  let fb = Ppgr_dotprod.Zfield.random rng f in
  let facc = ref fa in
  let field_time () =
    time_per_call ~min_time:pass_time (fun () -> facc := Ppgr_dotprod.Zfield.mul f !facc fb)
  in
  let samples = Array.make (List.length probes) [] and field = ref [] in
  for _ = 1 to passes do
    List.iteri (fun i (time, _) -> samples.(i) <- time () :: samples.(i)) probes;
    field := field_time () :: !field
  done;
  let f_median, f_min, f_max = spread !field in
  (List.mapi (fun i (_, finish) -> finish samples.(i)) probes, { f_median; f_min; f_max })

let pp_group_cal fmt c =
  Format.fprintf fmt
    "%-10s  %3d-bit sec  %10.3g s/mult (%.3g-%.3g)  %7.1f mult/exp  %8.3g s/exp  %7.1f mult/fixed-exp"
    c.g_name c.security_bits c.sec_per_mult c.spm_min c.spm_max c.mpe
    (c.sec_per_mult *. c.mpe)
    c.mpe_fixed
