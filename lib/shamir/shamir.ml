(** (t, n) Shamir secret sharing over a prime field.

    A secret [s] is hidden as the constant term of a random degree-[t]
    polynomial; party [i] (1-indexed) holds the evaluation at [x = i].
    Any [t+1] shares reconstruct [s] by Lagrange interpolation at 0; [t]
    shares reveal nothing.  The multiplication protocol of the MPC engine
    needs [n >= 2t + 1].

    The arithmetic runs on Montgomery limbs over the field's cached
    context ({!Zfield.ring}) through the allocation-free [_into]
    kernels, and every multiplication is reported to the field's meter.
    The MPC engine keeps its shares in that form and calls the limb
    functions directly; {!share} and {!reconstruct} are their
    {!Bigint.t} entry points, converting only at the edges. *)

open Ppgr_bigint
open Ppgr_dotprod
module M = Bigint.Modring

(** {1 Limb form} *)

(** The evaluation points [1..n]. *)
let points f n = Array.init n (fun i -> M.of_int (Zfield.ring f) (i + 1))

(** [share_into rng f ~coeffs ~xs secret dst] deals a fresh sharing of
    [secret]: [dst.(j)] becomes the share at [xs.(j)].  [coeffs] is
    scratch for the [t+1] coefficients of the degree-[t] polynomial;
    coefficients [1..t] are drawn in index order.  Each point is a
    Horner evaluation from a zero accumulator, [t+1] multiplications. *)
let share_into rng f ~(coeffs : M.elt array) ~(xs : M.elt array) secret
    (dst : M.elt array) =
  let ring = Zfield.ring f in
  let deg = Array.length coeffs - 1 in
  M.copy_into ring coeffs.(0) secret;
  for k = 1 to deg do
    M.enter_into ring coeffs.(k) (Zfield.random rng f)
  done;
  Zfield.count_mults f (Array.length xs * (deg + 1));
  for j = 0 to Array.length xs - 1 do
    let acc = dst.(j) in
    M.zero_into ring acc;
    for k = deg downto 0 do
      M.mul_into ring acc acc xs.(j);
      M.add_into ring acc acc coeffs.(k)
    done
  done

(** Lagrange weights at 0 for the points [xs]:
    [w_i = Π_{j≠i} x_j / (x_j - x_i)], [2(m-1) + 1] multiplications
    each.  @raise Division_by_zero on a repeated point. *)
let lagrange_at_zero f (xs : M.elt array) =
  let ring = Zfield.ring f in
  let m = Array.length xs in
  let d = M.alloc ring in
  Array.mapi
    (fun i xi ->
      let num = M.one ring and den = M.one ring in
      for j = 0 to m - 1 do
        if j <> i then begin
          M.mul_into ring num num xs.(j);
          M.sub_into ring d xs.(j) xi;
          M.mul_into ring den den d
        end
      done;
      M.inv_into ring den den;
      M.mul_into ring num num den;
      Zfield.count_mults f ((2 * (m - 1)) + 1);
      num)
    xs

(** [Σ_i w_i s_i]: the secret behind shares [s] at the points the
    weights [ws] were made for. *)
let interpolate f (ws : M.elt array) (s : M.elt array) =
  let ring = Zfield.ring f in
  let acc = M.alloc ring and term = M.alloc ring in
  Zfield.count_mults f (Array.length ws);
  for i = 0 to Array.length ws - 1 do
    M.mul_into ring term ws.(i) s.(i);
    M.add_into ring acc acc term
  done;
  acc

(** {1 Integer form} *)

(** [share rng f ~t ~n s] returns [n] shares, index [i] belonging to
    party [i+1] (evaluation point [i+1]). *)
let share (rng : Ppgr_rng.Rng.t) f ~t ~n secret =
  if t < 0 || n < t + 1 then invalid_arg "Shamir.share: need n >= t + 1";
  let ring = Zfield.ring f in
  let dst = Array.init n (fun _ -> M.alloc ring) in
  share_into rng f
    ~coeffs:(Array.init (t + 1) (fun _ -> M.alloc ring))
    ~xs:(points f n) (M.enter ring secret) dst;
  Array.map (M.leave ring) dst

(** Reconstruct from (party-id, share) pairs; needs at least [t+1] of
    them and interpolates through all provided points. *)
let reconstruct f points =
  let ring = Zfield.ring f in
  let ws = lagrange_at_zero f (Array.map (fun (id, _) -> M.of_int ring id) points) in
  M.leave ring (interpolate f ws (Array.map (fun (_, s) -> M.enter ring s) points))

(** Reconstruct taking the first [t+1] of a full share vector. *)
let reconstruct_first f ~t shares =
  reconstruct f (Array.init (t + 1) (fun i -> (i + 1, shares.(i))))
