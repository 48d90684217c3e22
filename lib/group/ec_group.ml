(** Wrap an elliptic curve (prime-order base-point subgroup) as a
    {!Group_intf.GROUP}.  A "group multiplication" in the op counter is a
    point addition or doubling, the unit of the paper's ECC cost model. *)

open Ppgr_bigint
open Ppgr_rng

module Make (P : sig
  val params : Ec_curve.params
end) : Group_intf.GROUP = struct
  let cv = Ec_curve.make_curve P.params
  let name = P.params.Ec_curve.name
  let security_bits = P.params.Ec_curve.security_bits

  type element = Ec_curve.point

  let order = P.params.Ec_curve.n
  let generator = Ec_curve.base_point cv
  let identity = Ec_curve.infinity cv
  let mul a b = Ec_curve.add cv a b
  let inv a = Ec_curve.neg cv a
  let inv_batch a = Array.map inv a
  let pow x e = Ec_curve.scalar_mul cv x e

  type powtable = Ec_curve.powtable

  let order_bits = Bigint.numbits order
  let powtable pt = Ec_curve.make_powtable cv pt ~bits:order_bits
  let pow_table t e = Ec_curve.scalar_mul_table cv t e
  let pow2 a e b f = Ec_curve.scalar_mul2 cv a e b f
  let pow2_pow_batch a e b f = Ec_curve.pow2_pow_batch cv a e b f

  (* Cached fixed-base table for the generator, built on first use.
     Double-checked mutex memo: [Lazy.force] is unsafe under concurrent
     forcing from pool workers. *)
  let gen_table = Atomic.make None
  let gen_table_lock = Mutex.create ()

  let gen_powtable () =
    match Atomic.get gen_table with
    | Some t -> t
    | None ->
        Mutex.lock gen_table_lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock gen_table_lock)
          (fun () ->
            match Atomic.get gen_table with
            | Some t -> t
            | None ->
                let t = powtable generator in
                Atomic.set gen_table (Some t);
                t)

  let pow_gen e = pow_table (gen_powtable ()) e
  let equal a b = Ec_curve.equal cv a b
  let is_identity x = Ec_curve.is_infinity cv x

  let field_p = P.params.Ec_curve.p
  let fbytes = (Bigint.numbits field_p + 7) / 8
  let element_bytes = 1 + (2 * fbytes)

  let affine_bytes aff =
    let out = Bytes.make element_bytes '\000' in
    (match aff with
    | None -> () (* infinity: all-zero encoding with tag 0 *)
    | Some (ax, ay) ->
        Bytes.set out 0 '\004';
        Bytes.blit (Bigint.to_bytes_be_padded fbytes ax) 0 out 1 fbytes;
        Bytes.blit (Bigint.to_bytes_be_padded fbytes ay) 0 out (1 + fbytes) fbytes);
    out

  let to_bytes pt = affine_bytes (Ec_curve.to_affine cv pt)

  (* One Montgomery batch inversion normalizes the whole array, so a
     wire message's Jacobian→affine cost is one field inversion per
     batch instead of one per point. *)
  let to_bytes_batch pts =
    Array.map affine_bytes (Ec_curve.to_affine_batch cv pts)

  let of_bytes b =
    if Bytes.length b <> element_bytes then None
    else begin
      match Bytes.get b 0 with
      | '\000' ->
          (* Strict: the identity has exactly one encoding (all zero).
             Accepting garbage after the tag would make the map
             bytes -> element non-injective on valid inputs. *)
          let rec all_zero i =
            i >= element_bytes || (Bytes.get b i = '\000' && all_zero (i + 1))
          in
          if all_zero 1 then Some identity else None
      | '\004' ->
          (* One encoding per point: a coordinate is a field element,
             so x + p, which [of_affine] would reduce to x, is refused.
             The equation is checked on the parsed coordinates, with no
             inversion. *)
          let ax = Bigint.of_bytes_be (Bytes.sub b 1 fbytes) in
          let ay = Bigint.of_bytes_be (Bytes.sub b (1 + fbytes) fbytes) in
          if Bigint.compare ax field_p >= 0 || Bigint.compare ay field_p >= 0
          then None
          else
            let pt = Ec_curve.of_affine cv ax ay in
            if Ec_curve.affine_on_curve cv pt.Ec_curve.x pt.Ec_curve.y then Some pt
            else None
      | _ -> None
    end

  let pp fmt pt =
    match Ec_curve.to_affine cv pt with
    | None -> Format.pp_print_string fmt "O"
    | Some (ax, ay) -> Format.fprintf fmt "(%a, %a)" Bigint.pp ax Bigint.pp ay

  let random_scalar rng = Bigint.succ (Rng.bigint_below rng (Bigint.pred order))
  let op_count () = Ppgr_exec.Meter.read cv.Ec_curve.ops

  let probes =
    [ ("field_invs", fun () -> Ppgr_exec.Meter.read cv.Ec_curve.invs) ]
end

let of_params params : Group_intf.group =
  (module Make (struct
    let params = params
  end))

let ecc_160 () = of_params Ec_params.secp160r1
let ecc_192 () = of_params Ec_params.secp192r1
let ecc_224 () = of_params Ec_params.secp224r1
let ecc_256 () = of_params Ec_params.secp256r1
let ecc_tiny () = of_params (Ec_params.tiny ())
