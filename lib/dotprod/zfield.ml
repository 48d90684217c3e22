(** A prime field [Z_P] with convenience vector/matrix operations, used
    by the secure dot-product protocol and the Shamir substrate.

    Values are canonical integers in [[0, P)]; signed quantities map in
    and out through a centered representation ([rep > P/2] reads as
    [rep - P]).  Multiplication goes through a cached Montgomery context
    for speed; a field-multiplication counter backs the SS cost model. *)

open Ppgr_bigint

type t = {
  p : Bigint.t;
  ring : Bigint.Modring.ctx;
  half : Bigint.t; (* floor(P/2), the signed-decoding threshold *)
  mults : Ppgr_exec.Meter.t; (* per-domain lanes, merged on read *)
}

let create p =
  if Bigint.sign p <= 0 || Bigint.is_even p then
    invalid_arg "Zfield.create: modulus must be an odd prime";
  {
    p;
    ring = Bigint.Modring.ctx ~modulus:p;
    half = Bigint.shift_right p 1;
    mults = Ppgr_exec.Meter.create ();
  }

(* A fixed 192-bit prime (2^192 - 237): the default field, large enough
   for every masked gain in the evaluation settings. *)
let default_prime =
  Bigint.sub (Bigint.nth_bit_weight 192) (Bigint.of_int 237)

let default () = create default_prime

let modulus f = f.p
let ring f = f.ring
let mult_count f = Ppgr_exec.Meter.read f.mults
let reset_mult_count f = Ppgr_exec.Meter.reset f.mults
let count_mults f k = Ppgr_exec.Meter.add f.mults k

let reduce f v = Bigint.erem v f.p
let of_int f v = reduce f (Bigint.of_int v)
let add f a b = reduce f (Bigint.add a b)
let sub f a b = reduce f (Bigint.sub a b)
let neg f a = reduce f (Bigint.neg a)

let mul f a b =
  Ppgr_exec.Meter.incr f.mults;
  let open Bigint.Modring in
  leave f.ring (mul f.ring (enter f.ring a) (enter f.ring b))

let inv f a = Bigint.invmod a f.p

let div f a b = mul f a (inv f b)

let pow f a e =
  Bigint.powmod a e f.p

let equal (_ : t) a b = Bigint.equal a b

(* Signed decoding: representative in (-P/2, P/2]. *)
let to_signed f v =
  let v = reduce f v in
  if Bigint.compare v f.half > 0 then Bigint.sub v f.p else v

let of_signed f v = reduce f v

let random rng f = Ppgr_rng.Rng.bigint_below rng f.p

let random_nonzero rng f =
  Bigint.succ (Ppgr_rng.Rng.bigint_below rng (Bigint.pred f.p))

(** {1 Vectors} *)

let vec_add f a b = Array.map2 (add f) a b
let vec_sub f a b = Array.map2 (sub f) a b
let vec_scale f k a = Array.map (mul f k) a

let dot f a b =
  if Array.length a <> Array.length b then invalid_arg "Zfield.dot: dimension mismatch";
  let acc = ref Bigint.zero in
  for i = 0 to Array.length a - 1 do
    acc := add f !acc (mul f a.(i) b.(i))
  done;
  !acc

let random_vec rng f n = Array.init n (fun _ -> random rng f)

(** {1 Matrices} (dense, row-major [m.(row).(col)]) *)

type mat = Bigint.t array array

let mat_random rng f ~rows ~cols : mat =
  Array.init rows (fun _ -> random_vec rng f cols)

let mat_vec f (m : mat) v =
  Array.map (fun row -> dot f row v) m

let mat_mul f (a : mat) (b : mat) : mat =
  let rows = Array.length a and inner = Array.length b in
  if inner = 0 then invalid_arg "Zfield.mat_mul: empty";
  let cols = Array.length b.(0) in
  Array.init rows (fun i ->
      Array.init cols (fun j ->
          let acc = ref Bigint.zero in
          for k = 0 to inner - 1 do
            acc := add f !acc (mul f a.(i).(k) b.(k).(j))
          done;
          !acc))

let col_sums f (m : mat) =
  if Array.length m = 0 then [||]
  else begin
    let cols = Array.length m.(0) in
    Array.init cols (fun j ->
        let acc = ref Bigint.zero in
        for i = 0 to Array.length m - 1 do
          acc := add f !acc m.(i).(j)
        done;
        !acc)
  end
