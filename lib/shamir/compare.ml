(** Secure comparison of shared [l]-bit integers.

    This is the SS comparison primitive the baseline framework builds on
    (the role played by Nishide–Ohta [5] in the paper).  We use the
    classical masked-open bit-extraction construction, which has the same
    O(l) multiplication asymptotics; {!nishide_ohta_mults} exposes the
    paper's published constant (279l + 5) for the analytic curves, and
    EXPERIMENTS.md discusses the constant-factor difference.

    To compute [x >= y] for shared [x, y] in [[0, 2^l)]:

    + form [z = 2^l + x - y], a positive integer below [2^(l+1)] whose
      bit [l] is exactly [x >= y];
    + mask: jointly generate random shared bits [r_i] for
      [i < l + 1 + kappa], open [m = z + r] (no field wrap-around, so the
      sum holds over the integers and [m] statistically hides [z]);
    + un-mask bit [l]: over the integers
      [z div 2^l = m div 2^l - r div 2^l - u] with
      [u = [m mod 2^l < r mod 2^l]] the borrow out of the low bits, and
      the left side is 0 or 1 — so shares of bit [l] follow linearly from
      the shared high bits of [r] and one bitwise-less-than. *)

open Ppgr_bigint
open Ppgr_dotprod

type params = {
  l : int; (* inputs are l-bit *)
  kappa : int; (* statistical masking bits *)
}

let default_params ~l () = { l; kappa = 40 }

(** Number of multiplication-protocol invocations Nishide–Ohta [5] needs
    per comparison; used for the paper-faithful analytic cost curves. *)
let nishide_ohta_mults ~l = (279 * l) + 5

let check_field_large_enough e prm =
  let need = prm.l + 2 + prm.kappa in
  if Bigint.numbits (Zfield.modulus (Engine.field e)) <= need then
    invalid_arg "Compare: field too small for l + kappa"

(* OR of two shared bits: a + b - ab (one multiplication). *)
let or_batch e pairs =
  let prods = Engine.mul_batch e pairs in
  List.map2
    (fun (a, b) ab -> Engine.sub e (Engine.add e a b) ab)
    pairs prods

(* Suffix ORs by parallel doubling: out.(i) = OR(d_i .. d_{l-1}) in
   ceil(log2 l) rounds and about l log2 l multiplications. *)
let suffix_or_log e (d : Engine.shared array) =
  let l = Array.length d in
  let cur = ref (Array.copy d) in
  let gap = ref 1 in
  while !gap < l do
    let idx = ref [] in
    for i = l - 1 - !gap downto 0 do
      idx := i :: !idx
    done;
    let pairs = List.map (fun i -> ((!cur).(i), (!cur).(i + !gap))) !idx in
    let ors = or_batch e pairs in
    let next = Array.copy !cur in
    List.iter2 (fun i v -> next.(i) <- v) !idx ors;
    cur := next;
    gap := 2 * !gap
  done;
  !cur

(** [bit_lt_public e ~a_bits ~b_bits] computes shares of [a < b] where
    [a] is public and [b] is given as shared bits, both little-endian of
    equal length, via a most-significant-first prefix-OR over the XOR
    difference. *)
let bit_lt_public e ~(a_bits : int array) ~(b_bits : Engine.shared array) =
  let l = Array.length a_bits in
  if Array.length b_bits <> l then invalid_arg "Compare.bit_lt_public: length mismatch";
  if l = 0 then Engine.of_public e Bigint.zero
  else begin
    (* d_i = a_i XOR b_i, linear because a_i is public. *)
    let d =
      Array.init l (fun i ->
          if a_bits.(i) = 0 then b_bits.(i)
          else Engine.add_public e (Engine.neg e b_bits.(i)) Bigint.one)
    in
    let suffix = suffix_or_log e d in
    let prefix = Array.make (l + 1) (Engine.of_public e Bigint.zero) in
    Array.blit suffix 0 prefix 0 l;
    (* e_i = prefix_i - prefix_{i+1} marks the highest differing bit;
       a < b iff b has a 1 there. *)
    let products =
      Engine.mul_batch e
        (List.init l (fun i ->
             (Engine.sub e prefix.(i) prefix.(i + 1), b_bits.(i))))
    in
    List.fold_left (Engine.add e) (Engine.of_public e Bigint.zero) products
  end

(** Shares of the bit [x >= y], for shared [x, y] in [[0, 2^l)]. *)
let ge e prm (x : Engine.shared) (y : Engine.shared) : Engine.shared =
  check_field_large_enough e prm;
  let l = prm.l in
  let lz = l + 1 in
  (* z = 2^l + x - y. *)
  let z = Engine.add_public e (Engine.sub e x y) (Bigint.nth_bit_weight l) in
  let r_bits, r = Engine.random_bits e (lz + prm.kappa) in
  let m = Engine.open_ e (Engine.add e z r) in
  (* High parts. *)
  let m_div = Bigint.shift_right m l in
  let r_high =
    (* Σ_{i >= l} 2^(i-l) r_i. *)
    let acc = ref (Engine.of_public e Bigint.zero) in
    for i = lz + prm.kappa - 1 downto l do
      acc := Engine.add e (Engine.scale e (Bigint.of_int 2) !acc) r_bits.(i)
    done;
    !acc
  in
  let m_low_bits = Bigint.bits_of (Bigint.erem m (Bigint.nth_bit_weight l)) ~width:l in
  let u =
    bit_lt_public e ~a_bits:m_low_bits ~b_bits:(Array.sub r_bits 0 l)
  in
  (* bit_l(z) = m_div - r_high - u  (an exact 0/1 integer identity). *)
  Engine.sub e (Engine.sub e (Engine.of_public e m_div) r_high) u
