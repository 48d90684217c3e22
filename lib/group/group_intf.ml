(** The abstract prime-order group the framework is built on.

    The paper needs a multiplicative group [G_q] of prime order [q] in
    which the decisional Diffie–Hellman problem is hard (§IV-B), with two
    concrete families: quadratic residues modulo a safe prime ("DL") and
    a prime-order elliptic-curve subgroup ("ECC").

    Every implementation counts group operations ([mul] and the operations
    a [pow] expands to), which is the cost metric of the paper's §VI-B
    analysis; the benchmark harness reads {!val-op_count}. *)

open Ppgr_bigint
open Ppgr_rng

module type GROUP = sig
  val name : string

  val security_bits : int
  (** Equivalent symmetric security level (80/112/128) per the NIST
      guidance the paper cites. *)

  type element

  val order : Bigint.t
  (** The prime order [q] of the group. *)

  val generator : element
  val identity : element
  val mul : element -> element -> element
  val inv : element -> element

  val inv_batch : element array -> element array
  (** [inv_batch a] equals [Array.map inv a].  The DL family inverts the
      whole array with Montgomery's trick (one inversion and [3(k-1)]
      multiplications for [k] elements, each ticked); the EC family's
      inversion is a point negation, so it maps {!inv}. *)

  val pow : element -> Bigint.t -> element
  (** [pow x e] for any integer [e] (reduced modulo {!order}). *)

  val pow_gen : Bigint.t -> element
  (** [pow_gen e = pow generator e].  Served from a cached fixed-base
      table for the generator (built lazily on first use), so repeated
      generator exponentiations cost a fraction of a variable-base
      {!pow}. *)

  type powtable
  (** Precomputed fixed-base window table for one base element.
      Building the table costs a few variable-base exponentiations'
      worth of group multiplications (every one ticks the op counter);
      each subsequent {!pow_table} call then needs no squarings at all,
      roughly a 4-5x multiplication cut at 1024-bit sizes. *)

  val powtable : element -> powtable
  (** [powtable x] precomputes the fixed-base table for [x]. *)

  val pow_table : powtable -> Bigint.t -> element
  (** [pow_table t e = pow x e] where [t = powtable x]; any integer [e]
      (reduced modulo {!order}). *)

  val pow2 : element -> Bigint.t -> element -> Bigint.t -> element
  (** [pow2 a e b f = mul (pow a e) (pow b f)] via Shamir's trick
      (interleaved window recodings with a shared squaring chain): ~1.3x
      the cost of one exponentiation instead of 2x. *)

  val pow2_pow_batch :
    element array -> Bigint.t array -> element array -> Bigint.t array -> unit
  (** [pow2_pow_batch a e b f] replaces, for every [k], [a.(k)] by
      [pow2 a.(k) e.(k) b.(k) f.(k)] and [b.(k)] by [pow b.(k) e.(k)]
      (four arrays of one length; [a] and [b] distinct): the two
      exponentiations of a strip-and-blind decryption, for a whole ring
      hop at once.  Results overwrite their inputs so that a batch
      holds no second copy of the hop.  The DL family runs them per
      element over the domain pool, since its exponentiation inverts
      nothing and a batch would share nothing.  The EC family runs
      chunks of lockstep affine ladders with one field inversion per
      step across the chunk, and b's odd multiples serve both outputs
      (DESIGN.md §5h). *)

  val equal : element -> element -> bool
  (** Group equality.  The DL family compares up to sign ([x] and
      [p - x] are one element); neither family allocates. *)

  val is_identity : element -> bool

  val to_bytes : element -> Bytes.t
  (** Fixed-length canonical encoding ({!element_bytes} bytes). *)

  val to_bytes_batch : element array -> Bytes.t array
  (** [to_bytes_batch a] equals [Array.map to_bytes a], but families with
      a projective internal representation amortize the normalization:
      the EC family converts the whole batch Jacobian→affine with one
      Montgomery batch inversion instead of one field inversion per
      point.  The serializers use it for every multi-ciphertext wire
      message. *)

  val of_bytes : Bytes.t -> element option
  (** Decode and validate group membership: [None] for any string that
      is not the {!to_bytes} of an element. *)

  val element_bytes : int
  (** Serialized size; doubles as the ciphertext-size unit [S_c] in the
      paper's communication analysis. *)

  val pp : Format.formatter -> element -> unit

  val random_scalar : Rng.t -> Bigint.t
  (** Uniform in [[1, q-1]]. *)

  val op_count : unit -> int
  (** Group multiplications performed so far, on every domain; the
      operations between two reads are their difference. *)

  val probes : (string * (unit -> int)) list
  (** Family-specific cost counters beyond group multiplications, as
      [(name, read)] pairs for the observability probe registry.  Both
      families report [field_invs], their field inversions: where EC
      batch normalization and DL {!inv_batch} show up. *)
end

type group = (module GROUP)

(** Width-4 signed sliding-window (wNAF) recoding of a non-negative
    exponent: digits in {0, ±1, ±3, ±5, ±7}, most significant first.
    The EC family's scalar multiplication uses it, since negating a
    point is free; the DL family, where it is not, recodes unsigned
    ([Dl_group.sliding_window_into]). *)
let wnaf4 (e : Bigint.t) : int list =
  if Bigint.sign e < 0 then invalid_arg "wnaf4: negative exponent";
  let digits = ref [] in
  let e = ref e in
  while not (Bigint.is_zero !e) do
    if Bigint.is_odd !e then begin
      (* Centered remainder modulo 16 in [-8, 8). *)
      let m = Bigint.to_int_exn (Bigint.logand !e (Bigint.of_int 15)) in
      let d = if m >= 8 then m - 16 else m in
      digits := d :: !digits;
      e := Bigint.sub !e (Bigint.of_int d)
    end
    else digits := 0 :: !digits;
    e := Bigint.shift_right !e 1
  done;
  !digits

(** Allocation-free wNAF-4 recoding into a caller buffer: writes the
    digits of [wnaf4 e] into [dst] LEAST significant first and returns
    the digit count.  [dst] must hold at least [Bigint.numbits e + 1]
    entries (a negative top digit can push one carry digit past the
    bit length).

    The list recoding above repeatedly subtracts the centered remainder
    and halves a shrinking bigint; here the still-unconsumed value is
    represented as [(e >> i) + c] for a small int carry [c], so each
    step needs only [Bigint.testbit].  The carry is bounded: |c'| <=
    (1 + |c| + 7) / 2, which from 0 climbs no higher than 7, so while
    [i < numbits e - 4] the true value [(e >> i) + c >= 16 - 7 > 0] and
    the list version could not have terminated yet.  The final <= 4 top
    bits plus carry fit a native int and finish in a plain small-int
    loop, which also supplies the exact termination condition (value =
    0) — a naive "run to the top bit" loop would emit spurious trailing
    zero digits and break digit-count parity with {!wnaf4}. *)
let wnaf4_into (e : Bigint.t) (dst : int array) : int =
  if Bigint.sign e < 0 then invalid_arg "wnaf4_into: negative exponent";
  let nb = Bigint.numbits e in
  let n = ref 0 in
  let c = ref 0 in
  let i = ref 0 in
  while !i < nb - 4 do
    let b0 = if Bigint.testbit e !i then 1 else 0 in
    if (b0 + !c) land 1 = 0 then begin
      dst.(!n) <- 0;
      c := (b0 + !c) asr 1
    end
    else begin
      let low4 =
        b0
        lor (if Bigint.testbit e (!i + 1) then 2 else 0)
        lor (if Bigint.testbit e (!i + 2) then 4 else 0)
        lor if Bigint.testbit e (!i + 3) then 8 else 0
      in
      let m = (low4 + !c) land 15 in
      let d = if m >= 8 then m - 16 else m in
      dst.(!n) <- d;
      c := (b0 + !c - d) asr 1
    end;
    incr n;
    incr i
  done;
  (* Remaining value (e >> i) + c fits a native int: materialize and
     finish small. *)
  let top = ref 0 in
  let j = ref (nb - 1) in
  while !j >= !i do
    top := (!top lsl 1) lor if Bigint.testbit e !j then 1 else 0;
    decr j
  done;
  let r = ref (!top + !c) in
  while !r <> 0 do
    if !r land 1 = 1 then begin
      let m = !r land 15 in
      let d = if m >= 8 then m - 16 else m in
      dst.(!n) <- d;
      r := (!r - d) asr 1
    end
    else begin
      dst.(!n) <- 0;
      r := !r asr 1
    end;
    incr n
  done;
  !n

(** Aligned wNAF-4 recodings of two non-negative exponents for Shamir's
    simultaneous exponentiation: recodes both into the two caller
    buffers (least significant first, as {!wnaf4_into}), zero-fills the
    shorter one up to the longer so one squaring chain serves both, and
    returns the shared length.  Allocation-free. *)
let wnaf4_pair_into e f (da : int array) (db : int array) : int =
  let la = wnaf4_into e da and lb = wnaf4_into f db in
  let len = Stdlib.max la lb in
  Array.fill da la (len - la) 0;
  Array.fill db lb (len - lb) 0;
  len

(** [pow2_pow_batch] as one [pow2] and one [pow] per element, fanned
    out over the domain pool. *)
let pow2_pow_each ~pow2 ~pow a e b f =
  let k = Array.length a in
  if Array.length e <> k || Array.length b <> k || Array.length f <> k then
    invalid_arg "pow2_pow_batch: lengths differ";
  if k > 0 && a == b then invalid_arg "pow2_pow_batch: a and b are one array";
  Ppgr_exec.Pool.parallel_for k (fun i ->
      let x = pow2 a.(i) e.(i) b.(i) f.(i) and y = pow b.(i) e.(i) in
      a.(i) <- x;
      b.(i) <- y)

(** The window width shared by both families' fixed-base tables. *)
let fixed_base_window = 4

(** Strip a group of its fixed-base, simultaneous-exponentiation and
    batch machinery: [pow_gen]/[pow_table]/[pow2] fall back to plain
    variable-base [pow], [inv_batch] to one [inv] per element and
    [pow2_pow_batch] to a product of two [pow]s and a [pow] per
    element.
    The reference implementation for property tests. *)
module Naive (G : GROUP) : GROUP with type element = G.element = struct
  let name = G.name ^ "-naive"
  let security_bits = G.security_bits

  type element = G.element

  let order = G.order
  let generator = G.generator
  let identity = G.identity
  let mul = G.mul
  let inv = G.inv
  let inv_batch a = Array.map G.inv a
  let pow = G.pow
  let pow_gen e = G.pow G.generator e

  type powtable = element

  let powtable x = x
  let pow_table x e = G.pow x e
  let pow2 a e b f = G.mul (G.pow a e) (G.pow b f)
  let pow2_pow_batch a e b f = pow2_pow_each ~pow2 ~pow a e b f
  let equal = G.equal
  let is_identity = G.is_identity
  let to_bytes = G.to_bytes
  let to_bytes_batch = G.to_bytes_batch
  let of_bytes = G.of_bytes
  let element_bytes = G.element_bytes
  let pp = G.pp
  let random_scalar = G.random_scalar
  let op_count = G.op_count
  let probes = G.probes
end
