(** ElGamal over an abstract prime-order group (§IV-D of the paper).

    Two encryption modes share the ciphertext shape [(c, c') = (·, g^r)]:

    - {e standard}: [c = M y^r] for a group element [M]; decryptable.
    - {e modified} ("exponential"): [c = g^M y^r] for an integer [M].
      Additively homomorphic — [E(M1) ∘ E(M2) = E(M1 + M2)] — but only
      the zero test [g^M = 1] is feasible on decryption, which is all the
      ranking protocol needs.

    Both are IND-CPA secure under DDH.  The distributed operations
    (joint keys, partial decryption) implement the n-party decryption of
    §IV-D: a ciphertext under [y = Π y_i] is decrypted by successively
    stripping each [c'^{x_i}]. *)

open Ppgr_bigint
open Ppgr_rng

module type S = sig
  module G : Ppgr_group.Group_intf.GROUP

  type pubkey = G.element
  type seckey = Bigint.t

  type cipher = { c : G.element; c' : G.element }

  val keygen : Rng.t -> seckey * pubkey
  val encrypt : Rng.t -> pubkey -> G.element -> cipher
  val decrypt : seckey -> cipher -> G.element

  (** {1 Fixed-base acceleration}

      Every encryption performs two full exponentiations with only two
      distinct bases ([g] and [y]).  The generator side is always served
      from the group's cached table; a {!keytable} adds the same
      treatment for [y], so a caller that encrypts many times under one
      key (the protocol encrypts [n*l] ciphertexts under the joint key)
      builds the table once and saves the squaring chain of every
      subsequent exponentiation. *)

  type keytable
  (** A public key's precomputed fixed-base table. *)

  val keytable : pubkey -> keytable
  (** Build the table; costs a few exponentiations' worth of group
      multiplications (ticked on the group op counter). *)

  (** {1 Modified (exponential, additively homomorphic) mode} *)

  val encrypt_exp : Rng.t -> pubkey -> Bigint.t -> cipher
  val encrypt_exp_int : Rng.t -> pubkey -> int -> cipher
  val encrypt_exp_with : Rng.t -> keytable -> Bigint.t -> cipher
  val encrypt_exp_int_with : Rng.t -> keytable -> int -> cipher

  val decrypt_exp_is_zero : seckey -> cipher -> bool
  (** True iff the plaintext integer is 0 (checks [g^M = 1]). *)

  val plaintext_power : seckey -> cipher -> G.element
  (** [g^M]; recovering [M] itself is the discrete log and is only used
      in tests on tiny groups. *)

  val add : cipher -> cipher -> cipher
  (** [E(a) -> E(b) -> E(a+b)]: the homomorphic composition [∘]. *)

  val sub : cipher -> cipher -> cipher
  val neg : cipher -> cipher

  val neg_batch : cipher array -> cipher array
  (** [neg_batch a = Array.map neg a], with both components of every
      ciphertext inverted in one {!G.inv_batch}. *)

  val scale : cipher -> Bigint.t -> cipher
  (** [E(a) -> E(k a)] by component-wise exponentiation. *)

  val scale_int : cipher -> int -> cipher

  val add_clear : cipher -> Bigint.t -> cipher
  (** [E(a) -> E(a + k)] for a public [k] (no randomness added). *)

  val rerandomize : Rng.t -> pubkey -> cipher -> cipher
  (** Fresh randomness; plaintext unchanged. *)

  (** {1 Distributed decryption} *)

  val joint_pubkey : pubkey list -> pubkey
  (** [y = Π y_i]. *)

  val partial_decrypt : seckey -> cipher -> cipher
  (** Strip one key layer: [(c / c'^x, c')].  After all key holders have
      applied it, [c] holds the plaintext power [g^M]. *)

  val exponent_blind : Rng.t -> cipher -> cipher
  (** Raise both components to a shared random power: maps plaintext
      [m] to [r·m], preserving zero/non-zero — the step-(8) blinding. *)

  val partial_decrypt_blind : Rng.t -> seckey -> cipher -> cipher
  (** [partial_decrypt_blind rng x cph] is
      [exponent_blind rng (partial_decrypt x cph)] fused into two
      exponentiations instead of three: the blinded stripped component
      [(c / c'^x)^r = c^r * c'^(-x r)] is one simultaneous [pow2].  The
      one-element case of {!partial_decrypt_blind_batch}. *)

  val partial_decrypt_blind_batch : Rng.t array -> seckey -> cipher array -> cipher array
  (** [partial_decrypt_blind_batch rngs x cphs] is
      [Array.map2 (fun rng c -> partial_decrypt_blind rng x c) rngs cphs]:
      the same draws, ciphertexts and two ticked exponentiations per
      element, as one {!G.pow2_pow_batch}.  The unit of work of a
      step-8 ring hop. *)

  val is_zero_plaintext_power : G.element -> bool
end

module Make (G : Ppgr_group.Group_intf.GROUP) : S with module G = G = struct
  module G = G

  type pubkey = G.element
  type seckey = Bigint.t
  type cipher = { c : G.element; c' : G.element }

  module Meter = Ppgr_group.Opmeter

  let keygen rng =
    Meter.tick ();
    let x = G.random_scalar rng in
    (x, G.pow_gen x)

  type keytable = G.powtable

  let keytable y = G.powtable y

  let encrypt rng y m =
    Meter.tick_n 2;
    let r = G.random_scalar rng in
    { c = G.mul m (G.pow y r); c' = G.pow_gen r }

  let decrypt x { c; c' } =
    Meter.tick ();
    G.mul c (G.inv (G.pow c' x))

  let encrypt_exp rng y m =
    (* g^m is not ticked: the protocol only encrypts bits and other
       small circuit values, whose exponentiation cost is O(log l). *)
    Meter.tick_n 2;
    let r = G.random_scalar rng in
    { c = G.mul (G.pow_gen m) (G.pow y r); c' = G.pow_gen r }

  let encrypt_exp_with rng kt m =
    Meter.tick_n 2;
    let r = G.random_scalar rng in
    { c = G.mul (G.pow_gen m) (G.pow_table kt r); c' = G.pow_gen r }

  let encrypt_exp_int rng y m = encrypt_exp rng y (Bigint.of_int m)
  let encrypt_exp_int_with rng kt m = encrypt_exp_with rng kt (Bigint.of_int m)
  let plaintext_power x cph = decrypt x cph
  let is_zero_plaintext_power e = G.is_identity e
  let decrypt_exp_is_zero x cph =
    (* g^M = c / c'^x is the identity iff c = c'^x: one compare in place
       of an inversion and a multiplication. *)
    Meter.tick ();
    G.equal cph.c (G.pow cph.c' x)
  let add a b = { c = G.mul a.c b.c; c' = G.mul a.c' b.c' }
  let neg a = { c = G.inv a.c; c' = G.inv a.c' }

  let neg_batch a =
    let k = Array.length a in
    let inv =
      G.inv_batch (Array.init (2 * k) (fun i -> if i < k then a.(i).c else a.(i - k).c'))
    in
    Array.init k (fun i -> { c = inv.(i); c' = inv.(k + i) })

  let sub a b = add a (neg b)

  let scale a k =
    (* Two exponentiations; count them as full-size once the scalar is
       within half the group size (small circuit constants stay in the
       λ-independent multiplication count, per the Opmeter contract). *)
    if 2 * Bigint.numbits k >= Bigint.numbits G.order then Meter.tick_n 2;
    { c = G.pow a.c k; c' = G.pow a.c' k }

  let scale_int a k = scale a (Bigint.of_int k)
  let add_clear a k = { a with c = G.mul a.c (G.pow_gen k) }

  let rerandomize rng y a =
    Meter.tick_n 2;
    let r = G.random_scalar rng in
    { c = G.mul a.c (G.pow y r); c' = G.mul a.c' (G.pow_gen r) }

  let joint_pubkey = function
    | [] -> invalid_arg "Elgamal.joint_pubkey: no keys"
    | y :: ys -> List.fold_left G.mul y ys

  let partial_decrypt x cph =
    Meter.tick ();
    { cph with c = G.mul cph.c (G.inv (G.pow cph.c' x)) }

  let exponent_blind rng cph =
    Meter.tick_n 2;
    let r = G.random_scalar rng in
    { c = G.pow cph.c r; c' = G.pow cph.c' r }

  let partial_decrypt_blind_batch rngs x cphs =
    (* (c / c'^x)^r = c^r * c'^(q - x r): one pow2 plus the c'^r leg —
       two logical exponentiations where strip-then-blind costs three. *)
    let k = Array.length cphs in
    if Array.length rngs <> k then invalid_arg "Elgamal.partial_decrypt_blind_batch";
    Meter.tick_n (2 * k);
    let r = Array.map G.random_scalar rngs in
    let xr = Array.map (fun r -> Bigint.erem (Bigint.neg (Bigint.mul x r)) G.order) r in
    let c = Array.map (fun cph -> cph.c) cphs and c' = Array.map (fun cph -> cph.c') cphs in
    G.pow2_pow_batch c r c' xr;
    Array.init k (fun i -> { c = c.(i); c' = c'.(i) })

  let partial_decrypt_blind rng x cph = (partial_decrypt_blind_batch [| rng |] x [| cph |]).(0)
end
