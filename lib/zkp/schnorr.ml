(** Schnorr proofs of knowledge of a discrete logarithm (§IV-E).

    Given a statement [y = g^x], the prover convinces verifiers it knows
    [x] without revealing it:

    + prover sends the commitment [h = g^r];
    + each verifier [j] publishes a challenge [c_j];
    + prover sends [z = r + x Σ c_j (mod q)];
    + everyone checks [g^z = h · y^(Σ c_j)].

    With a single verifier this is the classical Schnorr identification
    scheme (HVZK); the paper extends it to [n] verifiers by summing the
    challenges.  {!extract} realizes the knowledge extractor used in the
    gain-hiding security proof: two accepting transcripts on the same
    commitment reveal [x].  A Fiat–Shamir variant provides
    non-interactive proofs for contexts without an interaction loop. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_hash

module Make (G : Ppgr_group.Group_intf.GROUP) = struct
  type commitment = G.element
  type challenge = Bigint.t
  type response = Bigint.t

  type prover_state = { r : Bigint.t }

  type transcript = {
    commitment : commitment;
    challenges : challenge list;
    response : response;
  }

  module Meter = Ppgr_group.Opmeter

  let commit rng =
    Meter.tick ();
    let r = G.random_scalar rng in
    ({ r }, G.pow_gen r)

  let fresh_challenge rng = Rng.bigint_below rng G.order

  let respond st ~secret ~challenges =
    let csum =
      List.fold_left
        (fun acc c -> Bigint.erem (Bigint.add acc c) G.order)
        Bigint.zero challenges
    in
    Bigint.erem (Bigint.add st.r (Bigint.mul secret csum)) G.order

  let verify ~statement ~commitment ~challenges ~response =
    (* g^z = h * y^c  <=>  g^z * y^(q-c) = h: one simultaneous (Shamir)
       exponentiation instead of two, so verification ticks one logical
       exponentiation. *)
    Meter.tick ();
    let csum =
      List.fold_left
        (fun acc c -> Bigint.erem (Bigint.add acc c) G.order)
        Bigint.zero challenges
    in
    let neg_csum = Bigint.erem (Bigint.neg csum) G.order in
    G.equal commitment (G.pow2 G.generator response statement neg_csum)

  let verify_transcript ~statement t =
    verify ~statement ~commitment:t.commitment ~challenges:t.challenges
      ~response:t.response

  (** One-call honest run against explicit verifier randomness, returning
      the full transcript.  Only tests call it: the runtime's key
      announcements use the Fiat–Shamir variant. *)
  let prove_interactive rng ~secret ~statement ~n_verifiers =
    let st, commitment = commit rng in
    let challenges = List.init n_verifiers (fun _ -> fresh_challenge rng) in
    let response = respond st ~secret ~challenges in
    ignore statement;
    { commitment; challenges; response }

  (** Knowledge extractor (special soundness): from two accepting
      transcripts sharing a commitment, recover the secret
      [x = (z - z') / (Σc - Σc') mod q]. *)
  let extract t1 t2 =
    if not (G.equal t1.commitment t2.commitment) then None
    else begin
      let csum ch =
        List.fold_left
          (fun acc c -> Bigint.erem (Bigint.add acc c) G.order)
          Bigint.zero ch
      in
      let dc =
        Bigint.erem (Bigint.sub (csum t1.challenges) (csum t2.challenges)) G.order
      in
      if Bigint.is_zero dc then None
      else begin
        let dz =
          Bigint.erem (Bigint.sub t1.response t2.response) G.order
        in
        Some (Bigint.erem (Bigint.mul dz (Bigint.invmod dc G.order)) G.order)
      end
    end

  (** {1 Fiat–Shamir (non-interactive)} *)

  type ni_proof = { ni_commitment : G.element; ni_response : Bigint.t }

  let fs_challenge ~statement ~commitment ~context =
    let ctx = Sha256.init () in
    Sha256.feed_string ctx "ppgr-schnorr-v1";
    Sha256.feed_string ctx context;
    Sha256.feed_bytes ctx (G.to_bytes statement);
    Sha256.feed_bytes ctx (G.to_bytes commitment);
    let d = Sha256.finalize ctx in
    Bigint.erem (Bigint.of_bytes_be d) G.order

  let prove_fs rng ~secret ~statement ~context =
    let st, commitment = commit rng in
    let c = fs_challenge ~statement ~commitment ~context in
    let response = respond st ~secret ~challenges:[ c ] in
    { ni_commitment = commitment; ni_response = response }

  let verify_fs ~statement ~context { ni_commitment; ni_response } =
    let c = fs_challenge ~statement ~commitment:ni_commitment ~context in
    verify ~statement ~commitment:ni_commitment ~challenges:[ c ]
      ~response:ni_response
end
