(** Mechanized checks for the security games of §III-C.

    The paper's proofs are reductions to IND-CPA; what a test suite can
    check mechanically is the {e functional} leakage — that everything an
    adversary observes {e in the clear} is invariant between the two
    branches of each game — plus distributional properties of the
    blinding (zero positions uniform under the honest permutations,
    non-zero plaintexts randomized).

    - {b Gain hiding} (Def. 5): with one honest participant whose gain
      is moved within the interval between two adversary gains, every
      colluder's rank — and hence its clear view — is unchanged.
    - {b Identity unlinkability} (Def. 7): swapping the private inputs
      of two honest participants leaves every colluder's clear view
      unchanged; only the two hidden ranks swap. *)

open Ppgr_bigint
open Ppgr_rng

module Make (G : Ppgr_group.Group_intf.GROUP) = struct
  module RT = Runtime.Make (G)

  (** Run phase 2 on two beta vectors that agree on the colluders'
      positions, and report whether every colluder observed the same
      rank in both runs. *)
  let colluder_ranks_invariant rng ~l ~honest ~betas_a ~betas_b =
    let n = Array.length betas_a in
    if Array.length betas_b <> n then invalid_arg "Games: beta length mismatch";
    Array.iteri
      (fun i (a : Bigint.t) ->
        if (not (List.mem i honest)) && not (Bigint.equal a betas_b.(i)) then
          invalid_arg "Games: colluder betas must agree between branches")
      betas_a;
    (* The two branches are independent end-to-end runs given forked
       RNG streams, so they execute as two pool tasks; the games only
       consume [ranks], which are schedule-independent by the pool's
       determinism contract. *)
    let branch_rngs =
      [| Rng.split rng ~label:"branch-a"; Rng.split rng ~label:"branch-b" |]
    in
    let branch_betas = [| betas_a; betas_b |] in
    let results =
      Ppgr_exec.Pool.parallel_init 2 (fun b ->
          (RT.run branch_rngs.(b) ~l ~betas:branch_betas.(b)).RT.ranks)
    in
    let ra = results.(0) and rb = results.(1) in
    let ok = ref true in
    for i = 0 to n - 1 do
      if (not (List.mem i honest)) && ra.(i) <> rb.(i) then ok := false
    done;
    !ok

  (* [n] betas: each honest [(index, beta)] at its index, the adversary's
     values in order everywhere else. *)
  let seat_betas ~n honest adversary =
    let rest = ref adversary in
    Array.init n (fun i ->
        match (List.assoc_opt i honest, !rest) with
        | Some b, _ -> b
        | None, v :: tl ->
            rest := tl;
            v
        | None, [] -> invalid_arg "Games: not enough adversary values")

  (** Gain-hiding game (Def. 5), functional part: the honest participant
      [honest] takes value [beta0] or [beta1]; both must lie strictly in
      the same interval of the adversary's values (Condition (1)).
      Returns [`Invariant] when colluder views agree, [`Bad_interval]
      when the precondition fails (the caller picked bad values). *)
  let gain_hiding rng ~l ~honest ~beta0 ~beta1 ~adversary_betas =
    let interval_index (b : Bigint.t) =
      Array.fold_left
        (fun acc a -> if Bigint.compare a b < 0 then acc + 1 else acc)
        0 adversary_betas
    in
    let same_interval =
      interval_index beta0 = interval_index beta1
      && Array.for_all
           (fun a -> (not (Bigint.equal a beta0)) && not (Bigint.equal a beta1))
           adversary_betas
    in
    if not same_interval then `Bad_interval
    else begin
      let n = Array.length adversary_betas + 1 in
      let build b = seat_betas ~n [ (honest, b) ] (Array.to_list adversary_betas) in
      if
        colluder_ranks_invariant rng ~l ~honest:[ honest ]
          ~betas_a:(build beta0) ~betas_b:(build beta1)
      then `Invariant
      else `Distinguishable
    end

  (** Identity-unlinkability game (Def. 7), functional part: honest
      participants [pi] and [pj] hold [beta0]/[beta1] in one branch and
      swapped in the other. *)
  let identity_unlinkability rng ~l ~pi ~pj ~beta0 ~beta1 ~others =
    let n = List.length others + 2 in
    if pi = pj || pi >= n || pj >= n then invalid_arg "Games: bad honest indices";
    let build first second = seat_betas ~n [ (pi, first); (pj, second) ] others in
    if
      colluder_ranks_invariant rng ~l ~honest:[ pi; pj ]
        ~betas_a:(build beta0 beta1) ~betas_b:(build beta1 beta0)
    then `Invariant
    else `Distinguishable

  (** Distributional check on the step-8 blinding: the position of a
      zero inside a returned set must be uniform over the set (the
      per-party permutations hide which comparison produced it).  Runs
      the protocol [trials] times with betas making participant 0 rank
      below exactly one other (one zero in its set of (n-1)l
      ciphertexts) and returns the histogram of the zero's position. *)
  let zero_position_histogram rng ~l ~n ~trials =
    if n < 2 then invalid_arg "Games: need n >= 2";
    (* Participant 0 gets value 1; participant 1 gets 2; everyone else 0:
       exactly one participant outranks P_0. *)
    let betas =
      Array.init n (fun i -> Bigint.of_int (match i with 0 -> 1 | 1 -> 2 | _ -> 0))
    in
    let positions = Array.make ((n - 1) * l) 0 in
    (* Trials are independent runs on stable-label streams; they fan
       out over the pool and the histogram accumulates afterwards (sum
       order is immaterial). *)
    let flags =
      Ppgr_exec.Pool.parallel_init trials (fun t ->
          let r =
            RT.run
              (Rng.split rng ~label:(Printf.sprintf "zero-pos-%d" (t + 1)))
              ~l ~betas
          in
          r.RT.zero_flags.(0))
    in
    Array.iter
      (Array.iteri (fun c z -> if z then positions.(c) <- positions.(c) + 1))
      flags;
    positions
end
