(** The "SS framework" baseline of §VII: the same phase-1 secure gain
    computation feeding Jónsson et al.'s secret-sharing sorting protocol
    instead of the unlinkable comparison phase.

    Each participant inputs its masked gain [beta] as Shamir shares; the
    parties sort with a Batcher network of SS comparisons, open the
    sorted sequence, and read off their own ranks.  The threshold is the
    SS maximum [(n-1)/2] (the paper's point: SS multiplication needs
    [2t+1] parties for degree reduction, halving the collusion
    resistance compared to the n-2 of the main framework).  Its costs
    are {!Cost_model.Ss_model}'s, a view of the same engine's ledger. *)

open Ppgr_shamir

(** MPC engines need [n >= 2t+1 >= 3]; with fewer parties the baseline
    degenerates to opening the values. *)
let min_parties = 3

(** Every participant's rank, 1 for the largest gain. *)
let run rng (cfg : Framework.config) ~criterion ~infos : int array =
  let n = Array.length infos in
  if n < min_parties then invalid_arg "Ss_framework.run: need at least 3 parties";
  let p1cfg = Phase1.config ~spec:cfg.Framework.spec ~h:cfg.Framework.h
      ~s_dim:cfg.Framework.s_dim () in
  let _secrets, interactions = Phase1.run rng p1cfg ~criterion ~infos in
  let l = Phase1.beta_bits p1cfg in
  let betas = Array.map (fun i -> i.Phase1.beta_unsigned) interactions in
  (* The comparison field must fit l + kappa masking bits. *)
  let e = Engine.create rng p1cfg.Phase1.field ~n in
  Ss_sort.rank_via_sort e (Compare.default_params ~l ()) betas
