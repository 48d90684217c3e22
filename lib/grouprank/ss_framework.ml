(** The "SS framework" baseline of §VII: the same phase-1 secure gain
    computation feeding Jónsson et al.'s secret-sharing sorting protocol
    instead of the unlinkable comparison phase.

    Each participant inputs its masked gain [beta] as Shamir shares; the
    parties sort with a Batcher network of SS comparisons, open the
    sorted sequence, and read off their own ranks.  The threshold is the
    SS maximum [(n-1)/2] (the paper's point: SS multiplication needs
    [2t+1] parties for degree reduction, halving the collusion
    resistance compared to the n-2 of the main framework). *)

open Ppgr_bigint
open Ppgr_dotprod
open Ppgr_shamir
open Ppgr_mpcnet

type costs = {
  engine : Engine.costs; (* mults / rounds / elements of the MPC *)
  field_mults_per_party : int; (* local field mults, averaged per party *)
  schedule : Cost.schedule;
  beta_bits : int;
}

type outcome = {
  ranks : int array;
  costs : costs;
}

(** MPC engines need [n >= 2t+1 >= 3]; with fewer parties the baseline
    degenerates to opening the values. *)
let min_parties = 3

let run ?(kappa = 40) rng (cfg : Framework.config) ~criterion ~infos : outcome =
  let n = Array.length infos in
  if n < min_parties then invalid_arg "Ss_framework.run: need at least 3 parties";
  let p1cfg = Phase1.config ~spec:cfg.Framework.spec ~h:cfg.Framework.h
      ~s_dim:cfg.Framework.s_dim () in
  let field = p1cfg.Phase1.field in
  let _secrets, interactions = Phase1.run rng p1cfg ~criterion ~infos in
  let l = Phase1.beta_bits p1cfg in
  let betas = Array.map (fun i -> i.Phase1.beta_unsigned) interactions in
  (* The comparison field must fit l + kappa masking bits. *)
  let e = Engine.create rng field ~n in
  Engine.reset_costs e;
  let prm = { Compare.l; kappa } in
  let ranks = Ss_sort.rank_via_sort e prm betas in
  let c = Engine.costs e in
  let field_bytes = (Bigint.numbits (Zfield.modulus field) + 7) / 8 in
  (* Message schedule: the paper bounds SS rounds by one round per
     multiplication-protocol invocation; our engine batches parallel
     multiplications, and we translate each engine round into one
     all-to-all exchange of the average per-round element count. *)
  let rounds = Stdlib.max 1 c.Engine.c_rounds in
  let elements_per_round = c.Engine.c_elements / rounds in
  let per_pair_bytes =
    (* Elements are spread over n(n-1) directed pairs. *)
    Stdlib.max 1 (elements_per_round * field_bytes / (n * (n - 1)))
  in
  let schedule =
    List.init rounds (fun _ ->
        {
          Cost.critical_ops = c.Engine.c_field_mults / (rounds * n);
          messages = Netsim.all_broadcast ~parties:n ~bytes:per_pair_bytes;
        })
  in
  {
    ranks;
    costs =
      {
        engine = c;
        field_mults_per_party = c.Engine.c_field_mults / n;
        schedule;
        beta_bits = l;
      };
  }
