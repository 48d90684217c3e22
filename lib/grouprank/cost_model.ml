(** Cost models for the evaluation harness.

    Running the full protocol with 70 parties on a 1024-bit group is far
    beyond what a simulation of every party can do directly (it is tens
    of millions of exponentiations), and the paper itself reports
    per-participant cost.  The harness therefore predicts per-party cost
    from first principles, anchored in measurement:

    - {b structure}: per-party group operations of phase 2 are an exact
      quadratic in [(n-1)] for fixed [l] (pairwise circuits are linear,
      the decryption ring quadratic).  {!He_model.fit} runs the real,
      instrumented protocol on the cheap test group at n = 3, 4, 5 and
      recovers the three coefficients by Lagrange interpolation — no
      asymptotic hand-waving, the protocol itself supplies the counts.
      The fit extrapolates exactly (up to wNAF digit-count noise, <2%);
      the test suite validates predictions against direct runs at larger
      n.
    - {b group transfer}: operation counts split into full
      exponentiations (whose expansion into group multiplications scales
      with the exponent size λ) and λ-independent multiplications.  With
      [mpe(g)] = measured multiplications per exponentiation on group
      [g], per-party multiplications on a target group are
      [exps * mpe(target) + (ops_test - exps * mpe(test))].
    - {b SS baseline}: invocation counts of the multiplication protocol
      per comparator are n-independent; per-party field-multiplication
      unit costs of each primitive follow the engine implementation
      exactly ([mul]: 1 + nt + n, [random]: nt, [open]: n).  Counts are
      measured on a small run and scaled by the Batcher comparator count.

    Wall-clock per group multiplication / field multiplication is
    measured by the bench executable and multiplied in at the end. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_shamir

(* Solve for the quadratic a0 + a1 x + a2 x^2 through three points
   (x1,y1) (x2,y2) (x3,y3) with distinct integer xs. *)
let quadratic_through (x1, y1) (x2, y2) (x3, y3) =
  let x1 = float_of_int x1 and x2 = float_of_int x2 and x3 = float_of_int x3 in
  let d = (x1 -. x2) *. (x1 -. x3) *. (x2 -. x3) in
  let a2 =
    ((y1 *. (x2 -. x3)) -. (y2 *. (x1 -. x3)) +. (y3 *. (x1 -. x2))) /. d
  in
  let a1 =
    ((y2 -. y1) /. (x2 -. x1)) -. (a2 *. (x1 +. x2))
  in
  let a0 = y1 -. (a1 *. x1) -. (a2 *. x1 *. x1) in
  (a0, a1, a2)

let eval_quadratic (a0, a1, a2) x =
  let x = float_of_int x in
  a0 +. (a1 *. x) +. (a2 *. x *. x)

module He_model = struct
  type t = {
    l : int;
    ops_q : float * float * float; (* test-group ops vs (n-1) *)
    exps_q : float * float * float; (* full exponentiations vs (n-1) *)
    mpe_test : float; (* mults per exponentiation on the fit group *)
  }

  (* One instrumented session on the test group: its per-party group
     operations and exponentiations. *)
  let measure_parties rng ~l ~n =
    let module G = (val Ppgr_group.Dl_group.dl_test_64 ()) in
    let module RT = Runtime.Make (G) in
    let betas = Array.init n (fun _ -> Rng.bigint_below rng (Bigint.nth_bit_weight l)) in
    let st = RT.run rng ~l ~betas in
    (st.RT.per_party_ops, st.RT.per_party_exps)

  (* The maximum per-party (ops, exps) of one session. *)
  let measure_once rng ~l ~n =
    let ops, exps = measure_parties rng ~l ~n in
    let maxi a = Array.fold_left Stdlib.max 0 a in
    (maxi ops, maxi exps)

  (* Measured mults-per-exponentiation for any group value. *)
  let measure_mpe (g : Ppgr_group.Group_intf.group) ~samples rng =
    let module G = (val g) in
    let x = G.pow_gen (G.random_scalar rng) in
    let s = G.op_snapshot () in
    for _ = 1 to samples do
      ignore (G.pow x (G.random_scalar rng))
    done;
    float_of_int (G.ops_since s) /. float_of_int samples

  let fit ?(ns = [ 3; 4; 5 ]) rng ~l =
    let pts =
      List.map
        (fun n ->
          let ops, exps = measure_once rng ~l ~n in
          (n - 1, float_of_int ops, float_of_int exps))
        ns
    in
    match pts with
    | [ (x1, o1, e1); (x2, o2, e2); (x3, o3, e3) ] ->
        {
          l;
          ops_q = quadratic_through (x1, o1) (x2, o2) (x3, o3);
          exps_q = quadratic_through (x1, e1) (x2, e2) (x3, e3);
          mpe_test = measure_mpe (Ppgr_group.Dl_group.dl_test_64 ()) ~samples:50 rng;
        }
    | _ -> invalid_arg "He_model.fit: need exactly three fit sizes"

  let predict_test_ops m ~n = eval_quadratic m.ops_q (n - 1)
  let predict_exps m ~n = eval_quadratic m.exps_q (n - 1)

  (** Per-party group multiplications on a target group with measured
      [mpe_target]. *)
  let predict_target_mults m ~n ~mpe_target =
    let exps = predict_exps m ~n in
    let base = predict_test_ops m ~n -. (exps *. m.mpe_test) in
    (exps *. mpe_target) +. base

  (** Per-party seconds given measured per-multiplication cost. *)
  let predict_seconds m ~n ~mpe_target ~sec_per_mult =
    predict_target_mults m ~n ~mpe_target *. sec_per_mult

  (** Analytic exponentiation count (cross-check for the fit; from the
      protocol structure: keygen + proof + verification + bitwise
      encryption + ring + final decryption).  Verification is one fused
      simultaneous exponentiation per proof, and each ring step is a
      fused strip-and-blind (two exponentiations per ciphertext instead
      of three) — see the exponentiation-engine section of DESIGN.md. *)
  let analytic_exps ~n ~l =
    let n1 = n - 1 in
    2 + n1 + (2 * l) + (2 * n1 * n1 * l) + (n1 * l)

  (** The phase-2 message schedule, built analytically (byte counts are
      exact; per-round critical ops distributed from the model).  Party
      [n] is the initiator (phases 1/3 use it).  The ring is modelled
      store-and-forward: a party forwards each owner's ciphertext set as
      soon as it has processed it, so a hop's critical path is one set's
      work, not all [n-1]. *)
  let schedule m ~n ~cipher_bytes ~elem_bytes
      ~scalar_bytes ~mpe_target : Cost.schedule =
    let open Ppgr_mpcnet in
    let l = m.l in
    let n1 = n - 1 in
    let mpe = mpe_target in
    let f2i = int_of_float in
    let per_set = n1 * l in
    (* Base (non-exponentiation) ops split: attribute the quadratic term
       of the base ops to the ring hops and the linear term to the
       circuit round. *)
    let exps = predict_exps m ~n in
    let base_total = predict_test_ops m ~n -. (exps *. m.mpe_test) in
    let circuit_share = base_total *. 0.5 in
    let ring_share = base_total *. 0.5 in
    let keyrounds =
      [
        { Cost.critical_ops = f2i mpe; messages = Netsim.all_broadcast ~parties:n ~bytes:elem_bytes };
        { Cost.critical_ops = f2i mpe; messages = Netsim.all_broadcast ~parties:n ~bytes:elem_bytes };
        { Cost.critical_ops = 0; messages = Netsim.all_broadcast ~parties:n ~bytes:scalar_bytes };
        { Cost.critical_ops = 0; messages = Netsim.all_broadcast ~parties:n ~bytes:scalar_bytes };
      ]
    in
    let encrypt_round =
      {
        Cost.critical_ops = f2i ((float_of_int (n1 + (2 * l)) *. mpe));
        messages = Netsim.all_broadcast ~parties:n ~bytes:(l * cipher_bytes);
      }
    in
    let to_p1 =
      {
        Cost.critical_ops = f2i circuit_share;
        messages =
          List.concat_map
            (fun j -> if j = 0 then [] else Netsim.unicast ~src:j ~dst:0 ~bytes:(per_set * cipher_bytes))
            (List.init n (fun j -> j));
      }
    in
    let hop_ops =
      let full =
        (float_of_int (2 * n1 * per_set) *. mpe) +. (ring_share /. float_of_int n)
      in
      f2i (full /. float_of_int (Stdlib.max 1 n1))
    in
    let ring =
      List.init n (fun hop ->
          if hop < n - 1 then
            { Cost.critical_ops = hop_ops; messages = Netsim.unicast ~src:hop ~dst:(hop + 1) ~bytes:(n * per_set * cipher_bytes) }
          else
            {
              Cost.critical_ops = hop_ops;
              messages =
                List.concat_map
                  (fun o -> if o = n - 1 then [] else Netsim.unicast ~src:(n - 1) ~dst:o ~bytes:(per_set * cipher_bytes))
                  (List.init n (fun o -> o));
            })
    in
    let final =
      { Cost.critical_ops = f2i (float_of_int per_set *. (mpe +. 2.)); messages = [] }
    in
    keyrounds @ [ encrypt_round; to_p1 ] @ ring @ [ final ]
end

module Shard_model = struct
  (** Shard-aware cost model: per-shard quadratic plus merge term.

      The committee-sharded mode replaces one [n]-party ring with
      [ceil(n/s)] rings of [<= s] parties plus a secret-shared top-k
      merge over the shard representatives.  Group work is the sum of
      per-shard quadratics — effectively linear in [n] for fixed [s] —
      and the merge adds field multiplications linear in the candidate
      count.  This model fits both terms from instrumented runs on the
      test group and locates the quadratic-vs-sharded crossover [n*]
      that the bench measures. *)

  type t = {
    l : int;
    total_q : float * float * float;
        (* TOTAL group ops of one distributed run (all parties summed)
           vs (n-1), fitted through measured sizes *)
    merge_mults_per_cand : float;
        (* committee field multiplications per merge candidate; the
           binary search probes all candidates each round, so the cost
           is linear in candidates and k-independent *)
    committee : int;
  }

  (* The total group-op count of one session (its party spans tile
     the run), the quantity Shard.run accounts per shard. *)
  let measure_total_ops rng ~l ~n =
    Array.fold_left ( + ) 0 (fst (He_model.measure_parties rng ~l ~n))

  let fit ?(ns = [ 3; 4; 5 ]) ?(committee = 3) ?(r0 = 8) rng ~l =
    let pts =
      List.map (fun n -> (n - 1, float_of_int (measure_total_ops rng ~l ~n))) ns
    in
    let total_q =
      match pts with
      | [ p1; p2; p3 ] -> quadratic_through p1 p2 p3
      | _ -> invalid_arg "Shard_model.fit: need exactly three fit sizes"
    in
    let candidates =
      Array.init r0 (fun i ->
          (i, Rng.bigint_below rng (Bigint.nth_bit_weight l)))
    in
    let st =
      Shard.merge_top_k rng ~l ~committee ~k:(Stdlib.max 1 (r0 / 2)) ~candidates
    in
    {
      l;
      total_q;
      merge_mults_per_cand =
        float_of_int st.Shard.merge_costs.Engine.c_field_mults /. float_of_int r0;
      committee;
    }

  (* Balanced shard sizes, mirroring Shard.make_plan. *)
  let shard_sizes ~n ~shard_size =
    let count = (n + shard_size - 1) / shard_size in
    let base = n / count and extra = n mod count in
    List.init count (fun i -> if i < extra then base + 1 else base)

  (** Total group ops of one monolithic [n]-party run. *)
  let predict_mono_ops m ~n = eval_quadratic m.total_q (n - 1)

  (** Total group ops of the sharded mode: the per-shard quadratic
      summed over the balanced partition (singleton shards run no
      ring). *)
  let predict_sharded_ops m ~n ~shard_size =
    List.fold_left
      (fun acc size -> if size < 2 then acc else acc +. eval_quadratic m.total_q (size - 1))
      0.
      (shard_sizes ~n ~shard_size)

  (** Committee field multiplications of the merge: candidates are the
      per-shard top-[min(k, size)] members. *)
  let predict_merge_mults m ~n ~shard_size ~k =
    let cands =
      List.fold_left
        (fun acc size -> acc + Stdlib.min k size)
        0
        (shard_sizes ~n ~shard_size)
    in
    float_of_int cands *. m.merge_mults_per_cand

  (** End-to-end cost in seconds(-equivalent units): group ops and
      field multiplications are different currencies, so the crossover
      is only meaningful after both are priced. *)
  let predict_seconds_mono m ~n ~sec_per_op = predict_mono_ops m ~n *. sec_per_op

  let predict_seconds_sharded m ~n ~shard_size ~k ~sec_per_op
      ~sec_per_field_mult =
    (predict_sharded_ops m ~n ~shard_size *. sec_per_op)
    +. (predict_merge_mults m ~n ~shard_size ~k *. sec_per_field_mult)

  (** The predicted quadratic→near-linear crossover: the smallest [n]
      above [shard_size] from which the sharded mode stays cheaper.
      Returns [None] if no crossover below [n_max] (e.g. when the merge
      is priced absurdly high). *)
  let crossover ?(n_max = 4096) m ~shard_size ~k ~sec_per_op
      ~sec_per_field_mult =
    let cheaper n =
      predict_seconds_sharded m ~n ~shard_size ~k ~sec_per_op ~sec_per_field_mult
      < predict_seconds_mono m ~n ~sec_per_op
    in
    let rec search n =
      if n > n_max then None
      else if cheaper n && cheaper (n + 1) && cheaper (n + 2) then Some n
      else search (n + 1)
    in
    search (shard_size + 1)
end

module Ss_model = struct
  type t = {
    l : int;
    kappa : int;
    (* Per-comparator invocation counts (n-independent), measured. *)
    mults_per_comp : float;
    randoms_per_comp : float;
    opens_per_comp : float;
    rounds_per_layer : float;
  }

  let measure rng ~l ?(kappa = 40) ?(n0 = 5) ?(log_prefix = true) ?field () =
    let f = match field with Some f -> f | None -> Ppgr_dotprod.Zfield.default () in
    let e = Engine.create rng f ~n:n0 in
    Engine.reset_costs e;
    let prm = { Compare.l; kappa; log_prefix } in
    let betas = Array.init n0 (fun _ -> Rng.bigint_below rng (Bigint.nth_bit_weight l)) in
    ignore (Ss_sort.rank_via_sort e prm betas);
    let c = Engine.costs e in
    let net = Sort_network.generate n0 in
    let comps = float_of_int (Sort_network.comparator_count net) in
    let depth = float_of_int (Sort_network.depth net) in
    {
      l;
      kappa;
      mults_per_comp = float_of_int c.Engine.c_mults /. comps;
      randoms_per_comp = float_of_int c.Engine.c_randoms /. comps;
      opens_per_comp = float_of_int c.Engine.c_opens /. comps;
      rounds_per_layer = float_of_int c.Engine.c_rounds /. depth;
    }

  (** Per-party field multiplications for an n-party run, from the
      engine's unit costs: a multiplication costs a party [1 + nt + n]
      (local product, resharing polynomial evaluations, recombination),
      a random value [nt], an opening [n].

      [faithful:true] replaces the per-comparator multiplication count
      of our implementation (a masked-open comparison, ~5l) with the
      Nishide–Ohta constant the paper assumes (279l + 5) — the SS
      baseline as the paper costs it.  Default follows what we actually
      implemented. *)
  let mults_per_comp ?(faithful = false) m =
    if faithful then float_of_int (Compare.nishide_ohta_mults ~l:m.l)
    else m.mults_per_comp

  let predict_party_field_mults ?faithful m ~n =
    let t = (n - 1) / 2 in
    let comps = float_of_int (Sort_network.comparator_count (Sort_network.generate n)) in
    let mul_cost = float_of_int (1 + (n * t) + n) in
    let rnd_cost = float_of_int (n * t) in
    let open_cost = float_of_int n in
    comps
    *. ((mults_per_comp ?faithful m *. mul_cost)
       +. (m.randoms_per_comp *. rnd_cost)
       +. (m.opens_per_comp *. open_cost))

  let predict_rounds m ~n =
    m.rounds_per_layer *. float_of_int (Sort_network.depth (Sort_network.generate n))

  (** Total field elements on the wire (all parties). *)
  let predict_elements ?faithful m ~n =
    let comps = float_of_int (Sort_network.comparator_count (Sort_network.generate n)) in
    let per_inv = float_of_int (n * (n - 1)) in
    comps
    *. (mults_per_comp ?faithful m +. m.randoms_per_comp +. m.opens_per_comp)
    *. per_inv

  let predict_seconds ?faithful m ~n ~sec_per_field_mult =
    predict_party_field_mults ?faithful m ~n *. sec_per_field_mult

  (** Paper-faithful analytic curve: Nishide–Ohta comparisons at
      [279 l + 5] multiplications each, [n log^2 n] comparisons, each
      multiplication costing a party [O(n t)] field multiplications —
      the §VI-B accounting. *)
  let paper_analytic_party_mults ~n ~l =
    let t = (n - 1) / 2 in
    let comps = float_of_int (Sort_network.comparator_count (Sort_network.generate n)) in
    comps
    *. float_of_int (Compare.nishide_ohta_mults ~l)
    *. float_of_int (n * t)

  (** SS schedule for the network simulation: [rounds] synchronized
      all-to-all exchanges. *)
  let schedule ?faithful m ~n ~field_bytes ~sec_per_field_mult ~sec_per_op :
      Cost.schedule =
    let open Ppgr_mpcnet in
    let rounds = Stdlib.max 1 (int_of_float (predict_rounds m ~n)) in
    let elements = predict_elements ?faithful m ~n in
    let per_pair_bytes =
      Stdlib.max 1
        (int_of_float (elements /. float_of_int (rounds * n * (n - 1))) * field_bytes)
    in
    let mults = predict_party_field_mults ?faithful m ~n in
    (* Express compute in "ops" of the consumer's unit via the ratio of
       the two measured costs. *)
    let ops_per_round =
      int_of_float (mults /. float_of_int rounds *. (sec_per_field_mult /. sec_per_op))
    in
    List.init rounds (fun _ ->
        {
          Cost.critical_ops = ops_per_round;
          messages = Netsim.all_broadcast ~parties:n ~bytes:per_pair_bytes;
        })
end
