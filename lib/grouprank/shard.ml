(** Committee-sharded ranking — the quadratic ring broken into bounded
    rings plus a secure top-k merge (ROADMAP: "sharded / hierarchical
    ranking for millions of participants").

    The paper's phase 2 is quadratic in [n]: every party re-blinds and
    ring-decrypts every other party's ciphertext set, so a single ring
    caps out at tens of participants regardless of per-exponentiation
    speed.  This orchestrator partitions the [n] participants into
    rings of bounded size [s] — deterministically from the run seed —
    runs the unmodified {!Runtime} protocol inside each shard for
    shard-local ranks, and merges shard representatives through the
    Burkhart–Dimitropoulos secret-shared top-k ({!Ppgr_shamir.Topk}) on
    a small committee, arranged as Tueno et al.'s star network one
    level deep ({!Ppgr_mpcnet.Topology.two_level_tree}).  Total group
    work drops from [O(n^2 l)] exponentiations to [O(n s l)] plus a
    field-arithmetic merge of [O((n/s) k l)] bitwise comparisons.

    Why the shards stay comparable: phase 1 masks every partial gain
    with the {e same} multiplicative [rho] (per-participant [rho_j]
    only jitters within one gain step), so masked gains preserve the
    strict {e global} order — a representative's beta from shard 3 is
    directly comparable to one from shard 17, and the merge needs no
    re-masking round.

    Privacy (documented deviations from the monolithic protocol):
    - the paper's [n-2] collusion bound applies {e per shard}: inside a
      ring of size [s], unlinkability survives up to [s-2] colluders.
      Sharding trades the global bound for throughput;
    - shard-local ranks are only learned by the shard's own members
      (each member learns its own rank, as in the paper);
    - each candidate shares the [l] bits of its own beta with the
      committee ({!Ppgr_shamir.Topk.input_bits}): it knows its beta, so
      under the honest-but-curious model this replaces a bit
      decomposition protocol, and every threshold probe is a bitwise
      comparison against public bits that opens nothing;
    - the merge opens exactly the Topk probe counts (one per probe of
      the binary search) and the membership bits of the final
      threshold: which candidates are winners, but no rank order among
      winners and no losing candidate's value.  The deterministic
      tie-break additionally reveals which candidates tie at the cut
      (see {!Ppgr_shamir.Topk.top_k_det}). *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_shamir
open Ppgr_mpcnet
module Trace = Ppgr_obs.Trace
module Sha256 = Ppgr_hash.Sha256

(** {1 The partition plan} *)

type plan = {
  n : int;
  shard_size : int; (* the requested bound s *)
  members : int array array; (* shard -> global participant ids *)
  shard_of : int array; (* participant -> shard *)
  local_of : int array; (* participant -> index within its shard *)
}

let shards plan = Array.length plan.members
let sizes plan = Array.map Array.length plan.members

(** Partition [n] participants into [ceil(n / shard_size)] balanced
    shards by a seeded shuffle: the assignment depends only on the run
    seed (the split label ["shard-plan"] pins the stream), so every
    job count — and every re-run — partitions identically.  Balanced
    sizes differ by at most one; a size-1 shard can occur only when
    [n < 2 shard_size] leaves a remainder (its member ranks first in
    its shard trivially, no ring needed). *)
let make_plan rng ~n ~shard_size =
  if n < 1 then invalid_arg "Shard.make_plan: need at least 1 participant";
  if shard_size < 2 then invalid_arg "Shard.make_plan: shard_size must be >= 2";
  let perm = Array.init n (fun i -> i) in
  Rng.shuffle (Rng.split rng ~label:"shard-plan") perm;
  let count = (n + shard_size - 1) / shard_size in
  let base = n / count and extra = n mod count in
  let members =
    Array.init count (fun i ->
        let size = if i < extra then base + 1 else base in
        let off = (i * base) + Stdlib.min i extra in
        Array.init size (fun j -> perm.(off + j)))
  in
  let shard_of = Array.make n 0 and local_of = Array.make n 0 in
  Array.iteri
    (fun i ms ->
      Array.iteri
        (fun j p ->
          shard_of.(p) <- i;
          local_of.(p) <- j)
        ms)
    members;
  { n; shard_size; members; shard_of; local_of }

(** {1 The merge committee} *)

(** The committee's field: the smallest test prime with
    [numbits p > l + 2 + 40], the room the masked-open
    {!Ppgr_shamir.Compare.ge} needs.  The bitwise merge no longer needs
    it (a prime above the candidate count keeps every probe count from
    wrapping), but the rule is kept: the merge's share size and the
    benchmark's field-multiplication cost are priced on this field. *)
let merge_field ~l =
  let need = l + 2 + 40 in
  let p =
    if need < 64 then Ppgr_group.Modp_params.test_64
    else if need < 96 then Ppgr_group.Modp_params.test_96
    else if need < 128 then Ppgr_group.Modp_params.test_128
    else if need < 256 then Ppgr_group.Modp_params.test_256
    else invalid_arg "Shard.merge_field: l too large for the test fields"
  in
  Ppgr_dotprod.Zfield.create p

type merge_stat = {
  committee : int; (* committee parties m (threshold (m-1)/2) *)
  candidates : int array; (* global ids in canonical (shard, local) order *)
  winners : int array; (* k global ids, ascending; membership only *)
  merge_costs : Engine.costs;
  merge_wall_s : float;
}

(** Run the secure top-k merge over [candidates] (global ids with their
    betas, in canonical order).  Every candidate secret-shares the [l]
    little-endian bits of its beta to the [committee], all in one
    simultaneous round; the committee runs the deterministic top-k on
    those bits and publishes the winning ids.
    @raise Invalid_argument if a beta lies outside [[0, 2^l)]. *)
let merge_top_k rng ~l ~committee ~k
    ~(candidates : (int * Bigint.t) array) : merge_stat =
  let r = Array.length candidates in
  if k > r then invalid_arg "Shard.merge_top_k: k exceeds candidate count";
  if committee < 3 then invalid_arg "Shard.merge_top_k: committee must be >= 3";
  if Array.exists (fun (_, b) -> Bigint.sign b < 0 || Bigint.numbits b > l) candidates
  then invalid_arg "Shard.merge_top_k: beta outside [0, 2^l)";
  let t0 = Unix.gettimeofday () in
  let stat =
    Trace.with_span
      ~attrs:[ ("n", Trace.Int r); ("k", Trace.Int k); ("l", Trace.Int l) ]
      "shard.merge"
    @@ fun () ->
    let f = merge_field ~l in
    let e = Engine.create rng f ~n:committee in
    Engine.reset_costs e;
    let bits = Topk.input_bits e ~l (Array.map snd candidates) in
    let win_idx = Topk.top_k_det e ~k bits in
    let winners =
      Array.of_list (List.map (fun i -> fst candidates.(i)) win_idx)
    in
    Array.sort compare winners;
    {
      committee;
      candidates = Array.map fst candidates;
      winners;
      merge_costs = Engine.costs e;
      merge_wall_s = 0.;
    }
  in
  { stat with merge_wall_s = Unix.gettimeofday () -. t0 }

(** {1 The sharded run} *)

type shard_stat = {
  shard : int;
  size : int;
  shard_wall_s : float;
  shard_group_ops : int; (* group multiplications inside this shard *)
  shard_sha : string; (* the shard's own wire-transcript digest *)
  shard_bytes : int; (* logical payload bytes inside the shard *)
}

type result = {
  plan : plan;
  local_ranks : int array; (* participant -> rank within its shard *)
  winners : int array; (* global top-k ids, ascending; membership only *)
  shard_stats : shard_stat array;
  merge : merge_stat;
  transcript_sha : string;
      (* chained digest: every shard's wire transcript in shard order,
         then the merge outcome *)
  group_ops : int; (* total group multiplications, all shards *)
  schedule : Netsim.schedule;
      (* fan-in model on the two-level tree: parties 0..n-1 are the
         participants, n..n+m-1 the merge committee *)
}

module Make (G : Ppgr_group.Group_intf.GROUP) = struct
  module R = Runtime.Make (G)

  (* Representatives of one shard: members whose local rank is within
     min(k, size).  Any global top-k member ranks at least that well
     inside its own shard (ranking restricted to a subset only
     improves), so the candidate pool provably contains the global
     top k. *)
  let representatives ~k ~members ~local_ranks =
    let keep = Stdlib.min k (Array.length members) in
    let reps = ref [] in
    Array.iteri
      (fun j p -> if local_ranks.(j) <= keep then reps := p :: !reps)
      members;
    List.rev !reps

  (* The fan-in schedule on the two-level tree party space.  Per-shard
     runtime schedules are remapped onto global participant ids and
     overlaid (shards run in parallel in the field); then the merge:
     one fan-in round (each candidate shares its beta's l bits to the
     committee, l field elements per member), the committee's internal
     rounds as all-broadcasts (SS-framework accounting idiom), and one
     winner announcement. *)
  let fan_in_schedule ~plan ~(shard_scheds : Netsim.schedule array)
      ~(merge : merge_stat) ~l ~field_bytes =
    let n = plan.n in
    let m = merge.committee in
    let intra =
      Netsim.overlay
        (Array.to_list
           (Array.mapi
              (fun i sched ->
                Netsim.remap (fun local -> plan.members.(i).(local)) sched)
              shard_scheds))
    in
    let fan_in =
      {
        Netsim.compute_s = 0.;
        messages =
          Array.to_list merge.candidates
          |> List.concat_map (fun p ->
                 List.init m (fun c ->
                     { Netsim.src = p; dst = n + c; bytes = l * field_bytes }));
      }
    in
    let c = merge.merge_costs in
    let rounds = Stdlib.max 1 c.Engine.c_rounds in
    let per_pair =
      Stdlib.max 1
        (c.Engine.c_elements * field_bytes / (rounds * m * (Stdlib.max 1 (m - 1))))
    in
    let committee_rounds =
      List.init rounds (fun _ ->
          {
            Netsim.compute_s = 0.;
            messages =
              List.concat_map
                (fun src ->
                  List.filter_map
                    (fun dst ->
                      if dst = src then None
                      else Some { Netsim.src = n + src; dst = n + dst; bytes = per_pair })
                    (List.init m Fun.id))
                (List.init m Fun.id);
          })
    in
    let announce =
      {
        Netsim.compute_s = 0.;
        messages =
          List.init n (fun p ->
              { Netsim.src = n; dst = p; bytes = 4 * Array.length merge.winners });
      }
    in
    intra @ (fan_in :: committee_rounds) @ [ announce ]

  (** Place the sharded party space on {!Topology.two_level_tree}:
      participant [p] on its shard's leaf, committee member [c] on the
      coordinator ([c = 0]) or an aggregator node. *)
  let placement ~plan ~committee =
    let root, aggregators, leaves =
      Topology.two_level_layout ~shard_sizes:(sizes plan)
    in
    (* Committee members live on the hub nodes (coordinator first, then
       aggregators); a committee larger than the hub count — only in
       tiny test runs — spills onto leaves. *)
    let hubs =
      Array.append (Array.append [| root |] aggregators)
        (Array.concat (Array.to_list leaves))
    in
    Array.init (plan.n + committee) (fun party ->
        if party < plan.n then leaves.(plan.shard_of.(party)).(plan.local_of.(party))
        else hubs.(party - plan.n))

  (** Rank [betas] in committee-sharded mode.  Shards execute
      sequentially in shard order — their inner loops already saturate
      the domain pool — each on its own [Rng.split] stream
      (["shard-<i>"]), so transcripts are byte-identical at any job
      count and the global digest chains the per-shard digests in a
      fixed order.  Per-shard sessions are cached by shard size, so the
      label preformatting runs once per distinct size. *)
  let run ?(shard_size = 16) ?(committee = 5) ?(k = 10) rng ~l
      ~(betas : Bigint.t array) : result =
    let n = Array.length betas in
    let k = Stdlib.min k n in
    let plan = make_plan rng ~n ~shard_size in
    let count = shards plan in
    Trace.with_span
      ~attrs:
        [
          ("group", Trace.Str G.name);
          ("n", Trace.Int n);
          ("l", Trace.Int l);
          ("k", Trace.Int k);
        ]
      "shard.run"
    @@ fun () ->
    let sessions : (int, R.session) Hashtbl.t = Hashtbl.create 4 in
    let session_for size =
      match Hashtbl.find_opt sessions size with
      | Some s -> s
      | None ->
          let s = R.make_session ~n:size ~l in
          Hashtbl.add sessions size s;
          s
    in
    let local_ranks = Array.make n 0 in
    let ctx = Sha256.init () in
    Sha256.feed_string ctx "ppgr-shard-transcript-v1";
    let group_ops = ref 0 in
    let shard_scheds = Array.make count [] in
    let shard_stats =
      Array.init count (fun i ->
          let ms = plan.members.(i) in
          let size = Array.length ms in
          let shard_rng = Rng.split rng ~label:("shard-" ^ string_of_int i) in
          let t0 = Unix.gettimeofday () in
          let ops0 = G.op_count () in
          let sha, bytes =
            if size = 1 then begin
              (* A singleton shard needs no ring: its member ranks
                 first trivially and goes straight to the merge. *)
              local_ranks.(ms.(0)) <- 1;
              (Sha256.hex_of_digest (Sha256.digest_string "ppgr-shard-singleton"), 0)
            end
            else begin
              let sub = Array.map (fun p -> betas.(p)) ms in
              let session = session_for size in
              let st = R.run ~session ~shard:i shard_rng ~l ~betas:sub in
              Array.iteri (fun j p -> local_ranks.(p) <- st.R.ranks.(j)) ms;
              shard_scheds.(i) <- st.R.net_rounds;
              (st.R.transcript_sha, st.R.bytes_on_wire)
            end
          in
          let ops = G.op_count () - ops0 in
          group_ops := !group_ops + ops;
          let wall = Unix.gettimeofday () -. t0 in
          Sha256.feed_string ctx sha;
          {
            shard = i;
            size;
            shard_wall_s = wall;
            shard_group_ops = ops;
            shard_sha = sha;
            shard_bytes = bytes;
          })
    in
    (* Candidates in canonical (shard, local) order: the Topk tie-break
       resolves by this public ordering and nothing else. *)
    let candidates =
      Array.of_list
        (List.concat_map
           (fun i ->
             List.map
               (fun p -> (p, betas.(p)))
               (representatives ~k ~members:plan.members.(i)
                  ~local_ranks:(Array.map (fun p -> local_ranks.(p)) plan.members.(i))))
           (List.init count Fun.id))
    in
    let merge_rng = Rng.split rng ~label:"shard-merge" in
    let merge = merge_top_k merge_rng ~l ~committee ~k ~candidates in
    (* Chain the merge outcome into the global digest: candidate ids,
       winners and the committee's deterministic cost ledger. *)
    let c = merge.merge_costs in
    Sha256.feed_string ctx
      (Printf.sprintf "merge:%s|%s|%d:%d:%d:%d"
         (String.concat ","
            (Array.to_list (Array.map string_of_int merge.candidates)))
         (String.concat ","
            (Array.to_list (Array.map string_of_int merge.winners)))
         c.Engine.c_mults c.Engine.c_rounds c.Engine.c_elements c.Engine.c_opens);
    let field_bytes =
      (Bigint.numbits (Ppgr_dotprod.Zfield.modulus (merge_field ~l)) + 7) / 8
    in
    let schedule =
      fan_in_schedule ~plan ~shard_scheds ~merge ~l ~field_bytes
    in
    {
      plan;
      local_ranks;
      winners = merge.winners;
      shard_stats;
      merge;
      transcript_sha = Sha256.hex_of_digest (Sha256.finalize ctx);
      group_ops = !group_ops;
      schedule;
    }

  (** Simulate the fan-in traffic of a finished run on its two-level
      tree. *)
  let simulate_fan_in (r : result) : Netsim.stats =
    let topo = Topology.two_level_tree ~shard_sizes:(sizes r.plan) () in
    let placement = placement ~plan:r.plan ~committee:r.merge.committee in
    Netsim.run topo ~placement r.schedule
end
