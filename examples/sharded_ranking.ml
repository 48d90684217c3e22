(* Committee-sharded ranking at scale: 10,000 participants on ECC-160,
   shard bound s = 16.  The monolithic phase-2 ring is quadratic in n —
   at n = 10k it would re-blind ~10^8 ciphertext pairs; the sharded
   orchestrator runs 625 independent 16-party rings (O(n s) group work)
   and merges the shard winners through a secret-shared top-k on a
   5-party committee.

     dune exec examples/sharded_ranking.exe

   The full 10k run takes on the order of an hour on one core; set
   PPGR_EXAMPLE_N to something small (e.g. 200) for a quick look at the
   same code path. *)

open Ppgr_grouprank
module Trace = Ppgr_obs.Trace
module Summary = Ppgr_obs.Summary

let env_int name default =
  match Sys.getenv_opt name with Some s -> int_of_string s | None -> default

let () =
  let n = env_int "PPGR_EXAMPLE_N" 10_000 in
  let l = env_int "PPGR_EXAMPLE_L" 4 in
  let shard_size = 16 and committee = 5 and k = 10 in
  let rng = Ppgr_rng.Rng.create ~seed:"sharded-ranking-demo" in
  let module G = (val Ppgr_group.Ec_group.ecc_160 ()) in
  let module S = Shard.Make (G) in
  (* Betas as phase 1 would emit them: l-bit masked gains whose order
     is the global gain order (the shared rho preserves it, which is
     exactly why shards stay comparable at the merge). *)
  let betas =
    Array.init n (fun _ -> Ppgr_rng.Rng.bigint_bits rng l)
  in
  Printf.printf
    "sharding %d participants over %s: s = %d, committee = %d, top-%d\n%!" n
    G.name shard_size committee k;
  let t0 = Unix.gettimeofday () in
  let res, spans =
    Trace.capture (fun () -> S.run ~shard_size ~committee ~k rng ~l ~betas)
  in
  let dt = Unix.gettimeofday () -. t0 in
  let plan = res.Shard.plan in
  let count = Shard.shards plan in
  Printf.printf "shards: %d (every size <= %d)\n" count shard_size;
  Printf.printf "winners (membership only, no order revealed): %s\n"
    (String.concat ", "
       (Array.to_list
          (Array.map (fun p -> Printf.sprintf "P%d" (p + 1)) res.Shard.winners)));
  (* Each participant only ever learns its rank inside its own ring of
     <= s members; the n-2 collusion bound of the paper becomes s-2 per
     shard — the privacy/throughput trade sharding makes. *)
  let mc = res.Shard.merge.Shard.merge_costs in
  Printf.printf
    "merge: %d candidates on the committee (no group ops), mults: %d, field mults: %d\n"
    (Array.length res.Shard.merge.Shard.candidates)
    mc.Ppgr_shamir.Engine.c_mults mc.Ppgr_shamir.Engine.c_field_mults;
  Printf.printf "total group mults: %d  (monolithic would be O(n^2 l))\n"
    res.Shard.group_ops;
  Printf.printf "transcript sha256: %s\n" res.Shard.transcript_sha;

  (* The per-shard Summary roll-up: party+shard-attributed spans
     aggregated into one row per ring.  Print the slowest few — with
     625 shards the full table is a wall of near-identical rows. *)
  let rows = Summary.by_shard spans in
  let show = 8 in
  let slowest =
    List.sort
      (fun (a : Summary.row) b -> compare b.Summary.wall_us a.Summary.wall_us)
      rows
  in
  Printf.printf "\nslowest %d of %d shards (per-shard Summary roll-up):\n"
    (Stdlib.min show count) count;
  Printf.printf "  %-10s %10s %12s %12s\n" "shard" "wall_ms" "bytes_out"
    "bytes_in";
  List.iteri
    (fun i (r : Summary.row) ->
      if i < show then
        let metric k = try List.assoc k r.Summary.metrics with Not_found -> 0 in
        Printf.printf "  %-10s %10.2f %12d %12d\n" r.Summary.phase
          (r.Summary.wall_us /. 1000.)
          (metric "bytes_out") (metric "bytes_in"))
    slowest;
  Printf.printf "  total shard wall: %.1f s over %d rows\n"
    (Summary.total_wall_us rows /. 1e6)
    (List.length rows);
  Printf.printf "\nwall clock: %.1f s\n" dt
