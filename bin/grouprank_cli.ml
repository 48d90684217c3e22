(* Command-line driver for the privacy preserving group ranking
   framework.

   Subcommands:
     run       run a full ranking on synthetic or file-given inputs
     rank      committee-sharded ranking (near-linear in n)
     simulate  run the framework over the simulated network topology
     inspect   print group/parameter information

   Examples:
     grouprank_cli run --group ecc-160 -n 8 -k 3 --seed demo
     grouprank_cli run --group dl-1024 --spec 6,3,8,4 -n 5 --verbose
     grouprank_cli rank --group ecc-160 -n 200 -k 10 --shard-size 16
     grouprank_cli simulate -n 20 --nodes 40 --edges 90
     grouprank_cli inspect --group ecc-256 *)

open Cmdliner
open Ppgr_grouprank

(* Every group the CLI can instantiate, by its command-line name. *)
let groups : (string * (unit -> Ppgr_group.Group_intf.group)) list =
  [
    ("dl-512", Ppgr_group.Dl_group.dl_512);
    ("dl-1024", Ppgr_group.Dl_group.dl_1024);
    ("dl-2048", Ppgr_group.Dl_group.dl_2048);
    ("dl-3072", Ppgr_group.Dl_group.dl_3072);
    ("dl-test", Ppgr_group.Dl_group.dl_test_128);
    ("ecc-160", Ppgr_group.Ec_group.ecc_160);
    ("ecc-192", Ppgr_group.Ec_group.ecc_192);
    ("ecc-224", Ppgr_group.Ec_group.ecc_224);
    ("ecc-256", Ppgr_group.Ec_group.ecc_256);
    ("ecc-tiny", Ppgr_group.Ec_group.ecc_tiny);
  ]

(* [--group] is parsed as an enum over [groups], so only a listed name
   reaches this lookup. *)
let group_of_name name = (List.assoc name groups) ()

let group_arg =
  let names = List.map fst groups in
  let doc = "Group instantiation: " ^ String.concat ", " names ^ "." in
  Arg.(
    value
    & opt (enum (List.map (fun name -> (name, name)) names)) "ecc-tiny"
    & info [ "group"; "g" ] ~docv:"GROUP" ~doc)

let n_arg =
  Arg.(value & opt int 6 & info [ "n" ] ~docv:"N" ~doc:"Number of participants.")

let k_arg =
  Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"How many top participants are invited.")

let seed_arg =
  Arg.(value & opt string "cli" & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic RNG seed.")

let spec_arg =
  let doc =
    "Attribute spec as m,t,d1,d2: m attributes, the first t of them \
     \"equal to\", d1-bit values, d2-bit weights."
  in
  Arg.(value & opt string "4,2,8,4" & info [ "spec" ] ~docv:"M,T,D1,D2" ~doc)

let h_arg =
  Arg.(value & opt int 12 & info [ "h" ] ~docv:"H" ~doc:"Bits of the multiplicative gain mask rho.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print per-phase cost counters.")

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON of the run to $(docv) (loadable in \
     Perfetto / chrome://tracing): one span per protocol step per party, \
     with operation and byte counts as span arguments."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let jsonl_arg =
  let doc = "Write the recorded spans as one-JSON-object-per-line to $(docv)." in
  Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Print the per-phase × per-party metrics table (exponentiations, group \
     multiplications, bytes, wall time) and check its column sums against \
     the global meters."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let faults_arg =
  let doc =
    "After the ranking, replay the distributed (bytes-only) runtime under \
     a seeded fault schedule, e.g. \
     $(b,drop=0.1,corrupt=0.05,dup=0.05,reorder=0.05,delay=0.1,maxdelay=4,seed=chaos). \
     Prints the recovery report (retransmissions, CRC rejects, suppressed \
     duplicates, simulated backoff) and the physical transcript digest; \
     exits with status 3 on a typed Party_dropped abort."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let window_arg =
  let doc =
    "Transport window spec for the distributed (runtime) leg, e.g. \
     $(b,window=8,rto=4,link-0-1=16): sliding-window size per directed \
     link (1 = stop-and-wait), retransmission timeout in ticks, \
     per-link overrides.  Implies the runtime leg even without \
     $(b,--faults) (a clean schedule is used)."
  in
  Arg.(value & opt (some string) None & info [ "window" ] ~docv:"SPEC" ~doc)

let restart_arg =
  let doc =
    "Supervise the runtime leg with checkpoint/restart: on a \
     Party_dropped abort, resume from the last completed step up to \
     $(docv) times, then re-elect the ring without the dead party \
     (collusion bound degrades to n-3 for that session).  Implies the \
     runtime leg even without $(b,--faults)."
  in
  Arg.(value & opt int 0 & info [ "restart" ] ~docv:"N" ~doc)

let stats_out_arg =
  let doc =
    "Write a Prometheus text-format snapshot of all meters, probes and \
     latency/size histograms to $(docv) after the run (scrape payload of \
     the future daemon mode).  Enables histogram recording for the run."
  in
  Arg.(value & opt (some string) None & info [ "stats-out" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel hot loops (0 = all recommended \
     cores).  Defaults to the PPGR_JOBS environment variable, else 1.  \
     Results are identical at any job count; only wall time changes."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"K" ~doc)

let apply_jobs = function
  | None -> () (* leave PPGR_JOBS (or the default of 1) in charge *)
  | Some k -> Ppgr_exec.Pool.set_jobs k

let parse_spec s =
  match String.split_on_char ',' s with
  | [ m; t; d1; d2 ] ->
      Attrs.spec ~m:(int_of_string m) ~t:(int_of_string t)
        ~d1:(int_of_string d1) ~d2:(int_of_string d2)
  | _ -> failwith "spec must be m,t,d1,d2"

(* The chaos leg of [run]: the same participants' gains pushed through
   the message-passing runtime with a fault plan on every link.  The
   contract (test/test_chaos.ml): correct ranks or a typed abort with
   forensics — never a hang, never a silently wrong ranking. *)
let run_faults group spec criterion infos ~seed ?flows_out ?window
    ~restarts fspec =
  let module G = (val group : Ppgr_group.Group_intf.GROUP) in
  let module RT = Runtime.Make (G) in
  let open Ppgr_bigint in
  let gains = Array.map (Attrs.gain spec criterion) infos in
  (* Gains may be negative; ranking is invariant under a common shift,
     and phase 2 wants non-negative l-bit betas. *)
  let lo = Array.fold_left Stdlib.min 0 gains in
  let betas = Array.map (fun g -> Bigint.of_int (g - lo)) gains in
  let l =
    Array.fold_left (fun a b -> Stdlib.max a (Bigint.numbits b)) 1 betas
  in
  let fspec = Ppgr_mpcnet.Faultplan.spec_of_string fspec in
  Printf.printf "\nfault schedule: %s\n"
    (Ppgr_mpcnet.Faultplan.spec_to_string fspec);
  let window = Option.map Transport.winspec_of_string window in
  (match window with
  | Some w -> Printf.printf "window spec:    %s\n" (Transport.winspec_to_string w)
  | None -> ());
  let rng = Ppgr_rng.Rng.create ~seed:(seed ^ "-faults") in
  (* [restarts] above 0 supervises with checkpoint/restart; the result
     carries how the run got there (resumes / ring re-election). *)
  let run () =
    if restarts = 0 then (RT.run ~faults:fspec ?window rng ~l ~betas, 0, None)
    else begin
      let rc =
        RT.run_with_restart ~faults:fspec ?window ~max_restarts:restarts rng
          ~l ~betas
      in
      (rc.RT.rec_stats, rc.RT.rec_resumes, rc.RT.rec_reelected)
    end
  in
  (* With --trace the chaos leg is captured too: its spans plus the
     transport's causal ledger become a flow-arrow trace beside the
     main one. *)
  let outcome =
    match flows_out with
    | None -> ( try Ok (run (), None) with Transport.Party_dropped f -> Error f)
    | Some _ -> (
        try
          let st, spans = Ppgr_obs.Trace.capture run in
          Ok (st, Some spans)
        with Transport.Party_dropped f -> Error f)
  in
  match outcome with
  | Ok ((st, resumes, reelected), spans_opt) ->
      let injected =
        String.concat ", "
          (List.filter_map
             (fun (k, c) -> if c = 0 then None else Some (Printf.sprintf "%s %d" k c))
             st.RT.faults_injected)
      in
      Printf.printf "runtime survived: ranks %s\n"
        (String.concat ","
           (Array.to_list (Array.map string_of_int st.RT.ranks)));
      (match (resumes, reelected) with
      | 0, None -> ()
      | r, None ->
          Printf.printf "  recovery:          resumed from checkpoint %d time(s)\n" r
      | r, Some dead ->
          Printf.printf
            "  recovery:          %d failed resume(s); ring re-elected without \
             P%d (collusion bound now n-3)\n"
            r (dead + 1));
      Printf.printf "  injected:          %s\n"
        (if injected = "" then "nothing" else injected);
      Printf.printf "  retransmissions:   %d\n" st.RT.retransmits;
      Printf.printf "  CRC rejects:       %d\n" st.RT.crc_rejects;
      Printf.printf "  dups suppressed:   %d\n" st.RT.dup_suppressed;
      Printf.printf "  backoff ticks:     %d\n" st.RT.backoff_ticks;
      if st.RT.acks_sent > 0 then
        Printf.printf "  acks:              %d (%d bytes, control plane)\n"
          st.RT.acks_sent st.RT.ack_bytes;
      Printf.printf "  simulated ticks:   %d\n" st.RT.sim_ticks;
      Printf.printf "  bytes (logical):   %d in %d messages\n" st.RT.bytes_on_wire
        st.RT.messages;
      Printf.printf "  bytes (physical):  %d in %d transmissions\n" st.RT.phys_bytes
        st.RT.phys_messages;
      Printf.printf "  transcript sha256: %s\n" st.RT.transcript_sha;
      (* Per-directed-link physical accounting; the links must tile the
         global physical counters exactly (they tally at transmit time,
         so the check holds under reordering too). *)
      Printf.printf "  per-link physical traffic:\n";
      Printf.printf "    %4s %4s %10s %12s %8s\n" "from" "to" "msgs" "bytes"
        "retrans";
      List.iter
        (fun (lk : Transport.link) ->
          Printf.printf "    %4d %4d %10d %12d %8d\n" lk.Transport.lk_src
            lk.Transport.lk_dst lk.Transport.lk_msgs lk.Transport.lk_bytes
            lk.Transport.lk_retrans)
        st.RT.links;
      let sum f = List.fold_left (fun a lk -> a + f lk) 0 st.RT.links in
      let lk_msgs = sum (fun lk -> lk.Transport.lk_msgs) in
      let lk_bytes = sum (fun lk -> lk.Transport.lk_bytes) in
      let lk_retrans = sum (fun lk -> lk.Transport.lk_retrans) in
      Printf.printf "    links total: %d msgs, %d bytes, %d retrans  %s\n" lk_msgs
        lk_bytes lk_retrans
        (if
           lk_msgs = st.RT.phys_messages
           && lk_bytes = st.RT.phys_bytes
           && lk_retrans = st.RT.retransmits
         then "(tiles physical counters: ok)"
         else "(MISMATCH vs physical counters)");
      if
        lk_msgs <> st.RT.phys_messages
        || lk_bytes <> st.RT.phys_bytes
        || lk_retrans <> st.RT.retransmits
      then failwith "per-link accounting does not tile the physical counters";
      (match (flows_out, spans_opt) with
      | Some path, Some spans ->
          Ppgr_obs.Export.write_chrome
            ~flows:(Transport.flows_to_export st.RT.flows)
            path spans;
          Printf.printf
            "  flows trace: %d spans + %d causal arrows -> %s (Perfetto)\n"
            (List.length spans) (List.length st.RT.flows) path
      | _ -> ());
      0
  | Error f ->
      Printf.printf "runtime aborted: Party_dropped\n";
      Printf.printf "  step:      %s\n" f.Transport.fr_step;
      Printf.printf "  link:      P%d -> P%d (seq %d)\n" (f.Transport.fr_src + 1)
        (f.Transport.fr_dst + 1) f.Transport.fr_seq;
      Printf.printf "  attempts:  %d (%s)\n" f.Transport.fr_attempts
        (String.concat "," f.Transport.fr_events);
      Printf.printf "  digest at abort: %s\n" f.Transport.fr_digest;
      (* The dropping sender's flight-recorder tail: the last wire
         events preceding the abort, oldest first. *)
      Printf.printf "  flight recorder (P%d, last %d events):\n"
        (f.Transport.fr_src + 1)
        (List.length f.Transport.fr_flight);
      List.iter
        (fun ev ->
          Printf.printf "    %s\n"
            (Format.asprintf "%a" Ppgr_obs.Flightrec.pp_event ev))
        f.Transport.fr_flight;
      3

let run_cmd group_name n k seed spec_s h verbose jobs trace jsonl metrics faults
    window restart stats_out =
  apply_jobs jobs;
  let rng = Ppgr_rng.Rng.create ~seed in
  let spec = parse_spec spec_s in
  let criterion = Attrs.random_criterion rng spec in
  let infos = Array.init n (fun _ -> Attrs.random_info rng spec) in
  let cfg = Framework.config ~h ~spec ~k () in
  let group = group_of_name group_name in
  let module G = (val group) in
  Printf.printf "group: %s (order %d bits), participants: %d, k: %d\n" G.name
    (Ppgr_bigint.Bigint.numbits G.order)
    n k;
  let observing =
    trace <> None || jsonl <> None || metrics || stats_out <> None
  in
  if stats_out <> None then begin
    Ppgr_obs.Hist.reset_all ();
    Ppgr_obs.Hist.set_enabled true
  end;
  if observing then begin
    (* The probes sampled at every span boundary: full exponentiations
       (global engine meter), this group's multiplication counter, and
       any family-specific counters the group exports (the EC family's
       field-inversion count, where batch normalization shows up). *)
    Ppgr_obs.Metrics.register ~name:"exps" (fun () -> Ppgr_group.Opmeter.count ());
    Ppgr_obs.Metrics.register ~name:"group_mults" (fun () -> G.op_count ());
    List.iter
      (fun (name, read) -> Ppgr_obs.Metrics.register ~name read)
      G.probes
  end;
  let exps0 = Ppgr_group.Opmeter.count () in
  let mults0 = G.op_count () in
  let t0 = Unix.gettimeofday () in
  let out, spans =
    if observing then
      Ppgr_obs.Trace.capture (fun () ->
          Framework.run_with_group group rng cfg ~criterion ~infos)
    else (Framework.run_with_group group rng cfg ~criterion ~infos, [])
  in
  (* Probes stay registered until after the --stats-out snapshot (end
     of this function) so the exposition includes their counters. *)
  let unregister_probes () =
    if observing then begin
      Ppgr_obs.Metrics.unregister ~name:"exps";
      Ppgr_obs.Metrics.unregister ~name:"group_mults";
      List.iter (fun (name, _) -> Ppgr_obs.Metrics.unregister ~name) G.probes
    end
  in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "\n%-4s %-10s %s\n" "who" "rank" "gain (cleartext, for reference only)";
  Array.iteri
    (fun j r ->
      Printf.printf "P%-3d %-10d %d\n" (j + 1) r
        (Attrs.gain spec criterion infos.(j)))
    out.Framework.ranks;
  Printf.printf "\nsubmissions: %s\n"
    (String.concat ", "
       (List.map
          (fun s -> Printf.sprintf "P%d(rank %d)" (s.Framework.participant + 1) s.Framework.claimed_rank)
          out.Framework.accepted));
  if out.Framework.flagged <> [] then
    Printf.printf "flagged over-claims: %d\n" (List.length out.Framework.flagged);
  if verbose then begin
    let c = out.Framework.costs in
    Printf.printf "\ncosts:\n";
    Printf.printf "  beta bit-length l: %d\n" c.Framework.beta_bits;
    Printf.printf "  per-participant group ops: %s\n"
      (String.concat ", "
         (Array.to_list (Array.map string_of_int c.Framework.participant_ops)));
    Printf.printf "  per-participant exponentiations: %s\n"
      (String.concat ", "
         (Array.to_list (Array.map string_of_int c.Framework.participant_exps)));
    Printf.printf "  initiator field mults: %d\n" c.Framework.initiator_field_mults;
    Printf.printf "  rounds: %d, messages: %d, bytes: %d\n"
      (List.length c.Framework.schedule)
      (Cost.total_messages c.Framework.schedule)
      (Cost.total_bytes c.Framework.schedule)
  end;
  (match trace with
  | Some path ->
      Ppgr_obs.Export.write_chrome path spans;
      Printf.printf "\ntrace: %d spans -> %s (load in https://ui.perfetto.dev)\n"
        (List.length spans) path
  | None -> ());
  (match jsonl with
  | Some path ->
      Ppgr_obs.Export.write_jsonl path spans;
      Printf.printf "jsonl: %d spans -> %s\n" (List.length spans) path
  | None -> ());
  if metrics then begin
    let rows = Ppgr_obs.Summary.rows spans in
    Printf.printf "\nper-phase x per-party metrics:\n%s"
      (Ppgr_obs.Summary.to_string rows);
    (* The party spans tile the run, so their column sums must equal
       the global meters over the same interval. *)
    let sum_exps = Ppgr_obs.Summary.total rows "exps" in
    let sum_mults = Ppgr_obs.Summary.total rows "group_mults" in
    let sum_bytes = Ppgr_obs.Summary.total rows "bytes_out" in
    let glob_exps = Ppgr_group.Opmeter.count () - exps0 in
    let glob_mults = G.op_count () - mults0 in
    let glob_bytes = Cost.total_bytes out.Framework.costs.Framework.schedule in
    let check label a b =
      Printf.printf "  %-12s %12d (table) %12d (global)  %s\n" label a b
        (if a = b then "ok" else "MISMATCH")
    in
    Printf.printf "\nconsistency (table column sums vs global meters):\n";
    check "exps" sum_exps glob_exps;
    check "group_mults" sum_mults glob_mults;
    check "bytes" sum_bytes glob_bytes;
    if sum_exps <> glob_exps || sum_mults <> glob_mults || sum_bytes <> glob_bytes
    then failwith "metrics consistency check failed"
  end;
  Printf.printf "\nwall clock: %.3f s\n" dt;
  let code =
    if faults = None && window = None && restart = 0 then 0
    else begin
      (* --window / --restart imply the runtime leg even without a
         fault schedule (a clean seeded plan is used).  A traced leg
         writes its own flow-arrow trace next to the main one. *)
      let fspec = Option.value faults ~default:"seed=clean" in
      let flows_out = Option.map (fun p -> p ^ ".flows.json") trace in
      run_faults group spec criterion infos ~seed ?flows_out ?window
        ~restarts:restart fspec
    end
  in
  (match stats_out with
  | Some path ->
      Ppgr_obs.Export.write_prometheus path;
      Ppgr_obs.Hist.set_enabled false;
      Printf.printf "stats: Prometheus snapshot -> %s\n" path
  | None -> ());
  unregister_probes ();
  if code <> 0 then exit code

let shards_arg =
  let doc =
    "Number of shards (rings).  Mutually exclusive with $(b,--shard-size): \
     the bound s is derived as ceil(n / shards)."
  in
  Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"S" ~doc)

let shard_size_arg =
  let doc = "Maximum participants per shard ring (the bound s)." in
  Arg.(value & opt (some int) None & info [ "shard-size" ] ~docv:"SIZE" ~doc)

let committee_arg =
  let doc = "Merge committee size m (threshold (m-1)/2 honest-but-curious)." in
  Arg.(value & opt int 5 & info [ "committee" ] ~docv:"M" ~doc)

(* Committee-sharded ranking: the quadratic ring broken into rings of
   bounded size plus a secure top-k merge (lib/grouprank/shard.ml).
   Near-linear in n — this is the subcommand that ranks 10k+. *)
let rank_cmd group_name n k seed spec_s jobs shards shard_size committee
    metrics =
  apply_jobs jobs;
  let shard_size =
    match (shards, shard_size) with
    | Some _, Some _ -> failwith "--shards and --shard-size are mutually exclusive"
    | Some s, None ->
        if s < 1 then failwith "--shards must be >= 1";
        Stdlib.max 2 ((n + s - 1) / s)
    | None, Some sz -> sz
    | None, None -> 16
  in
  let rng = Ppgr_rng.Rng.create ~seed in
  let spec = parse_spec spec_s in
  let criterion = Attrs.random_criterion rng spec in
  let infos = Array.init n (fun _ -> Attrs.random_info rng spec) in
  let gains = Array.map (Attrs.gain spec criterion) infos in
  let lo = Array.fold_left Stdlib.min 0 gains in
  let betas =
    Array.map (fun g -> Ppgr_bigint.Bigint.of_int (g - lo)) gains
  in
  let l =
    Array.fold_left
      (fun a b -> Stdlib.max a (Ppgr_bigint.Bigint.numbits b))
      1 betas
  in
  let group = group_of_name group_name in
  let module G = (val group) in
  let module S = Shard.Make (G) in
  Printf.printf
    "group: %s, participants: %d, k: %d, shard bound s: %d, committee: %d\n"
    G.name n k shard_size committee;
  let t0 = Unix.gettimeofday () in
  let res, spans =
    if metrics then
      Ppgr_obs.Trace.capture (fun () ->
          S.run ~shard_size ~committee ~k rng ~l ~betas)
    else (S.run ~shard_size ~committee ~k rng ~l ~betas, [])
  in
  let dt = Unix.gettimeofday () -. t0 in
  let plan = res.Shard.plan in
  Printf.printf "shards: %d (sizes %s)\n"
    (Shard.shards plan)
    (String.concat ","
       (Array.to_list (Array.map string_of_int (Shard.sizes plan))));
  Printf.printf "winners (top-%d, membership only): %s\n" k
    (String.concat ", "
       (Array.to_list
          (Array.map (fun p -> Printf.sprintf "P%d" (p + 1)) res.Shard.winners)));
  Printf.printf "\nper-shard:\n";
  Printf.printf "  %5s %5s %10s %14s %12s  %s\n" "shard" "size" "wall_s"
    "group_mults" "bytes" "transcript sha256";
  Array.iter
    (fun (s : Shard.shard_stat) ->
      Printf.printf "  %5d %5d %10.3f %14d %12d  %s\n" s.Shard.shard
        s.Shard.size s.Shard.shard_wall_s s.Shard.shard_group_ops
        s.Shard.shard_bytes s.Shard.shard_sha)
    res.Shard.shard_stats;
  let mc = res.Shard.merge.Shard.merge_costs in
  Printf.printf
    "\nmerge: %d candidates -> %d winners on a %d-party committee\n"
    (Array.length res.Shard.merge.Shard.candidates)
    (Array.length res.Shard.winners)
    res.Shard.merge.Shard.committee;
  Printf.printf
    "  mults: %d, field mults: %d, rounds: %d, elements: %d, opens: %d, wall: %.3f s\n"
    mc.Ppgr_shamir.Engine.c_mults mc.Ppgr_shamir.Engine.c_field_mults
    mc.Ppgr_shamir.Engine.c_rounds mc.Ppgr_shamir.Engine.c_elements
    mc.Ppgr_shamir.Engine.c_opens res.Shard.merge.Shard.merge_wall_s;
  Printf.printf "\ntotal group mults: %d\n" res.Shard.group_ops;
  Printf.printf "transcript sha256: %s\n" res.Shard.transcript_sha;
  let st = S.simulate_fan_in res in
  Printf.printf
    "fan-in tree (root + %d aggregators): elapsed %.2f s, %d messages, %d bytes, %d rounds\n"
    (Shard.shards plan) st.Ppgr_mpcnet.Netsim.elapsed_s
    st.Ppgr_mpcnet.Netsim.message_count st.Ppgr_mpcnet.Netsim.bytes_sent
    st.Ppgr_mpcnet.Netsim.rounds;
  if metrics then begin
    let rows = Ppgr_obs.Summary.by_shard spans in
    Printf.printf "\nper-shard metrics roll-up:\n%s"
      (Ppgr_obs.Summary.to_string rows)
  end;
  Printf.printf "\nwall clock: %.3f s\n" dt

let simulate_cmd group_name n k seed nodes edges jobs metrics =
  apply_jobs jobs;
  let rng = Ppgr_rng.Rng.create ~seed in
  let spec = parse_spec "4,2,8,4" in
  let criterion = Attrs.random_criterion rng spec in
  let infos = Array.init n (fun _ -> Attrs.random_info rng spec) in
  let cfg = Framework.config ~h:10 ~spec ~k () in
  let out = Framework.run_with_group (group_of_name group_name) rng cfg ~criterion ~infos in
  let open Ppgr_mpcnet in
  let topo = Topology.random_connected rng ~nodes ~edges () in
  let placement = Netsim.place_parties topo ~parties:(n + 1) in
  (* Use a representative per-op cost; the bench harness calibrates this
     per group. *)
  let st =
    Netsim.run topo ~placement
      (Cost.to_netsim ~seconds_per_op:5e-6 out.Framework.costs.Framework.schedule)
  in
  Printf.printf
    "simulated on %d-node/%d-edge topology: elapsed %.2f s, %d messages, %d bytes, %d rounds\n"
    nodes edges st.Netsim.elapsed_s st.Netsim.message_count st.Netsim.bytes_sent
    st.Netsim.rounds;
  if metrics then begin
    Printf.printf "\nper-party end-to-end traffic (party n is the initiator):\n";
    Printf.printf "%6s %12s %12s\n" "party" "bytes_out" "bytes_in";
    Array.iteri
      (fun j out ->
        Printf.printf "%6d %12d %12d\n" j out st.Netsim.party_bytes_in.(j))
      st.Netsim.party_bytes_out;
    Printf.printf "\nbusiest directed links (store-and-forward hops included):\n";
    Printf.printf "%6s %6s %12s %10s\n" "from" "to" "bytes" "messages";
    let edges_sorted =
      List.sort
        (fun (a : Netsim.edge_traffic) b -> compare b.edge_bytes a.edge_bytes)
        st.Netsim.edges
    in
    List.iteri
      (fun i (e : Netsim.edge_traffic) ->
        if i < 20 then
          Printf.printf "%6d %6d %12d %10d\n" e.Netsim.node_from e.Netsim.node_to
            e.Netsim.edge_bytes e.Netsim.edge_messages)
      edges_sorted;
    if List.length edges_sorted > 20 then
      Printf.printf "  (%d links total)\n" (List.length edges_sorted)
  end

let inspect_cmd group_name =
  let module G = (val group_of_name group_name) in
  Printf.printf "name:           %s\n" G.name;
  Printf.printf "security:       %d-bit symmetric equivalent\n" G.security_bits;
  Printf.printf "order bits:     %d\n" (Ppgr_bigint.Bigint.numbits G.order);
  Printf.printf "element bytes:  %d\n" G.element_bytes;
  Printf.printf "ciphertext S_c: %d bytes\n" (2 * G.element_bytes);
  Printf.printf "order:          %s\n" (Ppgr_bigint.Bigint.to_string_hex G.order)

let run_term =
  Term.(
    const run_cmd $ group_arg $ n_arg $ k_arg $ seed_arg $ spec_arg $ h_arg
    $ verbose_arg $ jobs_arg $ trace_arg $ jsonl_arg $ metrics_arg
    $ faults_arg $ window_arg $ restart_arg $ stats_out_arg)

let rank_term =
  Term.(
    const rank_cmd $ group_arg $ n_arg $ k_arg $ seed_arg $ spec_arg
    $ jobs_arg $ shards_arg $ shard_size_arg $ committee_arg $ metrics_arg)

let nodes_arg =
  Arg.(value & opt int 80 & info [ "nodes" ] ~docv:"V" ~doc:"Topology nodes.")

let edges_arg =
  Arg.(value & opt int 320 & info [ "edges" ] ~docv:"E" ~doc:"Topology edges.")

let simulate_term =
  Term.(
    const simulate_cmd $ group_arg $ n_arg $ k_arg $ seed_arg $ nodes_arg
    $ edges_arg $ jobs_arg $ metrics_arg)

let inspect_term = Term.(const inspect_cmd $ group_arg)

let () =
  let info_ =
    Cmd.info "grouprank_cli" ~version:"1.0.0"
      ~doc:"Privacy preserving group ranking (ICDCS 2012 reproduction)"
  in
  let cmds =
    Cmd.group info_
      [
        Cmd.v (Cmd.info "run" ~doc:"Run a ranking end to end") run_term;
        Cmd.v
          (Cmd.info "rank" ~doc:"Committee-sharded ranking (near-linear in n)")
          rank_term;
        Cmd.v (Cmd.info "simulate" ~doc:"Run over the simulated network") simulate_term;
        Cmd.v (Cmd.info "inspect" ~doc:"Print group parameters") inspect_term;
      ]
  in
  exit (Cmd.eval cmds)
