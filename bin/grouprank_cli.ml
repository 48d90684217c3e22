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

(* A library parser that raises [Invalid_argument] or [Failure] on a
   malformed value, as a cmdliner converter: the bad value becomes a
   usage error (exit 124) with the parser's message, before any
   protocol work. *)
let conv_of ~docv parse print =
  let parse s =
    try Ok (parse s) with Invalid_argument m | Failure m -> Error (`Msg m)
  in
  Arg.conv ~docv (parse, print)

let parse_spec s =
  match List.map int_of_string_opt (String.split_on_char ',' s) with
  | [ Some m; Some t; Some d1; Some d2 ] -> Attrs.spec ~m ~t ~d1 ~d2
  | _ -> invalid_arg (Printf.sprintf "spec must be four integers m,t,d1,d2, got %S" s)

let default_spec = parse_spec "4,2,8,4"

let spec_arg =
  let doc =
    "Attribute spec as m,t,d1,d2: m attributes, the first t of them \
     \"equal to\", d1-bit values, d2-bit weights."
  in
  let print ppf (s : Attrs.spec) =
    Format.fprintf ppf "%d,%d,%d,%d" s.Attrs.m s.Attrs.t s.Attrs.d1 s.Attrs.d2
  in
  Arg.(
    value
    & opt (conv_of ~docv:"M,T,D1,D2" parse_spec print) default_spec
    & info [ "spec" ] ~docv:"M,T,D1,D2" ~doc)

let h_arg =
  Arg.(value & opt int 12 & info [ "h" ] ~docv:"H" ~doc:"Bits of the multiplicative gain mask rho.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print per-phase cost counters.")

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON of the run to $(docv) (loadable in \
     Perfetto / chrome://tracing): one span per protocol step per party, \
     with operation and byte counts as span arguments, and one causal \
     flow arrow per phase-2 message."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Print the per-phase × per-party metrics table (exponentiations, group \
     multiplications, bytes, wall time) and check its column sums against \
     the global meters."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let faults_arg =
  let doc =
    "Run phase 2 under a seeded fault schedule on every link, e.g. \
     $(b,drop=0.1,corrupt=0.05,dup=0.05,reorder=0.05,delay=0.1,maxdelay=4,seed=chaos). \
     Prints the recovery report (retransmissions, CRC rejects, suppressed \
     duplicates, simulated backoff) and the physical transcript digest; \
     exits with status 3 on a typed Party_dropped abort."
  in
  let open Ppgr_mpcnet.Faultplan in
  let print ppf s = Format.pp_print_string ppf (spec_to_string s) in
  Arg.(
    value
    & opt (some (conv_of ~docv:"SPEC" spec_of_string print)) None
    & info [ "faults" ] ~docv:"SPEC" ~doc)

let window_arg =
  let doc =
    "Transport link spec for phase 2, e.g. $(b,rto=4): $(b,rto=) sets \
     the retransmission timeout in simulated ticks (default 4).  \
     $(b,window=) (1 to 32) is accepted and has no effect: the protocol \
     posts at most one message per link per step, and each link \
     delivers its one message attempt by attempt.  Prints the recovery \
     report."
  in
  let print ppf w = Format.pp_print_string ppf (Transport.winspec_to_string w) in
  Arg.(
    value
    & opt (some (conv_of ~docv:"SPEC" Transport.winspec_of_string print)) None
    & info [ "window" ] ~docv:"SPEC" ~doc)

let restart_arg =
  let doc =
    "Supervise phase 2 with checkpoint/restart: on a Party_dropped \
     abort, resume from the last completed step up to $(docv) times, then \
     re-elect the ring without the dead party (collusion bound degrades \
     to n-3 for that session; the dead party learns no rank).  Prints the \
     recovery report."
  in
  Arg.(value & opt int 0 & info [ "restart" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel hot loops (0 = all recommended \
     cores).  Defaults to the PPGR_JOBS environment variable (a \
     positive integer, 0 or auto), else 1.  Results are identical at \
     any job count; only wall time changes."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"K" ~doc)

(* Range checks across flags, then the job count: [--jobs] overrides
   PPGR_JOBS without reading it, and without the flag a malformed
   PPGR_JOBS fails like a malformed flag.  The first failing check is a
   usage error (exit 124), reported before any protocol work. *)
let usage_checked ~jobs checks run =
  let env_jobs () =
    match Ppgr_exec.Pool.jobs () with
    | _ -> (true, "")
    | exception Invalid_argument msg -> (false, msg)
  in
  let checks = if jobs = None then checks @ [ env_jobs () ] else checks in
  match List.find_opt (fun (ok, _) -> not ok) checks with
  | Some (_, msg) -> `Error (true, msg)
  | None ->
      Option.iter Ppgr_exec.Pool.set_jobs jobs;
      `Ok (run ())

(* [run] and [simulate] execute phase 2, whose ring needs two parties;
   [rank] seats a singleton shard without one. *)
let count_checks ~min_n ~n ~k =
  [
    (n >= min_n, Printf.sprintf "-n must be at least %d" min_n);
    (k >= 1 && k <= n, Printf.sprintf "-k must be between 1 and n = %d" n);
  ]

(* A typed Party_dropped abort: where it happened, and the dropping
   sender's flight-recorder tail (its last wire events, oldest first). *)
let print_abort (f : Transport.forensics) =
  Printf.printf "runtime aborted: Party_dropped\n";
  Printf.printf "  step:      %s\n" f.Transport.fr_step;
  Printf.printf "  link:      P%d -> P%d (seq %d)\n" (f.Transport.fr_src + 1)
    (f.Transport.fr_dst + 1) f.Transport.fr_seq;
  Printf.printf "  attempts:  %d (%s)\n" f.Transport.fr_attempts
    (String.concat "," f.Transport.fr_events);
  Printf.printf "  digest at abort: %s\n" f.Transport.fr_digest;
  Printf.printf "  flight recorder (P%d, last %d events):\n"
    (f.Transport.fr_src + 1)
    (List.length f.Transport.fr_flight);
  List.iter
    (fun ev ->
      Printf.printf "    %s\n" (Format.asprintf "%a" Ppgr_obs.Flightrec.pp_event ev))
    f.Transport.fr_flight

let run_cmd group_name n k seed spec h verbose jobs trace metrics faults window
    restart =
  usage_checked ~jobs
    (count_checks ~min_n:2 ~n ~k
    @ [
        (h >= 1, "-h must be at least 1");
        (restart >= 0, "--restart must be at least 0");
      ])
  @@ fun () ->
  let rng = Ppgr_rng.Rng.create ~seed in
  let criterion = Attrs.random_criterion rng spec in
  let infos = Array.init n (fun _ -> Attrs.random_info rng spec) in
  let cfg = Framework.config ~h ~spec ~k () in
  let module G = (val group_of_name group_name) in
  let module F = Framework.Make (G) in
  Printf.printf "group: %s (order %d bits), participants: %d, k: %d\n" G.name
    (Ppgr_bigint.Bigint.numbits G.order)
    n k;
  let observing = trace <> None || metrics in
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
  (* The one execution: phase 1, one phase-2 session shaped by
     --faults/--window/--restart, phase 3.  An abort keeps its spans. *)
  let go () =
    try Ok (F.run ?faults ?window ~restarts:restart rng cfg ~criterion ~infos)
    with Transport.Party_dropped f -> Error f
  in
  let result, spans =
    if observing then Ppgr_obs.Trace.capture go else (go (), [])
  in
  let dt = Unix.gettimeofday () -. t0 in
  let write_traces () =
    match trace with
    | Some path ->
        Ppgr_obs.Export.write_chrome path spans;
        Printf.printf "\ntrace: %d spans -> %s (load in https://ui.perfetto.dev)\n"
          (List.length spans) path
    | None -> ()
  in
  let out, rc =
    match result with
    | Ok r -> r
    | Error f ->
        write_traces ();
        print_abort f;
        exit 3
  in
  let st = rc.F.RT.rec_stats in
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
    Printf.printf "  rounds: %d, messages: %d, bytes: %d (payload %d)\n"
      (List.length c.Framework.schedule)
      (Cost.total_messages c.Framework.schedule)
      (Cost.total_bytes c.Framework.schedule)
      c.Framework.wire_bytes
  end;
  write_traces ();
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
    let glob_bytes = out.Framework.costs.Framework.wire_bytes in
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
  (* --faults, --window and --restart shaped the session: report how it
     survived.  The per-link table must tile the physical counters (they
     tally at transmit time, so the check holds under reordering too). *)
  if faults <> None || window <> None || restart > 0 then begin
    Printf.printf "\nfault schedule: %s\n"
      (match faults with
      | Some f -> Ppgr_mpcnet.Faultplan.spec_to_string f
      | None -> "none");
    (match window with
    | Some w -> Printf.printf "window spec:    %s\n" (Transport.winspec_to_string w)
    | None -> ());
    (match (rc.F.RT.rec_resumes, rc.F.RT.rec_reelected) with
    | 0, None -> ()
    | r, None ->
        Printf.printf "  recovery:          resumed from checkpoint %d time(s)\n" r
    | r, Some dead ->
        Printf.printf
          "  recovery:          %d failed resume(s); ring re-elected without \
           P%d (collusion bound now n-3)\n"
          r (dead + 1));
    let injected =
      String.concat ", "
        (List.filter_map
           (fun (k, c) -> if c = 0 then None else Some (Printf.sprintf "%s %d" k c))
           st.F.RT.faults_injected)
    in
    Printf.printf "  injected:          %s\n"
      (if injected = "" then "nothing" else injected);
    Printf.printf "  retransmissions:   %d\n" st.F.RT.retransmits;
    Printf.printf "  CRC rejects:       %d\n" st.F.RT.crc_rejects;
    Printf.printf "  dups suppressed:   %d\n" st.F.RT.dup_suppressed;
    Printf.printf "  backoff ticks:     %d\n" st.F.RT.backoff_ticks;
    Printf.printf "  acks:              %d (%d bytes, control plane)\n"
      st.F.RT.acks_sent st.F.RT.ack_bytes;
    Printf.printf "  simulated ticks:   %d\n" st.F.RT.sim_ticks;
    Printf.printf "  bytes (logical):   %d in %d messages\n" st.F.RT.bytes_on_wire
      st.F.RT.messages;
    Printf.printf "  bytes (physical):  %d in %d transmissions\n" st.F.RT.phys_bytes
      st.F.RT.phys_messages;
    Printf.printf "  transcript sha256: %s\n" st.F.RT.transcript_sha;
    Printf.printf "  per-link physical traffic:\n";
    Printf.printf "    %4s %4s %10s %12s %8s\n" "from" "to" "msgs" "bytes"
      "retrans";
    List.iter
      (fun (lk : Transport.link) ->
        Printf.printf "    %4d %4d %10d %12d %8d\n" lk.Transport.lk_src
          lk.Transport.lk_dst lk.Transport.lk_msgs lk.Transport.lk_bytes
          lk.Transport.lk_retrans)
      st.F.RT.links;
    let sum f = List.fold_left (fun a lk -> a + f lk) 0 st.F.RT.links in
    let lk_msgs = sum (fun lk -> lk.Transport.lk_msgs) in
    let lk_bytes = sum (fun lk -> lk.Transport.lk_bytes) in
    let lk_retrans = sum (fun lk -> lk.Transport.lk_retrans) in
    let tiles =
      lk_msgs = st.F.RT.phys_messages
      && lk_bytes = st.F.RT.phys_bytes
      && lk_retrans = st.F.RT.retransmits
    in
    Printf.printf "    links total: %d msgs, %d bytes, %d retrans  %s\n" lk_msgs
      lk_bytes lk_retrans
      (if tiles then "(tiles physical counters: ok)"
       else "(MISMATCH vs physical counters)");
    if not tiles then
      failwith "per-link accounting does not tile the physical counters"
  end

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
let rank_cmd group_name n k seed spec jobs shards shard_size committee
    metrics =
  let exclusive = shards = None || shard_size = None in
  (* [--shards S] derives the bound s = ceil(n / S). *)
  let shard_size =
    match (shards, shard_size) with
    | Some s, _ when s >= 1 -> Stdlib.max 2 ((n + s - 1) / s)
    | _, Some sz -> sz
    | _ -> 16
  in
  (* The fan-in simulation seats the committee on the coordinator, the
     shard aggregators and then the leaves of its two-level tree. *)
  let tree_nodes = 1 + ((n + shard_size - 1) / Stdlib.max 2 shard_size) + n in
  usage_checked ~jobs
    (count_checks ~min_n:1 ~n ~k
    @ [
        (exclusive, "--shards and --shard-size are mutually exclusive");
        ( Option.fold ~none:true ~some:(fun s -> s >= 1) shards,
          "--shards must be at least 1" );
        (shard_size >= 2, "--shard-size must be at least 2");
        (committee >= 3, "--committee must be at least 3");
        ( committee <= tree_nodes,
          Printf.sprintf
            "--committee must be at most %d, the nodes of this run's fan-in \
             tree"
            tree_nodes );
      ])
  @@ fun () ->
  let rng = Ppgr_rng.Rng.create ~seed in
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
  (* The participants and the initiator each take a node of a connected
     simple graph. *)
  let max_edges = nodes * (nodes - 1) / 2 in
  usage_checked ~jobs
    (count_checks ~min_n:2 ~n ~k
    @ [
        ( nodes >= n + 1,
          Printf.sprintf "--nodes must be at least n + 1 = %d" (n + 1) );
        ( edges >= nodes - 1 && edges <= max_edges,
          Printf.sprintf "--edges must be between %d and %d for %d nodes"
            (nodes - 1) max_edges nodes );
      ])
  @@ fun () ->
  let rng = Ppgr_rng.Rng.create ~seed in
  let spec = default_spec in
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
    ret
      (const run_cmd $ group_arg $ n_arg $ k_arg $ seed_arg $ spec_arg $ h_arg
     $ verbose_arg $ jobs_arg $ trace_arg $ metrics_arg $ faults_arg
     $ window_arg $ restart_arg))

let rank_term =
  Term.(
    ret
      (const rank_cmd $ group_arg $ n_arg $ k_arg $ seed_arg $ spec_arg
     $ jobs_arg $ shards_arg $ shard_size_arg $ committee_arg $ metrics_arg))

let nodes_arg =
  Arg.(value & opt int 80 & info [ "nodes" ] ~docv:"V" ~doc:"Topology nodes.")

let edges_arg =
  Arg.(value & opt int 320 & info [ "edges" ] ~docv:"E" ~doc:"Topology edges.")

let simulate_term =
  Term.(
    ret
      (const simulate_cmd $ group_arg $ n_arg $ k_arg $ seed_arg $ nodes_arg
     $ edges_arg $ jobs_arg $ metrics_arg))

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
