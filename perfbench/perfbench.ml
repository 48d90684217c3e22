(* The repository's benchmark: one workload per process, for a fixed
   wall-clock budget, ending with one JSON result line.

     perfbench.exe --workload <name> --seed <s> --seconds <t> --trace <0|1>

   --trace 0 (the end-to-end pass) repeats fresh set-ups, then runs whole
   sessions with tracing off until the budget is spent, checks each one
   against the clear-text result, and reports:
     session_s             fastest session (noise on a shared host only
                           adds time, so the minimum is the steady
                           statistic; median and slowest are printed)
     setup_s               fastest of the repeated fresh set-ups
     heap_peak_mb          peak major heap
     wire_bytes_per_party  physical bytes per party per session, averaged
   and prints two more that the result line leaves out: net_ticks
   (simulated link ticks per session, ring workloads only) and fail_ratio
   (sessions ending in a typed Party_dropped over sessions attempted).

   --trace 1 (the traced pass) alternates untraced and traced sessions on
   the same inputs, checks that they and a jobs=2 run give the same
   transcript digest, calibrates the unit costs of the public calls the
   layers are made of, and reports the per-layer table with two closure
   rows (ring hop against counts x unit costs, session against its step
   spans).

   The process exits 1 on any wrong rank, wrong winner set, tiling or
   digest mismatch; it still prints the result line with "correct":
   false. *)

open Workload
module Trace = Ppgr_obs.Trace
module Metrics = Ppgr_obs.Metrics
module Pool = Ppgr_exec.Pool

let setup_batches = 5

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

let fmin = List.fold_left min infinity
let fmax = List.fold_left max neg_infinity
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))
let counter s k = Option.value ~default:0 (List.assoc_opt k s.counters)
let ratio a b = if b = 0. then 0. else a /. b

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           (* A run with nothing measured still prints valid JSON. *)
           let v = if Float.is_finite m.m_value then m.m_value else 0. in
           Printf.sprintf "%S: {\"value\": %.12g, \"unit\": %S}" m.m_name v m.m_unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let print_table =
  List.iter (fun m -> Printf.printf "  %-28s %14.6g %s\n" m.m_name m.m_value m.m_unit)

(* Fresh set-ups run in batches of [w.setup_batch]; a wall is its
   batch's mean.  The batches are spread over the run, [setup_batches] of
   them before every session, so the fastest one sees the same host as
   the fastest session. *)
let setup_gap w ~seed walls =
  for _ = 1 to setup_batches do
    let t0 = now () in
    for _ = 1 to w.setup_batch do
      ignore (setup w ~seed)
    done;
    walls := ((now () -. t0) /. float_of_int w.setup_batch) :: !walls
  done

(* Run sessions 0, 1, ... until the next one would overrun [seconds]
   (at least [min_sessions]); [each] wraps every call. *)
let session_loop ~seconds ~min_sessions ~per_step each =
  let t_start = now () in
  let rec go i acc fastest =
    let elapsed = now () -. t_start in
    if i >= min_sessions && elapsed +. (per_step *. fastest) > seconds then List.rev acc
    else begin
      let t0 = now () in
      let x = each i in
      let dt = (now () -. t0) /. per_step in
      go (i + 1) (x :: acc) (min fastest dt)
    end
  in
  go 0 [] 0.

let report_problems label i s =
  List.iter (fun p -> Printf.eprintf "%s session %d: %s\n%!" label i p) s.problems

(* ---- The end-to-end pass ---- *)

let end_to_end w ~seed ~seconds =
  let runner = setup w ~seed in
  let setup_acc = ref [] in
  let outcomes =
    session_loop ~seconds ~min_sessions:3 ~per_step:1. (fun i ->
        setup_gap w ~seed setup_acc;
        let input = prepare w ~seed i in
        (* Every session starts from a collected heap, so the peak is one
           session's working set rather than the run's GC history. *)
        Gc.full_major ();
        runner.run input)
  in
  let setup_walls = !setup_acc in
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  let done_ = List.filter_map (function Completed s -> Some s | Dropped _ -> None) outcomes in
  List.iteri (fun i -> function
      | Completed s -> report_problems "wrong" i s
      | Dropped why -> Printf.printf "session %d dropped: %s\n" i why)
    outcomes;
  let attempted = List.length outcomes in
  let failed = attempted - List.length done_ in
  let walls = List.map (fun s -> s.wall_s) done_ in
  let correct = done_ <> [] && List.for_all (fun s -> s.problems = []) done_ in
  let setup_s = fmin setup_walls in
  let session_s = if walls = [] then 0. else fmin walls in
  let per_party =
    mean (List.map (fun s -> float_of_int s.wire_bytes /. float_of_int w.n) done_)
  in
  Printf.printf "setup: fastest %.8f s, median %.8f s over %d batches of %d fresh set-ups\n"
    setup_s (median setup_walls) (List.length setup_walls) w.setup_batch;
  Printf.printf
    "sessions: %d attempted, %d dropped; fastest %.4f s, median %.4f s, slowest %.4f s\n"
    attempted failed session_s (median walls) (if walls = [] then 0. else fmax walls);
  Printf.printf "session walls: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") walls));
  Printf.printf "summary: {\"fastest_s\": %.6f, \"median_s\": %.6f, \"sessions\": %d}\n"
    session_s (median walls) (List.length walls);
  let gated =
    [
      metric "session_s" "s" session_s;
      metric "setup_s" "s" setup_s;
      metric "heap_peak_mb" "MiB" heap_peak_mb;
      metric "wire_bytes_per_party" "B" per_party;
    ]
  in
  (* Printed but not in the result line: fail_ratio reads 0 on these
     workloads, and Shard.run exposes no link ticks. *)
  let printed_only =
    (match w.shape with
    | Ring _ ->
        [
          metric "net_ticks" "ticks"
            (mean (List.map (fun s -> float_of_int (counter s "sim_ticks")) done_));
        ]
    | Sharded _ -> [])
    @ [ metric "fail_ratio" "ratio" (ratio (float_of_int failed) (float_of_int attempted)) ]
  in
  Printf.printf "end-to-end metrics:\n";
  print_table (gated @ printed_only);
  print_result ~correct ~attempted ~failed gated;
  correct

(* ---- The traced pass ---- *)

let attr_int (sp : Trace.span) k =
  match List.assoc_opt k sp.Trace.attrs with Some (Trace.Int v) -> Some v | _ -> None

let attr0 sp k = Option.value ~default:0 (attr_int sp k)
let dur_s (sp : Trace.span) = sp.Trace.dur_us /. 1e6
let steps = [ "keygen"; "encrypt"; "compare"; "ring"; "count" ]

(* Paper §VI-B exponentiations per party of one n-party ring. *)
let paper_exps ~n ~l = 2 + (n - 1) + (2 * l) + (2 * (n - 1) * (n - 1) * l) + ((n - 1) * l)

(* What one traced session's spans say, in the units the table needs. *)
type traced = {
  step_s : (string * float) list;
  runtime_s : float; (* every runtime span: the shard rings *)
  merge_s : float;
  hops : float list;
  pdb : int; (* partial_decrypt_blind calls: two ticked exps each *)
  decoded : int; (* ciphertexts decoded from the wire *)
  encoded : int;
  elem_decodes : int; (* G.of_bytes calls *)
  ring_splits : int;
  rings : (int * int * int) list; (* (ring size, exps deduplicated, paper) *)
  resume_s : float;
  resumed_from : int list;
  instant_phys : int; (* wire-instant physical columns, for shards *)
  instant_msgs : int;
  instant_retrans : int;
}

let analyse w (spans : Trace.span list) =
  let by_id = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.Trace.id sp) spans;
  let ring_n sp =
    match Hashtbl.find_opt by_id sp.Trace.parent with
    | Some p -> attr0 p "n"
    | None -> w.n
  in
  let named nm = List.filter (fun sp -> sp.Trace.name = nm) spans in
  let total nm = List.fold_left (fun a sp -> a +. dur_s sp) 0. (named nm) in
  let sum_over nm f = List.fold_left (fun a sp -> a + f sp) 0 (named nm) in
  let ring_spans = named "runtime.ring" in
  let pdb = sum_over "runtime.ring" (fun sp -> attr0 sp "exps") / 2 in
  let per_set sp = (ring_n sp - 1) * w.l in
  (* A resumed attempt repeats the keygen and the interrupted hop; the
     paper comparison counts each (ring, step, party) once, last attempt
     winning. *)
  let dedup = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      match String.split_on_char '.' sp.Trace.name with
      | [ "runtime"; step ] when List.mem step steps ->
          Hashtbl.replace dedup
            (attr_int sp "shard", step, attr0 sp "party")
            (attr0 sp "exps")
      | _ -> ())
    spans;
  let ring_sizes = Hashtbl.create 8 in
  List.iter
    (fun sp -> Hashtbl.replace ring_sizes (attr_int sp "shard") (attr0 sp "n"))
    (named "runtime");
  let rings =
    Hashtbl.fold
      (fun shard n acc ->
        let exps =
          Hashtbl.fold (fun (s, _, _) e a -> if s = shard then a + e else a) dedup 0
        in
        (n, exps, n * paper_exps ~n ~l:w.l) :: acc)
      ring_sizes []
    |> List.sort compare
  in
  let resumed = List.filter (fun sp -> attr_int sp "resumed_from" <> None) (named "runtime") in
  let resume_s =
    List.fold_left
      (fun a r ->
        let work =
          List.fold_left
            (fun a sp ->
              if sp.Trace.parent = r.Trace.id
                 && (sp.Trace.name = "runtime.ring" || sp.Trace.name = "runtime.count")
              then a +. dur_s sp
              else a)
            0. spans
        in
        a +. dur_s r -. work)
      0. resumed
  in
  let instants = List.filter (fun sp -> String.ends_with ~suffix:".wire" sp.Trace.name) spans in
  let inst k = List.fold_left (fun a sp -> a + attr0 sp k) 0 instants in
  {
    step_s = List.map (fun s -> (s, total ("runtime." ^ s))) steps;
    runtime_s = total "runtime";
    merge_s = total "shard.merge";
    hops = List.map dur_s ring_spans;
    pdb;
    decoded = pdb + sum_over "runtime.compare" per_set + sum_over "runtime.count" per_set;
    encoded = pdb + (List.length (named "runtime.encrypt") * w.l)
              + sum_over "runtime.compare" per_set;
    elem_decodes =
      (2 * (pdb + sum_over "runtime.compare" per_set + sum_over "runtime.count" per_set))
      + sum_over "runtime.encrypt" (fun sp -> 2 * ring_n sp);
    ring_splits = pdb + sum_over "runtime.ring" (fun sp -> ring_n sp - 1);
    rings;
    resume_s;
    resumed_from = List.filter_map (fun sp -> attr_int sp "resumed_from") resumed;
    instant_phys = inst "phys_out";
    instant_msgs = inst "env_bytes" / Ppgr_grouprank.Wire.envelope_overhead;
    instant_retrans = inst "retransmits";
  }

(* One session run twice on the same input: untraced, then traced. *)
type pair = {
  plain : session;
  traced : session;
  spans : Trace.span list;
  deltas : (string * int) list; (* probe deltas over the traced run *)
  gc : Gc.stat * Gc.stat; (* around the untraced run *)
  cpu_s : float; (* process CPU time of the untraced run *)
}

let with_probes probes f =
  List.iter (fun (name, read) -> Metrics.register ~name read) probes;
  Fun.protect
    ~finally:(fun () -> List.iter (fun (name, _) -> Metrics.unregister ~name) probes)
    f

let traced_pass w ~seed ~seconds =
  let runner = setup w ~seed in
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let attempted = ref 0 and failed = ref 0 in
  let completed label i = function
    | Completed s ->
        incr attempted;
        List.iter (fun p -> bad "%s session %d: %s" label i p) s.problems;
        Some s
    | Dropped why ->
        incr attempted;
        incr failed;
        bad "%s session %d dropped: %s" label i why;
        None
  in
  let read_probes () = List.map (fun (_, read) -> read ()) runner.probes in
  (* Pairs of the same session, untraced then traced. *)
  let pairs =
    session_loop ~seconds ~min_sessions:2 ~per_step:2. (fun i ->
        let input = prepare w ~seed i in
        let gc0 = Gc.quick_stat () and cpu0 = Unix.times () in
        let plain = runner.run input in
        let gc1 = Gc.quick_stat () and cpu1 = Unix.times () in
        let cpu_s =
          cpu1.Unix.tms_utime +. cpu1.Unix.tms_stime -. cpu0.Unix.tms_utime
          -. cpu0.Unix.tms_stime
        in
        let p0 = read_probes () in
        let traced, spans =
          with_probes runner.probes (fun () -> Trace.capture (fun () -> runner.run input))
        in
        let deltas =
          List.map2 (fun (name, _) (a, b) -> (name, b - a)) runner.probes
            (List.combine p0 (read_probes ()))
        in
        match (completed "untraced" i plain, completed "traced" i traced) with
        | Some plain, Some traced ->
            if plain.digest <> traced.digest then bad "session %d: traced digest differs" i;
            Some { plain; traced; spans; deltas; gc = (gc0, gc1); cpu_s }
        | _ -> None)
    |> List.filter_map Fun.id
  in
  if pairs = [] then bad "no session completed";
  let untraced = List.map (fun p -> p.plain) pairs in
  let traced_sessions = List.map (fun p -> p.traced) pairs in
  let fastest_plain = fmin (List.map (fun s -> s.wall_s) untraced) in
  let fastest_traced = fmin (List.map (fun s -> s.wall_s) traced_sessions) in
  let digest0 = match untraced with s :: _ -> s.digest | [] -> "" in
  let cal = runner.calibrate () in
  let u k = List.assoc k cal in
  (* jobs=2 must reproduce the jobs=1 transcript (invariant 1). *)
  let input0 = prepare w ~seed 0 in
  Pool.set_jobs 2;
  let j2 = Fun.protect ~finally:(fun () -> Pool.set_jobs 1) (fun () -> runner.run input0) in
  let speedup_j2 =
    match completed "jobs=2" 0 j2 with
    | Some s ->
        if s.digest <> digest0 then bad "jobs=2 digest differs from jobs=1";
        ratio fastest_plain s.wall_s
    | None -> 0.
  in
  let ckpt = runner.checkpoints input0 in
  (match ckpt with
  | Some c when c.resumed_digest <> digest0 -> bad "resumed run digest differs"
  | _ -> ());
  (* Per-session means over the traced sessions. *)
  let tr = List.map (fun p -> analyse w p.spans) pairs in
  let k = float_of_int (max 1 (List.length pairs)) in
  let per f = float_of_int (List.fold_left (fun a t -> a + f t) 0 tr) /. k in
  let perf f = List.fold_left (fun a t -> a +. f t) 0. tr /. k in
  let delta name =
    float_of_int
      (List.fold_left
         (fun a p -> a + Option.value ~default:0 (List.assoc_opt name p.deltas))
         0 pairs)
    /. k
  in
  let gc f = mean (List.map (fun { gc = g0, g1; _ } -> f g1 -. f g0) pairs) in
  let tcounter name = mean (List.map (fun s -> float_of_int (counter s name)) traced_sessions) in
  let step s = perf (fun t -> List.assoc s t.step_s) in
  let steps_total = List.fold_left (fun a s -> a +. step s) 0. steps in
  let runtime_s = perf (fun t -> t.runtime_s) in
  let merge_s = perf (fun t -> t.merge_s) in
  let session_wall = mean (List.map (fun s -> s.wall_s) traced_sessions) in
  let hops = List.concat_map (fun t -> t.hops) tr in
  let n_hops = float_of_int (max 1 (List.length hops)) in
  let ring_s = step "ring" in
  let hop_model =
    (per (fun t -> t.pdb) *. u "elgamal.pdb"
    +. (per (fun t -> t.pdb) *. (u "wire.decode_cipher" +. u "wire.encode_cipher"))
    +. (per (fun t -> t.ring_splits) *. u "rng.split"))
    /. (n_hops /. k)
  in
  let hop_mean = ring_s /. (n_hops /. k) in
  let decoded = per (fun t -> t.decoded) in
  let decode_s = decoded *. u "wire.decode_cipher" in
  let sharded = match w.shape with Sharded _ -> true | Ring _ -> false in
  (* Shard.run hides its transports: its columns come from the
     per-party wire instants and the fan-in schedule instead. *)
  let transport name =
    if not sharded then tcounter name
    else
      match name with
      | "phys_messages" -> per (fun t -> t.instant_msgs)
      | "phys_bytes" -> per (fun t -> t.instant_phys)
      | "retransmits" -> per (fun t -> t.instant_retrans)
      | _ -> 0.
  in
  let tiling_ok =
    if not sharded then true
    else
      List.for_all2
        (fun t s -> t.instant_phys = counter s "ring_phys_bytes")
        tr traced_sessions
  in
  if not tiling_ok then bad "shard wire instants do not tile the ring schedule";
  (match w.shape with
  | Ring { crash = true; _ } ->
      List.iteri
        (fun i t ->
          if t.resumed_from <> [ crash_step w ] then
            bad "session %d resumed from %s, expected step %d" i
              (String.concat "," (List.map string_of_int t.resumed_from))
              (crash_step w))
        tr
  | _ -> ());
  let rings = List.concat_map (fun t -> t.rings) tr in
  let exps_vs_paper =
    ratio
      (float_of_int (List.fold_left (fun a (_, e, p) -> a + e - p) 0 rings))
      (float_of_int (List.fold_left (fun a (n, _, _) -> a + n) 0 rings))
  in
  let cpu = List.fold_left (fun a p -> a +. p.cpu_s) 0. pairs in
  let closure_session = if sharded then runtime_s +. merge_s else steps_total in
  let us x = x *. 1e6 and ns x = x *. 1e9 in
  let rows =
    [
      metric "runtime.keygen_s" "s" (step "keygen");
      metric "runtime.encrypt_s" "s" (step "encrypt");
      metric "runtime.compare_s" "s" (step "compare");
      metric "runtime.ring_s" "s" ring_s;
      metric "runtime.count_s" "s" (step "count");
      metric "runtime.residual_s" "s" (runtime_s -. steps_total);
      metric "runtime.hop_s" "s" (median hops);
      metric "elgamal.pdb_count" "count" (per (fun t -> t.pdb));
      metric "elgamal.pdb_us" "us" (us (u "elgamal.pdb"));
      metric "elgamal.encrypt_us" "us" (us (u "elgamal.encrypt"));
      metric "elgamal.is_zero_us" "us" (us (u "elgamal.is_zero"));
      metric "group.ops" "count" (delta "group_ops");
      metric "group.exps" "count" (delta "exps");
      metric "group.exps_vs_paper" "count" exps_vs_paper;
      metric "group.field_invs" "count" (delta "field_invs");
      metric "group.mul_us" "us" (us (u "group.mul"));
      metric "group.pow_us" "us" (us (u "group.pow"));
      metric "group.decode_us" "us" (us (u "group.decode"));
      metric "group.decodes" "count" (per (fun t -> t.elem_decodes));
      metric "bigint.modmul_ns" "ns" (ns (u "bigint.modmul"));
      metric "bigint.jacobi_us" "us" (us (u "bigint.jacobi"));
      metric "bigint.muls" "count" (delta "bigint_muls");
      metric "wire.ciphers_decoded" "count" decoded;
      metric "wire.decode_s" "s" decode_s;
      metric "wire.encode_s" "s" (per (fun t -> t.encoded) *. u "wire.encode_cipher");
      metric "wire.decode_share" "ratio" (ratio decode_s session_wall);
      metric "transport.phys_messages" "count" (transport "phys_messages");
      metric "transport.phys_bytes" "B" (transport "phys_bytes");
      metric "transport.retransmits" "count" (transport "retransmits");
      metric "transport.crc_rejects" "count" (transport "crc_rejects");
      metric "transport.dup_suppressed" "count" (transport "dup_suppressed");
      metric "transport.acks_sent" "count" (transport "acks_sent");
      metric "transport.backoff_ticks" "ticks" (transport "backoff_ticks");
      metric "transport.sim_ticks" "ticks" (transport "sim_ticks");
      metric "transport.goodput_ratio" "ratio"
        (ratio (tcounter "logical_bytes") (transport "phys_bytes"));
      metric "transport.tiling_ok" "count" (if tiling_ok then 1. else 0.);
      metric "ckpt.frames" "count"
        (match ckpt with Some c -> float_of_int c.frames | None -> 0.);
      metric "ckpt.bytes" "B"
        (match ckpt with Some c -> float_of_int c.frame_bytes | None -> 0.);
      metric "ckpt.resume_s" "s" (perf (fun t -> t.resume_s));
      metric "shard.rings_s" "s" runtime_s;
      metric "shard.merge_s" "s" merge_s;
      metric "shard.candidates" "count" (tcounter "candidates");
      metric "shamir.mults" "count" (tcounter "shamir_mults");
      metric "shamir.rounds" "count" (tcounter "shamir_rounds");
      metric "shamir.opens" "count" (tcounter "shamir_opens");
      metric "shamir.field_mults" "count" (tcounter "shamir_field_mults");
      metric "zfield.mul_ns" "ns" (ns (u "zfield.mul"));
      metric "gc.minor_mwords" "Mwords" (gc (fun g -> g.Gc.minor_words) /. 1e6);
      metric "gc.promoted_mwords" "Mwords" (gc (fun g -> g.Gc.promoted_words) /. 1e6);
      metric "gc.major_collections" "count"
        (gc (fun g -> float_of_int g.Gc.major_collections));
      metric "rng.split_us" "us" (us (u "rng.split"));
      metric "pool.speedup_j2" "ratio" speedup_j2;
      metric "pool.cpu_util" "ratio"
        (ratio cpu (List.fold_left (fun a s -> a +. s.wall_s) 0. untraced));
      metric "obs.trace_overhead" "ratio" (ratio fastest_traced fastest_plain -. 1.);
      metric "closure.hop_residual" "ratio" (ratio (hop_mean -. hop_model) hop_mean);
      metric "closure.session_residual" "ratio"
        (ratio (session_wall -. closure_session) session_wall);
    ]
  in
  Printf.printf "traced pass: %d session pairs (untraced fastest %.4f s, traced fastest %.4f s)\n"
    (List.length pairs) fastest_plain fastest_traced;
  Printf.printf "unit costs (seconds per call):\n";
  List.iter (fun (name, s) -> Printf.printf "  %-22s %.4g\n" name s) cal;
  Printf.printf "closure: ring hop %.6f s = %.6f s from counts x unit costs + residual %.6f s (%.1f%%)\n"
    hop_mean hop_model (hop_mean -. hop_model)
    (100. *. ratio (hop_mean -. hop_model) hop_mean);
  Printf.printf "closure: session %.6f s = %.6f s in %s + residual %.6f s (%.1f%%)\n"
    session_wall closure_session
    (if sharded then "ring and merge spans" else "step spans")
    (session_wall -. closure_session)
    (100. *. ratio (session_wall -. closure_session) session_wall);
  (match tr with
  | t :: _ ->
      List.iter
        (fun (n, e, p) ->
          Printf.printf "exps vs paper, ring of %d: measured %d, paper %d (%+.2f per party)\n"
            n e p (ratio (float_of_int (e - p)) (float_of_int n)))
        t.rings
  | [] -> ());
  if sharded then
    Printf.printf
      "note: Shard.run exposes no transport stats; crc/dup/ack/backoff/sim_ticks \
       columns read 0 on its clean stop-and-wait links\n";
  print_table rows;
  List.iter (Printf.eprintf "check failed: %s\n%!") (List.rev !problems);
  let correct = !problems = [] in
  print_result ~correct ~attempted:!attempted ~failed:!failed rows;
  correct

let () =
  let workload = ref "" and seed = ref "" and seconds = ref 0. and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_string seed, "SEED input seed");
      ("--seconds", Arg.Set_float seconds, "T measured wall-clock budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end pass or traced pass");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed SEED --seconds T --trace 0|1";
  let w =
    match find !workload with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload; one of: "
          ^ String.concat ", " (List.map (fun w -> w.name) all));
        exit 2
  in
  if !seed = "" || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "need --seed, --seconds > 0 and --trace 0|1";
    exit 2
  end;
  Pool.set_jobs 1;
  Printf.printf "perfbench %s seed=%s seconds=%g trace=%d n=%d l=%d\n%!" w.name !seed
    !seconds !trace w.n w.l;
  let ok =
    if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds
    else traced_pass w ~seed:!seed ~seconds:!seconds
  in
  exit (if ok then 0 else 1)
