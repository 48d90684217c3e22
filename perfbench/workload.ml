(* The three benchmark workloads, their seeded inputs, the clear-text
   oracles every session is checked against, and the unit-cost
   calibration of the public calls the layer table scales by.

   Why these three (each one exercises layers the others bypass):
   - ring-dl1024: the paper's 80-bit DL configuration on clean links and
     the stop-and-wait transport.  Montgomery exponentiation and DL
     decoding (a Jacobi symbol per element) do the work; no EC code, no
     windowed engine, no faults, no checkpoints, no merge.
   - chaos-ecc160: the supervised runtime on ECC-160 under a seeded fault
     plan with the windowed transport, and one crash per session that is
     resumed from a checkpoint.  EC arithmetic dominates; DL decoding is
     absent.  The only workload that runs retransmission, checkpoint
     frames and resume.
   - sharded-dltest64: committee-sharded ranking on the 64-bit test group.
     Group work is cheap, so the secret-shared top-k merge (the lib/shamir
     layer) does most of the work; the only workload that runs it.  Two
     shards (n = 16) rather than four: the merge costs about 0.35 s per
     candidate, and with 12 candidates a session took 7-9 s, too few per
     run for a steady fastest session. *)

open Ppgr_bigint
open Ppgr_grouprank
module Rng = Ppgr_rng.Rng
module Group_intf = Ppgr_group.Group_intf
module Faultplan = Ppgr_mpcnet.Faultplan
module Netsim = Ppgr_mpcnet.Netsim
module Engine = Ppgr_shamir.Engine
module Zfield = Ppgr_dotprod.Zfield

type shape =
  | Ring of { faults : string option; window : string option; crash : bool }
  | Sharded of { shard_size : int; k : int; committee : int }

type t = {
  name : string;
  make_group : unit -> Group_intf.group;
  modulus : Bigint.t; (* the Montgomery modulus of the group arithmetic *)
  n : int;
  l : int;
  shape : shape;
  setup_batch : int;
      (* fresh set-ups timed together, so one batch lasts about a
         millisecond: a sub-millisecond set-up alone reads at the clock's
         resolution, and a fixed count keeps the run's allocation (hence
         its peak heap) independent of timing *)
}

let all =
  [
    {
      name = "ring-dl1024";
      make_group = Ppgr_group.Dl_group.dl_1024;
      modulus = Ppgr_group.Modp_params.p_1024;
      n = 3;
      l = 16;
      shape = Ring { faults = None; window = None; crash = false };
      setup_batch = 1;
    };
    {
      name = "chaos-ecc160";
      make_group = Ppgr_group.Ec_group.ecc_160;
      modulus = Ppgr_group.Ec_params.secp160r1.Ppgr_group.Ec_curve.p;
      n = 6;
      l = 16;
      shape =
        Ring
          {
            faults =
              Some
                "drop=0.05,corrupt=0.02,dup=0.02,reorder=0.05,delay=0.3,maxdelay=8";
            window = Some "window=4,rto=4";
            crash = true;
          };
      setup_batch = 1;
    };
    {
      name = "sharded-dltest64";
      make_group = Ppgr_group.Dl_group.dl_test_64;
      modulus = Ppgr_group.Modp_params.test_64;
      n = 16;
      l = 16;
      shape = Sharded { shard_size = 8; k = 3; committee = 5 };
      setup_batch = 32;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let now = Unix.gettimeofday

(* ---- Seeded inputs: session [i] of a run derives everything from
   "<seed>-<i>", so the same seed gives the same sessions. ---- *)

(* Distinct l-bit betas, so no two parties tie. *)
let betas w ~seed i =
  let rng = Rng.create ~seed:(Printf.sprintf "perfbench-betas/%s-%d" seed i) in
  let seen = Hashtbl.create w.n in
  let out = Array.make w.n Bigint.zero in
  let k = ref 0 in
  while !k < w.n do
    let v = Rng.int_below rng (1 lsl w.l) in
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      out.(!k) <- Bigint.of_int v;
      incr k
    end
  done;
  out

let protocol_rng ~seed i =
  Rng.create ~seed:(Printf.sprintf "perfbench-protocol/%s-%d" seed i)

let fault_spec spec ~seed i =
  Faultplan.spec_of_string (Printf.sprintf "%s,seed=%s-%d" spec seed i)

(* ---- Clear-text oracles ---- *)

let clear_ranks betas =
  Array.map
    (fun b ->
      1
      + Array.fold_left
          (fun acc b' -> if Bigint.compare b' b > 0 then acc + 1 else acc)
          0 betas)
    betas

let clear_top_k betas k =
  let ids = Array.init (Array.length betas) Fun.id in
  Array.sort (fun a b -> Bigint.compare betas.(b) betas.(a)) ids;
  let top = Array.sub ids 0 k in
  Array.sort compare top;
  top

(* ---- Crash placement (chaos-ecc160) ----

   Each session's first attempt crashes right after ring hop n/2 - 1 is
   checkpointed, so the crash hits the hand-off of hop n/2 and the resumed
   attempt redoes exactly that hop: every session pays the same resume.
   [kill_after] is a physical-message index, and how many messages precede
   that checkpoint depends on the session's fault draws.  Those draws are
   keyed by link and attempt, never by payload bytes, so replaying the
   session on the tiny test curve gives the same count in a fraction of
   the time. *)

let crash_step w = 3 + (w.n / 2) (* the step the resumed attempt starts at *)
let tiny = lazy (Ppgr_group.Ec_group.ecc_tiny ())

let phys_messages_at (ck : Bytes.t) =
  let snap = (Wire.decode_checkpoint ck).Wire.ck_snap in
  Array.fold_left (Array.fold_left ( + )) 0 snap.Wire.ts_link_msgs

let crash_index w ?faults ?window ~betas rng =
  let module TG = (val Lazy.force tiny) in
  let module T = Runtime.Make (TG) in
  let at = ref (-1) in
  let cb ck =
    if (Wire.decode_checkpoint ck).Wire.ck_step = crash_step w then
      at := phys_messages_at ck
  in
  ignore (T.run ?faults ?window ~checkpoint_cb:cb rng ~l:w.l ~betas);
  !at

(* ---- One session ---- *)

(* The generated inputs of session [index]; made before the timer starts
   and outside any trace. *)
type input = {
  seed : string;
  index : int;
  betas : Bigint.t array;
  faults : Faultplan.spec option;
  kill_after : int; (* -1: no crash *)
}

let window_of w =
  match w.shape with
  | Ring { window = Some s; _ } -> Some (Transport.winspec_of_string s)
  | _ -> None

let prepare w ~seed index =
  let betas = betas w ~seed index in
  let faults, crash =
    match w.shape with
    | Ring { faults; crash; _ } ->
        (Option.map (fun s -> fault_spec s ~seed index) faults, crash)
    | Sharded _ -> (None, false)
  in
  let kill_after =
    if crash then
      crash_index w ?faults ?window:(window_of w) ~betas (protocol_rng ~seed index)
    else -1
  in
  { seed; index; betas; faults; kill_after }

type session = {
  wall_s : float; (* the protocol call: generated betas in, ranks or winners out *)
  digest : string; (* transcript digest *)
  wire_bytes : int; (* physical bytes sent, all parties *)
  counters : (string * int) list; (* what the protocol run exposes, by name *)
  problems : string list; (* every check that failed *)
}

type outcome = Completed of session | Dropped of string

type ckpt = {
  frames : int;
  frame_bytes : int;
  resumed_digest : string;
}

(* A set-up workload: the group, its warm generator table and the reusable
   per-shape state, with the calls the passes drive. *)
type runner = {
  run : input -> outcome;
  probes : (string * (unit -> int)) list; (* meters the trace samples *)
  calibrate : unit -> (string * float) list; (* seconds per call *)
  checkpoints : input -> ckpt option;
}

let sum = Array.fold_left ( + ) 0
let sum_list f l = List.fold_left (fun acc x -> acc + f x) 0 l

let tiling_problems (links : Transport.link list) ~phys_messages ~phys_bytes
    ~retransmits ~sent ~received =
  List.filter_map
    (fun (what, got, want) ->
      if got = want then None
      else Some (Printf.sprintf "tiling: %s %d <> %d" what got want))
    [
      ("link messages", sum_list (fun lk -> lk.Transport.lk_msgs) links, phys_messages);
      ("link bytes", sum_list (fun lk -> lk.Transport.lk_bytes) links, phys_bytes);
      ("link retransmits", sum_list (fun lk -> lk.Transport.lk_retrans) links, retransmits);
      ("party bytes sent", sum sent, phys_bytes);
      ("party bytes received", sum received, phys_bytes);
    ]

(* Seconds per call of [f]: the batch size doubles until a batch lasts
   20 ms, then the fastest of five such batches counts (noise on a shared
   host only adds time). *)
let unit_cost f =
  let batch_time batch =
    let t0 = now () in
    for _ = 1 to batch do
      f ()
    done;
    now () -. t0
  in
  let rec size batch = if batch_time batch >= 0.02 then batch else size (2 * batch) in
  let batch = size 1 in
  List.fold_left min infinity (List.init 5 (fun _ -> batch_time batch))
  /. float_of_int batch

let calibrate (module G : Group_intf.GROUP) w () =
  let module R = Runtime.Make (G) in
  let module E = R.E in
  let module W = R.W in
  let rng = Rng.create ~seed:"perfbench-calibrate" in
  let x, y = E.keygen rng in
  let kt = E.keytable y in
  (* One compared set, the unit a ring hop decodes, blinds and encodes. *)
  let set =
    Array.init ((w.n - 1) * w.l) (fun b -> E.encrypt_exp_int_with rng kt (b land 1))
  in
  let set_bytes = W.encode_cipher_batch set in
  let per_cipher = float_of_int (Array.length set) in
  let c = set.(0) in
  let a = G.pow_gen (G.random_scalar rng) in
  let e = G.random_scalar rng in
  let acc = ref a in
  let a_bytes = G.to_bytes a in
  let ring = Bigint.Modring.ctx ~modulus:w.modulus in
  let m = Bigint.Modring.enter ring (Rng.bigint_below rng w.modulus) in
  let macc = ref m in
  let v = Rng.bigint_below rng w.modulus in
  let f = Shard.merge_field ~l:w.l in
  let z = Zfield.random_nonzero rng f in
  let zacc = ref z in
  [
    ("elgamal.pdb", unit_cost (fun () -> ignore (E.partial_decrypt_blind rng x c)));
    ("elgamal.encrypt", unit_cost (fun () -> ignore (E.encrypt_exp_int_with rng kt 1)));
    ("elgamal.is_zero", unit_cost (fun () -> ignore (E.decrypt_exp_is_zero x c)));
    ("group.pow", unit_cost (fun () -> ignore (G.pow a e)));
    ("group.mul", unit_cost (fun () -> acc := G.mul !acc a));
    ("group.decode", unit_cost (fun () -> ignore (G.of_bytes a_bytes)));
    ( "wire.decode_cipher",
      unit_cost (fun () -> ignore (W.decode_cipher_batch set_bytes)) /. per_cipher );
    ( "wire.encode_cipher",
      unit_cost (fun () -> ignore (W.encode_cipher_batch set)) /. per_cipher );
    ("bigint.modmul", unit_cost (fun () -> macc := Bigint.Modring.mul ring !macc m));
    ("bigint.jacobi", unit_cost (fun () -> ignore (Bigint.jacobi v w.modulus)));
    ("zfield.mul", unit_cost (fun () -> zacc := Zfield.mul f !zacc z));
    ("rng.split", unit_cost (fun () -> ignore (Rng.split rng ~label:"blind-7")));
  ]

let ring_runner (module G : Group_intf.GROUP) w ~crash =
  let module R = Runtime.Make (G) in
  let session = R.make_session ~n:w.n ~l:w.l in
  let window = window_of w in
  let run { seed; index; betas; faults; kill_after } =
    let rng = protocol_rng ~seed index in
    let go () =
      if crash then
        let rc =
          R.run_with_restart ?faults ?window ~session ~max_restarts:1 ~kill_after
            rng ~l:w.l ~betas
        in
        (rc.R.rec_stats, rc.R.rec_resumes, rc.R.rec_reelected)
      else (R.run ?faults ?window ~session rng ~l:w.l ~betas, 0, None)
    in
    let t0 = now () in
    match go () with
    | exception (Transport.Party_dropped _ as e) -> Dropped (Printexc.to_string e)
    | st, resumes, reelected ->
        let wall_s = now () -. t0 in
        let problems =
          (if st.R.ranks <> clear_ranks betas then [ "ranks differ from clear text" ]
           else [])
          @ (if crash && (resumes <> 1 || reelected <> None) then
               [ Printf.sprintf "expected one resume, got %d" resumes ]
             else [])
          @ tiling_problems st.R.links ~phys_messages:st.R.phys_messages
              ~phys_bytes:st.R.phys_bytes ~retransmits:st.R.retransmits
              ~sent:st.R.phys_party_sent ~received:st.R.phys_party_received
        in
        Completed
          {
            wall_s;
            digest = st.R.transcript_sha;
            wire_bytes = sum st.R.phys_party_sent;
            counters =
              [
                ("phys_messages", st.R.phys_messages);
                ("phys_bytes", st.R.phys_bytes);
                ("retransmits", st.R.retransmits);
                ("crc_rejects", st.R.crc_rejects);
                ("dup_suppressed", st.R.dup_suppressed);
                ("acks_sent", st.R.acks_sent);
                ("backoff_ticks", st.R.backoff_ticks);
                ("sim_ticks", st.R.sim_ticks);
                ("logical_bytes", st.R.bytes_on_wire);
              ];
            problems;
          }
  in
  (* The supervised run hides its checkpoint frames, so this replays its
     crash and resume through the public [run] and collects them. *)
  let checkpoints { seed; index; betas; faults; kill_after } =
    if not crash then None
    else begin
      let frames = ref [] in
      let cb ck = frames := ck :: !frames in
      let attempt ?resume ~kill_after () =
        R.run ?faults ?window ~session ~kill_after ?resume ~checkpoint_cb:cb
          (protocol_rng ~seed index) ~l:w.l ~betas
      in
      match attempt ~kill_after () with
      | _ -> None
      | exception Transport.Party_dropped _ ->
          let st = attempt ?resume:(List.nth_opt !frames 0) ~kill_after:(-1) () in
          Some
            {
              frames = List.length !frames;
              frame_bytes = sum_list Bytes.length !frames;
              resumed_digest = st.R.transcript_sha;
            }
    end
  in
  {
    run;
    probes = ("exps", Ppgr_group.Opmeter.count) :: ("group_ops", G.op_count)
             :: ("bigint_muls", Bigint.mul_count) :: G.probes;
    calibrate = calibrate (module G) w;
    checkpoints;
  }

let sharded_runner (module G : Group_intf.GROUP) w ~shard_size ~k ~committee =
  let module S = Shard.Make (G) in
  let run { seed; index; betas; _ } =
    let rng = protocol_rng ~seed index in
    let t0 = now () in
    let r = S.run ~shard_size ~committee ~k rng ~l:w.l ~betas in
    let wall_s = now () -. t0 in
    let shard_rank_problems =
      Array.to_list r.Shard.plan.Shard.members
      |> List.filter_map (fun ms ->
             let want = clear_ranks (Array.map (fun p -> betas.(p)) ms) in
             let got = Array.map (fun p -> r.Shard.local_ranks.(p)) ms in
             if got = want then None else Some "shard ranks differ from clear text")
    in
    let problems =
      (if r.Shard.winners <> clear_top_k betas k then
         [ "winners differ from the clear-text top-k" ]
       else [])
      @ shard_rank_problems
    in
    let messages = List.concat_map (fun rd -> rd.Netsim.messages) r.Shard.schedule in
    let c = r.Shard.merge.Shard.merge_costs in
    Completed
      {
        wall_s;
        digest = r.Shard.transcript_sha;
        wire_bytes = sum_list (fun m -> m.Netsim.bytes) messages;
        counters =
          [
            (* Participant-to-participant traffic: the shard rings'
               physical bytes, which the traced pass tiles. *)
            ( "ring_phys_bytes",
              sum_list
                (fun m -> if m.Netsim.src < w.n && m.Netsim.dst < w.n then m.Netsim.bytes else 0)
                messages );
            ( "logical_bytes",
              Array.fold_left (fun a s -> a + s.Shard.shard_bytes) 0 r.Shard.shard_stats );
            ("candidates", Array.length r.Shard.merge.Shard.candidates);
            ("shamir_mults", c.Engine.c_mults);
            ("shamir_rounds", c.Engine.c_rounds);
            ("shamir_opens", c.Engine.c_opens);
            ("shamir_field_mults", c.Engine.c_field_mults);
          ];
        problems;
      }
  in
  {
    run;
    probes = ("exps", Ppgr_group.Opmeter.count) :: ("group_ops", G.op_count)
             :: ("bigint_muls", Bigint.mul_count) :: G.probes;
    calibrate = calibrate (module G) w;
    checkpoints = (fun _ -> None);
  }

(* One fresh set-up: build the group module, warm its generator table,
   and build the per-shape reusable state (the runtime session; for the
   sharded workload also a partition plan). *)
let setup w ~seed =
  let g = w.make_group () in
  let module G = (val g) in
  ignore (G.pow_gen Bigint.one);
  match w.shape with
  | Ring { crash; _ } -> ring_runner (module G) w ~crash
  | Sharded { shard_size; k; committee } ->
      ignore (Shard.make_plan (Rng.create ~seed) ~n:w.n ~shard_size);
      let module R = Runtime.Make (G) in
      ignore (R.make_session ~n:shard_size ~l:w.l);
      sharded_runner (module G) w ~shard_size ~k ~committee
