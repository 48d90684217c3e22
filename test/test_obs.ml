(* Observability layer: span tracer semantics, probe-delta attribution
   against the global meters, exporter golden shapes, and the golden
   transcript pins that prove the hoisted Rng.split labels are
   byte-identical to the old Printf-formatted ones. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_group
open Ppgr_grouprank
module Trace = Ppgr_obs.Trace
module Metrics = Ppgr_obs.Metrics
module Export = Ppgr_obs.Export
module Summary = Ppgr_obs.Summary
module Pool = Ppgr_exec.Pool

(* ---- Tracer core ---- *)

let span_name (sp : Trace.span) = sp.Trace.name

let parent_name spans (sp : Trace.span) =
  if sp.Trace.parent = -1 then "-"
  else
    match
      List.find_opt (fun (p : Trace.span) -> p.Trace.id = sp.Trace.parent) spans
    with
    | Some p -> p.Trace.name
    | None -> "?"

let tracer_suite =
  [
    Alcotest.test_case "nesting and ordering" `Quick (fun () ->
        let (), spans =
          Trace.capture (fun () ->
              Trace.with_span "a" (fun () ->
                  Trace.with_span "b" (fun () -> Trace.instant "c");
                  Trace.with_span "d" (fun () -> ())))
        in
        Alcotest.(check (list string))
          "names in open order" [ "a"; "b"; "c"; "d" ] (List.map span_name spans);
        Alcotest.(check (list string))
          "parents" [ "-"; "a"; "b"; "a" ]
          (List.map (parent_name spans) spans));
    Alcotest.test_case "disabled tracer records nothing" `Quick (fun () ->
        Trace.reset ();
        Trace.set_enabled false;
        let hits = ref 0 in
        Trace.with_span "quiet" (fun () -> incr hits);
        Trace.instant "quiet2";
        Trace.add_attr "x" (Trace.Int 1);
        Alcotest.(check int) "body ran" 1 !hits;
        Alcotest.(check int) "no spans" 0 (List.length (Trace.spans ())));
    Alcotest.test_case "span closes on exception" `Quick (fun () ->
        let (), spans =
          Trace.capture (fun () ->
              try Trace.with_span "boom" (fun () -> failwith "x")
              with Failure _ -> ())
        in
        Alcotest.(check (list string)) "recorded" [ "boom" ] (List.map span_name spans));
    Alcotest.test_case "probe deltas attach to spans" `Quick (fun () ->
        let counter = ref 0 in
        Metrics.register ~name:"ticks" (fun () -> !counter);
        Fun.protect ~finally:(fun () -> Metrics.unregister ~name:"ticks")
        @@ fun () ->
        let (), spans =
          Trace.capture (fun () ->
              Trace.with_span "work" (fun () -> counter := !counter + 3);
              Trace.with_span "idle" (fun () -> ()))
        in
        let attr name sp = List.assoc_opt name sp.Trace.attrs in
        let work = List.find (fun sp -> span_name sp = "work") spans in
        let idle = List.find (fun sp -> span_name sp = "idle") spans in
        Alcotest.(check bool) "delta on work" true
          (attr "ticks" work = Some (Trace.Int 3));
        Alcotest.(check bool) "zero delta omitted" true (attr "ticks" idle = None));
  ]

(* ---- Same span set at any job count ---- *)

let dim_attrs (sp : Trace.span) =
  List.filter
    (fun (k, _) -> List.mem k Summary.dimension_keys)
    sp.Trace.attrs

(* A span's job-count-independent fingerprint: name, parent name, and
   dimension attributes (timestamps, slots and metric deltas may
   differ only in how they split across lanes — the set must not). *)
let fingerprints spans =
  List.sort compare
    (List.map
       (fun sp -> (span_name sp, parent_name spans sp, List.sort compare (dim_attrs sp)))
       spans)

let runtime_spans jobs =
  Pool.set_jobs jobs;
  let module G = (val Dl_group.dl_test_64 ()) in
  let module R = Runtime.Make (G) in
  let rng = Rng.create ~seed:"obs-jobs" in
  let l = 8 in
  let betas = Array.init 5 (fun _ -> Rng.bigint_below rng (Bigint.nth_bit_weight l)) in
  let s, spans = Trace.capture (fun () -> R.run rng ~l ~betas) in
  Pool.set_jobs 1;
  (s.R.ranks, fingerprints spans)

let jobs_suite =
  [
    Alcotest.test_case "jobs=1 and jobs=4 record the same span set" `Quick
      (fun () ->
        let ranks1, f1 = runtime_spans 1 in
        let ranks4, f4 = runtime_spans 4 in
        Alcotest.(check (array int)) "same ranks" ranks1 ranks4;
        Alcotest.(check int) "same span count" (List.length f1) (List.length f4);
        Alcotest.(check bool) "same fingerprints" true (f1 = f4));
  ]

(* ---- Attribution: span deltas tile the run exactly ---- *)

let attribution_suite =
  [
    Alcotest.test_case "runtime span deltas sum to the global meters" `Quick
      (fun () ->
        let module G = (val Dl_group.dl_test_64 ()) in
        let module R = Runtime.Make (G) in
        Metrics.register ~name:"exps" (fun () -> Opmeter.count ());
        Metrics.register ~name:"group_mults" (fun () -> G.op_count ());
        Fun.protect ~finally:(fun () ->
            Metrics.unregister ~name:"exps";
            Metrics.unregister ~name:"group_mults")
        @@ fun () ->
        let rng = Rng.create ~seed:"obs-attr" in
        let l = 8 in
        let betas =
          Array.init 4 (fun _ -> Rng.bigint_below rng (Bigint.nth_bit_weight l))
        in
        let exps0 = Opmeter.count () in
        let mults0 = G.op_count () in
        let s, spans = Trace.capture (fun () -> R.run rng ~l ~betas) in
        let rows = Summary.rows spans in
        Alcotest.(check int) "exps" (Opmeter.count () - exps0)
          (Summary.total rows "exps");
        Alcotest.(check int) "group mults" (G.op_count () - mults0)
          (Summary.total rows "group_mults");
        Alcotest.(check int) "logical bytes" s.R.bytes_on_wire
          (Summary.total rows "bytes_out");
        Alcotest.(check int) "physical bytes"
          (Cost.total_bytes s.R.schedule)
          (Summary.total rows "phys_out");
        (* The per-party deltas the table reports are the same ones the
           result record reports. *)
        Alcotest.(check int) "per-party exps agree"
          (Array.fold_left ( + ) 0 s.R.per_party_exps)
          (Summary.total rows "exps");
        Alcotest.(check int) "per-party ops agree"
          (Array.fold_left ( + ) 0 s.R.per_party_ops)
          (Summary.total rows "group_mults"));
    Alcotest.test_case "runtime per-party wire tallies sum to the total" `Quick
      (fun () ->
        let module G = (val Dl_group.dl_test_64 ()) in
        let module R = Runtime.Make (G) in
        let rng = Rng.create ~seed:"obs-runtime" in
        let l = 6 in
        let betas = Array.map Bigint.of_int [| 3; 9; 1; 14 |] in
        let s, spans = Trace.capture (fun () -> R.run rng ~l ~betas) in
        Alcotest.(check int) "party_sent sums"
          s.R.bytes_on_wire
          (Array.fold_left ( + ) 0 s.R.party_sent);
        Alcotest.(check int) "party_received sums"
          s.R.bytes_on_wire
          (Array.fold_left ( + ) 0 s.R.party_received);
        let rows = Summary.rows spans in
        Alcotest.(check int) "wire spans sum to bytes_on_wire"
          s.R.bytes_on_wire
          (Summary.total rows "bytes_out");
        Alcotest.(check (array int)) "ranks sane" [| 3; 2; 4; 1 |] s.R.ranks);
  ]

(* ---- Exporters: golden shapes on a hand-built trace ---- *)

let golden_spans () =
  let (), spans =
    Trace.capture (fun () ->
        Trace.with_span ~attrs:[ ("party", Trace.Int 0); ("g", Trace.Str "x\"y") ]
          "outer"
          (fun () -> Trace.instant ~attrs:[ ("ok", Trace.Bool true) ] "inner"))
  in
  (* Pin the timestamps so the rendered strings are exact. *)
  List.iteri
    (fun i (sp : Trace.span) -> sp.Trace.dur_us <- float_of_int (10 * (i + 1)))
    spans;
  match spans with
  | [ outer; inner ] ->
      [
        { outer with Trace.start_us = 100.; dur_us = outer.Trace.dur_us };
        { inner with Trace.start_us = 105.; dur_us = inner.Trace.dur_us };
      ]
  | _ -> Alcotest.fail "expected exactly two spans"

let exporter_suite =
  [
    Alcotest.test_case "chrome trace golden" `Quick (fun () ->
        let spans = golden_spans () in
        let outer = List.nth spans 0 and inner = List.nth spans 1 in
        let expect =
          Printf.sprintf
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"main\"}},\n\
             {\"name\":\"outer\",\"cat\":\"ppgr\",\"ph\":\"X\",\"ts\":100.0,\"dur\":10.0,\"pid\":0,\"tid\":0,\"args\":{\"span_id\":%d,\"parent\":-1,\"party\":0,\"g\":\"x\\\"y\"}},\n\
             {\"name\":\"inner\",\"cat\":\"ppgr\",\"ph\":\"X\",\"ts\":105.0,\"dur\":20.0,\"pid\":0,\"tid\":0,\"args\":{\"span_id\":%d,\"parent\":%d,\"ok\":true}}\n\
             ]}\n"
            outer.Trace.id inner.Trace.id outer.Trace.id
        in
        Alcotest.(check string) "chrome" expect (Export.chrome_string spans));
    Alcotest.test_case "summary table sums and renders" `Quick (fun () ->
        let (), spans =
          Trace.capture (fun () ->
              Trace.instant
                ~attrs:[ ("party", Trace.Int 0); ("bytes_out", Trace.Int 10) ]
                "w";
              Trace.instant
                ~attrs:[ ("party", Trace.Int 0); ("bytes_out", Trace.Int 7) ]
                "w";
              Trace.instant
                ~attrs:[ ("party", Trace.Int 1); ("bytes_out", Trace.Int 5) ]
                "w")
        in
        let rows = Summary.rows spans in
        Alcotest.(check int) "two rows" 2 (List.length rows);
        Alcotest.(check int) "sum" 22 (Summary.total rows "bytes_out");
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "table mentions TOTAL" true
          (contains (Summary.to_string rows) "TOTAL"));
  ]

(* ---- Netsim per-edge tallies (hand-computed on a 3-node line) ---- *)

let netsim_suite =
  [
    Alcotest.test_case "per-edge and per-party tallies" `Quick (fun () ->
        let open Ppgr_mpcnet in
        let link = { Topology.bandwidth_bps = 8_000_000.; latency_s = 0.010 } in
        let topo = Topology.of_edges ~nodes:3 ~link [ (0, 1); (1, 2) ] in
        let placement = [| 0; 1; 2 |] in
        (* 0->2 crosses both links; 1->0 one link; 2->2 no link. *)
        let sched =
          [
            {
              Netsim.compute_s = 0.;
              messages =
                [
                  { Netsim.src = 0; dst = 2; bytes = 1000 };
                  { Netsim.src = 1; dst = 0; bytes = 300 };
                  { Netsim.src = 2; dst = 2; bytes = 77 };
                ];
            };
          ]
        in
        let st = Netsim.run topo ~placement sched in
        Alcotest.(check int) "bytes_sent" 1377 st.Netsim.bytes_sent;
        Alcotest.(check (array int)) "party out" [| 1000; 300; 77 |]
          st.Netsim.party_bytes_out;
        Alcotest.(check (array int)) "party in" [| 300; 0; 1077 |]
          st.Netsim.party_bytes_in;
        let edge u v =
          List.find_opt
            (fun (e : Netsim.edge_traffic) ->
              e.Netsim.node_from = u && e.Netsim.node_to = v)
            st.Netsim.edges
        in
        let check_edge u v bytes msgs =
          match edge u v with
          | Some e ->
              Alcotest.(check int) "edge bytes" bytes e.Netsim.edge_bytes;
              Alcotest.(check int) "edge msgs" msgs e.Netsim.edge_messages
          | None -> Alcotest.failf "edge %d->%d missing" u v
        in
        (* The 0->2 message is store-and-forward over 0->1 then 1->2. *)
        check_edge 0 1 1000 1;
        check_edge 1 2 1000 1;
        check_edge 1 0 300 1;
        Alcotest.(check int) "exactly the traffic-bearing links" 3
          (List.length st.Netsim.edges));
  ]

(* ---- Observability under faults: the summary still tiles, and
   retransmitted bytes are first-class citizens of the per-link
   tallies ---- *)

module G_faults = (val Dl_group.dl_test_64 ())
module R = Runtime.Make (G_faults)

let faults_suite =
  let run_traced spec_str =
    let rng = Rng.create ~seed:"obs-faults" in
    let betas = Array.map Bigint.of_int [| 3; 9; 1; 14 |] in
    let faults = Ppgr_mpcnet.Faultplan.spec_of_string spec_str in
    Trace.capture (fun () -> R.run ~faults rng ~l:6 ~betas)
  in
  (* Every fault kind, reorder included: a held envelope arrives within
     the flush that sent it, so every wire touch lands in its own
     protocol step and the per-step tiling stays exact. *)
  let spec =
    "drop=0.1,corrupt=0.1,dup=0.1,reorder=0.1,delay=0.2,maxdelay=4,seed=obs"
  in
  [
    Alcotest.test_case "summary tiles logical and physical bytes" `Quick
      (fun () ->
        let s, spans = run_traced spec in
        let rows = Summary.rows spans in
        (* The logical tiling of PR 4 must survive the lossy transport:
           wire instants still sum to bytes_on_wire exactly. *)
        Alcotest.(check int) "logical bytes_out tile"
          s.R.bytes_on_wire
          (Summary.total rows "bytes_out");
        Alcotest.(check int) "logical bytes_in tile"
          s.R.bytes_on_wire
          (Summary.total rows "bytes_in");
        (* And the physical level tiles too: every envelope byte,
           retransmissions included, attributed to some (step, party). *)
        Alcotest.(check int) "physical bytes_out tile"
          s.R.phys_bytes
          (Summary.total rows "phys_out");
        Alcotest.(check int) "physical bytes_in tile"
          s.R.phys_bytes
          (Summary.total rows "phys_in");
        Alcotest.(check bool) "schedule was actually hostile" true
          (s.R.retransmits > 0);
        Alcotest.(check bool) "a reorder was injected" true
          (List.assoc "reorder" s.R.faults_injected > 0);
        Alcotest.(check bool) "physical exceeds logical" true
          (s.R.phys_bytes > s.R.bytes_on_wire))
    ;
    Alcotest.test_case "retry markers tile the injected faults" `Quick
      (fun () ->
        let s, spans = run_traced spec in
        let rows = Summary.rows spans in
        let injected =
          List.fold_left (fun a (_, c) -> a + c) 0 s.R.faults_injected
        in
        Alcotest.(check bool) "faults injected" true (injected > 0);
        (* One runtime.retry instant with retries=1 per fault event. *)
        Alcotest.(check int) "retries tile" injected
          (Summary.total rows "retries"));
    Alcotest.test_case "retransmitted bytes show in netsim link tallies"
      `Quick (fun () ->
        let open Ppgr_mpcnet in
        let s_clean, _ = run_traced "seed=clean" in
        let s_faulty, _ = run_traced spec in
        let link = { Topology.bandwidth_bps = 8e6; latency_s = 0.002 } in
        let topo =
          Topology.of_edges ~nodes:4 ~link [ (0, 1); (1, 2); (2, 3); (3, 0) ]
        in
        let placement = [| 0; 1; 2; 3 |] in
        let replay st = Netsim.run topo ~placement st.R.net_rounds in
        let net_clean = replay s_clean and net_faulty = replay s_faulty in
        (* The physical schedule replays byte-exactly. *)
        Alcotest.(check int) "clean bytes" s_clean.R.phys_bytes
          net_clean.Netsim.bytes_sent;
        Alcotest.(check int) "faulty bytes" s_faulty.R.phys_bytes
          net_faulty.Netsim.bytes_sent;
        Alcotest.(check (array int)) "faulty per-party out"
          s_faulty.R.phys_party_sent net_faulty.Netsim.party_bytes_out;
        Alcotest.(check (array int)) "faulty per-party in"
          s_faulty.R.phys_party_received net_faulty.Netsim.party_bytes_in;
        (* Retransmissions are visible: the hostile run moves strictly
           more bytes over the links than the clean one. *)
        Alcotest.(check bool) "links carry the retransmissions" true
          (net_faulty.Netsim.bytes_sent > net_clean.Netsim.bytes_sent);
        let edge_total st =
          List.fold_left
            (fun a (e : Netsim.edge_traffic) -> a + e.Netsim.edge_bytes)
            0 st.Netsim.edges
        in
        Alcotest.(check bool) "per-edge tallies grow too" true
          (edge_total net_faulty > edge_total net_clean));
    Alcotest.test_case "clean transport is envelope-exact" `Quick (fun () ->
        let s, _ = run_traced "seed=clean" in
        Alcotest.(check int) "phys = logical + envelopes"
          (s.R.bytes_on_wire + (s.R.messages * Wire.envelope_overhead))
          s.R.phys_bytes;
        Alcotest.(check int) "one physical message per logical" s.R.messages
          s.R.phys_messages);
  ]

(* ---- Telemetry: flow arrows paired from the message instants, and
   the proof that switching telemetry on cannot change the protocol ---- *)

let obsv2_spec = "drop=0.1,corrupt=0.1,dup=0.1,delay=0.2,maxdelay=4,seed=obsv2"

(* One faulty run, telemetry on or off.  [on] means the full stack:
   span capture with the message instants. *)
let run_obsv2 ~telemetry () =
  let rng = Rng.create ~seed:"obsv2-inv" in
  let betas = Array.map Bigint.of_int [| 3; 9; 1; 14 |] in
  let faults = Ppgr_mpcnet.Faultplan.spec_of_string obsv2_spec in
  let go () = R.run ~faults rng ~l:6 ~betas in
  if telemetry then fst (Trace.capture go) else go ()

(* [f] on the obsv2 inputs, traced: its result and spans. *)
let traced_obsv2 f =
  let rng = Rng.create ~seed:"obsv2-inv" in
  let betas = Array.map Bigint.of_int [| 3; 9; 1; 14 |] in
  let faults = Ppgr_mpcnet.Faultplan.spec_of_string obsv2_spec in
  Trace.capture (fun () -> f ~faults rng ~betas)

(* The ppgr.flow events of a rendered trace, as (ph, id, ts). *)
let flow_events doc =
  let after line key =
    let n = String.length key in
    let rec at i =
      if i + n > String.length line then None
      else if String.sub line i n = key then Some (i + n)
      else at (i + 1)
    in
    at 0
  in
  let field line key =
    match after line key with
    | Some i -> String.sub line i (String.index_from line i ',' - i)
    | None -> Alcotest.failf "no %s in %s" key line
  in
  List.filter_map
    (fun line ->
      match after line "\"cat\":\"ppgr.flow\"" with
      | None -> None
      | Some _ ->
          Some
            ( field line "\"ph\":",
              int_of_string (field line "\"id\":"),
              float_of_string (field line "\"ts\":") ))
    (String.split_on_char '\n' doc)

(* A traced run's arrows: its rendered trace holds one ph:"s" and one
   ph:"f" ppgr.flow event per msg.accept instant, so every accept
   paired with an earlier send, and each arrow's send is no later than
   its accept.  Returns the number of accepts. *)
let check_arrows what spans =
  let accepts =
    List.length
      (List.filter (fun (sp : Trace.span) -> sp.Trace.name = "msg.accept") spans)
  in
  let evs = flow_events (Export.chrome_string spans) in
  let phase ph = List.filter (fun (p, _, _) -> p = ph) evs in
  let starts = phase "\"s\"" and finishes = phase "\"f\"" in
  Alcotest.(check int) (what ^ ": every accept pairs, one ph:s each") accepts
    (List.length starts);
  Alcotest.(check int) (what ^ ": one ph:f per accept") accepts
    (List.length finishes);
  List.iter
    (fun (_, id, sent) ->
      match List.find_opt (fun (_, id', _) -> id' = id) finishes with
      | Some (_, _, accepted) when sent <= accepted -> ()
      | _ -> Alcotest.failf "%s: arrow %d sent at %.1f has no later accept" what id sent)
    starts;
  accepts

(* The msg.send instants whose (src, dst, seq) key, which is all a
   send carries, an earlier send already had. *)
let repeated_sends spans =
  let keys =
    List.filter_map
      (fun (sp : Trace.span) ->
        if sp.Trace.name = "msg.send" then Some sp.Trace.attrs else None)
      spans
  in
  List.length keys - List.length (List.sort_uniq compare keys)

let obsv2_suite =
  [
    Alcotest.test_case "chrome flow arrows extend the golden exactly" `Quick
      (fun () ->
        let spans = golden_spans () in
        let outer = (List.hd spans).Trace.id in
        let base = Export.chrome_string spans in
        (* The golden's two span events, verbatim. *)
        let golden_events =
          match String.split_on_char '\n' base with
          | [ _; _; outer_ev; inner_ev; _; _ ] -> outer_ev ^ "\n" ^ inner_ev
          | _ -> Alcotest.fail "unexpected golden shape"
        in
        let instant name ~id ~parent ~slot ~us attrs =
          { Trace.id; parent; name; slot; seq = id; start_us = us; dur_us = 0.; attrs }
        in
        let key = [ ("src", Trace.Int 0); ("dst", Trace.Int 1); ("seq", Trace.Int 3) ] in
        let send = instant "msg.send" ~id:900 ~parent:outer ~slot:0 ~us:101. key in
        let accept =
          instant "msg.accept" ~id:901 ~parent:7 ~slot:1 ~us:106.5
            (key @ [ ("step", Trace.Str "compare"); ("bytes", Trace.Int 42) ])
        in
        let expect =
          Printf.sprintf
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"main\"}},\n\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"args\":{\"name\":\"worker-1\"}},\n\
             %s,\n\
             {\"name\":\"msg.send\",\"cat\":\"ppgr\",\"ph\":\"X\",\"ts\":101.0,\"dur\":0.0,\"pid\":0,\"tid\":0,\"args\":{\"span_id\":900,\"parent\":%d,\"src\":0,\"dst\":1,\"seq\":3}},\n\
             {\"name\":\"msg.accept\",\"cat\":\"ppgr\",\"ph\":\"X\",\"ts\":106.5,\"dur\":0.0,\"pid\":0,\"tid\":1,\"args\":{\"span_id\":901,\"parent\":7,\"src\":0,\"dst\":1,\"seq\":3,\"step\":\"compare\",\"bytes\":42}},\n\
             {\"name\":\"msg.compare\",\"cat\":\"ppgr.flow\",\"ph\":\"s\",\"id\":0,\"pid\":0,\"tid\":0,\"ts\":101.0,\"args\":{\"src\":0,\"dst\":1,\"seq\":3,\"bytes\":42,\"send_span\":%d,\"recv_span\":7}},\n\
             {\"name\":\"msg.compare\",\"cat\":\"ppgr.flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":0,\"pid\":0,\"tid\":1,\"ts\":106.5,\"args\":{\"src\":0,\"dst\":1,\"seq\":3,\"bytes\":42,\"send_span\":%d,\"recv_span\":7}}\n\
             ]}\n"
            golden_events outer outer outer
        in
        Alcotest.(check string) "chrome + one arrow" expect
          (Export.chrome_string (spans @ [ send; accept ]));
        (* A send without a later accept draws nothing, and an accept
           pairs with the latest unpaired send of its key. *)
        let arrows extra = flow_events (Export.chrome_string (spans @ extra)) in
        Alcotest.(check int) "unpaired send" 0 (List.length (arrows [ send ]));
        Alcotest.(check int) "accept before its send" 0
          (List.length (arrows [ accept; send ]));
        let resent = { send with Trace.id = 902; start_us = 103. } in
        Alcotest.(check (list (triple string int (float 0.))))
          "latest send wins"
          [ ("\"s\"", 0, 103.); ("\"f\"", 0, 106.5) ]
          (arrows [ send; resent; accept ]));
    Alcotest.test_case "telemetry leaves the transcript untouched" `Quick
      (fun () ->
        let off = run_obsv2 ~telemetry:false () in
        let on = run_obsv2 ~telemetry:true () in
        Alcotest.(check string) "same physical transcript"
          off.R.transcript_sha on.R.transcript_sha;
        Alcotest.(check (array int)) "same ranks" off.R.ranks on.R.ranks;
        Alcotest.(check int) "same retransmits" off.R.retransmits
          on.R.retransmits);
    Alcotest.test_case "message arrows pair every accept" `Quick (fun () ->
        let st, spans =
          traced_obsv2 (fun ~faults rng ~betas -> R.run ~faults rng ~l:6 ~betas)
        in
        Alcotest.(check int) "one msg.accept per logical message" st.R.messages
          (check_arrows "obsv2" spans));
    Alcotest.test_case "arrows pair across a resume" `Quick (fun () ->
        (* The resumed attempt re-posts the killed step's messages under
           the same (src, dst, seq). *)
        let rc, spans =
          traced_obsv2 (fun ~faults rng ~betas ->
              R.run_with_restart ~faults ~max_restarts:1 ~kill_after:30 rng ~l:6
                ~betas)
        in
        Alcotest.(check int) "resumed once" 1 rc.R.rec_resumes;
        Alcotest.(check bool) "a key repeats" true (repeated_sends spans > 0);
        ignore (check_arrows "resume" spans));
    Alcotest.test_case "arrows pair across a re-election" `Quick (fun () ->
        (* The re-elected session restarts every seq at 0. *)
        let rc, spans =
          traced_obsv2 (fun ~faults rng ~betas ->
              R.run_with_restart ~faults ~max_restarts:0 ~kill_after:30 rng ~l:6
                ~betas)
        in
        Alcotest.(check bool) "re-elected" true (rc.R.rec_reelected <> None);
        Alcotest.(check bool) "a key repeats" true (repeated_sends spans > 0);
        ignore (check_arrows "re-election" spans));
    Alcotest.test_case "summary table carries env_bytes and retransmits"
      `Quick (fun () ->
        (* Satellite of §5i: the per-phase table's physical columns tile
           the transport's own counters, retransmissions included. *)
        let rng = Rng.create ~seed:"obsv2-inv" in
        let betas = Array.map Bigint.of_int [| 3; 9; 1; 14 |] in
        let faults = Ppgr_mpcnet.Faultplan.spec_of_string obsv2_spec in
        let s, spans = Trace.capture (fun () -> R.run ~faults rng ~l:6 ~betas) in
        let rows = Summary.rows spans in
        Alcotest.(check bool) "run retransmitted" true (s.R.retransmits > 0);
        Alcotest.(check int) "retransmits column tiles" s.R.retransmits
          (Summary.total rows "retransmits");
        Alcotest.(check int) "env_bytes column tiles"
          (s.R.phys_messages * Wire.envelope_overhead)
          (Summary.total rows "env_bytes"));
    Alcotest.test_case "per-link tallies tile the physical counters" `Quick
      (fun () ->
        let s = run_obsv2 ~telemetry:false () in
        let sum f = List.fold_left (fun a lk -> a + f lk) 0 s.R.links in
        Alcotest.(check bool) "hostile enough to retransmit" true
          (s.R.retransmits > 0);
        Alcotest.(check int) "messages tile"
          s.R.phys_messages
          (sum (fun lk -> lk.Transport.lk_msgs));
        Alcotest.(check int) "bytes tile"
          s.R.phys_bytes
          (sum (fun lk -> lk.Transport.lk_bytes));
        Alcotest.(check int) "retransmits tile"
          s.R.retransmits
          (sum (fun lk -> lk.Transport.lk_retrans)));
  ]

(* ---- Golden transcript pins: hoisted labels are byte-identical ---- *)

(* This fingerprint was captured on the pre-hoisting code (labels
   built with Printf.sprintf inside the hot loops).  It pins every
   derived RNG stream: a changed label would shuffle the blinding
   exponents and permutations and change these values. *)

let golden_suite =
  [
    Alcotest.test_case "runtime transcript unchanged by label hoisting" `Quick
      (fun () ->
        let module G = (val Dl_group.dl_test_64 ()) in
        let module R = Runtime.Make (G) in
        let rng = Rng.create ~seed:"parallel-runtime" in
        let l = 10 in
        let betas =
          Array.init 5 (fun _ -> Rng.bigint_below rng (Bigint.nth_bit_weight l))
        in
        let s = R.run rng ~l ~betas in
        Alcotest.(check (array int)) "ranks" [| 1; 4; 4; 2; 3 |] s.R.ranks;
        (* Framed ring hops (PR 4): each intermediate hop is one framed
           message instead of n per-set sends, and the final hop keeps
           its own set; the ranks pin above proves the RNG streams are
           untouched by the re-framing.  P_1 keeps its own comparison
           set too (one message and one 645-byte set fewer), and the DL
           encoding min(x, p - x) leaves the proofs' minimal-length
           responses 4 bytes longer in all. *)
        Alcotest.(check int) "bytes on wire" 22092 s.R.bytes_on_wire;
        Alcotest.(check int) "messages" 72 s.R.messages);
  ]

let () =
  Alcotest.run "obs"
    [
      ("tracer", tracer_suite);
      ("jobs", jobs_suite);
      ("attribution", attribution_suite);
      ("exporters", exporter_suite);
      ("netsim-edges", netsim_suite);
      ("faults", faults_suite);
      ("obsv2", obsv2_suite);
      ("golden-labels", golden_suite);
    ]
