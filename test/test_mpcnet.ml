(* Topology generation, routing and event-simulation tests. *)

open Ppgr_rng
open Ppgr_mpcnet

let rng = Rng.create ~seed:"test-mpcnet"

let topology_tests =
  [
    Alcotest.test_case "random_connected hits the edge target" `Quick (fun () ->
        let t = Topology.random_connected rng ~nodes:30 ~edges:60 () in
        Alcotest.(check int) "nodes" 30 (Topology.nodes t);
        Alcotest.(check int) "edges" 60 (Topology.edge_count t));
    Alcotest.test_case "paper topology: 80 nodes, 320 edges" `Quick (fun () ->
        let t = Topology.random_connected rng ~nodes:80 ~edges:320 () in
        Alcotest.(check int) "edges" 320 (Topology.edge_count t));
    Alcotest.test_case "generated graphs are connected (routing reaches all)"
      `Quick (fun () ->
        let t = Topology.random_connected rng ~nodes:25 ~edges:40 () in
        let next = Topology.routing t in
        for u = 0 to 24 do
          for v = 0 to 24 do
            if u <> v then
              Alcotest.(check bool) "reachable" true (next.(u).(v) >= 0)
          done
        done);
    Alcotest.test_case "paths are valid walks" `Quick (fun () ->
        let t = Topology.random_connected rng ~nodes:15 ~edges:25 () in
        let next = Topology.routing t in
        for src = 0 to 14 do
          for dst = 0 to 14 do
            if src <> dst then begin
              let path = Topology.path ~next ~src ~dst in
              Alcotest.(check bool) "ends at dst" true (List.nth path (List.length path - 1) = dst);
              let u = ref src in
              List.iter
                (fun v ->
                  (* Each consecutive pair must be adjacent. *)
                  ignore (Topology.link_between t !u v);
                  u := v)
                path
            end
          done
        done);
    Alcotest.test_case "of_edges validates" `Quick (fun () ->
        Alcotest.check_raises "disconnected"
          (Invalid_argument "Topology.of_edges: disconnected") (fun () ->
            ignore (Topology.of_edges ~nodes:4 [ (0, 1); (2, 3) ])));
    Alcotest.test_case "too few edges rejected" `Quick (fun () ->
        Alcotest.check_raises "tree minimum"
          (Invalid_argument "Topology.random_connected: too few edges") (fun () ->
            ignore (Topology.random_connected rng ~nodes:10 ~edges:5 ())));
    Alcotest.test_case "too many edges rejected" `Quick (fun () ->
        (* 4 nodes have at most 6 edges; 7 must not quietly keep the
           complete graph. *)
        ignore (Topology.random_connected rng ~nodes:4 ~edges:6 ());
        Alcotest.check_raises "complete-graph maximum"
          (Invalid_argument "Topology.random_connected: too many edges") (fun () ->
            ignore (Topology.random_connected rng ~nodes:4 ~edges:7 ())));
  ]

(* A 3-node line topology with known link parameters for hand-computed
   checks: 0 -- 1 -- 2, 1 MB/s, 10 ms latency. *)
let line3 () =
  let link = { Topology.bandwidth_bps = 8_000_000.; latency_s = 0.010 } in
  Topology.of_edges ~nodes:3 ~link [ (0, 1); (1, 2) ]

let netsim_tests =
  [
    Alcotest.test_case "single message timing (hand computed)" `Quick (fun () ->
        let t = line3 () in
        (* 1000 bytes over two hops at 1 MB/s + 10 ms each:
           per hop 1 ms ser + 10 ms lat; store-and-forward = 22 ms. *)
        let sched = [ { Netsim.compute_s = 0.; messages = [ { Netsim.src = 0; dst = 2; bytes = 1000 } ] } ] in
        let st = Netsim.run t ~placement:[| 0; 1; 2 |] sched in
        Alcotest.(check (float 1e-9)) "elapsed" 0.022 st.Netsim.elapsed_s);
    Alcotest.test_case "compute time adds before sending" `Quick (fun () ->
        let t = line3 () in
        let sched = [ { Netsim.compute_s = 0.5; messages = [ { Netsim.src = 0; dst = 1; bytes = 1000 } ] } ] in
        let st = Netsim.run t ~placement:[| 0; 1; 2 |] sched in
        Alcotest.(check (float 1e-9)) "elapsed" (0.5 +. 0.011) st.Netsim.elapsed_s);
    Alcotest.test_case "link contention serializes transfers" `Quick (fun () ->
        let t = line3 () in
        (* Two 1000-byte messages across the same link: second queues
           behind the first's serialization. *)
        let m = { Netsim.src = 0; dst = 1; bytes = 1000 } in
        let sched = [ { Netsim.compute_s = 0.; messages = [ m; m ] } ] in
        let st = Netsim.run t ~placement:[| 0; 1; 2 |] sched in
        Alcotest.(check (float 1e-9)) "elapsed" 0.012 st.Netsim.elapsed_s);
    Alcotest.test_case "rounds are barriers" `Quick (fun () ->
        let t = line3 () in
        let m = { Netsim.src = 0; dst = 1; bytes = 1000 } in
        let sched =
          [
            { Netsim.compute_s = 0.; messages = [ m ] };
            { Netsim.compute_s = 0.; messages = [ m ] };
          ]
        in
        let st = Netsim.run t ~placement:[| 0; 1; 2 |] sched in
        (* Two sequential rounds: 2 * 11 ms (latency is paid per round
           because the second round waits for delivery). *)
        Alcotest.(check (float 1e-9)) "elapsed" 0.022 st.Netsim.elapsed_s;
        Alcotest.(check int) "rounds" 2 st.Netsim.rounds);
    Alcotest.test_case "same-node delivery is free" `Quick (fun () ->
        let t = line3 () in
        let sched = [ { Netsim.compute_s = 0.; messages = [ { Netsim.src = 0; dst = 1; bytes = 10 } ] } ] in
        (* Both parties placed on node 0. *)
        let st = Netsim.run t ~placement:[| 0; 0; 0 |] sched in
        Alcotest.(check (float 1e-9)) "elapsed" 0. st.Netsim.elapsed_s);
    Alcotest.test_case "stats account bytes and messages" `Quick (fun () ->
        let t = line3 () in
        let sched =
          [ { Netsim.compute_s = 0.; messages = Netsim.all_broadcast ~parties:3 ~bytes:7 } ]
        in
        let st = Netsim.run t ~placement:[| 0; 1; 2 |] sched in
        Alcotest.(check int) "messages" 6 st.Netsim.message_count;
        Alcotest.(check int) "bytes" 42 st.Netsim.bytes_sent);
    Alcotest.test_case "congestion grows with load" `Quick (fun () ->
        let t = Topology.random_connected rng ~nodes:20 ~edges:30 () in
        let placement = Netsim.place_parties t ~parties:10 in
        let run per_msg =
          (Netsim.run t ~placement
             [ { Netsim.compute_s = 0.; messages = Netsim.all_broadcast ~parties:10 ~bytes:per_msg } ])
            .Netsim.elapsed_s
        in
        Alcotest.(check bool) "10x bytes is slower" true (run 100_000 > run 10_000));
    Alcotest.test_case "placement spreads parties" `Quick (fun () ->
        let t = Topology.random_connected rng ~nodes:40 ~edges:80 () in
        let p = Netsim.place_parties t ~parties:8 in
        let distinct = List.sort_uniq compare (Array.to_list p) in
        Alcotest.(check int) "distinct nodes" 8 (List.length distinct));
  ]

let () =
  Alcotest.run "mpcnet" [ ("topology", topology_tests); ("netsim", netsim_tests) ]
