(** Discrete-event simulation of synchronous protocol execution on a
    {!Topology.t}.

    A protocol run is abstracted as a {!schedule}: a list of rounds, each
    carrying the messages every party sends in that round plus the
    longest per-party local computation preceding the sends.  Rounds are
    barriers (the next round starts once every message of the previous
    one is delivered), matching the lockstep protocols simulated here.

    Messages travel hop-by-hop along shortest paths (store-and-forward);
    each directed link serves transfers FIFO at its bandwidth, so heavy
    rounds queue up and congestion emerges naturally — the effect behind
    the SS framework's collapse in the paper's Fig. 3(b). *)

type message = {
  src : int; (* party index *)
  dst : int;
  bytes : int;
}

type round = {
  compute_s : float; (* critical-path local computation in this round *)
  messages : message list;
}

type schedule = round list

type placement = int array (* party index -> topology node *)

(** Spread parties over distinct nodes (round robin when there are more
    parties than nodes would be an error). *)
let place_parties topo ~parties : placement =
  if parties > Topology.nodes topo then
    invalid_arg "Netsim.place_parties: more parties than nodes";
  Array.init parties (fun i -> i * Topology.nodes topo / parties)

type edge_traffic = {
  node_from : int; (* topology node, not party index *)
  node_to : int;
  edge_bytes : int;
  edge_messages : int; (* transfers serialized on this directed link *)
}

type stats = {
  elapsed_s : float;
  bytes_sent : int;
  message_count : int;
  rounds : int;
  edges : edge_traffic list; (* directed links with traffic, lex order *)
  party_bytes_out : int array; (* end-to-end, by sending party *)
  party_bytes_in : int array; (* end-to-end, by receiving party *)
}

let run topo ~placement (sched : schedule) : stats =
  let next = Topology.routing topo in
  let n = Topology.nodes topo in
  let parties = Array.length placement in
  (* free_at.(u).(v): earliest time directed link u->v can start a new
     transmission. *)
  let free_at = Array.make_matrix n n 0. in
  let edge_bytes = Array.make_matrix n n 0 in
  let edge_msgs = Array.make_matrix n n 0 in
  let party_out = Array.make parties 0 in
  let party_in = Array.make parties 0 in
  let clock = ref 0. in
  let bytes_total = ref 0 in
  let msg_total = ref 0 in
  List.iter
    (fun round ->
      let start = !clock +. round.compute_s in
      let round_end = ref start in
      List.iter
        (fun m ->
          incr msg_total;
          bytes_total := !bytes_total + m.bytes;
          party_out.(m.src) <- party_out.(m.src) + m.bytes;
          party_in.(m.dst) <- party_in.(m.dst) + m.bytes;
          let src = placement.(m.src) and dst = placement.(m.dst) in
          if src <> dst then begin
            let hops = Topology.path ~next ~src ~dst in
            let t = ref start in
            let u = ref src in
            List.iter
              (fun v ->
                let link = Topology.link_between topo !u v in
                let begin_tx = Float.max !t free_at.(!u).(v) in
                let ser = float_of_int (8 * m.bytes) /. link.Topology.bandwidth_bps in
                free_at.(!u).(v) <- begin_tx +. ser;
                edge_bytes.(!u).(v) <- edge_bytes.(!u).(v) + m.bytes;
                edge_msgs.(!u).(v) <- edge_msgs.(!u).(v) + 1;
                t := begin_tx +. ser +. link.Topology.latency_s;
                u := v)
              hops;
            if !t > !round_end then round_end := !t
          end)
        round.messages;
      clock := !round_end)
    sched;
  let edges = ref [] in
  for u = n - 1 downto 0 do
    for v = n - 1 downto 0 do
      if edge_msgs.(u).(v) > 0 then
        edges :=
          {
            node_from = u;
            node_to = v;
            edge_bytes = edge_bytes.(u).(v);
            edge_messages = edge_msgs.(u).(v);
          }
          :: !edges
    done
  done;
  {
    elapsed_s = !clock;
    bytes_sent = !bytes_total;
    message_count = !msg_total;
    rounds = List.length sched;
    edges = !edges;
    party_bytes_out = party_out;
    party_bytes_in = party_in;
  }

(** Rename party indices in a schedule — e.g. lift a shard-local
    schedule (parties 0..s-1) onto the global party space. *)
let remap f (sched : schedule) : schedule =
  List.map
    (fun r ->
      {
        r with
        messages = List.map (fun m -> { m with src = f m.src; dst = f m.dst }) r.messages;
      })
    sched

(** Round-index-wise parallel union: round [i] of the result carries
    every schedule's round-[i] messages and the slowest round-[i]
    computation.  Models independent shards running in lockstep
    side by side; shorter schedules simply stop contributing. *)
let overlay (scheds : schedule list) : schedule =
  let arrs = List.map Array.of_list scheds in
  let depth = List.fold_left (fun acc a -> max acc (Array.length a)) 0 arrs in
  List.init depth (fun i ->
      List.fold_left
        (fun acc a ->
          if i < Array.length a then
            {
              compute_s = Float.max acc.compute_s a.(i).compute_s;
              messages = acc.messages @ a.(i).messages;
            }
          else acc)
        { compute_s = 0.; messages = [] }
        arrs)

(** Convenience constructors for common communication patterns. *)

let broadcast ~from ~parties ~bytes =
  List.filter_map
    (fun dst -> if dst = from then None else Some { src = from; dst; bytes })
    (List.init parties (fun i -> i))

let all_broadcast ~parties ~bytes =
  List.concat_map (fun src -> broadcast ~from:src ~parties ~bytes)
    (List.init parties (fun i -> i))

let unicast ~src ~dst ~bytes = [ { src; dst; bytes } ]
