(** Network topologies for the protocol simulation.

    The paper's NS2 setup (§VII): a random graph obtained by deleting
    edges from an 80-node complete graph until 320 edges remain, never
    disconnecting it; every link 2 Mbps duplex with 50 ms latency.
    {!random_connected} reproduces that construction. *)

open Ppgr_rng

type link = {
  bandwidth_bps : float;
  latency_s : float;
}

type t = {
  nodes : int;
  adj : (int * link) list array; (* adjacency: neighbor, link *)
}

let nodes t = t.nodes

let edge_count t =
  Array.fold_left (fun acc l -> acc + List.length l) 0 t.adj / 2

let default_link = { bandwidth_bps = 2_000_000.; latency_s = 0.050 }

(* Connectivity check by BFS over an explicit edge set. *)
let connected ~nodes edges =
  let adj = Array.make nodes [] in
  List.iter
    (fun (u, v) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    edges;
  let seen = Array.make nodes false in
  let queue = Queue.create () in
  Queue.add 0 queue;
  seen.(0) <- true;
  let count = ref 1 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          incr count;
          Queue.add v queue
        end)
      adj.(u)
  done;
  !count = nodes

let of_edges ~nodes ?(link = default_link) edges =
  if not (connected ~nodes edges) then invalid_arg "Topology.of_edges: disconnected";
  let adj = Array.make nodes [] in
  List.iter
    (fun (u, v) ->
      if u = v || u < 0 || v >= nodes then invalid_arg "Topology.of_edges: bad edge";
      adj.(u) <- (v, link) :: adj.(u);
      adj.(v) <- (u, link) :: adj.(v))
    edges;
  { nodes; adj }

(** The paper's construction: start from the complete graph on [nodes]
    and delete random edges that do not disconnect it until [edges]
    remain. *)
let random_connected rng ~nodes ~edges ?(link = default_link) () =
  if edges < nodes - 1 then invalid_arg "Topology.random_connected: too few edges";
  if edges > nodes * (nodes - 1) / 2 then
    invalid_arg "Topology.random_connected: too many edges";
  let all = ref [] in
  for u = 0 to nodes - 1 do
    for v = u + 1 to nodes - 1 do
      all := (u, v) :: !all
    done
  done;
  let current = ref !all in
  let count = ref (List.length !all) in
  (* Repeatedly try deleting a random edge; skip ones whose removal
     disconnects the graph. *)
  let attempts = ref 0 in
  let max_attempts = 50 * List.length !all in
  while !count > edges && !attempts < max_attempts do
    incr attempts;
    let arr = Array.of_list !current in
    let idx = Rng.int_below rng (Array.length arr) in
    let e = arr.(idx) in
    let without = List.filter (fun e' -> e' <> e) !current in
    if connected ~nodes without then begin
      current := without;
      decr count
    end
  done;
  of_edges ~nodes ~link !current

(** Deterministic node layout of the sharded-ranking fan-in tree:
    coordinator at node 0, one aggregator per shard at nodes
    [1 .. shards], then the shards' leaves in shard order.  Returns
    [(root, aggregators, leaves)] with [leaves.(i)] the node ids of
    shard [i]'s participants. *)
let two_level_layout ~shard_sizes =
  let shards = Array.length shard_sizes in
  let aggregators = Array.init shards (fun i -> 1 + i) in
  let next_leaf = ref (1 + shards) in
  let leaves =
    Array.map
      (fun size ->
        let ids = Array.init size (fun j -> !next_leaf + j) in
        next_leaf := !next_leaf + size;
        ids)
      shard_sizes
  in
  (0, aggregators, leaves)

(** The sharded-ranking topology (Tueno et al.'s star network, one
    level deeper): a coordinator star over per-shard aggregators, each
    aggregator a star over its shard's participants.  Layout per
    {!two_level_layout}. *)
let two_level_tree ?(link = default_link) ~shard_sizes () =
  let root, aggregators, leaves = two_level_layout ~shard_sizes in
  let nodes = 1 + Array.length shard_sizes + Array.fold_left ( + ) 0 shard_sizes in
  let edges = ref [] in
  Array.iteri
    (fun i agg ->
      edges := (root, agg) :: !edges;
      Array.iter (fun leaf -> edges := (agg, leaf) :: !edges) leaves.(i))
    aggregators;
  of_edges ~nodes ~link !edges

(** All-pairs shortest paths by hop count (uniform links): returns
    [next.(u).(v)] = first hop from [u] towards [v]. *)
let routing t =
  let n = t.nodes in
  let next = Array.make_matrix n n (-1) in
  for src = 0 to n - 1 do
    (* BFS from src, recording parents. *)
    let parent = Array.make n (-1) in
    let seen = Array.make n false in
    let queue = Queue.create () in
    Queue.add src queue;
    seen.(src) <- true;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun (v, _) ->
          if not seen.(v) then begin
            seen.(v) <- true;
            parent.(v) <- u;
            Queue.add v queue
          end)
        t.adj.(u)
    done;
    for dst = 0 to n - 1 do
      if dst <> src && seen.(dst) then begin
        (* Walk back from dst to find the first hop out of src. *)
        let rec first_hop v = if parent.(v) = src then v else first_hop parent.(v) in
        next.(src).(dst) <- first_hop dst
      end
    done
  done;
  next

(** Path from [src] to [dst] as a list of nodes (excluding [src]). *)
let path ~next ~src ~dst =
  let rec go u acc =
    if u = dst then List.rev acc
    else begin
      let hop = next.(u).(dst) in
      if hop < 0 then invalid_arg "Topology.path: unreachable";
      go hop (hop :: acc)
    end
  in
  go src []

let link_between t u v =
  match List.assoc_opt v t.adj.(u) with
  | Some l -> l
  | None -> invalid_arg "Topology.link_between: not adjacent"
