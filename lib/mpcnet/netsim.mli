(** Discrete-event simulation of synchronous protocol execution on a
    {!Topology.t}.

    A protocol run is a {!schedule}: a list of barrier-synchronized
    rounds, each carrying the messages sent in that round plus the
    critical-path local computation preceding the sends.  Messages
    travel hop-by-hop along shortest paths (store-and-forward); each
    directed link serves transfers FIFO at its bandwidth, so heavy
    rounds queue up and congestion emerges naturally. *)

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

type placement = int array
(** Party index to topology node. *)

val place_parties : Topology.t -> parties:int -> placement
(** Spread parties over distinct nodes.
    @raise Invalid_argument if there are more parties than nodes. *)

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
  edges : edge_traffic list;
      (* directed links that carried traffic, in (node_from, node_to)
         lexicographic order; store-and-forward hops count on every
         intermediate link they cross *)
  party_bytes_out : int array; (* end-to-end bytes, by sending party *)
  party_bytes_in : int array; (* end-to-end bytes, by receiving party *)
}

val run : Topology.t -> placement:placement -> schedule -> stats

val remap : (int -> int) -> schedule -> schedule
(** Rename party indices (e.g. shard-local to global). *)

val overlay : schedule list -> schedule
(** Round-index-wise parallel union: per round, messages are
    concatenated and [compute_s] is the maximum — independent shards
    running side by side in lockstep. *)

(** {1 Common communication patterns} *)

val broadcast : from:int -> parties:int -> bytes:int -> message list
val all_broadcast : parties:int -> bytes:int -> message list
val unicast : src:int -> dst:int -> bytes:int -> message list
