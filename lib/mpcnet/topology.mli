(** Network topologies for the protocol simulation.

    The paper's NS2 setup (§VII) is a random graph obtained by deleting
    edges from an 80-node complete graph until 320 edges remain, never
    disconnecting it; every link is 2 Mbps duplex with 50 ms latency.
    {!random_connected} reproduces that construction. *)

type link = {
  bandwidth_bps : float;
  latency_s : float;
}

type t

val nodes : t -> int
val edge_count : t -> int

val default_link : link
(** The paper's 2 Mbps / 50 ms link. *)

val of_edges : nodes:int -> ?link:link -> (int * int) list -> t
(** Build a topology from an undirected edge list (uniform links).
    @raise Invalid_argument if disconnected or an edge is out of range. *)

val random_connected :
  Ppgr_rng.Rng.t -> nodes:int -> edges:int -> ?link:link -> unit -> t
(** Delete random non-disconnecting edges from the complete graph until
    [edges] remain.
    @raise Invalid_argument if [edges < nodes - 1] or
    [edges > nodes (nodes - 1) / 2]. *)

val two_level_layout : shard_sizes:int array -> int * int array * int array array
(** Node layout of the sharded fan-in tree: [(root, aggregators, leaves)]
    with the coordinator at node 0, aggregator of shard [i] at node
    [1 + i], and [leaves.(i)] the node ids of shard [i]'s participants
    (in shard order after the aggregators). *)

val two_level_tree : ?link:link -> shard_sizes:int array -> unit -> t
(** Two-level fan-in tree for committee-sharded ranking: a coordinator
    star over per-shard aggregators, each a star over its shard's
    participants.  Node ids follow {!two_level_layout}. *)

val routing : t -> int array array
(** All-pairs first-hop table by BFS: [next.(u).(v)] is the first hop
    from [u] towards [v] ([-1] on the diagonal). *)

val path : next:int array array -> src:int -> dst:int -> int list
(** Node sequence from [src] to [dst], excluding [src].
    @raise Invalid_argument if unreachable. *)

val link_between : t -> int -> int -> link
(** @raise Invalid_argument if the nodes are not adjacent. *)
