(** A synchronous-lockstep simulator of [n]-party Shamir-based MPC.

    A {!shared} value is the vector of all parties' shares; the engine
    executes each sub-protocol for every party and keeps the cost ledger
    the evaluation reads.  Degree reduction after multiplication follows
    Gennaro–Rabin–Rabin, so the engine requires [n >= 2t + 1].

    Shares live in Montgomery limb form over the field's cached context
    and are only converted to {!Bigint.t} at {!input}, {!of_public} and
    {!open_}.  The field's multiplication meter ([c_field_mults]) counts
    the multiplications the simulation performs, all parties together:
    [t+1] per share dealt, one per share of a local product or public
    scaling, [n^2] per degree reduction and [n] per opening (the Lagrange
    weights are computed once, in {!create}).  {!field_mults_per_party}
    prices a ledger's invocation counts with the same unit costs. *)

open Ppgr_bigint
open Ppgr_dotprod

type t

type shared
(** Every party's share of one value. *)

val create : Ppgr_rng.Rng.t -> Zfield.t -> n:int -> t
(** [n] parties at threshold [t = (n-1)/2], the most colluders GRR
    degree reduction tolerates.
    @raise Invalid_argument if [n < 1], or unless the field prime is
    3 mod 4 (random bits take square roots as one exponentiation by
    [(p+1)/4]). *)

val field : t -> Zfield.t

(** {1 Cost ledger} *)

type costs = {
  c_mults : int; (* multiplication-protocol invocations *)
  c_rounds : int; (* communication rounds (batches count once) *)
  c_elements : int; (* field elements on the wire, all parties: {!elements} *)
  c_opens : int;
  c_randoms : int;
  c_inputs : int; (* shares of private inputs dealt *)
  c_scalings : int; (* multiplications of a share vector by a public value *)
  c_field_mults : int; (* the field meter: local field mults, whole simulation *)
}

val costs : t -> costs

val reset_costs : t -> unit
(** Zero the ledger and the field's meter (which {!create}'s Lagrange
    weights have ticked). *)

val elements : n:int -> costs -> int
(** The field elements an [n]-party run with these invocation counts
    puts on the wire: [n(n-1)] per multiplication, random value and
    opening, [n-1] per input. *)

val field_mults_per_party : n:int -> costs -> int
(** The field multiplications one party of an [n]-party run with these
    invocation counts performs, with [t = (n-1)/2]: [1 + n(t+2)] per
    multiplication, [n(t+1)] per random value, [t+1] per input and 1 per
    opening or public scaling.  For a ledger started at {!reset_costs},
    [c_field_mults = n * field_mults_per_party ~n c]. *)

val fork : t -> label:string -> t
(** A child engine for one independent task of a parallel batch: same
    field, randomness split off the parent's stream under [label],
    ledger zeroed.  The field-multiplication meter is shared (it is
    per-domain-mergeable), so only the protocol counters fork. *)

val absorb : t -> t array -> unit
(** [absorb e children] folds a batch of {!fork}ed children that ran in
    lockstep back into [e]: every invocation counter adds up, and the
    batch's rounds count once, at the children's maximum. *)

(** {1 Linear (communication-free) operations} *)

val of_public : t -> Bigint.t -> shared
val add : t -> shared -> shared -> shared
val sub : t -> shared -> shared -> shared
val add_public : t -> shared -> Bigint.t -> shared
val scale : t -> Bigint.t -> shared -> shared
val neg : t -> shared -> shared

(** {1 Interactive operations} *)

val input : t -> Bigint.t -> shared
(** A party shares a private input (1 round). *)

val input_batch : t -> Bigint.t list -> shared list
(** Many parties share private inputs in one simultaneous round —
    the sharded-ranking merge fan-in, where each candidate deals the
    bits of its beta ({!Topk.input_bits}). *)

val open_ : t -> shared -> Bigint.t
(** Reveal a shared value to everyone (1 round). *)

val open_batch : t -> shared list -> Bigint.t list
(** Many openings in a single round. *)

val mul : t -> shared -> shared -> shared
(** One multiplication with GRR degree reduction (1 round). *)

val mul_batch : t -> (shared * shared) list -> shared list
(** Parallel multiplications sharing one round. *)

val random : t -> shared
(** Jointly generated uniform shared value (1 round). *)

val random_batch : t -> int -> shared array

val random_bit_batch : t -> int -> shared array
(** [k] jointly random shared bits (Damgård et al. square-root trick)
    with batched rounds (3 rounds plus rare retries). *)

val random_bits : t -> int -> shared array * shared
(** [nbits] bits plus their weighted value [Σ 2^i b_i]. *)
