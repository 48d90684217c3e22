(** Secure comparison of shared [l]-bit integers — the SS comparison
    primitive of the baseline framework (the role played by
    Nishide–Ohta [5] in the paper).

    Implementation: the classical masked-open bit-extraction
    construction (O(l) multiplications, like [5]); the paper's published
    constant is exposed as {!nishide_ohta_mults} for the paper-faithful
    analytic cost model.  See the module implementation for the
    derivation. *)


type params = {
  l : int; (* inputs are l-bit *)
  kappa : int; (* statistical masking bits *)
}

val default_params : l:int -> unit -> params
(** kappa = 40. *)

val nishide_ohta_mults : l:int -> int
(** [279 l + 5], the multiplication count of the paper's primitive. *)

val bit_lt_public :
  Engine.t ->
  a_bits:int array ->
  b_bits:Engine.shared array ->
  Engine.shared
(** Shares of [a < b] for public [a] (little-endian bits) and shared
    bitwise [b]. *)

val ge : Engine.t -> params -> Engine.shared -> Engine.shared -> Engine.shared
(** Shares of the bit [x >= y], for [x, y] in [[0, 2^l)].
    @raise Invalid_argument if the field is smaller than [l + kappa + 2]
    bits. *)
