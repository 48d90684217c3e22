(** Arbitrary-precision signed integers.

    A from-scratch replacement for Zarith sufficient for the cryptographic
    needs of this repository: sign-magnitude representation over 61-bit
    limbs in native ints, with schoolbook/Karatsuba multiplication, Knuth
    division, modular arithmetic and (de)serialization.

    All values are immutable.  Division truncates toward zero, matching
    OCaml's native [/] and [mod]. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val minus_one : t

(** {1 Conversions} *)

val of_int : int -> t

val to_int_opt : t -> int option
(** [None] if the value does not fit in 62 bits plus sign. *)

val to_int_exn : t -> int
(** @raise Invalid_argument if out of native range. *)

val of_string : string -> t
(** Decimal, with optional leading [-] and [0x]-prefixed hexadecimal. *)

val to_string : t -> string
(** Decimal rendering. *)

val to_string_hex : t -> string
(** Lower-case hexadecimal, no prefix, [-] for negatives. *)

val of_bytes_be : Bytes.t -> t
(** Big-endian unsigned bytes. *)

val to_bytes_be : t -> Bytes.t
(** Big-endian minimal-length bytes of the absolute value.
    @raise Invalid_argument on negative input. *)

val to_bytes_be_padded : int -> t -> Bytes.t
(** [to_bytes_be_padded len v] left-pads with zero bytes to [len] bytes.
    @raise Invalid_argument if [v] needs more than [len] bytes or is
    negative. *)

(** {1 Comparisons} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val is_even : t -> bool
val is_odd : t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

val divmod : t -> t -> t * t
(** Truncated division: quotient rounds toward zero, remainder has the
    sign of the dividend.  @raise Division_by_zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val ediv_rem : t -> t -> t * t
(** Euclidean division: remainder is always in [0, |divisor|). *)

val erem : t -> t -> t
(** Euclidean (non-negative) remainder. *)

val in_range : t -> t -> bool
(** [in_range v m] is [0 <= v < m] — whether [v] is already a canonical
    residue mod [m], i.e. [erem v m] would return [v] unchanged.
    Allocation-free (sign test plus one magnitude compare); the group
    layer uses it to skip the Euclidean division on already-reduced
    exponents and bases. *)

val add_int : t -> int -> t
val mul_int : t -> int -> t

(** {1 Bit operations}

    Bitwise operations view values as non-negative bit strings and raise
    [Invalid_argument] on negative operands (two's complement semantics
    are never needed in this code base). *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val testbit : t -> int -> bool

val numbits : t -> int
(** Bits in the absolute value; [numbits zero = 0]. *)

val nth_bit_weight : int -> t
(** [nth_bit_weight k] is [2^k]. *)

val bits_of : t -> width:int -> int array
(** Little-endian bit decomposition of a non-negative value, padded or
    truncated to [width] entries, each 0 or 1. *)

val of_bits : int array -> t
(** Inverse of {!bits_of} (little-endian 0/1 array). *)

(** {1 Number theory} *)

val gcd : t -> t -> t

val egcd : t -> t -> t * t * t
(** [egcd a b = (g, u, v)] with [g = gcd a b] and [u*a + v*b = g]. *)

val invmod : t -> t -> t
(** [invmod a m] is the inverse of [a] modulo [m].
    @raise Division_by_zero if not invertible. *)

val powmod : t -> t -> t -> t
(** [powmod b e m] is [b^e mod m] for [e >= 0], [m > 0].  Uses Montgomery
    exponentiation for odd moduli. *)

val pow : t -> int -> t
(** Small exact power. *)

val jacobi : t -> t -> int
(** Jacobi symbol [(a/n)] for odd positive [n].  Binary algorithm: each
    round strips every factor of two in one shift, and once [n] fits in
    62 bits the rest runs on native ints. *)

(** {1 Operation counters}

    Global counters for multiplications/divisions used by the evaluation
    harness to report analytic costs; see DESIGN.md §4. *)

val mul_count : unit -> int
val reset_counters : unit -> unit

(** {1 Pretty printing} *)

val pp : Format.formatter -> t -> unit

(** {1 Modular rings}

    Montgomery-form residue arithmetic modulo a fixed odd modulus.
    Elements live in an opaque Montgomery representation so that repeated
    multiplications avoid division entirely; this is the workhorse of the
    DL group and the elliptic-curve base field. *)

module Modring : sig
  type ctx
  type elt

  val ctx : modulus:t -> ctx
  (** @raise Invalid_argument unless the modulus is odd and > 2. *)

  val modulus : ctx -> t

  val enter : ctx -> t -> elt
  (** Reduce (Euclidean) and convert to Montgomery form. *)

  val enter_into : ctx -> elt -> t -> unit
  (** [enter_into c dst v] writes the Montgomery form of [v] into [dst];
      allocation-free when [v] is already in [[0, m)]. *)

  val leave : ctx -> elt -> t
  (** Back to a canonical integer in [[0, m)]. *)

  val zero : ctx -> elt
  val one : ctx -> elt
  val of_int : ctx -> int -> elt
  val add : ctx -> elt -> elt -> elt
  val sub : ctx -> elt -> elt -> elt
  val neg : ctx -> elt -> elt
  val mul : ctx -> elt -> elt -> elt
  val sqr : ctx -> elt -> elt
  val pow : ctx -> elt -> t -> elt
  (** Fixed 4-bit-window exponentiation on per-domain scratch; allocates
      only its result.  Exponent must be non-negative. *)

  (** {2 In-place variants}

      Allocation-free forms of the ring operations for hot loops: each
      writes its result into a caller-provided destination element, which
      may alias any operand.  Obtain destinations from {!alloc}; an [elt]
      written this way is a perfectly ordinary element afterwards. *)

  val alloc : ctx -> elt
  (** A fresh mutable element, initially zero. *)

  val copy_into : ctx -> elt -> elt -> unit
  (** [copy_into c dst src] overwrites [dst] with the value of [src]. *)

  val zero_into : ctx -> elt -> unit
  val one_into : ctx -> elt -> unit
  val add_into : ctx -> elt -> elt -> elt -> unit
  val sub_into : ctx -> elt -> elt -> elt -> unit
  val neg_into : ctx -> elt -> elt -> unit
  val double_into : ctx -> elt -> elt -> unit
  val mul_into : ctx -> elt -> elt -> elt -> unit
  val sqr_into : ctx -> elt -> elt -> unit

  val inv_into : ctx -> elt -> elt -> unit
  (** Allocation-free modular inversion (binary extended gcd on
      per-domain scratch); [dst] may alias the operand.
      @raise Division_by_zero if not invertible. *)

  val inv : ctx -> elt -> elt
  (** @raise Division_by_zero if not invertible. *)

  val equal : ctx -> elt -> elt -> bool
  val is_zero : ctx -> elt -> bool
  val is_one : ctx -> elt -> bool
  val double : ctx -> elt -> elt
  val mul_small : ctx -> elt -> int -> elt
  (** Multiply by a small non-negative integer constant. *)
end
