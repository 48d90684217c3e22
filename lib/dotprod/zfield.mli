(** A prime field [Z_P] with vector/matrix helpers, used by the secure
    dot-product protocol and the Shamir substrate.

    Values are canonical {!Ppgr_bigint.Bigint.t} integers in [[0, P)];
    signed quantities map in and out through the centered representation
    (representatives above [P/2] read as negative).  Multiplication goes
    through a cached Montgomery context; a multiplication counter backs
    the SS cost model. *)

open Ppgr_bigint

type t

val create : Bigint.t -> t
(** @raise Invalid_argument unless the modulus is odd (primality is the
    caller's responsibility; the test suite checks the vendored ones). *)

val default : unit -> t
(** The 192-bit prime field over [2^192 - 237]. *)

val default_prime : Bigint.t
val modulus : t -> Bigint.t

val ring : t -> Bigint.Modring.ctx
(** The field's cached Montgomery context.  Code that keeps field
    elements in limb form (the MPC engine's shares) works on this
    context's [_into] kernels and reports its multiplications through
    {!count_mults}. *)

(** {1 Cost accounting} *)

val mult_count : t -> int
val reset_mult_count : t -> unit

val count_mults : t -> int -> unit
(** [count_mults f k] adds [k] multiplications done on {!ring}
    elements to the meter {!mul} ticks. *)

(** {1 Scalar operations} *)

val reduce : t -> Bigint.t -> Bigint.t
val of_int : t -> int -> Bigint.t
val add : t -> Bigint.t -> Bigint.t -> Bigint.t
val sub : t -> Bigint.t -> Bigint.t -> Bigint.t
val neg : t -> Bigint.t -> Bigint.t
val mul : t -> Bigint.t -> Bigint.t -> Bigint.t

val inv : t -> Bigint.t -> Bigint.t
(** @raise Division_by_zero on 0. *)

val div : t -> Bigint.t -> Bigint.t -> Bigint.t
val pow : t -> Bigint.t -> Bigint.t -> Bigint.t
val equal : t -> Bigint.t -> Bigint.t -> bool

val to_signed : t -> Bigint.t -> Bigint.t
(** Centered representative in [(-P/2, P/2]]. *)

val of_signed : t -> Bigint.t -> Bigint.t

(** {1 Randomness} *)

val random : Ppgr_rng.Rng.t -> t -> Bigint.t
val random_nonzero : Ppgr_rng.Rng.t -> t -> Bigint.t

(** {1 Vectors} *)

val vec_add : t -> Bigint.t array -> Bigint.t array -> Bigint.t array
val vec_sub : t -> Bigint.t array -> Bigint.t array -> Bigint.t array
val vec_scale : t -> Bigint.t -> Bigint.t array -> Bigint.t array

val dot : t -> Bigint.t array -> Bigint.t array -> Bigint.t
(** @raise Invalid_argument on dimension mismatch. *)

val random_vec : Ppgr_rng.Rng.t -> t -> int -> Bigint.t array

(** {1 Matrices} (dense, row-major [m.(row).(col)]) *)

type mat = Bigint.t array array

val mat_random : Ppgr_rng.Rng.t -> t -> rows:int -> cols:int -> mat
val mat_vec : t -> mat -> Bigint.t array -> Bigint.t array
val mat_mul : t -> mat -> mat -> mat
val col_sums : t -> mat -> Bigint.t array
