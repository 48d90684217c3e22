(** Number-theoretic routines on {!Bigint.t}: probabilistic primality
    and prime generation.

    Randomness is supplied by the caller as [random_below : t -> t]
    returning a uniform value in [[0, bound)]; this keeps the bigint
    library free of RNG dependencies. *)

type rand = Bigint.t -> Bigint.t

val is_probable_prime : ?rounds:int -> rand -> Bigint.t -> bool
(** Miller–Rabin with [rounds] random witnesses (default 32), preceded by
    trial division by small primes.  Deterministic for values < 3.3e24
    via fixed witness sets. *)

val random_prime : rand -> bits:int -> Bigint.t
(** Uniform [bits]-bit probable prime (top bit set). *)

val random_safe_prime : rand -> bits:int -> Bigint.t
(** [bits]-bit prime [p] with [(p-1)/2] also prime.  Slow for large
    [bits]; production groups use the vendored RFC 3526 constants. *)

val small_primes : int array
(** Primes below 1000, used for trial division (exposed for tests). *)
