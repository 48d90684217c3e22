(** Global counter of full-size exponentiations (exponents on the order
    of the group size λ).

    Group-multiplication counts measured on a small test group do not
    transfer to a production group directly: the mults hidden inside a
    full exponentiation scale with λ.  The evaluation harness therefore
    records exponentiations separately — call sites in the ElGamal and
    Schnorr layers tick this meter — and predicts a production group's
    per-party multiplications as

    [exps * mults_per_exp(target) + (mults_test - exps * mults_per_exp(test))]

    where both [mults_per_exp] factors are measured.  Constant-size
    exponentiations (e.g. scaling a ciphertext by a small circuit
    constant) are deliberately not ticked; their cost is λ-independent
    and stays in the plain multiplication count.

    Accounting with the exponentiation engine: a fixed-base
    [pow_table]/[pow_gen] call still counts as {e one} logical
    exponentiation and a fused [pow2] (Shamir) call as one (two legs at
    half each), even though both expand into fewer group
    multiplications than a variable-base [pow] — the meter tracks the
    λ-scaled workload of the protocol, not the micro-optimisation
    level.  Fixed-base table construction is ticked per group
    multiplication on the group's own op counter and never here. *)

let full_exps = Ppgr_exec.Meter.create ()
let tick () = Ppgr_exec.Meter.incr full_exps
let tick_n k = Ppgr_exec.Meter.add full_exps k
let count () = Ppgr_exec.Meter.read full_exps
