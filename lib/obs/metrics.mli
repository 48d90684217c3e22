(** The metrics registry: named integer probes the tracer samples
    around every span.

    A probe is a cheap, side-effect-free monotone counter reader —
    typically a closure over a {!Ppgr_exec.Meter}.  Probes are
    registered by the entry point that knows the concrete instances
    (CLI, framework, bench); library code never registers anything, it
    only gets its spans decorated. *)

type probe = { name : string; read : unit -> int }

(** Register (or replace) a probe.  Registration order is reading
    order, so tables and span attributes come out stable. *)
val register : name:string -> (unit -> int) -> unit

val unregister : name:string -> unit

type sample = (string * int) list

(** Read every registered probe, in registration order. *)
val read_all : unit -> sample

(** Pairwise deltas of two samples; zero deltas and probes present in
    only one sample are dropped. *)
val deltas : before:sample -> after:sample -> sample
