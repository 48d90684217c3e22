(** The metrics registry: named integer probes the tracer samples around
    every span.

    A probe is a monotone counter reader — typically a closure over a
    {!Ppgr_exec.Meter} (the group multiplication meter, the
    {!Ppgr_group.Opmeter} exponentiation meter, a field's multiplication
    counter).  Probes are registered by the entry point that knows the
    concrete instances (the CLI knows which group module is live, the
    framework knows which field backs phase 1); library code never
    registers anything, it only gets its spans decorated.

    Reads must be cheap and side-effect free: the tracer samples every
    registered probe at span open and close and attaches the non-zero
    deltas, so a probe read happens O(spans) times per run.  Summing a
    padded-lane meter is a 65-slot walk — microseconds — which is far
    below the step granularity at which spans are opened. *)

type probe = { name : string; read : unit -> int }

let probes : probe list ref = ref []

(** Register (or replace) a probe.  Registration order is reading
    order, so tables and span attributes come out stable. *)
let register ~name read =
  let others = List.filter (fun p -> p.name <> name) !probes in
  probes := others @ [ { name; read } ]

let unregister ~name = probes := List.filter (fun p -> p.name <> name) !probes

type sample = (string * int) list

let read_all () : sample = List.map (fun p -> (p.name, p.read ())) !probes

(** Pairwise deltas of two samples of the same registry state; probes
    appearing in only one sample are dropped (a probe was registered or
    removed between the samples — attribute nothing rather than
    garbage). *)
let deltas ~(before : sample) ~(after : sample) : sample =
  List.filter_map
    (fun (name, a) ->
      match List.assoc_opt name before with
      | Some b when a - b <> 0 -> Some (name, a - b)
      | _ -> None)
    after
