(** Cost ledger shared by the framework implementations.

    Protocols record, per communication round, the critical-path number
    of group operations (or field multiplications for the SS baseline)
    and the messages sent; the benchmark harness turns operation counts
    into seconds with a per-operation calibration factor and feeds the
    message schedule to {!Ppgr_mpcnet.Netsim}. *)

open Ppgr_mpcnet

type round = {
  critical_ops : int; (* slowest party's local ops before sending *)
  messages : Netsim.message list;
}

type schedule = round list

let total_messages (s : schedule) =
  List.fold_left (fun acc r -> acc + List.length r.messages) 0 s

let total_bytes (s : schedule) =
  List.fold_left
    (fun acc r ->
      List.fold_left (fun a (m : Netsim.message) -> a + m.Netsim.bytes) acc r.messages)
    0 s

let total_critical_ops (s : schedule) =
  List.fold_left (fun acc r -> acc + r.critical_ops) 0 s

(** Convert to a wall-clock schedule given the measured cost of one
    group operation. *)
let to_netsim ~seconds_per_op (s : schedule) : Netsim.schedule =
  List.map
    (fun r ->
      {
        Netsim.compute_s = seconds_per_op *. float_of_int r.critical_ops;
        messages = r.messages;
      })
    s
