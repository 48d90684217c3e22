(* One padded lane per domain: lane [slot] starts at [slot * stride] so
   that two domains never share a cache line (8 words = 64 bytes), which
   matters because group-op meters tick on every multiplication.  A lane
   has room for [stride] counters, so up to that many meters can share
   one lane array: counter [off] of slot [s] is word [s * stride + off]. *)

let max_slot = 64
let stride = 8

type t = { lanes : int array; off : int }

let slot_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let set_slot s = Domain.DLS.set slot_key s
let slot () = Domain.DLS.get slot_key
let lanes () = Array.make ((max_slot + 1) * stride) 0
let create () = { lanes = lanes (); off = 0 }

let create_group k =
  if k < 1 || k > stride then invalid_arg "Meter.create_group: 1 to 8 counters";
  let lanes = lanes () in
  Array.init k (fun off -> { lanes; off })

let add t k =
  let i = (Domain.DLS.get slot_key * stride) + t.off in
  t.lanes.(i) <- t.lanes.(i) + k

let incr t = add t 1

let read t =
  let acc = ref 0 in
  for s = 0 to max_slot do
    acc := !acc + t.lanes.((s * stride) + t.off)
  done;
  !acc

let reset t =
  for s = 0 to max_slot do
    t.lanes.((s * stride) + t.off) <- 0
  done
