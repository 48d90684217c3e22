type 'a t = { init : unit -> 'a; cells : 'a option array }

let make init = { init; cells = Array.make (Meter.max_slot + 1) None }

let get t =
  let s = Meter.slot () in
  match t.cells.(s) with
  | Some v -> v
  | None ->
      let v = t.init () in
      t.cells.(s) <- Some v;
      v
