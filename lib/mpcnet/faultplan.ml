(** Seeded deterministic fault schedules; see the interface for the
    determinism contract. *)

open Ppgr_rng

type spec = {
  f_drop : float;
  f_corrupt : float;
  f_duplicate : float;
  f_reorder : float;
  f_delay : float;
  f_max_delay : int;
  f_seed : string;
}

let clean =
  {
    f_drop = 0.;
    f_corrupt = 0.;
    f_duplicate = 0.;
    f_reorder = 0.;
    f_delay = 0.;
    f_max_delay = 1;
    f_seed = "clean";
  }

let spec_of_string s =
  let parse_rate k v =
    match float_of_string_opt v with
    | Some f when f >= 0. && f <= 1. -> f
    | _ -> invalid_arg (Printf.sprintf "Faultplan: bad rate %s=%s" k v)
  in
  List.fold_left
    (fun spec kv ->
      match String.index_opt kv '=' with
      | None -> invalid_arg (Printf.sprintf "Faultplan: expected key=value, got %S" kv)
      | Some i -> (
          let k = String.sub kv 0 i in
          let v = String.sub kv (i + 1) (String.length kv - i - 1) in
          match k with
          | "drop" -> { spec with f_drop = parse_rate k v }
          | "corrupt" -> { spec with f_corrupt = parse_rate k v }
          | "dup" | "duplicate" -> { spec with f_duplicate = parse_rate k v }
          | "reorder" -> { spec with f_reorder = parse_rate k v }
          | "delay" -> { spec with f_delay = parse_rate k v }
          | "maxdelay" -> (
              match int_of_string_opt v with
              | Some d when d >= 1 -> { spec with f_max_delay = d }
              | _ -> invalid_arg (Printf.sprintf "Faultplan: bad maxdelay=%s" v))
          | "seed" -> { spec with f_seed = v }
          | _ -> invalid_arg (Printf.sprintf "Faultplan: unknown key %S" k)))
    clean
    (List.filter (fun s -> s <> "") (String.split_on_char ',' s))

let spec_to_string s =
  Printf.sprintf
    "drop=%g,corrupt=%g,dup=%g,reorder=%g,delay=%g,maxdelay=%d,seed=%s" s.f_drop
    s.f_corrupt s.f_duplicate s.f_reorder s.f_delay s.f_max_delay s.f_seed

type corruption = { cor_offset : int; cor_mask : int }

type fault =
  | Deliver
  | Drop
  | Corrupt of corruption
  | Duplicate
  | Reorder
  | Delay of int

type t = {
  draw : src:int -> dst:int -> attempt:int -> fault;
  attempts : (int * int, int ref) Hashtbl.t; (* per-link attempt counter *)
  tallies : int array; (* drop, corrupt, duplicate, reorder, delay *)
}

let scripted draw = { draw; attempts = Hashtbl.create 31; tallies = Array.make 5 0 }

(* One decision = one split stream keyed by (link, attempt index);
   draws inside the stream happen in a fixed order so the schedule is a
   pure function of the spec.  The root is only ever split from, never
   consumed. *)
let create s =
  let root = Rng.create ~seed:("ppgr-faultplan:" ^ s.f_seed) in
  scripted (fun ~src ~dst ~attempt ->
      let r =
        Rng.split root ~label:(Printf.sprintf "link-%d-%d-%d" src dst attempt)
      in
      let u = float_of_int (Rng.int_below r 1_000_000_000) /. 1e9 in
      let c1 = s.f_drop in
      let c2 = c1 +. s.f_corrupt in
      let c3 = c2 +. s.f_duplicate in
      let c4 = c3 +. s.f_reorder in
      let c5 = c4 +. s.f_delay in
      if u < c1 then Drop
      else if u < c2 then
        Corrupt
          {
            cor_offset = Rng.int_below r 1_000_000;
            cor_mask = 1 + Rng.int_below r 255;
          }
      else if u < c3 then Duplicate
      else if u < c4 then Reorder
      else if u < c5 then Delay (1 + Rng.int_below r s.f_max_delay)
      else Deliver)

let next t ~src ~dst =
  let attempt =
    match Hashtbl.find_opt t.attempts (src, dst) with
    | Some r ->
        incr r;
        !r - 1
    | None ->
        Hashtbl.add t.attempts (src, dst) (ref 1);
        0
  in
  let f = t.draw ~src ~dst ~attempt in
  let tally i = t.tallies.(i) <- t.tallies.(i) + 1 in
  (match f with
  | Deliver -> ()
  | Drop -> tally 0
  | Corrupt _ -> tally 1
  | Duplicate -> tally 2
  | Reorder -> tally 3
  | Delay _ -> tally 4);
  f

let apply_corruption c msg =
  let len = Bytes.length msg in
  if len = 0 then msg
  else begin
    let out = Bytes.copy msg in
    let i = c.cor_offset mod len in
    Bytes.set out i
      (Char.chr (Char.code (Bytes.get out i) lxor (c.cor_mask land 0xFF)));
    out
  end

let kinds = [ "drop"; "corrupt"; "duplicate"; "reorder"; "delay" ]
let injected t = List.mapi (fun i k -> (k, t.tallies.(i))) kinds
let total_injected t = Array.fold_left ( + ) 0 t.tallies
