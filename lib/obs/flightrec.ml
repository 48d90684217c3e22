(** Per-party flight recorder: a fixed-capacity ring of recent wire
    events.

    Counters ([Transport.stats]) say {e how many} retransmissions a
    chaos run needed; when a party aborts they cannot say {e what the
    link was doing just before}.  The flight recorder keeps the last N
    protocol events per party — sends, receives, retransmits, CRC
    rejects, step transitions — in preallocated parallel [int] arrays,
    so recording costs four stores and no allocation, and the tail can
    be attached to [Party_dropped] forensics and the CLI exit-3 report.

    Unlike tracing there is no global gate: the recorder
    is cheap enough to leave always-on, which is the point — the events
    preceding a failure were recorded {e before} anyone knew a failure
    was coming.  It lives beside the transport (one per [Transport.t]),
    records only integers (step names are interned), and never touches
    wire bytes or RNG, so golden transcripts are unaffected. *)

type kind = Send | Receive | Retransmit | Crc_reject | Step

let kind_to_int = function
  | Send -> 0
  | Receive -> 1
  | Retransmit -> 2
  | Crc_reject -> 3
  | Step -> 4

let kind_of_int = function
  | 0 -> Send
  | 1 -> Receive
  | 2 -> Retransmit
  | 3 -> Crc_reject
  | _ -> Step

let kind_name = function
  | Send -> "send"
  | Receive -> "recv"
  | Retransmit -> "retx"
  | Crc_reject -> "crc-reject"
  | Step -> "step"

type t = {
  parties : int;
  capacity : int;
  (* Parallel event fields, [parties * capacity] each, party-major. *)
  kinds : int array;
  steps : int array; (* index into [names] *)
  srcs : int array;
  dsts : int array;
  seqs : int array;
  infos : int array; (* kind-specific: bytes, attempt, backoff ticks *)
  pos : int array; (* next write index per party *)
  total : int array; (* lifetime events per party *)
  mutable names : string array; (* interned step names *)
  mutable nnames : int;
  mutable cur_step : int;
}

let default_capacity = 64

let create ~parties ?(capacity = default_capacity) () =
  let cells = parties * capacity in
  {
    parties;
    capacity;
    kinds = Array.make cells 0;
    steps = Array.make cells 0;
    srcs = Array.make cells 0;
    dsts = Array.make cells 0;
    seqs = Array.make cells 0;
    infos = Array.make cells 0;
    pos = Array.make parties 0;
    total = Array.make parties 0;
    names = Array.make 16 "";
    nnames = 1 (* slot 0 = "" : before the first step *);
    cur_step = 0;
  }

let capacity t = t.capacity
let recorded t ~party = t.total.(party)
let wrapped t ~party = t.total.(party) > t.capacity

(* Interning allocates only on the first sighting of a step name — a
   handful of times per protocol run, never per event. *)
let intern t name =
  let rec find i = if i >= t.nnames then -1 else if t.names.(i) = name then i else find (i + 1) in
  let i = find 0 in
  if i >= 0 then i
  else begin
    if t.nnames = Array.length t.names then begin
      let grown = Array.make (2 * t.nnames) "" in
      Array.blit t.names 0 grown 0 t.nnames;
      t.names <- grown
    end;
    t.names.(t.nnames) <- name;
    t.nnames <- t.nnames + 1;
    t.nnames - 1
  end

(** Record one event for [party].  Zero-allocation. *)
let record t ~party kind ~src ~dst ~seq ~info =
  let p = t.pos.(party) in
  let cell = (party * t.capacity) + p in
  t.kinds.(cell) <- kind_to_int kind;
  t.steps.(cell) <- t.cur_step;
  t.srcs.(cell) <- src;
  t.dsts.(cell) <- dst;
  t.seqs.(cell) <- seq;
  t.infos.(cell) <- info;
  t.pos.(party) <- (if p + 1 = t.capacity then 0 else p + 1);
  t.total.(party) <- t.total.(party) + 1

(** Mark a step transition: interns [name] (alloc OK, rare) and stamps
    a [Step] event into every party's ring so each tail shows where the
    protocol was. *)
let set_step t name =
  t.cur_step <- intern t name;
  for p = 0 to t.parties - 1 do
    record t ~party:p Step ~src:p ~dst:p ~seq:0 ~info:0
  done

type event = {
  ev_kind : kind;
  ev_step : string;
  ev_src : int;
  ev_dst : int;
  ev_seq : int;
  ev_info : int;
}

let event_at t ~party i =
  let cell = (party * t.capacity) + i in
  {
    ev_kind = kind_of_int t.kinds.(cell);
    ev_step = t.names.(t.steps.(cell));
    ev_src = t.srcs.(cell);
    ev_dst = t.dsts.(cell);
    ev_seq = t.seqs.(cell);
    ev_info = t.infos.(cell);
  }

(** The retained events for [party], oldest first.  Allocates (query
    path). *)
let tail t ~party =
  let n = Stdlib.min t.total.(party) t.capacity in
  let first =
    if t.total.(party) <= t.capacity then 0 else t.pos.(party)
    (* pos is the next overwrite target = oldest retained cell *)
  in
  List.init n (fun k -> event_at t ~party ((first + k) mod t.capacity))

let pp_event ppf e =
  match e.ev_kind with
  | Step -> Format.fprintf ppf "---- step %s ----" e.ev_step
  | Send ->
      Format.fprintf ppf "send  %d->%d seq=%d bytes=%d [%s]" e.ev_src e.ev_dst e.ev_seq
        e.ev_info e.ev_step
  | Receive ->
      Format.fprintf ppf "recv  %d->%d seq=%d bytes=%d [%s]" e.ev_src e.ev_dst e.ev_seq
        e.ev_info e.ev_step
  | Retransmit ->
      Format.fprintf ppf "retx  %d->%d seq=%d attempt=%d [%s]" e.ev_src e.ev_dst e.ev_seq
        e.ev_info e.ev_step
  | Crc_reject ->
      Format.fprintf ppf "crc!  %d->%d seq=%d bytes=%d [%s]" e.ev_src e.ev_dst e.ev_seq
        e.ev_info e.ev_step
