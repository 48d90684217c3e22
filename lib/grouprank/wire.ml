(** Binary wire format for every frame the runtime sends.

    Phases 1 and 3 run in-process; phase 2 and its transport send
    bytes.  This module pins down a canonical, versioned encoding for
    each of those frames — key announcements, proofs, ciphertext
    batches, hop frames, envelopes and checkpoints — so that (a)
    the byte counts the evaluation charges are the real serialized
    sizes, and (b) decoding is validating: group elements are checked
    for membership, lengths for consistency.

    Encoding conventions: big-endian fixed-width length prefixes
    (u16 for counts, u32 for blob lengths); non-negative bigints as
    length-prefixed minimal big-endian bytes; group elements in the
    group's fixed-width canonical encoding; every top-level message
    starts with a one-byte tag. *)

open Ppgr_bigint

exception Malformed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(** {1 Primitive writers/readers} *)

module W = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let contents = Buffer.to_bytes

  let u8 b v =
    if v < 0 || v > 0xFF then invalid_arg "Wire.u8";
    Buffer.add_char b (Char.chr v)

  let u16 b v =
    if v < 0 || v > 0xFFFF then invalid_arg "Wire.u16";
    u8 b (v lsr 8);
    u8 b (v land 0xFF)

  let u32 b v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg "Wire.u32";
    u16 b (v lsr 16);
    u16 b (v land 0xFFFF)

  let blob b (data : Bytes.t) =
    u32 b (Bytes.length data);
    Buffer.add_bytes b data

  let bigint b (v : Bigint.t) =
    if Bigint.sign v < 0 then invalid_arg "Wire.bigint: negative";
    blob b (Bigint.to_bytes_be v)
end

module R = struct
  (* A reader over [data.(pos) .. data.(stop - 1)]: [stop] lets a
     CRC-trailed frame be read in place, without its trailer. *)
  type t = { data : Bytes.t; mutable pos : int; stop : int }

  let of_bytes data = { data; pos = 0; stop = Bytes.length data }
  let remaining r = r.stop - r.pos

  let ensure r n = if n > remaining r then fail "truncated message (need %d bytes)" n

  let u8 r =
    ensure r 1;
    let v = Char.code (Bytes.get r.data r.pos) in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    let hi = u8 r in
    (hi lsl 8) lor u8 r

  let u32 r =
    let hi = u16 r in
    (hi lsl 16) lor u16 r

  let blob r =
    let len = u32 r in
    ensure r len;
    let b = Bytes.sub r.data r.pos len in
    r.pos <- r.pos + len;
    b

  let bigint r = Bigint.of_bytes_be (blob r)

  let finished r = r.pos = r.stop

  let expect_end r = if not (finished r) then fail "trailing bytes"
end

(* Message tags. *)
let tag_pubkey = 0x10
let tag_zkp = 0x11
let tag_cipher_batch = 0x12
let tag_hop_frame = 0x13
let tag_envelope = 0x14
let tag_checkpoint = 0x16

(** {1 CRC-32}

    IEEE 802.3 CRC-32 (reflected, polynomial 0xEDB88320), the checksum
    of the {!tag_envelope} transport envelope.  Pure integer table
    lookup; result in [0, 2^32). *)

(* Built eagerly: forcing a lazy table from two domains at once raises
   [CamlinternalLazy.Undefined], and concurrent sessions share it. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 ?(pos = 0) ?len (data : Bytes.t) =
  let len = match len with Some l -> l | None -> Bytes.length data - pos in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := crc_table.((!c lxor Char.code (Bytes.get data i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* The CRC-32 trailer every envelope and checkpoint carries: the
   CRC covers every byte before it and is checked before any length
   field is trusted, so a corrupted length prefix cannot steer a
   parse. *)
let append_crc body =
  let blen = Bytes.length body in
  let out = Bytes.create (blen + 4) in
  Bytes.blit body 0 out 0 blen;
  let crc = crc32 body in
  Bytes.set out blen (Char.chr ((crc lsr 24) land 0xFF));
  Bytes.set out (blen + 1) (Char.chr ((crc lsr 16) land 0xFF));
  Bytes.set out (blen + 2) (Char.chr ((crc lsr 8) land 0xFF));
  Bytes.set out (blen + 3) (Char.chr (crc land 0xFF));
  out

(* The returned reader covers [data] in place up to the trailer, so a
   decoded envelope's payload blob is the one copy its decode makes. *)
let check_crc ~what ~min_len data =
  let total = Bytes.length data in
  if total < min_len then fail "%s shorter than its fixed fields" what;
  let stored =
    let g i = Char.code (Bytes.get data (total - 4 + i)) in
    (g 0 lsl 24) lor (g 1 lsl 16) lor (g 2 lsl 8) lor g 3
  in
  if crc32 ~pos:0 ~len:(total - 4) data <> stored then fail "%s CRC mismatch" what;
  { R.data; pos = 0; stop = total - 4 }

(** {1 Transport envelope}

    Every runtime message travels inside an envelope: a sequence number
    scoped to its directed link (duplicate suppression and reorder
    detection) and a CRC-32 over everything before it (corruption
    detection — decoding is validating, so a damaged envelope is a
    typed {!Malformed}, never a mis-decode).

    Layout: [tag(1) | src u16 | dst u16 | seq u32 | payload blob | crc u32]. *)

type envelope = {
  env_src : int;
  env_dst : int;
  env_seq : int;
  env_payload : Bytes.t;
}

let encode_envelope ~src ~dst ~seq (payload : Bytes.t) =
  let b = W.create () in
  W.u8 b tag_envelope;
  W.u16 b src;
  W.u16 b dst;
  W.u32 b seq;
  W.blob b payload;
  append_crc (W.contents b)

let decode_envelope data =
  let r = check_crc ~what:"envelope" ~min_len:18 data in
  if R.u8 r <> tag_envelope then fail "bad tag for envelope";
  let env_src = R.u16 r in
  let env_dst = R.u16 r in
  let env_seq = R.u32 r in
  let env_payload = R.blob r in
  R.expect_end r;
  { env_src; env_dst; env_seq; env_payload }

(** Serialized envelope size for a payload of the given size: fixed
    fields (tag, src, dst, seq, payload length prefix, CRC) + payload. *)
let envelope_overhead = 1 + 2 + 2 + 4 + 4 + 4

(** {1 Hop frames}

    A ring hop used to ship [n] separate cipher-batch messages, one per
    owner set; a hop frame packs them into a single wire message so a
    hop costs one send.  The frame is payload-agnostic: a one-byte tag,
    a u16 payload count, then each payload as a u32-length-prefixed
    blob — round-tripping whatever [encode_cipher_batch] produced
    without re-encoding. *)

let encode_hop_frame (payloads : Bytes.t array) =
  let b = W.create () in
  W.u8 b tag_hop_frame;
  W.u16 b (Array.length payloads);
  Array.iter (W.blob b) payloads;
  W.contents b

let decode_hop_frame data =
  let r = R.of_bytes data in
  if R.u8 r <> tag_hop_frame then fail "bad tag for hop frame";
  let n = R.u16 r in
  (* Fuzzer-surfaced edge cases: a zero-count frame is meaningless on
     the ring (every hop carries n >= 2 sets) and would make a
     corrupted count field silently decode to an empty vector; and each
     payload length must be re-checked against the remaining buffer
     here so a lying u32 fails as a typed error before any allocation
     is sized from it. *)
  if n = 0 then fail "hop frame with zero payloads";
  let payloads =
    Array.init n (fun _ ->
        let len = R.u32 r in
        if len > R.remaining r then
          fail "hop frame payload length %d exceeds remaining %d bytes" len
            (R.remaining r);
        let b = Bytes.sub r.R.data r.R.pos len in
        r.R.pos <- r.R.pos + len;
        b)
  in
  R.expect_end r;
  payloads

(** Exact serialized size of a frame over payloads of the given sizes:
    tag + count + one u32 length prefix per payload. *)
let hop_frame_bytes payload_sizes =
  1 + 2 + List.fold_left (fun acc s -> acc + 4 + s) 0 payload_sizes

(** Exact serialized size of a batch of [k] ciphertexts over
    [elem_bytes]-wide elements ({!Make.encode_cipher_batch}): tag + u32
    count + two elements per ciphertext. *)
let cipher_batch_bytes ~elem_bytes k = 1 + 4 + (k * 2 * elem_bytes)

(** Modelled size of the transport's cumulative ack, which the
    transport counts but never encodes: tag, src u16, dst u16,
    cumulative seq u32 and the CRC-32 trailer. *)
let ack_overhead = 1 + 2 + 2 + 4 + 4

(** {1 Checkpoint frames}

    Protocol-level checkpoint/restart state, serialized at every
    completed protocol step.  The frame is {e plain data} — int
    matrices, counters, opaque payload blobs — so this module stays
    below {!Transport} and {!Runtime} in the dependency order; those
    layers map their state in and out.

    [transport_snap] is the transport's complete persisted state: the
    per-link sequence counters, every physical tally, the chained
    transcript digest, the closed per-step rounds plus the in-progress
    round, and per-link fault-draw counts (so a resumed run can
    fast-forward a fresh {!Ppgr_mpcnet.Faultplan} to the exact schedule
    position).  Nothing is ever in flight at a checkpoint: every
    delivery completes within its flush.

    The whole frame rides the same CRC-32 trailer as envelopes;
    decoding validates the CRC before trusting any length, and
    every count is re-checked against the remaining buffer before it
    sizes an allocation (the {!decode_hop_frame} hardening). *)

type transport_snap = {
  ts_n : int;
  ts_send_seq : int array array; (* n*n, next seq to assign *)
  ts_recv_seq : int array array; (* n*n, next seq expected *)
  ts_counters : int array;
      (* fixed order: retransmits, drops, crc_rejects, dup_suppressed,
         reorders, delays, backoff_ticks, phys_messages, phys_bytes,
         acks_sent, ack_bytes, sim_ticks *)
  ts_phys_sent : int array; (* per party *)
  ts_phys_received : int array;
  ts_retrans_by_src : int array;
  ts_env_by_src : int array;
  ts_link_msgs : int array array;
  ts_link_bytes : int array array;
  ts_link_retrans : int array array;
  ts_fault_draws : int array array; (* fault-plan draws consumed, per link *)
  ts_digest : Bytes.t; (* chained transcript digest, 32 bytes *)
  ts_step : string; (* current protocol step *)
  ts_rounds : (string * (int * int * int) list) list;
      (* closed physical rounds, oldest first; messages as (src, dst, bytes) *)
  ts_round : (int * int * int) list; (* current step's messages, oldest first *)
}

let n_counters = 12

type checkpoint_frame = {
  ck_step : int; (* number of completed protocol steps *)
  ck_n : int; (* party count *)
  ck_bytes_total : int; (* logical accounting at checkpoint time *)
  ck_msg_total : int;
  ck_sent : int array; (* logical payload bytes out, per party *)
  ck_received : int array;
  ck_enc : Bytes.t array; (* encrypted-bit announcements (empty until step 2) *)
  ck_v : Bytes.t array; (* current ring vector (empty until step 3) *)
  ck_snap : transport_snap;
}

let encode_checkpoint (c : checkpoint_frame) =
  let b = W.create () in
  let vec v =
    W.u16 b (Array.length v);
    Array.iter (fun x -> W.u32 b x) v
  in
  let mat m = Array.iter vec m in
  let str s =
    W.u16 b (String.length s);
    Buffer.add_string b s
  in
  let msgs ms =
    W.u32 b (List.length ms);
    List.iter
      (fun (src, dst, bytes) ->
        W.u16 b src;
        W.u16 b dst;
        W.u32 b bytes)
      ms
  in
  let blobs a =
    W.u16 b (Array.length a);
    Array.iter (W.blob b) a
  in
  W.u8 b tag_checkpoint;
  W.u16 b c.ck_step;
  W.u16 b c.ck_n;
  W.u32 b c.ck_bytes_total;
  W.u32 b c.ck_msg_total;
  vec c.ck_sent;
  vec c.ck_received;
  blobs c.ck_enc;
  blobs c.ck_v;
  let s = c.ck_snap in
  W.u16 b s.ts_n;
  mat s.ts_send_seq;
  mat s.ts_recv_seq;
  vec s.ts_counters;
  vec s.ts_phys_sent;
  vec s.ts_phys_received;
  vec s.ts_retrans_by_src;
  vec s.ts_env_by_src;
  mat s.ts_link_msgs;
  mat s.ts_link_bytes;
  mat s.ts_link_retrans;
  mat s.ts_fault_draws;
  W.blob b s.ts_digest;
  str s.ts_step;
  W.u16 b (List.length s.ts_rounds);
  List.iter
    (fun (name, ms) ->
      str name;
      msgs ms)
    s.ts_rounds;
  msgs s.ts_round;
  append_crc (W.contents b)

let decode_checkpoint data =
  let r = check_crc ~what:"checkpoint" ~min_len:18 data in
  if R.u8 r <> tag_checkpoint then fail "bad tag for checkpoint";
  (* Every count sizes an allocation: bound it by the bytes actually
     present before any Array.init, so a lying count is a typed decode
     error rather than a giant allocation (the hop-frame lesson). *)
  let vec () =
    let k = R.u16 r in
    if 4 * k > R.remaining r then
      fail "checkpoint vector count %d exceeds remaining %d bytes" k (R.remaining r);
    Array.init k (fun _ -> R.u32 r)
  in
  let vec_exact what k =
    let v = vec () in
    if Array.length v <> k then
      fail "checkpoint %s length %d, expected %d" what (Array.length v) k;
    v
  in
  let mat what n = Array.init n (fun _ -> vec_exact what n) in
  let str () =
    let k = R.u16 r in
    R.ensure r k;
    let s = Bytes.sub_string r.R.data r.R.pos k in
    r.R.pos <- r.R.pos + k;
    s
  in
  let msgs () =
    let k = R.u32 r in
    if 8 * k > R.remaining r then
      fail "checkpoint round count %d exceeds remaining %d bytes" k (R.remaining r);
    List.init k (fun _ ->
        let src = R.u16 r in
        let dst = R.u16 r in
        let bytes = R.u32 r in
        (src, dst, bytes))
  in
  let blob_checked () =
    let len = R.u32 r in
    if len > R.remaining r then
      fail "checkpoint blob length %d exceeds remaining %d bytes" len (R.remaining r);
    let b = Bytes.sub r.R.data r.R.pos len in
    r.R.pos <- r.R.pos + len;
    b
  in
  let blobs () =
    let k = R.u16 r in
    if 4 * k > R.remaining r then
      fail "checkpoint blob count %d exceeds remaining %d bytes" k (R.remaining r);
    Array.init k (fun _ -> blob_checked ())
  in
  let ck_step = R.u16 r in
  let ck_n = R.u16 r in
  if ck_n = 0 then fail "checkpoint with zero parties";
  let ck_bytes_total = R.u32 r in
  let ck_msg_total = R.u32 r in
  let ck_sent = vec_exact "sent" ck_n in
  let ck_received = vec_exact "received" ck_n in
  let ck_enc = blobs () in
  let ck_v = blobs () in
  let ts_n = R.u16 r in
  if ts_n <> ck_n then fail "checkpoint party count %d / snapshot %d mismatch" ck_n ts_n;
  let ts_send_seq = mat "send_seq" ts_n in
  let ts_recv_seq = mat "recv_seq" ts_n in
  let ts_counters = vec_exact "counters" n_counters in
  let ts_phys_sent = vec_exact "phys_sent" ts_n in
  let ts_phys_received = vec_exact "phys_received" ts_n in
  let ts_retrans_by_src = vec_exact "retrans_by_src" ts_n in
  let ts_env_by_src = vec_exact "env_by_src" ts_n in
  let ts_link_msgs = mat "link_msgs" ts_n in
  let ts_link_bytes = mat "link_bytes" ts_n in
  let ts_link_retrans = mat "link_retrans" ts_n in
  let ts_fault_draws = mat "fault_draws" ts_n in
  let ts_digest = blob_checked () in
  if Bytes.length ts_digest <> 32 then
    fail "checkpoint digest is %d bytes, expected 32" (Bytes.length ts_digest);
  let ts_step = str () in
  let nrounds = R.u16 r in
  let ts_rounds =
    List.init nrounds (fun _ ->
        let name = str () in
        let ms = msgs () in
        (name, ms))
  in
  let ts_round = msgs () in
  R.expect_end r;
  {
    ck_step;
    ck_n;
    ck_bytes_total;
    ck_msg_total;
    ck_sent;
    ck_received;
    ck_enc;
    ck_v;
    ck_snap =
      {
        ts_n;
        ts_send_seq;
        ts_recv_seq;
        ts_counters;
        ts_phys_sent;
        ts_phys_received;
        ts_retrans_by_src;
        ts_env_by_src;
        ts_link_msgs;
        ts_link_bytes;
        ts_link_retrans;
        ts_fault_draws;
        ts_digest;
        ts_step;
        ts_rounds;
        ts_round;
      };
  }

(** {1 Phase-2 (group) messages} *)

module Make (G : Ppgr_group.Group_intf.GROUP) = struct
  module E = Ppgr_elgamal.Elgamal.Make (G)
  module Z = Ppgr_zkp.Schnorr.Make (G)

  let encode_element b (e : G.element) = Buffer.add_bytes b (G.to_bytes e)

  let decode_element r =
    R.ensure r G.element_bytes;
    let raw = Bytes.sub r.R.data r.R.pos G.element_bytes in
    r.R.pos <- r.R.pos + G.element_bytes;
    match G.of_bytes raw with
    | Some e -> e
    | None -> fail "invalid group element (not in the group)"

  let encode_pubkey (y : G.element) =
    let b = W.create () in
    W.u8 b tag_pubkey;
    encode_element b y;
    W.contents b

  let decode_pubkey data =
    let r = R.of_bytes data in
    if R.u8 r <> tag_pubkey then fail "bad tag for pubkey";
    let y = decode_element r in
    R.expect_end r;
    y

  let encode_zkp (t : Z.transcript) =
    let b = W.create () in
    W.u8 b tag_zkp;
    encode_element b t.Z.commitment;
    W.u16 b (List.length t.Z.challenges);
    List.iter (W.bigint b) t.Z.challenges;
    W.bigint b t.Z.response;
    W.contents b

  let decode_zkp data : Z.transcript =
    let r = R.of_bytes data in
    if R.u8 r <> tag_zkp then fail "bad tag for zkp";
    let commitment = decode_element r in
    let nc = R.u16 r in
    let challenges = List.init nc (fun _ -> R.bigint r) in
    let response = R.bigint r in
    R.expect_end r;
    { Z.commitment; challenges; response }

  let encode_cipher b (c : E.cipher) =
    encode_element b c.E.c;
    encode_element b c.E.c'

  let decode_cipher r =
    let c = decode_element r in
    let c' = decode_element r in
    { E.c; c' }

  (** A batch of ciphertexts (step-6 bit vectors, step-7/8 sets).
      Element serialization goes through [G.to_bytes_batch] so the EC
      family normalizes the whole batch with one shared field
      inversion. *)
  let encode_cipher_batch (cs : E.cipher array) =
    let k = Array.length cs in
    let els =
      Array.init (2 * k) (fun i ->
          let c = cs.(i / 2) in
          if i land 1 = 0 then c.E.c else c.E.c')
    in
    let raw = G.to_bytes_batch els in
    let b = W.create () in
    W.u8 b tag_cipher_batch;
    W.u32 b k;
    Array.iter (Buffer.add_bytes b) raw;
    W.contents b

  let decode_cipher_batch data =
    let r = R.of_bytes data in
    if R.u8 r <> tag_cipher_batch then fail "bad tag for cipher batch";
    let n = R.u32 r in
    (* The count sizes an allocation, so bound it by the bytes actually
       present before building the array: a corrupted u32 must be a
       typed decode error, not a multi-gigabyte Array.init. *)
    if n * 2 * G.element_bytes <> R.remaining r then
      fail "cipher batch count %d inconsistent with %d payload bytes" n
        (R.remaining r);
    let cs = Array.init n (fun _ -> decode_cipher r) in
    R.expect_end r;
    cs

  (** Exact serialized size of a [k]-ciphertext batch of this group. *)
  let cipher_batch_bytes k = cipher_batch_bytes ~elem_bytes:G.element_bytes k
end
