(* SHA-256 over 32-bit words emulated in native ints; every word is kept
   masked to 32 bits after each operation. *)

let m32 = 0xFFFFFFFF

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land m32

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  w : int array;
      (* message schedule of the block being compressed; per context, so
         hashes running on different domains never share it *)
  mutable buf_len : int;
  mutable total : int; (* bytes fed so far *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create 64;
    w = Array.make 64 0;
    buf_len = 0;
    total = 0;
  }

let compress ctx block off =
  let w = ctx.w in
  let b i = Char.code (Bytes.get block (off + i)) in
  for t = 0 to 15 do
    w.(t) <-
      (b (4 * t) lsl 24)
      lor (b ((4 * t) + 1) lsl 16)
      lor (b ((4 * t) + 2) lsl 8)
      lor b ((4 * t) + 3)
  done;
  for t = 16 to 63 do
    let s0 =
      rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3)
    in
    let s1 =
      rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10)
    in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land m32
  done;
  let h = ctx.h in
  let a = ref h.(0)
  and b_ = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = !e land !f lxor (lnot !e land m32 land !g) in
    let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land m32 in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = !a land !b_ lxor (!a land !c) lxor (!b_ land !c) in
    let t2 = (s0 + maj) land m32 in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land m32;
    d := !c;
    c := !b_;
    b_ := !a;
    a := (t1 + t2) land m32
  done;
  h.(0) <- (h.(0) + !a) land m32;
  h.(1) <- (h.(1) + !b_) land m32;
  h.(2) <- (h.(2) + !c) land m32;
  h.(3) <- (h.(3) + !d) land m32;
  h.(4) <- (h.(4) + !e) land m32;
  h.(5) <- (h.(5) + !f) land m32;
  h.(6) <- (h.(6) + !g) land m32;
  h.(7) <- (h.(7) + !hh) land m32

let feed_bytes ctx data =
  let len = Bytes.length data in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* Fill a partial buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = Stdlib.min (64 - ctx.buf_len) len in
    Bytes.blit data 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while len - !pos >= 64 do
    compress ctx data !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit data !pos ctx.buf 0 (len - !pos);
    ctx.buf_len <- len - !pos
  end

let feed_string ctx s = feed_bytes ctx (Bytes.of_string s)

let finalize ctx =
  let total_bits = ctx.total * 8 in
  let pad_len =
    let r = (ctx.total + 1) mod 64 in
    if r <= 56 then 56 - r + 1 else 64 - r + 56 + 1
  in
  let pad = Bytes.make (pad_len + 8) '\000' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad
      (pad_len + i)
      (Char.chr ((total_bits lsr (8 * (7 - i))) land 0xFF))
  done;
  (* Feed padding without recounting its length. *)
  let saved = ctx.total in
  feed_bytes ctx pad;
  ctx.total <- saved;
  assert (ctx.buf_len = 0);
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xFF));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xFF))
  done;
  out

let digest_bytes data =
  let ctx = init () in
  feed_bytes ctx data;
  finalize ctx

let digest_string s = digest_bytes (Bytes.of_string s)

let hex_of_digest d =
  let buf = Buffer.create (2 * Bytes.length d) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf

let hmac ~key msg =
  let key = if Bytes.length key > 64 then digest_bytes key else key in
  let block_key = Bytes.make 64 '\000' in
  Bytes.blit key 0 block_key 0 (Bytes.length key);
  let xor_pad c =
    Bytes.map (fun k -> Char.chr (Char.code k lxor c)) block_key
  in
  let inner = init () in
  feed_bytes inner (xor_pad 0x36);
  feed_bytes inner msg;
  let inner_digest = finalize inner in
  let outer = init () in
  feed_bytes outer (xor_pad 0x5c);
  feed_bytes outer inner_digest;
  finalize outer
