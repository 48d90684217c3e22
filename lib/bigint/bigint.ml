(* Signed arbitrary-precision integers: a sign-magnitude wrapper over
   {!Mag}.  Invariant: [sign = 0] iff the magnitude is empty; otherwise
   [sign] is [-1] or [1]. *)

type t = { sg : int; mg : int array }

(* A mergeable per-domain meter: bignum multiplications tick from pool
   workers during parallel hot loops, and the summed read is identical
   whether the work ran on 1 domain or many. *)
let mul_counter = Ppgr_exec.Meter.create ()
let mul_count () = Ppgr_exec.Meter.read mul_counter

(* {!Mag}'s limb constants, repeated as literals.  The dev profile
   compiles with -opaque, which hides one module's definitions from
   another: [Mag.mask] is then a load from Mag's module block at every
   use, where a literal bound here is an immediate operand of the
   instruction.  The assertion holds them equal to Mag's. *)
let mask = 0x1FFF_FFFF_FFFF_FFFF (* 2^61 - 1 *)
let m31 = 0x7FFF_FFFF (* 2^31 - 1 *)
let m30 = 0x3FFF_FFFF (* 2^30 - 1 *)
let () = assert (mask = Mag.mask && m31 = Mag.m31 && m30 = Mag.m30 && Mag.base_bits = 61)

let make sg mg = if Mag.is_zero mg then { sg = 0; mg = Mag.zero } else { sg; mg }

let zero = { sg = 0; mg = Mag.zero }
let one = { sg = 1; mg = Mag.of_int 1 }
let two = { sg = 1; mg = Mag.of_int 2 }
let minus_one = { sg = -1; mg = Mag.of_int 1 }

let of_int v =
  if v = 0 then zero
  else if v > 0 then { sg = 1; mg = Mag.of_int v }
  else { sg = -1; mg = Mag.of_int (-v) }

let to_int_opt v =
  match Mag.to_int_opt v.mg with
  | None -> None
  | Some m -> Some (if v.sg < 0 then -m else m)

let to_int_exn v =
  match to_int_opt v with
  | Some i -> i
  | None -> invalid_arg "Bigint.to_int_exn: out of native range"

let sign v = v.sg
let is_zero v = v.sg = 0

let compare a b =
  if a.sg <> b.sg then Stdlib.compare a.sg b.sg
  else if a.sg >= 0 then Mag.compare a.mg b.mg
  else Mag.compare b.mg a.mg

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg v = make (-v.sg) v.mg
let abs v = make (if v.sg = 0 then 0 else 1) v.mg

let add a b =
  if a.sg = 0 then b
  else if b.sg = 0 then a
  else if a.sg = b.sg then make a.sg (Mag.add a.mg b.mg)
  else begin
    let c = Mag.compare a.mg b.mg in
    if c = 0 then zero
    else if c > 0 then make a.sg (Mag.sub a.mg b.mg)
    else make b.sg (Mag.sub b.mg a.mg)
  end

let sub a b = add a (neg b)
let succ a = add a one
let pred a = sub a one

let mul a b =
  Ppgr_exec.Meter.incr mul_counter;
  if a.sg = 0 || b.sg = 0 then zero
  else make (a.sg * b.sg) (Mag.mul a.mg b.mg)

let add_int a v = add a (of_int v)

let mul_int a v =
  Ppgr_exec.Meter.incr mul_counter;
  if a.sg = 0 || v = 0 then zero
  else begin
    let av = Stdlib.abs v in
    let sg = if v < 0 then -a.sg else a.sg in
    if av >= 0 && av <= mask then make sg (Mag.mul_int a.mg av)
    else make sg (Mag.mul a.mg (Mag.of_int av))
  end

let divmod a b =
  if b.sg = 0 then raise Division_by_zero;
  let q, r = Mag.divmod a.mg b.mg in
  (make (a.sg * b.sg) q, make a.sg r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let ediv_rem a b =
  let q, r = divmod a b in
  if r.sg >= 0 then (q, r)
  else if b.sg > 0 then (pred q, add r b)
  else (succ q, sub r b)

let erem a b = snd (ediv_rem a b)

(* Canonical-range test [0 <= v < m], allocation-free: a sign check plus
   one magnitude compare (which itself starts with a limb-width
   compare).  The group layer's exponent paths use it to skip the
   [erem] division entirely when the exponent is already reduced —
   which in protocol code is almost always, since scalars are sampled
   in [[1, q-1]] to begin with. *)
let in_range v m = v.sg >= 0 && (v.sg = 0 || Mag.compare v.mg m.mg < 0)

let is_even v = Mag.is_zero v.mg || v.mg.(0) land 1 = 0
let is_odd v = not (is_even v)

let check_nonneg name v = if v.sg < 0 then invalid_arg ("Bigint." ^ name ^ ": negative operand")

let shift_left v n =
  check_nonneg "shift_left" v;
  make v.sg (Mag.shift_left v.mg n)

let shift_right v n =
  check_nonneg "shift_right" v;
  make v.sg (Mag.shift_right v.mg n)

let logand a b =
  check_nonneg "logand" a;
  check_nonneg "logand" b;
  make 1 (Mag.logand a.mg b.mg)

let logor a b =
  check_nonneg "logor" a;
  check_nonneg "logor" b;
  make 1 (Mag.logor a.mg b.mg)

let logxor a b =
  check_nonneg "logxor" a;
  check_nonneg "logxor" b;
  make 1 (Mag.logxor a.mg b.mg)

let testbit v i =
  check_nonneg "testbit" v;
  Mag.testbit v.mg i

let numbits v = Mag.numbits v.mg

let nth_bit_weight k =
  if k < 0 then invalid_arg "Bigint.nth_bit_weight: negative";
  make 1 (Mag.shift_left (Mag.of_int 1) k)

let bits_of v ~width =
  check_nonneg "bits_of" v;
  Array.init width (fun i -> if Mag.testbit v.mg i then 1 else 0)

let of_bits bits =
  let acc = ref Mag.zero in
  for i = Array.length bits - 1 downto 0 do
    acc := Mag.shift_left !acc 1;
    if bits.(i) = 1 then acc := Mag.add_int !acc 1
    else if bits.(i) <> 0 then invalid_arg "Bigint.of_bits: entry not 0/1"
  done;
  make 1 !acc

let of_string s =
  let s, sg = if String.length s > 0 && s.[0] = '-' then (String.sub s 1 (String.length s - 1), -1) else (s, 1) in
  let mg =
    if String.length s > 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
      Mag.of_string_hex (String.sub s 2 (String.length s - 2))
    else Mag.of_string_dec s
  in
  make sg mg

let to_string v =
  if v.sg < 0 then "-" ^ Mag.to_string_dec v.mg else Mag.to_string_dec v.mg

let to_string_hex v =
  if v.sg < 0 then "-" ^ Mag.to_string_hex v.mg else Mag.to_string_hex v.mg

let of_bytes_be b = make 1 (Mag.of_bytes b)

let to_bytes_be v =
  check_nonneg "to_bytes_be" v;
  Mag.to_bytes v.mg

let to_bytes_be_padded len v =
  check_nonneg "to_bytes_be" v;
  if (numbits v + 7) / 8 > len then invalid_arg "Bigint.to_bytes_be_padded: too large";
  let r = Bytes.create len in
  Mag.to_bytes_into v.mg r;
  r

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a else gcd b (rem a b)

let egcd a b =
  (* Iterative extended Euclid on the given (possibly negative) values. *)
  let rec go r0 r1 s0 s1 t0 t1 =
    if is_zero r1 then (r0, s0, t0)
    else begin
      let q, r2 = divmod r0 r1 in
      go r1 r2 s1 (sub s0 (mul q s1)) t1 (sub t0 (mul q t1))
    end
  in
  let g, u, v = go a b one zero zero one in
  if g.sg < 0 then (neg g, neg u, neg v) else (g, u, v)

let invmod a m =
  let m = abs m in
  let a = erem a m in
  let g, u, _ = egcd a m in
  if not (equal g one) then raise Division_by_zero;
  erem u m

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

(* ---- Montgomery exponentiation for odd moduli. ----

   The multiplication kernels are fully in-place: they write into a
   caller-provided destination of exactly [w] limbs and draw every
   intermediate from a per-domain scratch pack attached to the context,
   so the hot loops ([mont_mul_into], [mont_sqr_into], the whole of
   [powmod]) allocate nothing.  Contexts are cached per modulus and
   shared across domains, hence the scratch lives behind [Domain.DLS]:
   pool workers multiplying under the same modulus each get their own
   buffers.

   Limb products split each 61-bit limb into 31/30-bit halves (see the
   width discussion in mag.ml); the modulus halves are precomputed at
   context creation, the second operand's once per kernel call. *)

module Mont = struct
  (* Per-domain working memory, all fixed-width at the context's [w]. *)
  type scratch = {
    t : int array; (* w + 2: CIOS accumulator *)
    t2 : int array; (* 2w + 2: squaring accumulator *)
    h0 : int array; (* w: operand low halves *)
    h1 : int array; (* w: operand high halves *)
    tbl : int array array; (* 16 x w: powmod window table *)
    acc : int array; (* w: powmod accumulator *)
    bm : int array; (* w: powmod base in Montgomery form *)
    iu : int array; (* w + 1: binary-inversion working value *)
    iv : int array; (* w + 1: binary-inversion working value *)
    ix1 : int array; (* w + 1: binary-inversion cofactor *)
    ix2 : int array; (* w + 1: binary-inversion cofactor *)
  }

  type ctx = {
    m : int array; (* modulus, exactly w limbs, odd *)
    w : int; (* limb count of m *)
    m' : int; (* -m^{-1} mod 2^61 *)
    mh0 : int array; (* modulus low halves *)
    mh1 : int array; (* modulus high halves *)
    r2 : int array; (* R^2 mod m, R = 2^(61w); w limbs *)
    one_m : int array; (* R mod m: Montgomery form of 1; w limbs *)
    one_p : int array; (* plain 1, padded to w limbs *)
    mp : int array; (* modulus padded to w + 1 limbs (inversion width) *)
    scratch : scratch Domain.DLS.key;
  }

  (* Inverse of [v] modulo 2^61, for odd v; Newton iteration. *)
  let inv_limb v =
    let x = ref v in
    (* x := x * (2 - v*x) doubles the number of correct bits. *)
    for _ = 1 to 6 do
      x := !x * (2 - (v * !x)) land mask
    done;
    !x land mask

  let create (m0 : int array) =
    assert ((not (Mag.is_zero m0)) && m0.(0) land 1 = 1);
    let w = Array.length m0 in
    let pad a =
      let r = Array.make w 0 in
      Array.blit a 0 r 0 (Array.length a);
      r
    in
    let m = Array.copy m0 in
    let m' = mask land -inv_limb m.(0) in
    let r = Mag.shift_left (Mag.of_int 1) (Mag.base_bits * w) in
    let r2 = pad (Mag.rem (Mag.mul r r) m) in
    let one_m = pad (Mag.rem r m) in
    let scratch =
      Domain.DLS.new_key (fun () ->
          {
            t = Array.make (w + 2) 0;
            t2 = Array.make ((2 * w) + 2) 0;
            h0 = Array.make w 0;
            h1 = Array.make w 0;
            tbl = Array.init 16 (fun _ -> Array.make w 0);
            acc = Array.make w 0;
            bm = Array.make w 0;
            iu = Array.make (w + 1) 0;
            iv = Array.make (w + 1) 0;
            ix1 = Array.make (w + 1) 0;
            ix2 = Array.make (w + 1) 0;
          })
    in
    let mp = Array.make (w + 1) 0 in
    Array.blit m 0 mp 0 w;
    {
      m;
      w;
      m';
      mh0 = Array.map (fun v -> v land m31) m;
      mh1 = Array.map (fun v -> v lsr 31) m;
      r2;
      one_m;
      one_p = pad (Mag.of_int 1);
      mp;
      scratch;
    }

  (* Pad a magnitude to exactly [w] limbs. *)
  let pad ctx a =
    let la = Array.length a in
    if la = ctx.w then a
    else begin
      let r = Array.make ctx.w 0 in
      Array.blit a 0 r 0 la;
      r
    end

  (* Limb copies and fills as plain loops: [Array.blit] and [Array.fill]
     are C calls, and a blit into an old (major-heap) int array runs
     [caml_modify] on every limb.  One range check per call keeps them
     safe; the loops themselves are unchecked. *)
  let blit_limbs (src : int array) soff (dst : int array) doff len =
    if soff < 0 || doff < 0 || len < 0
       || soff + len > Array.length src
       || doff + len > Array.length dst
    then invalid_arg "Mont.blit_limbs";
    for i = 0 to len - 1 do
      Array.unsafe_set dst (doff + i) (Array.unsafe_get src (soff + i))
    done

  let fill_limbs (dst : int array) off len v =
    if off < 0 || len < 0 || off + len > Array.length dst then invalid_arg "Mont.fill_limbs";
    for i = off to off + len - 1 do
      Array.unsafe_set dst i v
    done

  let pad_into ctx (dst : int array) (a : int array) =
    let la = Array.length a in
    blit_limbs a 0 dst 0 la;
    fill_limbs dst la (ctx.w - la) 0

  (* Copy the final CIOS value into [dst] at limb [doff], subtracting
     the modulus once if the accumulator (read at [off]) reached it;
     [extra] is the overflow limb above the top. *)
  let finish ctx (dst : int array) doff (acc : int array) off extra =
    let w = ctx.w and m = ctx.m in
    (* Closure-free comparison loop: this path must allocate nothing. *)
    let i = ref (w - 1) in
    while !i >= 0 && acc.(off + !i) = m.(!i) do
      decr i
    done;
    let ge = extra > 0 || !i < 0 || acc.(off + !i) > m.(!i) in
    if ge then begin
      let borrow = ref 0 in
      for i = 0 to w - 1 do
        let d = Array.unsafe_get acc (off + i) - Array.unsafe_get m i - !borrow in
        Array.unsafe_set dst (doff + i) (d land mask);
        borrow := (d lsr 61) land 1
      done
    end
    else
      for i = 0 to w - 1 do
        Array.unsafe_set dst (doff + i) (Array.unsafe_get acc (off + i))
      done

  (* ---- Straight-line kernels for 3-limb moduli (123 to 183 bits). ----

     ECC-160's field and the 128-bit DL test group have exactly three
     limbs.  At that width the loops below spend about half of each call
     on overhead: the [Domain.DLS] scratch lookup, splitting an operand
     into scratch, zeroing the accumulator and loop control.  These
     kernels hold every limb, half and carry in local variables and
     touch memory only to read the operands and the modulus and to write
     [dst].  They run the loops' own schedules unrolled (CIOS for the
     product, SOS for the square), so they produce the same values, and
     [mont_mul_at], [mont_sqr_at] and [inv_at] select them by the
     context's limb count: no caller and no counter sees a difference.
     Each kernel reads the top limb of every operand, and writes that of
     [dst], with a bounds check before the unchecked rest, so a short
     array raises instead of being accessed past its end.

     In the bodies, [p], [r] and [lo] are one limb product's half-split
     partials exactly as in the loops, [c] is the running carry and the
     accumulator limbs [t0], [t1], ... are rebound as they change. *)

  (* [dst] at [doff] := t - m if t >= m, else t, for the value
     t = t0 + t1 B + t2 B^2 + t3 B^3 (B = 2^61) with [t3] the overflow
     limb, as {!finish}.  t < 2m, so when [t3] is set the three-limb
     difference with its final borrow dropped is exact. *)
  let finish3 (m : int array) (dst : int array) doff t0 t1 t2 t3 =
    let d0 = t0 - Array.unsafe_get m 0 in
    let d1 = t1 - Array.unsafe_get m 1 - ((d0 lsr 61) land 1) in
    let d2 = t2 - Array.unsafe_get m 2 - ((d1 lsr 61) land 1) in
    if t3 > 0 || d2 >= 0 then begin
      dst.(doff + 2) <- d2 land mask;
      Array.unsafe_set dst (doff + 1) (d1 land mask);
      Array.unsafe_set dst doff (d0 land mask)
    end
    else begin
      dst.(doff + 2) <- t2;
      Array.unsafe_set dst (doff + 1) t1;
      Array.unsafe_set dst doff t0
    end

  (* CIOS as in {!mont_mul_loop}: row i adds a_i b to t, then adds u m
     for u = t0 m' mod B and drops the zero low limb.  t stays below 2m,
     so [t3] holds at most one bit and [t4] the carry out of it. *)
  let mont_mul3 ctx (dst : int array) doff (a : int array) aoff (b : int array) boff =
    let a2 = a.(aoff + 2) and b2 = b.(boff + 2) in
    let a0 = Array.unsafe_get a aoff and a1 = Array.unsafe_get a (aoff + 1) in
    let b0 = Array.unsafe_get b boff and b1 = Array.unsafe_get b (boff + 1) in
    let m = ctx.m and q = ctx.m' in
    let n0 = Array.unsafe_get m 0 and n1 = Array.unsafe_get m 1 and n2 = Array.unsafe_get m 2 in
    let n0l = n0 land m31 and n0h = n0 lsr 31 and n1l = n1 land m31 and n1h = n1 lsr 31 in
    let n2l = n2 land m31 and n2h = n2 lsr 31 and ql = q land m31 and qh = q lsr 31 in
    let a0l = a0 land m31 and a0h = a0 lsr 31 and a1l = a1 land m31 and a1h = a1 lsr 31 in
    let a2l = a2 land m31 and a2h = a2 lsr 31 and b0l = b0 land m31 and b0h = b0 lsr 31 in
    let b1l = b1 land m31 and b1h = b1 lsr 31 and b2l = b2 land m31 and b2h = b2 lsr 31 in
    (* Row 0: t += a0 * b, then t := (t + u * m) / 2^61. *)
    let p = a0l * b0l and r = (a0l * b0h) + (a0h * b0l) in
    let lo = p + ((r land m30) lsl 31) in
    let t0 = lo land mask and c = ((a0h * b0h) lsl 1) + (r lsr 30) + (lo lsr 61) in
    let p = a0l * b1l and r = (a0l * b1h) + (a0h * b1l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = (lo land mask) + c in
    let t1 = s land mask and c = ((a0h * b1h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = a0l * b2l and r = (a0l * b2h) + (a0h * b2l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = (lo land mask) + c in
    let t2 = s land mask and c = ((a0h * b2h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let t3 = c and t4 = 0 in
    let tl = t0 land m31 and th = t0 lsr 31 in
    let u = ((tl * ql) + ((((tl * qh) + (th * ql)) land m30) lsl 31)) land mask in
    let ul = u land m31 and uh = u lsr 31 in
    let p = ul * n0l and r = (ul * n0h) + (uh * n0l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t0 + (lo land mask) in
    let c = ((uh * n0h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = ul * n1l and r = (ul * n1h) + (uh * n1l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t1 + (lo land mask) + c in
    let t0 = s land mask and c = ((uh * n1h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = ul * n2l and r = (ul * n2h) + (uh * n2l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t2 + (lo land mask) + c in
    let t1 = s land mask and c = ((uh * n2h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let x = t3 + c in
    let t2 = x land mask and t3 = t4 + (x lsr 61) in
    (* Row 1: t += a1 * b, then t := (t + u * m) / 2^61. *)
    let p = a1l * b0l and r = (a1l * b0h) + (a1h * b0l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t0 + (lo land mask) in
    let t0 = s land mask and c = ((a1h * b0h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = a1l * b1l and r = (a1l * b1h) + (a1h * b1l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t1 + (lo land mask) + c in
    let t1 = s land mask and c = ((a1h * b1h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = a1l * b2l and r = (a1l * b2h) + (a1h * b2l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t2 + (lo land mask) + c in
    let t2 = s land mask and c = ((a1h * b2h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let x = t3 + c in
    let t3 = x land mask and t4 = x lsr 61 in
    let tl = t0 land m31 and th = t0 lsr 31 in
    let u = ((tl * ql) + ((((tl * qh) + (th * ql)) land m30) lsl 31)) land mask in
    let ul = u land m31 and uh = u lsr 31 in
    let p = ul * n0l and r = (ul * n0h) + (uh * n0l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t0 + (lo land mask) in
    let c = ((uh * n0h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = ul * n1l and r = (ul * n1h) + (uh * n1l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t1 + (lo land mask) + c in
    let t0 = s land mask and c = ((uh * n1h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = ul * n2l and r = (ul * n2h) + (uh * n2l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t2 + (lo land mask) + c in
    let t1 = s land mask and c = ((uh * n2h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let x = t3 + c in
    let t2 = x land mask and t3 = t4 + (x lsr 61) in
    (* Row 2: t += a2 * b, then t := (t + u * m) / 2^61. *)
    let p = a2l * b0l and r = (a2l * b0h) + (a2h * b0l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t0 + (lo land mask) in
    let t0 = s land mask and c = ((a2h * b0h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = a2l * b1l and r = (a2l * b1h) + (a2h * b1l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t1 + (lo land mask) + c in
    let t1 = s land mask and c = ((a2h * b1h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = a2l * b2l and r = (a2l * b2h) + (a2h * b2l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t2 + (lo land mask) + c in
    let t2 = s land mask and c = ((a2h * b2h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let x = t3 + c in
    let t3 = x land mask and t4 = x lsr 61 in
    let tl = t0 land m31 and th = t0 lsr 31 in
    let u = ((tl * ql) + ((((tl * qh) + (th * ql)) land m30) lsl 31)) land mask in
    let ul = u land m31 and uh = u lsr 31 in
    let p = ul * n0l and r = (ul * n0h) + (uh * n0l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t0 + (lo land mask) in
    let c = ((uh * n0h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = ul * n1l and r = (ul * n1h) + (uh * n1l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t1 + (lo land mask) + c in
    let t0 = s land mask and c = ((uh * n1h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = ul * n2l and r = (ul * n2h) + (uh * n2l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t2 + (lo land mask) + c in
    let t1 = s land mask and c = ((uh * n2h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let x = t3 + c in
    let t2 = x land mask and t3 = t4 + (x lsr 61) in
    finish3 m dst doff t0 t1 t2 t3

  (* SOS as in {!mont_sqr_loop}: the off-diagonal triangle once, doubled,
     the diagonal squares, then three reduction steps.  Each step drops
     the zero low limb by renaming, so [t0] is always the next limb to
     clear. *)
  let mont_sqr3 ctx (dst : int array) doff (a : int array) aoff =
    let a2 = a.(aoff + 2) in
    let a0 = Array.unsafe_get a aoff and a1 = Array.unsafe_get a (aoff + 1) in
    let m = ctx.m and q = ctx.m' in
    let n0 = Array.unsafe_get m 0 and n1 = Array.unsafe_get m 1 and n2 = Array.unsafe_get m 2 in
    let n0l = n0 land m31 and n0h = n0 lsr 31 and n1l = n1 land m31 and n1h = n1 lsr 31 in
    let n2l = n2 land m31 and n2h = n2 lsr 31 and ql = q land m31 and qh = q lsr 31 in
    let a0l = a0 land m31 and a0h = a0 lsr 31 and a1l = a1 land m31 and a1h = a1 lsr 31 in
    let a2l = a2 land m31 and a2h = a2 lsr 31 in
    (* Off-diagonal triangle a0a1 + a0a2 B + a1a2 B^2, from limb 1. *)
    let p = a0l * a1l and r = (a0l * a1h) + (a0h * a1l) in
    let lo = p + ((r land m30) lsl 31) in
    let t1 = lo land mask and c = ((a0h * a1h) lsl 1) + (r lsr 30) + (lo lsr 61) in
    let p = a0l * a2l and r = (a0l * a2h) + (a0h * a2l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = (lo land mask) + c in
    let t2 = s land mask and t3 = ((a0h * a2h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = a1l * a2l and r = (a1l * a2h) + (a1h * a2l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t3 + (lo land mask) in
    let t3 = s land mask and t4 = ((a1h * a2h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    (* Doubled, plus the diagonal squares. *)
    let d1 = (t1 lsl 1) land mask and d2 = ((t2 lsl 1) land mask) lor (t1 lsr 60) in
    let d3 = ((t3 lsl 1) land mask) lor (t2 lsr 60) in
    let d4 = ((t4 lsl 1) land mask) lor (t3 lsr 60) and d5 = t4 lsr 60 in
    let p = a0l * a0l and r = (a0l * a0h) lsl 1 in
    let lo = p + ((r land m30) lsl 31) in
    let t0 = lo land mask and h = ((a0h * a0h) lsl 1) + (r lsr 30) + (lo lsr 61) in
    let s = d1 + h in
    let t1 = s land mask and c = s lsr 61 in
    let p = a1l * a1l and r = (a1l * a1h) lsl 1 in
    let lo = p + ((r land m30) lsl 31) in
    let l = lo land mask and h = ((a1h * a1h) lsl 1) + (r lsr 30) + (lo lsr 61) in
    let s = d2 + l + c in
    let t2 = s land mask and s = d3 + h + (s lsr 61) in
    let t3 = s land mask and c = s lsr 61 in
    let p = a2l * a2l and r = (a2l * a2h) lsl 1 in
    let lo = p + ((r land m30) lsl 31) in
    let l = lo land mask and h = ((a2h * a2h) lsl 1) + (r lsr 30) + (lo lsr 61) in
    let s = d4 + l + c in
    let t4 = s land mask and t5 = (d5 + h + (s lsr 61)) land mask in
    (* Reduction 0: t := (t + u * m) / 2^61; the carry out of the top
       limb waits in [k] for the next step. *)
    let tl = t0 land m31 and th = t0 lsr 31 in
    let u = ((tl * ql) + ((((tl * qh) + (th * ql)) land m30) lsl 31)) land mask in
    let ul = u land m31 and uh = u lsr 31 in
    let p = ul * n0l and r = (ul * n0h) + (uh * n0l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t0 + (lo land mask) in
    let c = ((uh * n0h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = ul * n1l and r = (ul * n1h) + (uh * n1l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t1 + (lo land mask) + c in
    let t0 = s land mask and c = ((uh * n1h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = ul * n2l and r = (ul * n2h) + (uh * n2l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t2 + (lo land mask) + c in
    let t1 = s land mask and c = ((uh * n2h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let x = t3 + c in
    let t2 = x land mask and k = x lsr 61 and t3 = t4 and t4 = t5 in
    (* Reduction 1: t := (t + u * m) / 2^61; the carry out of the top
       limb waits in [k]. *)
    let tl = t0 land m31 and th = t0 lsr 31 in
    let u = ((tl * ql) + ((((tl * qh) + (th * ql)) land m30) lsl 31)) land mask in
    let ul = u land m31 and uh = u lsr 31 in
    let p = ul * n0l and r = (ul * n0h) + (uh * n0l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t0 + (lo land mask) in
    let c = ((uh * n0h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = ul * n1l and r = (ul * n1h) + (uh * n1l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t1 + (lo land mask) + c in
    let t0 = s land mask and c = ((uh * n1h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = ul * n2l and r = (ul * n2h) + (uh * n2l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t2 + (lo land mask) + c in
    let t1 = s land mask and c = ((uh * n2h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let x = t3 + c + k in
    let t2 = x land mask and k = x lsr 61 and t3 = t4 in
    (* Reduction 2: t := (t + u * m) / 2^61; the carry out of the top
       limb waits in [k]. *)
    let tl = t0 land m31 and th = t0 lsr 31 in
    let u = ((tl * ql) + ((((tl * qh) + (th * ql)) land m30) lsl 31)) land mask in
    let ul = u land m31 and uh = u lsr 31 in
    let p = ul * n0l and r = (ul * n0h) + (uh * n0l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t0 + (lo land mask) in
    let c = ((uh * n0h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = ul * n1l and r = (ul * n1h) + (uh * n1l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t1 + (lo land mask) + c in
    let t0 = s land mask and c = ((uh * n1h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let p = ul * n2l and r = (ul * n2h) + (uh * n2l) in
    let lo = p + ((r land m30) lsl 31) in
    let s = t2 + (lo land mask) + c in
    let t1 = s land mask and c = ((uh * n2h) lsl 1) + (r lsr 30) + (lo lsr 61) + (s lsr 61) in
    let x = t3 + c + k in
    let t2 = x land mask and k = x lsr 61 in
    finish3 m dst doff t0 t1 t2 k

  (* The kernels read and write w limbs of each operand from a limb
     offset, so one flat array can hold many elements ({!Modring.Flat});
     the operands are split into scratch first, so the offsets never
     reach the O(w^2) loops.  Callers check the ranges. *)

  (* CIOS Montgomery multiplication at any width, into scratch: the
     result is copied out last, so [dst] may alias either operand. *)
  let mont_mul_loop ctx (dst : int array) doff (a : int array) aoff (b : int array) boff =
    let w = ctx.w and m' = ctx.m' in
    let s = Domain.DLS.get ctx.scratch in
    let t = s.t in
    let mh0 = ctx.mh0 and mh1 = ctx.mh1 in
    let bh0 = s.h0 and bh1 = s.h1 in
    for j = 0 to w - 1 do
      let bj = Array.unsafe_get b (boff + j) in
      Array.unsafe_set bh0 j (bj land m31);
      Array.unsafe_set bh1 j (bj lsr 31)
    done;
    for j = 0 to w + 1 do
      Array.unsafe_set t j 0
    done;
    for i = 0 to w - 1 do
      let ai = Array.unsafe_get a (aoff + i) in
      let a0 = ai land m31 and a1 = ai lsr 31 in
      (* t += a_i * b *)
      let c = ref 0 in
      for j = 0 to w - 1 do
        let b0 = Array.unsafe_get bh0 j and b1 = Array.unsafe_get bh1 j in
        let p00 = a0 * b0 and p11 = a1 * b1 in
        let mid = (a0 * b1) + (a1 * b0) in
        let lop = p00 + ((mid land m30) lsl 31) in
        let s = Array.unsafe_get t j + (lop land mask) + !c in
        Array.unsafe_set t j (s land mask);
        c := (p11 lsl 1) + (mid lsr 30) + (lop lsr 61) + (s lsr 61)
      done;
      let x = Array.unsafe_get t w + !c in
      Array.unsafe_set t w (x land mask);
      Array.unsafe_set t (w + 1) (Array.unsafe_get t (w + 1) + (x lsr 61));
      (* Interleaved reduction step: t := (t + u*m) / 2^61. *)
      let t0 = Array.unsafe_get t 0 in
      let u =
        let u0 = t0 land m31 and u1 = t0 lsr 31 in
        let q0 = m' land m31 and q1 = m' lsr 31 in
        let p00 = u0 * q0 in
        let mid = (u0 * q1) + (u1 * q0) in
        (p00 + ((mid land m30) lsl 31)) land mask
      in
      let u0 = u land m31 and u1 = u lsr 31 in
      let c =
        ref
          (let b0 = Array.unsafe_get mh0 0 and b1 = Array.unsafe_get mh1 0 in
           let p00 = u0 * b0 and p11 = u1 * b1 in
           let mid = (u0 * b1) + (u1 * b0) in
           let lop = p00 + ((mid land m30) lsl 31) in
           let s = t0 + (lop land mask) in
           (p11 lsl 1) + (mid lsr 30) + (lop lsr 61) + (s lsr 61))
      in
      for j = 1 to w - 1 do
        let b0 = Array.unsafe_get mh0 j and b1 = Array.unsafe_get mh1 j in
        let p00 = u0 * b0 and p11 = u1 * b1 in
        let mid = (u0 * b1) + (u1 * b0) in
        let lop = p00 + ((mid land m30) lsl 31) in
        let s = Array.unsafe_get t j + (lop land mask) + !c in
        Array.unsafe_set t (j - 1) (s land mask);
        c := (p11 lsl 1) + (mid lsr 30) + (lop lsr 61) + (s lsr 61)
      done;
      let x = Array.unsafe_get t w + !c in
      Array.unsafe_set t (w - 1) (x land mask);
      Array.unsafe_set t w (Array.unsafe_get t (w + 1) + (x lsr 61));
      Array.unsafe_set t (w + 1) 0
    done;
    finish ctx dst doff t 0 t.(w)

  (* Montgomery multiplication: dst = a * b * R^{-1} mod m.  [a], [b]
     and [dst] are w-limb operands at limb offsets [aoff], [boff] and
     [doff]; [dst] may alias either operand.  One [mul_counter] tick
     whichever kernel runs. *)
  let mont_mul_at ctx (dst : int array) doff (a : int array) aoff (b : int array) boff =
    Ppgr_exec.Meter.incr mul_counter;
    if ctx.w = 3 then mont_mul3 ctx dst doff a aoff b boff
    else mont_mul_loop ctx dst doff a aoff b boff

  let mont_mul_into ctx (dst : int array) (a : int array) (b : int array) =
    mont_mul_at ctx dst 0 a 0 b 0

  (* Montgomery squaring: dst = a^2 * R^{-1} mod m, computed SOS-style.
     The off-diagonal triangle is accumulated once and doubled with a
     single shift pass, then the diagonal squares land and the w
     reduction steps run over the double-width accumulator; roughly 25%
     fewer limb products than [mont_mul_into] on the same operand.
     [dst] may alias [a]; both at limb offsets as in {!mont_mul_at}. *)
  let mont_sqr_loop ctx (dst : int array) doff (a : int array) aoff =
    let w = ctx.w and m' = ctx.m' in
    let s = Domain.DLS.get ctx.scratch in
    let t2 = s.t2 in
    let mh0 = ctx.mh0 and mh1 = ctx.mh1 in
    let ah0 = s.h0 and ah1 = s.h1 in
    for j = 0 to w - 1 do
      let aj = Array.unsafe_get a (aoff + j) in
      Array.unsafe_set ah0 j (aj land m31);
      Array.unsafe_set ah1 j (aj lsr 31)
    done;
    for j = 0 to (2 * w) + 1 do
      Array.unsafe_set t2 j 0
    done;
    (* Off-diagonal triangle a_i * a_j, j > i. *)
    for i = 0 to w - 2 do
      let a0 = Array.unsafe_get ah0 i and a1 = Array.unsafe_get ah1 i in
      let c = ref 0 in
      for j = i + 1 to w - 1 do
        let b0 = Array.unsafe_get ah0 j and b1 = Array.unsafe_get ah1 j in
        let p00 = a0 * b0 and p11 = a1 * b1 in
        let mid = (a0 * b1) + (a1 * b0) in
        let lop = p00 + ((mid land m30) lsl 31) in
        let k = i + j in
        let s = Array.unsafe_get t2 k + (lop land mask) + !c in
        Array.unsafe_set t2 k (s land mask);
        c := (p11 lsl 1) + (mid lsr 30) + (lop lsr 61) + (s lsr 61)
      done;
      let k = i + w in
      let s = Array.unsafe_get t2 k + !c in
      Array.unsafe_set t2 k (s land mask);
      if s lsr 61 <> 0 then
        Array.unsafe_set t2 (k + 1) (Array.unsafe_get t2 (k + 1) + (s lsr 61))
    done;
    (* Double the triangle. *)
    let carry = ref 0 in
    for k = 0 to (2 * w) - 1 do
      let v = Array.unsafe_get t2 k in
      Array.unsafe_set t2 k (((v lsl 1) land mask) lor !carry);
      carry := v lsr 60
    done;
    (* Diagonal squares. *)
    let cb = ref 0 in
    for i = 0 to w - 1 do
      let a0 = Array.unsafe_get ah0 i and a1 = Array.unsafe_get ah1 i in
      let p00 = a0 * a0 and p11 = a1 * a1 in
      let mid = (a0 * a1) lsl 1 in
      let lop = p00 + ((mid land m30) lsl 31) in
      let hi = (p11 lsl 1) + (mid lsr 30) + (lop lsr 61) in
      let s = Array.unsafe_get t2 (2 * i) + (lop land mask) + !cb in
      Array.unsafe_set t2 (2 * i) (s land mask);
      let s2 = Array.unsafe_get t2 ((2 * i) + 1) + hi + (s lsr 61) in
      Array.unsafe_set t2 ((2 * i) + 1) (s2 land mask);
      cb := s2 lsr 61
    done;
    (* w Montgomery reduction steps over the double-width value. *)
    for i = 0 to w - 1 do
      let ti = Array.unsafe_get t2 i in
      let u =
        let u0 = ti land m31 and u1 = ti lsr 31 in
        let q0 = m' land m31 and q1 = m' lsr 31 in
        let p00 = u0 * q0 in
        let mid = (u0 * q1) + (u1 * q0) in
        (p00 + ((mid land m30) lsl 31)) land mask
      in
      let u0 = u land m31 and u1 = u lsr 31 in
      let c = ref 0 in
      for j = 0 to w - 1 do
        let b0 = Array.unsafe_get mh0 j and b1 = Array.unsafe_get mh1 j in
        let p00 = u0 * b0 and p11 = u1 * b1 in
        let mid = (u0 * b1) + (u1 * b0) in
        let lop = p00 + ((mid land m30) lsl 31) in
        let k = i + j in
        let s = Array.unsafe_get t2 k + (lop land mask) + !c in
        Array.unsafe_set t2 k (s land mask);
        c := (p11 lsl 1) + (mid lsr 30) + (lop lsr 61) + (s lsr 61)
      done;
      let k = ref (i + w) in
      let c = ref !c in
      while !c <> 0 do
        let s = Array.unsafe_get t2 !k + !c in
        Array.unsafe_set t2 !k (s land mask);
        c := s lsr 61;
        incr k
      done
    done;
    finish ctx dst doff t2 w t2.(2 * w)

  let mont_sqr_at ctx (dst : int array) doff (a : int array) aoff =
    Ppgr_exec.Meter.incr mul_counter;
    if ctx.w = 3 then mont_sqr3 ctx dst doff a aoff else mont_sqr_loop ctx dst doff a aoff

  let mont_sqr_into ctx (dst : int array) (a : int array) = mont_sqr_at ctx dst 0 a 0

  let mont_mul ctx (a : int array) (b : int array) =
    let dst = Array.make ctx.w 0 in
    mont_mul_into ctx dst a b;
    dst

  (* ---- Allocation-free modular inversion: binary extended gcd. ----

     HAC 14.61 specialised to an odd modulus, run entirely in the four
     (w+1)-limb scratch buffers: halvings, compares and subtractions on
     little-endian limb vectors, with the cofactors kept in [0, m) by
     adding the modulus before an odd halving or after an underflowing
     subtraction.  ~2·numbits(m) iterations of O(w) limb work — the
     same ballpark as the old Euclidean [invmod] but with zero heap
     traffic.

     The helpers below are closure-free plain loops (see the finish
     comment: this path must not allocate). *)

  let buf_is_zero (a : int array) len =
    let i = ref 0 in
    while !i < len && a.(!i) = 0 do
      incr i
    done;
    !i = len

  let buf_is_one (a : int array) len =
    a.(0) = 1
    &&
    let i = ref 1 in
    while !i < len && a.(!i) = 0 do
      incr i
    done;
    !i = len

  (* a >>= 1 (little-endian). *)
  let buf_shr1 (a : int array) len =
    for i = 0 to len - 2 do
      Array.unsafe_set a i
        ((Array.unsafe_get a i lsr 1)
        lor ((Array.unsafe_get a (i + 1) land 1) lsl 60))
    done;
    a.(len - 1) <- a.(len - 1) lsr 1

  let buf_cmp (a : int array) (b : int array) len =
    let i = ref (len - 1) in
    while !i >= 0 && a.(!i) = b.(!i) do
      decr i
    done;
    if !i < 0 then 0 else Stdlib.compare a.(!i) b.(!i)

  (* a += b; the caller guarantees the sum fits in [len] limbs. *)
  let buf_add (a : int array) (b : int array) len =
    let carry = ref 0 in
    for i = 0 to len - 1 do
      let s = Array.unsafe_get a i + Array.unsafe_get b i + !carry in
      Array.unsafe_set a i (s land mask);
      carry := s lsr 61
    done

  (* a -= b; the caller guarantees a >= b. *)
  let buf_sub (a : int array) (b : int array) len =
    let borrow = ref 0 in
    for i = 0 to len - 1 do
      let d = Array.unsafe_get a i - Array.unsafe_get b i - !borrow in
      Array.unsafe_set a i (d land mask);
      borrow := (d lsr 61) land 1
    done

  (* dst := a^{-1} in the Montgomery domain ([a] and [dst] are
     Montgomery forms, [dst] may alias [a]).  The binary xgcd inverts
     the plain limb value v = aR mod m, giving a^{-1}R^{-2} (mod m) up
     to Montgomery scaling; two multiplications by R^2 rescale it to
     the Montgomery form of a^{-1}.
     @raise Division_by_zero if [a] is not invertible. *)
  let inv_loop ctx (dst : int array) doff (a : int array) aoff =
    let w = ctx.w in
    let len = w + 1 in
    let s = Domain.DLS.get ctx.scratch in
    let u = s.iu and v = s.iv and x1 = s.ix1 and x2 = s.ix2 in
    blit_limbs a aoff u 0 w;
    u.(w) <- 0;
    blit_limbs ctx.m 0 v 0 w;
    v.(w) <- 0;
    fill_limbs x1 0 len 0;
    x1.(0) <- 1;
    fill_limbs x2 0 len 0;
    if buf_is_zero u len then raise Division_by_zero;
    while (not (buf_is_one u len)) && not (buf_is_one v len) do
      (* A common factor > 1 drives one value to zero without either
         reaching one: not invertible. *)
      if buf_is_zero u len || buf_is_zero v len then raise Division_by_zero;
      while u.(0) land 1 = 0 do
        buf_shr1 u len;
        if x1.(0) land 1 = 1 then buf_add x1 ctx.mp len;
        buf_shr1 x1 len
      done;
      while v.(0) land 1 = 0 do
        buf_shr1 v len;
        if x2.(0) land 1 = 1 then buf_add x2 ctx.mp len;
        buf_shr1 x2 len
      done;
      if buf_cmp u v len >= 0 then begin
        buf_sub u v len;
        if buf_cmp x1 x2 len < 0 then buf_add x1 ctx.mp len;
        buf_sub x1 x2 len
      end
      else begin
        buf_sub v u len;
        if buf_cmp x2 x1 len < 0 then buf_add x2 ctx.mp len;
        buf_sub x2 x1 len
      end
    done;
    let r = if buf_is_one u len then x1 else x2 in
    (* r = (aR)^{-1} = a^{-1} R^{-1}; two R^2 rescalings land a^{-1} R.
       The kernels read exactly w limbs, so the (w+1)-limb buffer with
       its zero top limb is a valid operand. *)
    mont_mul_at ctx dst doff r 0 ctx.r2 0;
    mont_mul_at ctx dst doff dst doff ctx.r2 0

  (* The same xgcd on three limbs: u, v and their cofactors x and y
     live in refs that no closure captures, so they stay unboxed and
     nothing is allocated.  Every value is below m < 2^183 except a
     cofactor plus m before its halving, whose carry bit the shift
     takes back down.  The odd-cofactor addition and the modular
     correction after a subtraction add m under a mask (all ones or
     zero) instead of branching. *)
  let inv3 ctx (dst : int array) doff (a : int array) aoff =
    let m = ctx.m in
    let m0 = Array.unsafe_get m 0 and m1 = Array.unsafe_get m 1 and m2 = Array.unsafe_get m 2 in
    let u2 = ref a.(aoff + 2) in
    let u0 = ref (Array.unsafe_get a aoff) and u1 = ref (Array.unsafe_get a (aoff + 1)) in
    let v0 = ref m0 and v1 = ref m1 and v2 = ref m2 in
    let x0 = ref 1 and x1 = ref 0 and x2 = ref 0 in
    let y0 = ref 0 and y1 = ref 0 and y2 = ref 0 in
    if !u0 lor !u1 lor !u2 = 0 then raise Division_by_zero;
    while not ((!u0 = 1 && !u1 lor !u2 = 0) || (!v0 = 1 && !v1 lor !v2 = 0)) do
      if !u0 lor !u1 lor !u2 = 0 || !v0 lor !v1 lor !v2 = 0 then raise Division_by_zero;
      while !u0 land 1 = 0 do
        u0 := (!u0 lsr 1) lor ((!u1 land 1) lsl 60);
        u1 := (!u1 lsr 1) lor ((!u2 land 1) lsl 60);
        u2 := !u2 lsr 1;
        let k = - (!x0 land 1) in
        let s0 = !x0 + (m0 land k) in
        let s1 = !x1 + (m1 land k) + (s0 lsr 61) in
        let s2 = !x2 + (m2 land k) + (s1 lsr 61) in
        x0 := ((s0 land mask) lsr 1) lor ((s1 land 1) lsl 60);
        x1 := ((s1 land mask) lsr 1) lor ((s2 land 1) lsl 60);
        x2 := s2 lsr 1
      done;
      while !v0 land 1 = 0 do
        v0 := (!v0 lsr 1) lor ((!v1 land 1) lsl 60);
        v1 := (!v1 lsr 1) lor ((!v2 land 1) lsl 60);
        v2 := !v2 lsr 1;
        let k = - (!y0 land 1) in
        let s0 = !y0 + (m0 land k) in
        let s1 = !y1 + (m1 land k) + (s0 lsr 61) in
        let s2 = !y2 + (m2 land k) + (s1 lsr 61) in
        y0 := ((s0 land mask) lsr 1) lor ((s1 land 1) lsl 60);
        y1 := ((s1 land mask) lsr 1) lor ((s2 land 1) lsl 60);
        y2 := s2 lsr 1
      done;
      let d0 = !u0 - !v0 in
      let d1 = !u1 - !v1 - ((d0 lsr 61) land 1) in
      let d2 = !u2 - !v2 - ((d1 lsr 61) land 1) in
      if d2 >= 0 then begin
        (* u >= v: u -= v, x := x - y mod m. *)
        u0 := d0 land mask;
        u1 := d1 land mask;
        u2 := d2;
        let e0 = !x0 - !y0 in
        let e1 = !x1 - !y1 - ((e0 lsr 61) land 1) in
        let e2 = !x2 - !y2 - ((e1 lsr 61) land 1) in
        let k = e2 asr 62 in
        let s0 = (e0 land mask) + (m0 land k) in
        let s1 = (e1 land mask) + (m1 land k) + (s0 lsr 61) in
        x0 := s0 land mask;
        x1 := s1 land mask;
        x2 := ((e2 land mask) + (m2 land k) + (s1 lsr 61)) land mask
      end
      else begin
        (* v > u: v -= u, y := y - x mod m. *)
        let d0 = !v0 - !u0 in
        let d1 = !v1 - !u1 - ((d0 lsr 61) land 1) in
        v0 := d0 land mask;
        v1 := d1 land mask;
        v2 := !v2 - !u2 - ((d1 lsr 61) land 1);
        let e0 = !y0 - !x0 in
        let e1 = !y1 - !x1 - ((e0 lsr 61) land 1) in
        let e2 = !y2 - !x2 - ((e1 lsr 61) land 1) in
        let k = e2 asr 62 in
        let s0 = (e0 land mask) + (m0 land k) in
        let s1 = (e1 land mask) + (m1 land k) + (s0 lsr 61) in
        y0 := s0 land mask;
        y1 := s1 land mask;
        y2 := ((e2 land mask) + (m2 land k) + (s1 lsr 61)) land mask
      end
    done;
    (* The cofactor of whichever reached one, as in {!inv_loop}: write
       it to [dst] and rescale there by R^2 twice. *)
    let one_u = !u0 = 1 && !u1 lor !u2 = 0 in
    dst.(doff + 2) <- (if one_u then !x2 else !y2);
    Array.unsafe_set dst (doff + 1) (if one_u then !x1 else !y1);
    Array.unsafe_set dst doff (if one_u then !x0 else !y0);
    mont_mul_at ctx dst doff dst doff ctx.r2 0;
    mont_mul_at ctx dst doff dst doff ctx.r2 0

  (* dst := a^{-1} as above, by {!inv3} on three limbs.  Both run the
     same steps, raise alike and tick [mul_counter] twice. *)
  let inv_at ctx (dst : int array) doff (a : int array) aoff =
    if ctx.w = 3 then inv3 ctx dst doff a aoff else inv_loop ctx dst doff a aoff

  let inv_into ctx (dst : int array) (a : int array) = inv_at ctx dst 0 a 0

  let to_mont ctx a = mont_mul ctx (pad ctx a) ctx.r2
  let from_mont ctx a = Mag.normalize (mont_mul ctx a ctx.one_p)

  (* Fixed 4-bit window exponentiation in Montgomery form: [s.acc]
     := bm^e for a Montgomery-form base [bm] of [w] limbs, which must
     not be [s.acc] or a window-table slot.  Allocation-free. *)
  let pow_window ctx s (bm : int array) (e : int array) =
    blit_limbs ctx.one_m 0 s.tbl.(0) 0 ctx.w;
    for i = 1 to 15 do
      mont_mul_into ctx s.tbl.(i) s.tbl.(i - 1) bm
    done;
    let nwin = (Mag.numbits e + 3) / 4 in
    let acc = s.acc in
    blit_limbs ctx.one_m 0 acc 0 ctx.w;
    for wi = nwin - 1 downto 0 do
      for _ = 1 to 4 do
        mont_sqr_into ctx acc acc
      done;
      let d =
        (if Mag.testbit e ((4 * wi) + 3) then 8 else 0)
        lor (if Mag.testbit e ((4 * wi) + 2) then 4 else 0)
        lor (if Mag.testbit e ((4 * wi) + 1) then 2 else 0)
        lor if Mag.testbit e (4 * wi) then 1 else 0
      in
      if d > 0 then mont_mul_into ctx acc acc s.tbl.(d)
    done

  (* [b^e mod m] for a plain base.  Everything mutable lives in the
     per-domain scratch pack; the only allocation is the escaping
     result. *)
  let powmod ctx (b : int array) (e : int array) =
    if Mag.is_zero e then Mag.of_int 1
    else begin
      let s = Domain.DLS.get ctx.scratch in
      let b = if Mag.compare b ctx.m >= 0 then Mag.rem b ctx.m else b in
      pad_into ctx s.bm b;
      mont_mul_into ctx s.bm s.bm ctx.r2;
      (* s.bm now holds the base in Montgomery form; it is not an
         operand of any further kernel call's scratch, so the window
         table can be built straight from it. *)
      pow_window ctx s s.bm e;
      (* Demont into [s.bm] (dead once the window table is built) and
         copy out at exact width: the escaping result is the single
         allocation of the whole call, already normalized, instead of
         a w-limb temporary plus a trimmed [Mag.normalize] copy. *)
      mont_mul_into ctx s.bm s.acc ctx.one_p;
      let top = ref (ctx.w - 1) in
      while !top >= 0 && s.bm.(!top) = 0 do
        decr top
      done;
      Array.sub s.bm 0 (!top + 1)
    end
end

(* Cache Montgomery contexts per modulus: exponentiations in a protocol
   run hit the same handful of moduli thousands of times.  The cache is
   shared across domains (parallel Miller-Rabin rounds hit it), so the
   Hashtbl hides behind a mutex; the lock cost is noise next to even one
   Montgomery multiplication at cryptographic sizes.

   In front of the Hashtbl sits a lock-free single-entry cache: a
   protocol run exponentiates against one modulus millions of times in a
   row, and the old path paid a hex-string key allocation plus a mutex
   round-trip per call.  The hot hit is a physical-equality check on the
   magnitude (the group keeps one [t] for its modulus, so [m.mg] is
   pointer-stable), with a limb compare as fallback for equal values
   from different allocations. *)
let mont_cache : (string, Mont.ctx) Hashtbl.t = Hashtbl.create 8
let mont_cache_lock = Mutex.create ()
let mont_last : (int array * Mont.ctx) option Atomic.t = Atomic.make None

let mont_ctx_for (m : int array) =
  match Atomic.get mont_last with
  | Some (key, ctx) when key == m || Mag.compare key m = 0 -> ctx
  | _ ->
      let key = Mag.to_string_hex m in
      Mutex.lock mont_cache_lock;
      let ctx =
        match Hashtbl.find_opt mont_cache key with
        | Some ctx -> ctx
        | None ->
            let ctx = Mont.create m in
            Hashtbl.add mont_cache key ctx;
            ctx
      in
      Mutex.unlock mont_cache_lock;
      Atomic.set mont_last (Some (m, ctx));
      ctx

let powmod_generic b e m =
  (* Square-and-multiply with explicit reduction; used for even moduli. *)
  let b = erem b m in
  let nb = numbits e in
  let acc = ref one in
  for i = nb - 1 downto 0 do
    acc := rem (mul !acc !acc) m;
    if testbit e i then acc := rem (mul !acc b) m
  done;
  !acc

let powmod b e m =
  if m.sg <= 0 then invalid_arg "Bigint.powmod: modulus must be positive";
  if e.sg < 0 then invalid_arg "Bigint.powmod: negative exponent";
  if equal m one then zero
  else if is_odd m && numbits m > 1 then begin
    let ctx = mont_ctx_for m.mg in
    (* Canonical-base fast path: protocol callers already hand over
       residues in [0, m), so the euclidean division is skipped. *)
    let b = if in_range b m then b else erem b m in
    make 1 (Mont.powmod ctx b.mg e.mg)
  end
  else powmod_generic b e m

(* The binary Jacobi algorithm on native ints: [n] odd positive and
   [0 <= a < n].  Each round strips all factors of two from [a] at once
   (one sign flip when their count is odd and n = 3, 5 mod 8), then
   swaps by quadratic reciprocity. *)
let rec jacobi_native a n acc =
  if a = 0 then if n = 1 then acc else 0
  else begin
    let odd = ref a and z = ref 0 in
    while !odd land 1 = 0 do
      odd := !odd lsr 1;
      incr z
    done;
    let n8 = n land 7 in
    let acc = if !z land 1 = 1 && (n8 = 3 || n8 = 5) then -acc else acc in
    let acc = if !odd land 3 = 3 && n8 land 3 = 3 then -acc else acc in
    jacobi_native (n mod !odd) !odd acc
  end

(* Bigint rounds of the same algorithm until the modulus fits a native
   int (62 bits): at 64 bits that is one or two Knuth divisions, after
   which the rest of the Euclid-like descent runs without allocating. *)
let jacobi a n =
  if n.sg <= 0 || is_even n then invalid_arg "Bigint.jacobi: n must be odd positive";
  let rec go (a : int array) (n : int array) acc =
    let a = if Mag.compare a n < 0 then a else Mag.rem a n in
    if Mag.numbits n <= 62 then
      jacobi_native (Option.get (Mag.to_int_opt a)) (Option.get (Mag.to_int_opt n)) acc
    else if Mag.is_zero a then 0 (* n > 1 here *)
    else begin
      let z = Mag.trailing_zeros a in
      let a = Mag.shift_right a z in
      let n8 = n.(0) land 7 in
      let acc = if z land 1 = 1 && (n8 = 3 || n8 = 5) then -acc else acc in
      let acc = if a.(0) land 3 = 3 && n8 land 3 = 3 then -acc else acc in
      go n a acc
    end
  in
  go (if in_range a n then a else erem a n).mg n.mg 1

let pp fmt v = Format.pp_print_string fmt (to_string v)

module Modring = struct
  type ctx = { mc : Mont.ctx; m_big : t }
  type elt = int array (* Montgomery form, padded to ctx width, < m *)

  let ctx ~modulus =
    if modulus.sg <= 0 || is_even modulus || compare modulus two <= 0 then
      invalid_arg "Modring.ctx: modulus must be odd and > 2";
    { mc = mont_ctx_for modulus.mg; m_big = modulus }

  let modulus c = c.m_big

  let canonical c v = if in_range v c.m_big then v else erem v c.m_big

  let enter c v = Mont.to_mont c.mc (canonical c v).mg

  let enter_into c (dst : elt) v =
    Mont.pad_into c.mc dst (canonical c v).mg;
    Mont.mont_mul_into c.mc dst dst c.mc.Mont.r2

  let leave c (e : elt) = make 1 (Mont.from_mont c.mc e)

  let alloc c : elt = Array.make c.mc.Mont.w 0
  let zero c : elt = Array.make c.mc.Mont.w 0
  let one c : elt = Array.copy c.mc.Mont.one_m
  let of_int c v = enter c (of_int v)

  let copy_into (_ : ctx) (dst : elt) (src : elt) =
    Mont.blit_limbs src 0 dst 0 (Array.length src)

  let zero_into c (dst : elt) = Mont.fill_limbs dst 0 c.mc.Mont.w 0
  let one_into c (dst : elt) = Mont.blit_limbs c.mc.Mont.one_m 0 dst 0 c.mc.Mont.w

  (* Limb by limb: polymorphic [=] is a C call. *)
  let equal c (a : elt) (b : elt) =
    let w = c.mc.Mont.w in
    if Array.length a < w || Array.length b < w then invalid_arg "Modring.equal";
    let i = ref 0 in
    while !i < w && Array.unsafe_get a !i = Array.unsafe_get b !i do
      incr i
    done;
    !i = w

  let is_zero (_ : ctx) (a : elt) =
    (* Manual loop: [Array.for_all] closes over its arguments and this
       runs on the zero-allocation path. *)
    let n = Array.length a in
    let i = ref 0 in
    while !i < n && a.(!i) = 0 do
      incr i
    done;
    !i = n

  let equal_neg c (a : elt) (b : elt) =
    (* a + b = m with the carry chain; 0 = -0 is the one pair whose sum
       is 0 rather than m. *)
    let m = c.mc.Mont.m in
    let carry = ref 0 in
    let i = ref 0 in
    while
      !i < c.mc.Mont.w
      &&
      let s = a.(!i) + b.(!i) + !carry in
      carry := s lsr 61;
      s land mask = m.(!i)
    do
      incr i
    done;
    (!i = c.mc.Mont.w && !carry = 0) || (is_zero c a && is_zero c b)

  let is_one c (a : elt) =
    let o = c.mc.Mont.one_m in
    let i = ref (c.mc.Mont.w - 1) in
    while !i >= 0 && a.(!i) = o.(!i) do
      decr i
    done;
    !i < 0

  (* Compare w limbs at [off] against the modulus limbs, closure-free. *)
  let ge_mod_at c (a : int array) off =
    let m = c.mc.Mont.m in
    let i = ref (c.mc.Mont.w - 1) in
    while !i >= 0 && a.(off + !i) = m.(!i) do
      decr i
    done;
    !i < 0 || a.(off + !i) > m.(!i)

  let sub_mod_at c (a : int array) off =
    let m = c.mc.Mont.m in
    let borrow = ref 0 in
    for i = 0 to c.mc.Mont.w - 1 do
      let d = a.(off + i) - m.(i) - !borrow in
      a.(off + i) <- d land mask;
      borrow := (d lsr 61) land 1
    done

  (* All the [_into] variants tolerate [dst] aliasing any operand: each
     limb of the operands is read before the same-index limb of [dst]
     is written, and the range-restoring pass runs on [dst] alone.  The
     [_at] forms take limb offsets, for {!Flat}. *)

  let add_loop c (dst : int array) doff (a : int array) aoff (b : int array) boff =
    let w = c.mc.Mont.w in
    let carry = ref 0 in
    for i = 0 to w - 1 do
      let s = a.(aoff + i) + b.(boff + i) + !carry in
      dst.(doff + i) <- s land mask;
      carry := s lsr 61
    done;
    (* a + b < 2m; one conditional subtraction restores the range (a
       final borrow cancels against the dropped carry bit). *)
    if !carry > 0 || ge_mod_at c dst doff then sub_mod_at c dst doff

  let sub_loop c (dst : int array) doff (a : int array) aoff (b : int array) boff =
    let w = c.mc.Mont.w in
    let m = c.mc.Mont.m in
    let borrow = ref 0 in
    for i = 0 to w - 1 do
      let d = a.(aoff + i) - b.(boff + i) - !borrow in
      dst.(doff + i) <- d land mask;
      borrow := (d lsr 61) land 1
    done;
    if !borrow > 0 then begin
      let carry = ref 0 in
      for i = 0 to w - 1 do
        let s = dst.(doff + i) + m.(i) + !carry in
        dst.(doff + i) <- s land mask;
        carry := s lsr 61
      done
    end

  let neg_loop c (dst : elt) (a : elt) =
    if is_zero c a then zero_into c dst
    else begin
      (* 0 < a < m, so m - a needs no final borrow. *)
      let m = c.mc.Mont.m in
      let borrow = ref 0 in
      for i = 0 to c.mc.Mont.w - 1 do
        let d = m.(i) - a.(i) - !borrow in
        dst.(i) <- d land mask;
        borrow := (d lsr 61) land 1
      done
    end

  (* The same three operations on a 3-limb modulus, straight-line on
     locals like {!Mont.mont_mul3}.  A sum or difference is as likely
     out of range as not, so the correction by m is applied under a
     mask [k] (all ones or zero) rather than behind a branch. *)
  let add3 (m : int array) (dst : int array) doff (a : int array) aoff (b : int array) boff =
    let s2 = a.(aoff + 2) + b.(boff + 2) in
    let s0 = Array.unsafe_get a aoff + Array.unsafe_get b boff in
    let s1 = Array.unsafe_get a (aoff + 1) + Array.unsafe_get b (boff + 1) + (s0 lsr 61) in
    let s2 = s2 + (s1 lsr 61) in
    let s0 = s0 land mask and s1 = s1 land mask in
    let d0 = s0 - Array.unsafe_get m 0 in
    let d1 = s1 - Array.unsafe_get m 1 - ((d0 lsr 61) land 1) in
    let d2 = (s2 land mask) - Array.unsafe_get m 2 - ((d1 lsr 61) land 1) in
    (* Keep the sum (k = -1) when it is below m: no carry out of it and
       a borrow out of the difference. *)
    let k = (d2 asr 62) land ((s2 lsr 61) - 1) in
    dst.(doff + 2) <- (d2 land mask land lnot k) lor (s2 land k);
    Array.unsafe_set dst (doff + 1) ((d1 land mask land lnot k) lor (s1 land k));
    Array.unsafe_set dst doff ((d0 land mask land lnot k) lor (s0 land k))

  let sub3 (m : int array) (dst : int array) doff (a : int array) aoff (b : int array) boff =
    let d2 = a.(aoff + 2) - b.(boff + 2) in
    let d0 = Array.unsafe_get a aoff - Array.unsafe_get b boff in
    let d1 = Array.unsafe_get a (aoff + 1) - Array.unsafe_get b (boff + 1) - ((d0 lsr 61) land 1) in
    let d2 = d2 - ((d1 lsr 61) land 1) in
    (* Add m back after a borrow (k = -1); the carry out is dropped. *)
    let k = d2 asr 62 in
    let s0 = (d0 land mask) + (Array.unsafe_get m 0 land k) in
    let s1 = (d1 land mask) + (Array.unsafe_get m 1 land k) + (s0 lsr 61) in
    dst.(doff + 2) <- ((d2 land mask) + (Array.unsafe_get m 2 land k) + (s1 lsr 61)) land mask;
    Array.unsafe_set dst (doff + 1) (s1 land mask);
    Array.unsafe_set dst doff (s0 land mask)

  let neg3 (m : int array) (dst : int array) (a : int array) =
    let a2 = a.(2) in
    let a0 = Array.unsafe_get a 0 and a1 = Array.unsafe_get a 1 in
    if a0 lor a1 lor a2 = 0 then begin
      dst.(2) <- 0;
      Array.unsafe_set dst 1 0;
      Array.unsafe_set dst 0 0
    end
    else begin
      let d0 = Array.unsafe_get m 0 - a0 in
      let d1 = Array.unsafe_get m 1 - a1 - ((d0 lsr 61) land 1) in
      dst.(2) <- Array.unsafe_get m 2 - a2 - ((d1 lsr 61) land 1);
      Array.unsafe_set dst 1 (d1 land mask);
      Array.unsafe_set dst 0 (d0 land mask)
    end

  let add_at c (dst : int array) doff (a : int array) aoff (b : int array) boff =
    if c.mc.Mont.w = 3 then add3 c.mc.Mont.m dst doff a aoff b boff
    else add_loop c dst doff a aoff b boff

  let sub_at c (dst : int array) doff (a : int array) aoff (b : int array) boff =
    if c.mc.Mont.w = 3 then sub3 c.mc.Mont.m dst doff a aoff b boff
    else sub_loop c dst doff a aoff b boff

  let add_into c (dst : elt) (a : elt) (b : elt) = add_at c dst 0 a 0 b 0
  let sub_into c (dst : elt) (a : elt) (b : elt) = sub_at c dst 0 a 0 b 0

  let double_into c (dst : elt) (a : elt) = add_into c dst a a

  let neg_into c (dst : elt) (a : elt) =
    if c.mc.Mont.w = 3 then neg3 c.mc.Mont.m dst a else neg_loop c dst a

  let mul_into c (dst : elt) (a : elt) (b : elt) = Mont.mont_mul_into c.mc dst a b
  let sqr_into c (dst : elt) (a : elt) = Mont.mont_sqr_into c.mc dst a

  let add c (a : elt) (b : elt) : elt =
    let r = alloc c in
    add_into c r a b;
    r

  let sub c (a : elt) (b : elt) : elt =
    let r = alloc c in
    sub_into c r a b;
    r

  let neg c (a : elt) : elt =
    let r = alloc c in
    neg_into c r a;
    r

  let mul c (a : elt) (b : elt) : elt = Mont.mont_mul c.mc a b

  let sqr c (a : elt) : elt =
    let r = alloc c in
    sqr_into c r a;
    r

  let double c (a : elt) = add c a a

  let mul_small c (a : elt) k =
    if k < 0 then invalid_arg "Modring.mul_small: negative constant";
    (* Binary double-and-add on the modular representatives. *)
    let rec go acc base k =
      if k = 0 then acc
      else begin
        let acc = if k land 1 = 1 then add c acc base else acc in
        go acc (double c base) (k lsr 1)
      end
    in
    go (zero c) a k

  let pow c (a : elt) e =
    if e.sg < 0 then invalid_arg "Modring.pow: negative exponent";
    let s = Domain.DLS.get c.mc.Mont.scratch in
    Mont.pow_window c.mc s a e.mg;
    Array.sub s.Mont.acc 0 c.mc.Mont.w

  let inv_into c (dst : elt) (a : elt) = Mont.inv_into c.mc dst a

  let inv c (a : elt) : elt =
    let r = alloc c in
    inv_into c r a;
    r

  module Flat = struct
    type t = int array

    let create c n : t = Array.make (n * c.mc.Mont.w) 0

    (* The offset kernels do not check their ranges; every entry point
       here does, once per operand. *)
    let at c (v : t) i =
      let w = c.mc.Mont.w in
      if i < 0 || (i + 1) * w > Array.length v then invalid_arg "Modring.Flat: index";
      i * w

    let set c (v : t) i (x : elt) = Mont.blit_limbs x 0 v (at c v i) c.mc.Mont.w

    let get c (v : t) i : elt =
      let r = alloc c in
      Mont.blit_limbs v (at c v i) r 0 c.mc.Mont.w;
      r

    let copy c (dst : t) i (src : t) j =
      Mont.blit_limbs src (at c src j) dst (at c dst i) c.mc.Mont.w

    let mul c (dst : t) i (a : t) j (b : t) k =
      Mont.mont_mul_at c.mc dst (at c dst i) a (at c a j) b (at c b k)

    let sqr c (dst : t) i (a : t) j = Mont.mont_sqr_at c.mc dst (at c dst i) a (at c a j)
    let add c (dst : t) i (a : t) j (b : t) k = add_at c dst (at c dst i) a (at c a j) b (at c b k)
    let sub c (dst : t) i (a : t) j (b : t) k = sub_at c dst (at c dst i) a (at c a j) b (at c b k)
    let inv c (dst : t) i (a : t) j = Mont.inv_at c.mc dst (at c dst i) a (at c a j)

    let is_zero c (v : t) i =
      let off = at c v i and w = c.mc.Mont.w in
      let k = ref 0 in
      while !k < w && Array.unsafe_get v (off + !k) = 0 do
        incr k
      done;
      !k = w
  end
end
