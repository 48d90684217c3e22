(* Magnitude (unsigned) arbitrary-precision arithmetic on little-endian
   arrays of 61-bit limbs stored in native (63-bit immediate) ints.
   This module is internal to [ppgr_bigint]; the signed public interface
   is {!Bigint}.

   Invariant: a magnitude is normalized, i.e. it has no most-significant
   zero limb.  Zero is the empty array.

   Limb width.  A limb carries 61 payload bits.  Products of two limbs
   are formed from a 31/30 half-split (31x31-, 31x30- and 30x30-bit
   partial products all fit a native int), and 61 is the widest payload
   for which the recombination and the hot-loop accumulators stay exact:
   the cross term [a0*b1 + a1*b0] of the split fits without its own
   carry step, and a triple sum [limb + limb + carry] stays below 2^63,
   so the schoolbook/Montgomery inner loops resolve each step with a
   single mask/shift.  Compared to the previous 26-bit layout this
   halves the limb count at every modulus size used by the protocol
   (DL-1024 drops from 40 limbs to 17) and quarters the inner-loop trip
   count of a multiplication.

   Division is the one operation that cannot run at this width: Knuth's
   algorithm D estimates quotient digits from a two-digit numerator,
   which must fit a native int, so {!divmod} repacks its operands onto
   an internal base-2^31 digit domain.  The repack is O(n) and division
   sits far off every hot path (the Montgomery layer avoids it
   entirely). *)

let base_bits = 61
let base = 1 lsl base_bits
let mask = base - 1

(* Half-split constants for limb products: a limb is [a1 * 2^31 + a0]
   with [a0] 31 bits wide and [a1] 30 bits wide. *)
let m31 = (1 lsl 31) - 1
let m30 = (1 lsl 30) - 1

let zero : int array = [||]

let is_zero (a : int array) = Array.length a = 0

let normalize (a : int array) =
  let n = Array.length a in
  let rec top i = if i > 0 && a.(i - 1) = 0 then top (i - 1) else i in
  let t = top n in
  if t = n then a else Array.sub a 0 t

(* Number of significant bits in a limb value (0 for 0). *)
let bits_of_limb v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let numbits (a : int array) =
  let n = Array.length a in
  if n = 0 then 0 else ((n - 1) * base_bits) + bits_of_limb a.(n - 1)

let of_int (v : int) =
  if v < 0 then invalid_arg "Mag.of_int: negative";
  if v = 0 then zero
  else begin
    let rec count v acc = if v = 0 then acc else count (v lsr base_bits) (acc + 1) in
    let n = count v 0 in
    let a = Array.make n 0 in
    let rec fill i v =
      if v <> 0 then begin
        a.(i) <- v land mask;
        fill (i + 1) (v lsr base_bits)
      end
    in
    fill 0 v;
    a
  end

(* Largest int representable without overflow concern: up to 62 bits. *)
let to_int_opt (a : int array) =
  if numbits a > 62 then None
  else begin
    let v = ref 0 in
    for i = Array.length a - 1 downto 0 do
      v := (!v lsl base_bits) lor a.(i)
    done;
    Some !v
  end

(* Explicit loop: a local [let rec] closure heap-allocates on every
   call, and this sits on the group layer's zero-allocation fast path
   (the canonical-exponent [in_range] test runs one compare per
   exponentiation). *)
let compare (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let i = ref (la - 1) in
    while !i >= 0 && a.(!i) = b.(!i) do
      decr i
    done;
    if !i < 0 then 0 else Stdlib.compare a.(!i) b.(!i)
  end

let equal a b = compare a b = 0

let copy = Array.copy

let add (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let lmax = max la lb in
  let r = Array.make (lmax + 1) 0 in
  let carry = ref 0 in
  for i = 0 to lmax - 1 do
    let av = if i < la then a.(i) else 0 in
    let bv = if i < lb then b.(i) else 0 in
    let s = av + bv + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  r.(lmax) <- !carry;
  normalize r

(* [sub a b] requires [a >= b]. *)
let sub (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  assert (compare a b >= 0);
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bv = if i < lb then b.(i) else 0 in
    let d = a.(i) - bv - !borrow in
    r.(i) <- d land mask;
    borrow := (d lsr base_bits) land 1
  done;
  assert (!borrow = 0);
  normalize r

let add_int a v = add a (of_int v)
let sub_int a v = sub a (of_int v)

(* O(n) scan multiplying by a single limb-sized constant.  The per-limb
   product is recombined from the half-split; the running carry stays
   below [base], so each step is one masked add. *)
let mul_int (a : int array) (v : int) =
  if v < 0 || v > mask then invalid_arg "Mag.mul_int: limb out of range";
  if v = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let v0 = v land m31 and v1 = v lsr 31 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      let a0 = ai land m31 and a1 = ai lsr 31 in
      let p00 = a0 * v0 and p11 = a1 * v1 in
      let mid = (a0 * v1) + (a1 * v0) in
      let lop = p00 + ((mid land m30) lsl 31) in
      let s = (lop land mask) + !carry in
      r.(i) <- s land mask;
      carry := (p11 lsl 1) + (mid lsr 30) + (lop lsr base_bits) + (s lsr base_bits)
    done;
    r.(la) <- !carry;
    normalize r
  end

let mul_schoolbook (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let a0 = ai land m31 and a1 = ai lsr 31 in
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let bj = Array.unsafe_get b j in
          let b0 = bj land m31 and b1 = bj lsr 31 in
          let p00 = a0 * b0 and p11 = a1 * b1 in
          let mid = (a0 * b1) + (a1 * b0) in
          let lop = p00 + ((mid land m30) lsl 31) in
          (* r.(i+j) + lo + carry < 3 * 2^61 < 2^63: exact. *)
          let s = Array.unsafe_get r (i + j) + (lop land mask) + !carry in
          Array.unsafe_set r (i + j) (s land mask);
          carry :=
            (p11 lsl 1) + (mid lsr 30) + (lop lsr base_bits) + (s lsr base_bits)
        done;
        let rec prop k c =
          if c <> 0 then begin
            let p = r.(k) + c in
            r.(k) <- p land mask;
            prop (k + 1) (p lsr base_bits)
          end
        in
        prop (i + lb) !carry
      end
    done;
    normalize r
  end

let karatsuba_cutoff = ref 24

(* Split [a] at limb [k] into (low, high). *)
let split_at (a : int array) k =
  let la = Array.length a in
  if la <= k then (normalize (copy a), zero)
  else (normalize (Array.sub a 0 k), normalize (Array.sub a k (la - k)))

let shift_limbs (a : int array) k =
  if is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

let rec mul (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else if min la lb < !karatsuba_cutoff then mul_schoolbook a b
  else begin
    let k = (max la lb + 1) / 2 in
    let a0, a1 = split_at a k in
    let b0, b1 = split_at b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add (add z0 (shift_limbs z1 k)) (shift_limbs z2 (2 * k))
  end

let shift_left (a : int array) bits =
  if bits < 0 then invalid_arg "Mag.shift_left: negative";
  if is_zero a || bits = 0 then normalize (copy a)
  else begin
    let limb_shift = bits / base_bits in
    let bit_shift = bits mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    if bit_shift = 0 then Array.blit a 0 r limb_shift la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let ai = a.(i) in
        r.(i + limb_shift) <- ((ai lsl bit_shift) land mask) lor !carry;
        carry := ai lsr (base_bits - bit_shift)
      done;
      r.(la + limb_shift) <- !carry
    end;
    normalize r
  end

let shift_right (a : int array) bits =
  if bits < 0 then invalid_arg "Mag.shift_right: negative";
  if is_zero a || bits = 0 then normalize (copy a)
  else begin
    let limb_shift = bits / base_bits in
    let bit_shift = bits mod base_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let ln = la - limb_shift in
      let r = Array.make ln 0 in
      if bit_shift = 0 then Array.blit a limb_shift r 0 ln
      else begin
        for i = 0 to ln - 1 do
          let lo = a.(i + limb_shift) lsr bit_shift in
          let hi =
            if i + limb_shift + 1 < la then
              (a.(i + limb_shift + 1) lsl (base_bits - bit_shift)) land mask
            else 0
          in
          r.(i) <- lo lor hi
        done
      end;
      normalize r
    end
  end

let testbit (a : int array) i =
  let limb = i / base_bits in
  if limb >= Array.length a then false
  else (a.(limb) lsr (i mod base_bits)) land 1 = 1

(* Bitwise operations (used on non-negative values only). *)
let logand a b =
  let n = min (Array.length a) (Array.length b) in
  normalize (Array.init n (fun i -> a.(i) land b.(i)))

let logor a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  normalize
    (Array.init n (fun i ->
         (if i < la then a.(i) else 0) lor if i < lb then b.(i) else 0))

let logxor a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  normalize
    (Array.init n (fun i ->
         (if i < la then a.(i) else 0) lxor if i < lb then b.(i) else 0))

(* Division by a single small constant: each limb is consumed as a
   30-bit high half then a 31-bit low half so the running numerator
   [rem * 2^k + half] never exceeds 62 bits for divisors below 2^31. *)
let divmod_int (a : int array) (v : int) =
  if v <= 0 || v > m31 then invalid_arg "Mag.divmod_int: divisor out of range";
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let ai = a.(i) in
    let hi = ai lsr 31 and lo = ai land m31 in
    let cur1 = (!rem lsl 30) lor hi in
    let q1 = cur1 / v in
    let cur2 = ((cur1 mod v) lsl 31) lor lo in
    q.(i) <- (q1 lsl 31) lor (cur2 / v);
    rem := cur2 mod v
  done;
  (normalize q, !rem)

(* ---- Knuth Algorithm D over an internal base-2^31 digit domain. ---- *)

let digit_bits = 31
let digit_mask = m31

(* Repack 61-bit limbs into little-endian base-2^31 digits. *)
let to_digits31 (a : int array) =
  let nb = numbits a in
  let nd = (nb + digit_bits - 1) / digit_bits in
  let la = Array.length a in
  Array.init nd (fun k ->
      let p = digit_bits * k in
      let i = p / base_bits and off = p mod base_bits in
      let v = a.(i) lsr off in
      let v =
        if off + digit_bits > base_bits && i + 1 < la then
          v lor (a.(i + 1) lsl (base_bits - off))
        else v
      in
      v land digit_mask)

(* Inverse repack; the result is normalized. *)
let of_digits31 (d : int array) =
  let nd = Array.length d in
  let nl = ((nd * digit_bits) + base_bits - 1) / base_bits in
  let a = Array.make (Stdlib.max nl 1) 0 in
  for j = 0 to nl - 1 do
    let start = base_bits * j in
    let i0 = start / digit_bits and off = start mod digit_bits in
    let v = ref (if i0 < nd then d.(i0) lsr off else 0) in
    let filled = ref (digit_bits - off) in
    let i = ref (i0 + 1) in
    while !filled < base_bits && !i < nd do
      v := !v lor (d.(!i) lsl !filled);
      filled := !filled + digit_bits;
      incr i
    done;
    a.(j) <- !v land mask
  done;
  normalize a

(* Knuth Algorithm D.  Requires a divisor of at least two base-2^31
   digits (the dispatch in {!divmod} sends smaller divisors to
   {!divmod_int}). *)
let divmod_knuth (a : int array) (b : int array) =
  if compare a b < 0 then (zero, normalize (copy a))
  else begin
    let u0 = to_digits31 a and v0 = to_digits31 b in
    let n = Array.length v0 in
    assert (n >= 2);
    (* Normalize: shift so the top digit of the divisor has its high bit
       (of the 31-bit digit) set. *)
    let s = digit_bits - bits_of_limb v0.(n - 1) in
    let shl (x : int array) =
      let lx = Array.length x in
      let r = Array.make (lx + 1) 0 in
      if s = 0 then Array.blit x 0 r 0 lx
      else begin
        let carry = ref 0 in
        for i = 0 to lx - 1 do
          r.(i) <- ((x.(i) lsl s) land digit_mask) lor !carry;
          carry := x.(i) lsr (digit_bits - s)
        done;
        r.(lx) <- !carry
      end;
      r
    in
    let v = shl v0 in
    (* The divisor's top digit cannot overflow its width under the
       normalizing shift. *)
    assert (v.(n) = 0);
    let u = shl u0 in
    let lu = if u.(Array.length u - 1) = 0 then Array.length u - 1 else Array.length u in
    let m = Stdlib.max 0 (lu - n) in
    (* Work array with one extra high digit. *)
    let w = Array.make (lu + 1) 0 in
    Array.blit u 0 w 0 lu;
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) in
    let vsec = v.(n - 2) in
    for j = m downto 0 do
      let num = (w.(j + n) lsl digit_bits) lor w.(j + n - 1) in
      let qhat = ref (num / vtop) in
      let rhat = ref (num mod vtop) in
      if !qhat > digit_mask then begin
        qhat := digit_mask;
        rhat := num - (!qhat * vtop)
      end;
      let continue = ref true in
      while !continue && !rhat <= digit_mask do
        if !qhat * vsec > (!rhat lsl digit_bits) lor w.(j + n - 2) then begin
          decr qhat;
          rhat := !rhat + vtop
        end else continue := false
      done;
      (* Multiply and subtract: w[j..j+n] -= qhat * v. *)
      let borrow = ref 0 in
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr digit_bits;
        let d = w.(j + i) - (p land digit_mask) - !borrow in
        w.(j + i) <- d land digit_mask;
        borrow := (d lsr digit_bits) land 1
      done;
      let d = w.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add back. *)
        w.(j + n) <- d land digit_mask;
        decr qhat;
        let carry2 = ref 0 in
        for i = 0 to n - 1 do
          let sum = w.(j + i) + v.(i) + !carry2 in
          w.(j + i) <- sum land digit_mask;
          carry2 := sum lsr digit_bits
        done;
        w.(j + n) <- (w.(j + n) + !carry2) land digit_mask
      end else w.(j + n) <- d;
      q.(j) <- !qhat
    done;
    (* Denormalize the remainder digits. *)
    let r = Array.sub w 0 n in
    if s > 0 then
      for i = 0 to n - 1 do
        let hi = if i + 1 < n then (r.(i + 1) lsl (digit_bits - s)) land digit_mask else 0 in
        r.(i) <- (r.(i) lsr s) lor hi
      done;
    (of_digits31 q, of_digits31 r)
  end

let divmod (a : int array) (b : int array) =
  if is_zero b then raise Division_by_zero;
  if Array.length b = 1 && b.(0) <= m31 then begin
    let q, r = divmod_int a b.(0) in
    (q, of_int r)
  end
  else divmod_knuth a b

let rem a b = snd (divmod a b)
let div a b = fst (divmod a b)

let to_string_hex (a : int array) =
  if is_zero a then "0"
  else begin
    let nb = numbits a in
    let nhex = (nb + 3) / 4 in
    let buf = Buffer.create nhex in
    for i = nhex - 1 downto 0 do
      let nibble =
        (if testbit a ((4 * i) + 3) then 8 else 0)
        lor (if testbit a ((4 * i) + 2) then 4 else 0)
        lor (if testbit a ((4 * i) + 1) then 2 else 0)
        lor if testbit a (4 * i) then 1 else 0
      in
      Buffer.add_char buf "0123456789abcdef".[nibble]
    done;
    Buffer.contents buf
  end

let of_string_hex (s : string) =
  let acc = ref zero in
  String.iter
    (fun c ->
      let v =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | '_' -> -1
        | _ -> invalid_arg "Mag.of_string_hex: bad character"
      in
      if v >= 0 then acc := add_int (shift_left !acc 4) v)
    s;
  !acc

let to_string_dec (a : int array) =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go a =
      if not (is_zero a) then begin
        let q, r = divmod_int a 10_000_000 in
        if is_zero q then Buffer.add_string buf (string_of_int r)
        else begin
          go q;
          Buffer.add_string buf (Printf.sprintf "%07d" r)
        end
      end
    in
    go a;
    Buffer.contents buf
  end

let of_string_dec (s : string) =
  let acc = ref zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' ->
          acc := add_int (mul_int !acc 10) (Char.code c - Char.code '0')
      | '_' -> ()
      | _ -> invalid_arg "Mag.of_string_dec: bad character")
    s;
  !acc

(* Big-endian byte serialization, one pass over the bytes: byte [k]
   counted from the least significant end covers bits [8k, 8k+8), which
   straddle at most two limbs.  Serialization sits under every wire
   decode and every [Rng.bigint_below] draw, so neither direction goes
   through shifts or per-bit tests of whole magnitudes. *)

(* Fill [dst] with the low bytes of [a], big-endian; limbs past the top
   read as zero, so a short value comes out zero-padded on the left. *)
let to_bytes_into (a : int array) (dst : Bytes.t) =
  let la = Array.length a and len = Bytes.length dst in
  for k = 0 to len - 1 do
    let pos = 8 * k in
    let i = pos / base_bits and sh = pos mod base_bits in
    let v = if i < la then a.(i) lsr sh else 0 in
    let v =
      if sh > base_bits - 8 && i + 1 < la then v lor (a.(i + 1) lsl (base_bits - sh))
      else v
    in
    Bytes.unsafe_set dst (len - 1 - k) (Char.unsafe_chr (v land 0xFF))
  done

let to_bytes (a : int array) =
  let b = Bytes.create ((numbits a + 7) / 8) in
  to_bytes_into a b;
  b

let of_bytes (b : Bytes.t) =
  let nb = Bytes.length b in
  let a = Array.make (((8 * nb) + base_bits - 1) / base_bits) 0 in
  for k = 0 to nb - 1 do
    let byte = Char.code (Bytes.unsafe_get b (nb - 1 - k)) in
    let pos = 8 * k in
    let i = pos / base_bits and sh = pos mod base_bits in
    a.(i) <- a.(i) lor ((byte lsl sh) land mask);
    if sh > base_bits - 8 then a.(i + 1) <- byte lsr (base_bits - sh)
  done;
  normalize a

(* Index of the lowest set bit of a non-zero magnitude. *)
let trailing_zeros (a : int array) =
  let i = ref 0 in
  while a.(!i) = 0 do
    incr i
  done;
  let v = ref a.(!i) and z = ref (!i * base_bits) in
  while !v land 1 = 0 do
    v := !v lsr 1;
    incr z
  done;
  !z
