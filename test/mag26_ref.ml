(* Frozen reference implementation of the pre-61-bit magnitude layer:
   little-endian arrays of 26-bit limbs with allocating schoolbook /
   Karatsuba multiplication, Knuth division and allocating CIOS
   Montgomery exponentiation, exactly as the engine shipped before the
   wide-limb rewrite.

   A test-only oracle: the differential battery ([test_limbs.ml])
   qcheck-compares every arithmetic path of the live engine against it.
   It must NOT be edited for performance and has no dependency on the
   live [Mag]/[Bigint] modules; values cross the boundary as big-endian
   bytes. *)

let base_bits = 26
let base = 1 lsl base_bits
let mask = base - 1

type t = int array

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

let normalize (a : t) =
  let n = Array.length a in
  let rec top i = if i > 0 && a.(i - 1) = 0 then top (i - 1) else i in
  let t = top n in
  if t = n then a else Array.sub a 0 t

let bits_of_limb v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let numbits (a : t) =
  let n = Array.length a in
  if n = 0 then 0 else ((n - 1) * base_bits) + bits_of_limb a.(n - 1)

let of_int (v : int) =
  if v < 0 then invalid_arg "Mag26_ref.of_int: negative";
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

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0
let copy = Array.copy

let add (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  let lmax = Stdlib.max la lb in
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
let sub (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  assert (compare a b >= 0);
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bv = if i < lb then b.(i) else 0 in
    let d = a.(i) - bv - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize r

let add_int a v = add a (of_int v)

let mul_schoolbook (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let p = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- p land mask;
          carry := p lsr base_bits
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

let karatsuba_cutoff = 24

let split_at (a : t) k =
  let la = Array.length a in
  if la <= k then (normalize (copy a), zero)
  else (normalize (Array.sub a 0 k), normalize (Array.sub a k (la - k)))

let shift_limbs (a : t) k =
  if is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

let rec mul (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else if Stdlib.min la lb < karatsuba_cutoff then mul_schoolbook a b
  else begin
    let k = (Stdlib.max la lb + 1) / 2 in
    let a0, a1 = split_at a k in
    let b0, b1 = split_at b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add (add z0 (shift_limbs z1 k)) (shift_limbs z2 (2 * k))
  end

let shift_left (a : t) bits =
  if bits < 0 then invalid_arg "Mag26_ref.shift_left: negative";
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
        let v = (a.(i) lsl bit_shift) lor !carry in
        r.(i + limb_shift) <- v land mask;
        carry := v lsr base_bits
      done;
      r.(la + limb_shift) <- !carry
    end;
    normalize r
  end

let shift_right (a : t) bits =
  if bits < 0 then invalid_arg "Mag26_ref.shift_right: negative";
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

let testbit (a : t) i =
  let limb = i / base_bits in
  if limb >= Array.length a then false
  else (a.(limb) lsr (i mod base_bits)) land 1 = 1

let divmod_int (a : t) (v : int) =
  if v <= 0 || v >= base then invalid_arg "Mag26_ref.divmod_int: limb out of range";
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl base_bits) lor a.(i) in
    q.(i) <- cur / v;
    rem := cur mod v
  done;
  (normalize q, !rem)

let divmod_knuth (a : t) (b : t) =
  let n = Array.length b in
  assert (n >= 2);
  if compare a b < 0 then (zero, normalize (copy a))
  else begin
    let s = base_bits - bits_of_limb b.(n - 1) in
    let u = shift_left a s in
    let v = shift_left b s in
    let v = if Array.length v < n then Array.append v [| 0 |] else v in
    let m = Array.length u - n in
    let m = if m < 0 then 0 else m in
    let w = Array.make (Array.length u + 1) 0 in
    Array.blit u 0 w 0 (Array.length u);
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) in
    let vsec = if n >= 2 then v.(n - 2) else 0 in
    for j = m downto 0 do
      let num = (w.(j + n) lsl base_bits) lor w.(j + n - 1) in
      let qhat = ref (num / vtop) in
      let rhat = ref (num mod vtop) in
      if !qhat >= base then begin
        qhat := base - 1;
        rhat := num - (!qhat * vtop)
      end;
      let continue = ref true in
      while !continue && !rhat < base do
        if !qhat * vsec > (!rhat lsl base_bits) lor w.(j + n - 2) then begin
          decr qhat;
          rhat := !rhat + vtop
        end
        else continue := false
      done;
      let borrow = ref 0 in
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr base_bits;
        let d = w.(j + i) - (p land mask) - !borrow in
        if d < 0 then begin
          w.(j + i) <- d + base;
          borrow := 1
        end
        else begin
          w.(j + i) <- d;
          borrow := 0
        end
      done;
      let d = w.(j + n) - !carry - !borrow in
      if d < 0 then begin
        w.(j + n) <- d + base;
        decr qhat;
        let carry2 = ref 0 in
        for i = 0 to n - 1 do
          let sum = w.(j + i) + v.(i) + !carry2 in
          w.(j + i) <- sum land mask;
          carry2 := sum lsr base_bits
        done;
        w.(j + n) <- (w.(j + n) + !carry2) land mask
      end
      else w.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub w 0 n) in
    (normalize q, shift_right r s)
  end

let divmod (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  if Array.length b = 1 then begin
    let q, r = divmod_int a b.(0) in
    (q, of_int r)
  end
  else divmod_knuth a b

let rem a b = snd (divmod a b)

(* Big-endian byte serialization: the bridge the tests use to move
   values between this reference and the live engine. *)
let to_bytes (a : t) =
  if is_zero a then Bytes.create 0
  else begin
    let nb = (numbits a + 7) / 8 in
    let b = Bytes.create nb in
    for i = 0 to nb - 1 do
      let byte = ref 0 in
      for k = 0 to 7 do
        if testbit a ((8 * i) + k) then byte := !byte lor (1 lsl k)
      done;
      Bytes.set b (nb - 1 - i) (Char.chr !byte)
    done;
    b
  end

let of_bytes (b : Bytes.t) =
  let acc = ref zero in
  Bytes.iter (fun c -> acc := add_int (shift_left !acc 8) (Char.code c)) b;
  !acc

(* The old allocating 26-bit CIOS Montgomery engine, verbatim minus the
   operation meter. *)
module Mont = struct
  type ctx = {
    m : int array;
    w : int;
    m' : int;
    r2 : int array;
    one_m : int array;
  }

  let inv_limb v =
    let x = ref v in
    for _ = 1 to 5 do
      x := !x * (2 - (v * !x)) land mask
    done;
    !x land mask

  let create (m : int array) =
    assert ((not (is_zero m)) && m.(0) land 1 = 1);
    let w = Array.length m in
    let m' = mask land -inv_limb m.(0) in
    let r = shift_left (of_int 1) (base_bits * w) in
    let r2 = rem (mul r r) m in
    let one_m = rem r m in
    { m; w; m'; r2; one_m }

  let pad ctx a =
    let la = Array.length a in
    if la = ctx.w then a
    else begin
      let r = Array.make ctx.w 0 in
      Array.blit a 0 r 0 la;
      r
    end

  let mont_mul ctx (a : int array) (b : int array) =
    let w = ctx.w and m = ctx.m and m' = ctx.m' in
    let t = Array.make (w + 2) 0 in
    for i = 0 to w - 1 do
      let ai = a.(i) in
      let c = ref 0 in
      for j = 0 to w - 1 do
        let x = t.(j) + (ai * b.(j)) + !c in
        t.(j) <- x land mask;
        c := x lsr base_bits
      done;
      let x = t.(w) + !c in
      t.(w) <- x land mask;
      t.(w + 1) <- t.(w + 1) + (x lsr base_bits);
      let u = t.(0) * m' land mask in
      let c = ref ((t.(0) + (u * m.(0))) lsr base_bits) in
      for j = 1 to w - 1 do
        let x = t.(j) + (u * m.(j)) + !c in
        t.(j - 1) <- x land mask;
        c := x lsr base_bits
      done;
      let x = t.(w) + !c in
      t.(w - 1) <- x land mask;
      t.(w) <- t.(w + 1) + (x lsr base_bits);
      t.(w + 1) <- 0
    done;
    let res = Array.sub t 0 w in
    let ge =
      t.(w) > 0
      ||
      let rec cmp i =
        if i < 0 then true
        else if res.(i) <> m.(i) then res.(i) > m.(i)
        else cmp (i - 1)
      in
      cmp (w - 1)
    in
    if ge then begin
      let borrow = ref 0 in
      for i = 0 to w - 1 do
        let d = res.(i) - m.(i) - !borrow in
        if d < 0 then begin
          res.(i) <- d + base;
          borrow := 1
        end
        else begin
          res.(i) <- d;
          borrow := 0
        end
      done
    end;
    res

  let to_mont ctx a = mont_mul ctx (pad ctx a) (pad ctx ctx.r2)
  let from_mont ctx a = normalize (mont_mul ctx a (pad ctx (of_int 1)))

  let powmod ctx (b : int array) (e : int array) =
    if is_zero e then of_int 1
    else begin
      let bm = to_mont ctx (rem b ctx.m) in
      let table = Array.make 16 (pad ctx ctx.one_m) in
      for i = 1 to 15 do
        table.(i) <- mont_mul ctx table.(i - 1) bm
      done;
      let nb = numbits e in
      let nwin = (nb + 3) / 4 in
      let acc = ref (pad ctx ctx.one_m) in
      for wi = nwin - 1 downto 0 do
        for _ = 1 to 4 do
          acc := mont_mul ctx !acc !acc
        done;
        let d =
          (if testbit e ((4 * wi) + 3) then 8 else 0)
          lor (if testbit e ((4 * wi) + 2) then 4 else 0)
          lor (if testbit e ((4 * wi) + 1) then 2 else 0)
          lor if testbit e (4 * wi) then 1 else 0
        in
        if d > 0 then acc := mont_mul ctx !acc table.(d)
      done;
      from_mont ctx !acc
    end
end

(* b^e mod m for any positive modulus: Montgomery for odd m, plain
   square-and-multiply with division for even m. *)
let powmod (b : t) (e : t) (m : t) =
  if is_zero m then raise Division_by_zero;
  if equal m (of_int 1) then zero
  else if m.(0) land 1 = 1 && numbits m > 1 then Mont.powmod (Mont.create m) b e
  else begin
    let b = rem b m in
    let nb = numbits e in
    let acc = ref (of_int 1) in
    for i = nb - 1 downto 0 do
      acc := rem (mul !acc !acc) m;
      if testbit e i then acc := rem (mul !acc b) m
    done;
    !acc
  end

(* Inverse of [a] modulo [m] via a signed extended Euclid over
   (sign, magnitude) pairs; [None] if gcd <> 1. *)
let invmod (a : t) (m : t) =
  let snorm (sg, mg) = if is_zero mg then (0, zero) else (sg, mg) in
  let sadd (sa, ma) (sb, mb) =
    if sa = 0 then (sb, mb)
    else if sb = 0 then (sa, ma)
    else if sa = sb then (sa, add ma mb)
    else begin
      let c = compare ma mb in
      if c = 0 then (0, zero)
      else if c > 0 then (sa, sub ma mb)
      else (sb, sub mb ma)
    end
  in
  let ssub x (sb, mb) = sadd x (-sb, mb) in
  let smul (sa, ma) (sb, mb) = snorm (sa * sb, mul ma mb) in
  let rec go (r0 : int * t) r1 s0 s1 =
    if fst r1 = 0 then (r0, s0)
    else begin
      let q, r2 = divmod (snd r0) (snd r1) in
      (* r0, r1 stay non-negative throughout. *)
      go r1 (snorm (1, r2)) s1 (ssub s0 (smul (snorm (1, q)) s1))
    end
  in
  let a = rem a m in
  if is_zero a then None
  else begin
    let (_, g), (su, u) = go (1, a) (1, m) (1, of_int 1) (0, zero) in
    if not (equal g (of_int 1)) then None
    else if su >= 0 then Some (rem u m)
    else Some (sub m (rem u m))
  end
