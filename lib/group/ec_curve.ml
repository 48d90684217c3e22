(** Short-Weierstrass elliptic curves [y^2 = x^3 + ax + b] over a prime
    field, with Jacobian-coordinate point arithmetic and wNAF scalar
    multiplication.

    A point [(X, Y, Z)] in Jacobian coordinates represents the affine
    point [(X/Z^2, Y/Z^3)]; the point at infinity has [Z = 0].  Field
    elements live in the Montgomery domain of {!Bigint.Modring}. *)

open Ppgr_bigint
module Modring = Bigint.Modring

type params = {
  name : string;
  security_bits : int;
  p : Bigint.t; (* field prime *)
  a : Bigint.t;
  b : Bigint.t;
  gx : Bigint.t;
  gy : Bigint.t;
  n : Bigint.t; (* order of the base point (prime) *)
  h : int; (* cofactor *)
}

type point = {
  x : Modring.elt;
  y : Modring.elt;
  z : Modring.elt; (* z = 0 encodes the point at infinity *)
}

(* Per-domain point scratch for the scalar ladders (DESIGN.md §5h): the
   accumulator, the wNAF odd-multiples tables (two, for the Shamir
   double ladder), a negation/doubling temporary and the recoding digit
   buffers.  A steady-state [scalar_mul]/[scalar_mul2]/
   [scalar_mul_table] touches only these and allocates nothing but its
   escaping result point. *)
type pscratch = {
  pacc : point;
  ptmp : point;
  podd : point array; (* P, 3P, 5P, 7P *)
  podd2 : point array;
  pdg : int array;
  pdg2 : int array;
}

(* The state of one chunk of batched affine ladders ({!pow2_pow_batch},
   DESIGN.md §5h), in flat limb arrays sized for the chunk.  Ladder [k]
   owns points [10k .. 10k + 9]: a's odd multiples A, 3A, 5A, 7A, then
   b's, then the two accumulators.  A pending step holds up to two
   operations per ladder. *)
type chunk_state = {
  bx : Modring.Flat.t; (* point x-coordinates *)
  by : Modring.Flat.t; (* point y-coordinates *)
  pre : Modring.Flat.t; (* Montgomery's-trick prefix products, one per op *)
  tmp : Modring.Flat.t; (* field temporaries, the [t_*] slots *)
  odst : int array; (* per op: destination point *)
  op1 : int array; (* first operand *)
  op2 : int array; (* second operand, or -1 for a doubling of [op1] *)
  oneg : Bytes.t; (* '\001' where the second operand enters negated *)
  started : Bytes.t; (* per accumulator: '\001' once it left infinity *)
  digits : Bytes.t;
      (* wNAF-4 digit + 8, a nibble each: rows 2k (e) and 2k + 1 (f) *)
  dlen : int; (* digit slots per row *)
  dtmp : int array; (* one recoding *)
}

type curve = {
  prm : params;
  fp : Modring.ctx;
  ca : Modring.elt;
  cb : Modring.elt;
  a_is_minus3 : bool;
  ops : Ppgr_exec.Meter.t; (* point additions/doublings performed *)
  invs : Ppgr_exec.Meter.t; (* field inversions (normalization cost) *)
  fallbacks : Ppgr_exec.Meter.t;
      (* batch chunks recomputed by the per-element Jacobian ladders *)
  scratch : Modring.elt array Ppgr_exec.Slot_local.t;
      (* 13 per-domain field temporaries for the Jacobian formulas: the
         add/double hot paths run entirely in these via the Modring
         [_into] ops and only allocate the three limb arrays of the
         returned point.  Curves are shared across pool workers, hence
         domain-local. *)
  pscratch : pscratch Ppgr_exec.Slot_local.t;
}

(* Ladders per batch chunk, and the smallest batch worth running in
   lockstep: on ECC-160 a strip-and-blind took about 520 us per element
   against 530 us per ladder pair in a 32-ladder batch and 480 us in a
   48-ladder one (DESIGN.md §5h). *)
let batch_chunk = 128
let batch_crossover = 40

(* Temporaries of a batched step, slots of [chunk_state.tmp]. *)
let t_inv = 0 (* running inverse of the remaining prefix *)
let t_iv = 1 (* this operation's inverse denominator *)
let t_den = 2
let t_num = 3
let t_lam = 4
let t_x3 = 5
let t_a = 6 (* the curve's a *)
let t_zero = 7
let n_tmp = 8

let make_curve prm =
  let fp = Modring.ctx ~modulus:prm.p in
  let ca = Modring.enter fp prm.a in
  let digit_slots = Bigint.numbits prm.n + 8 in
  let fresh_point () =
    { x = Modring.alloc fp; y = Modring.alloc fp; z = Modring.alloc fp }
  in
  let meters = Ppgr_exec.Meter.create_group 3 in
  {
    prm;
    fp;
    ca;
    cb = Modring.enter fp prm.b;
    a_is_minus3 = Bigint.equal (Bigint.erem prm.a prm.p) (Bigint.sub prm.p (Bigint.of_int 3));
    ops = meters.(0);
    invs = meters.(1);
    fallbacks = meters.(2);
    scratch = Ppgr_exec.Slot_local.make (fun () -> Array.init 13 (fun _ -> Modring.alloc fp));
    pscratch =
      Ppgr_exec.Slot_local.make (fun () ->
          {
            pacc = fresh_point ();
            ptmp = fresh_point ();
            podd = Array.init 4 (fun _ -> fresh_point ());
            podd2 = Array.init 4 (fun _ -> fresh_point ());
            pdg = Array.make digit_slots 0;
            pdg2 = Array.make digit_slots 0;
          });
  }

let infinity cv = { x = Modring.one cv.fp; y = Modring.one cv.fp; z = Modring.zero cv.fp }
let is_infinity cv pt = Modring.is_zero cv.fp pt.z

let of_affine cv ax ay =
  { x = Modring.enter cv.fp ax; y = Modring.enter cv.fp ay; z = Modring.one cv.fp }

let base_point cv = of_affine cv cv.prm.gx cv.prm.gy

let to_affine cv pt =
  if is_infinity cv pt then None
  else begin
    Ppgr_exec.Meter.incr cv.invs;
    let zi = Modring.inv cv.fp pt.z in
    let zi2 = Modring.sqr cv.fp zi in
    let zi3 = Modring.mul cv.fp zi2 zi in
    Some
      ( Modring.leave cv.fp (Modring.mul cv.fp pt.x zi2),
        Modring.leave cv.fp (Modring.mul cv.fp pt.y zi3) )
  end

(** Normalize a whole batch with Montgomery's shared-inversion trick:
    one field inversion for the entire array (infinity points skipped),
    plus 3 multiplications per point for the prefix/suffix walk on top
    of [to_affine]'s own 3 — field inversions cost tens of
    multiplications, so a [k]-point batch replaces [k] inversions with
    one.  Element [i] of the result is [to_affine cv pts.(i)]. *)
let to_affine_batch cv pts =
  let f = cv.fp in
  let n = Array.length pts in
  let pos = Array.make (Stdlib.max n 1) 0 in
  let zs = Array.make (Stdlib.max n 1) (Modring.one f) in
  let m = ref 0 in
  for i = 0 to n - 1 do
    if not (is_infinity cv pts.(i)) then begin
      pos.(!m) <- i;
      zs.(!m) <- pts.(i).z;
      incr m
    end
  done;
  let m = !m in
  let out = Array.make n None in
  if m > 0 then begin
    (* prefix.(k) = zs.(0) * ... * zs.(k) *)
    let prefix = Array.make m zs.(0) in
    for k = 1 to m - 1 do
      prefix.(k) <- Modring.mul f prefix.(k - 1) zs.(k)
    done;
    Ppgr_exec.Meter.incr cv.invs;
    (* acc = inverse of zs.(0) * ... * zs.(k) during the back walk; the
       per-point work runs in four reused temporaries. *)
    let acc = Modring.inv f prefix.(m - 1) in
    let zi = Modring.alloc f and zi2 = Modring.alloc f and zi3 = Modring.alloc f in
    for k = m - 1 downto 0 do
      if k = 0 then Modring.copy_into f zi acc
      else Modring.mul_into f zi acc prefix.(k - 1);
      Modring.mul_into f acc acc zs.(k);
      let i = pos.(k) in
      Modring.sqr_into f zi2 zi;
      Modring.mul_into f zi3 zi2 zi;
      Modring.mul_into f zi2 pts.(i).x zi2;
      Modring.mul_into f zi3 pts.(i).y zi3;
      out.(i) <- Some (Modring.leave f zi2, Modring.leave f zi3)
    done
  end;
  out

(** The curve equation [y^2 = (x^2 + a)x + b] on affine coordinates in
    the Montgomery domain, as {!of_affine} leaves them: no inversion,
    unlike {!on_curve} on a Jacobian point. *)
let affine_on_curve cv x y =
  let f = cv.fp in
  Modring.equal f (Modring.sqr f y)
    (Modring.add f (Modring.mul f (Modring.add f (Modring.sqr f x) cv.ca) x) cv.cb)

let on_curve cv pt =
  if is_infinity cv pt then true
  else begin
    match to_affine cv pt with
    | None -> true
    | Some (ax, ay) ->
        let open Bigint in
        let x = erem ax cv.prm.p and y = erem ay cv.prm.p in
        let lhs = erem (mul y y) cv.prm.p in
        let rhs = erem (add (add (mul (mul x x) x) (mul cv.prm.a x)) cv.prm.b) cv.prm.p in
        equal lhs rhs
  end

(* In-place point ops: write the result into caller storage ([dst] may
   alias any point operand).  Aliasing discipline (DESIGN.md §5h): every
   read of an operand coordinate completes before the same [dst]
   coordinate is written — the Z3 value, which needs the operand Z
   coordinates last, is staged in a scratch slot and copied out after
   the X3/Y3 writes. *)

let point_alloc cv =
  { x = Modring.alloc cv.fp; y = Modring.alloc cv.fp; z = Modring.alloc cv.fp }

let copy_point_into cv dst src =
  Modring.copy_into cv.fp dst.x src.x;
  Modring.copy_into cv.fp dst.y src.y;
  Modring.copy_into cv.fp dst.z src.z

(* Same representation as [infinity]: (1, 1, 0). *)
let set_infinity_into cv dst =
  Modring.one_into cv.fp dst.x;
  Modring.one_into cv.fp dst.y;
  Modring.zero_into cv.fp dst.z

let neg_into cv dst pt =
  Modring.copy_into cv.fp dst.x pt.x;
  if is_infinity cv pt then Modring.copy_into cv.fp dst.y pt.y
  else Modring.neg_into cv.fp dst.y pt.y;
  Modring.copy_into cv.fp dst.z pt.z

(* Point doubling ("dbl-2004-hmv" / standard Jacobian formulas, with the
   a = -3 shortcut M = 3(X-Z^2)(X+Z^2)).  All intermediates live in the
   per-domain scratch. *)
let double_into cv dst pt =
  if is_infinity cv pt || Modring.is_zero cv.fp pt.y then set_infinity_into cv dst
  else begin
    Ppgr_exec.Meter.incr cv.ops;
    let f = cv.fp in
    let sc = Ppgr_exec.Slot_local.get cv.scratch in
    let yy = sc.(0) and yyyy = sc.(1) and zz = sc.(2) and s = sc.(3) in
    let m = sc.(4) and ta = sc.(5) and tb = sc.(6) and td = sc.(7) and zt = sc.(8) in
    Modring.sqr_into f yy pt.y;
    Modring.sqr_into f yyyy yy;
    Modring.sqr_into f zz pt.z;
    (* S = 4 X YY *)
    Modring.mul_into f s pt.x yy;
    Modring.double_into f s s;
    Modring.double_into f s s;
    if cv.a_is_minus3 then begin
      Modring.sub_into f ta pt.x zz;
      Modring.add_into f tb pt.x zz;
      Modring.mul_into f m ta tb;
      (* M = 3 (X-ZZ)(X+ZZ) *)
      Modring.double_into f ta m;
      Modring.add_into f m ta m
    end
    else begin
      Modring.sqr_into f ta pt.x;
      Modring.double_into f tb ta;
      Modring.add_into f ta tb ta;
      (* ta = 3 XX; tb = a * ZZ^2 *)
      Modring.sqr_into f tb zz;
      Modring.mul_into f tb cv.ca tb;
      Modring.add_into f m ta tb
    end;
    (* Z3 = 2 Y Z, staged before any dst write (dst may alias pt). *)
    Modring.double_into f zt pt.y;
    Modring.mul_into f zt zt pt.z;
    (* X3 = M^2 - 2S *)
    Modring.sqr_into f dst.x m;
    Modring.double_into f td s;
    Modring.sub_into f dst.x dst.x td;
    (* Y3 = M (S - X3) - 8 YYYY *)
    Modring.sub_into f td s dst.x;
    Modring.mul_into f dst.y m td;
    Modring.double_into f yyyy yyyy;
    Modring.double_into f yyyy yyyy;
    Modring.double_into f yyyy yyyy;
    Modring.sub_into f dst.y dst.y yyyy;
    Modring.copy_into f dst.z zt
  end

(* General Jacobian addition ("add-2007-bl" style), scratch-resident like
   [double_into].  The doubling fallback may clobber the same scratch
   slots; that is fine because slots 0-6 are dead by then. *)
let add_into cv dst p1 p2 =
  if is_infinity cv p1 then copy_point_into cv dst p2
  else if is_infinity cv p2 then copy_point_into cv dst p1
  else begin
    let f = cv.fp in
    let sc = Ppgr_exec.Slot_local.get cv.scratch in
    let z1z1 = sc.(0) and z2z2 = sc.(1) and u1 = sc.(2) and u2 = sc.(3) in
    let s1 = sc.(4) and s2 = sc.(5) and t = sc.(6) in
    Modring.sqr_into f z1z1 p1.z;
    Modring.sqr_into f z2z2 p2.z;
    Modring.mul_into f u1 p1.x z2z2;
    Modring.mul_into f u2 p2.x z1z1;
    Modring.mul_into f t p2.z z2z2;
    Modring.mul_into f s1 p1.y t;
    Modring.mul_into f t p1.z z1z1;
    Modring.mul_into f s2 p2.y t;
    if Modring.equal f u1 u2 then begin
      if Modring.equal f s1 s2 then double_into cv dst p1 else set_infinity_into cv dst
    end
    else begin
      Ppgr_exec.Meter.incr cv.ops;
      let h = sc.(7) and i = sc.(8) and r = sc.(9) and v = sc.(10) and j = sc.(11) in
      let zt = sc.(12) in
      Modring.sub_into f h u2 u1;
      (* I = (2H)^2, J = H I *)
      Modring.double_into f i h;
      Modring.sqr_into f i i;
      Modring.mul_into f j h i;
      (* R = 2 (S2 - S1), V = U1 I *)
      Modring.sub_into f r s2 s1;
      Modring.double_into f r r;
      Modring.mul_into f v u1 i;
      (* Z3 = ((Z1 + Z2)^2 - Z1Z1 - Z2Z2) H, staged before dst writes. *)
      Modring.add_into f t p1.z p2.z;
      Modring.sqr_into f t t;
      Modring.sub_into f t t z1z1;
      Modring.sub_into f t t z2z2;
      Modring.mul_into f zt t h;
      (* X3 = R^2 - J - 2V *)
      Modring.sqr_into f dst.x r;
      Modring.sub_into f dst.x dst.x j;
      Modring.double_into f t v;
      Modring.sub_into f dst.x dst.x t;
      (* Y3 = R (V - X3) - 2 S1 J *)
      Modring.sub_into f t v dst.x;
      Modring.mul_into f dst.y r t;
      Modring.mul_into f t s1 j;
      Modring.double_into f t t;
      Modring.sub_into f dst.y dst.y t;
      Modring.copy_into f dst.z zt
    end
  end

(* Mixed addition ("madd-2007-bl"): P2 is affine (Z2 = 1), so U1 = X1,
   S1 = Y1 and three of the general formula's multiplications drop out
   (Z3 = 2 Z1 H).  Used by the table-backed ladder, whose entries are
   batch-normalized to z = 1; callers must check [Modring.is_one] on
   p2.z and fall back to {!add_into} otherwise.  Tick parity with
   {!add_into} in every branch — only field-multiplication counts
   change, which no transcript pins. *)
let mixed_add_into cv dst p1 p2 =
  if is_infinity cv p1 then copy_point_into cv dst p2
  else if is_infinity cv p2 then copy_point_into cv dst p1
  else begin
    let f = cv.fp in
    let sc = Ppgr_exec.Slot_local.get cv.scratch in
    let z1z1 = sc.(0) and u2 = sc.(1) and s2 = sc.(2) and t = sc.(6) in
    Modring.sqr_into f z1z1 p1.z;
    Modring.mul_into f u2 p2.x z1z1;
    Modring.mul_into f t p1.z z1z1;
    Modring.mul_into f s2 p2.y t;
    if Modring.equal f p1.x u2 then begin
      if Modring.equal f p1.y s2 then double_into cv dst p1 else set_infinity_into cv dst
    end
    else begin
      Ppgr_exec.Meter.incr cv.ops;
      let h = sc.(7) and i = sc.(8) and r = sc.(9) and v = sc.(10) and j = sc.(11) in
      let zt = sc.(12) in
      Modring.sub_into f h u2 p1.x;
      (* I = (2H)^2, J = H I *)
      Modring.double_into f i h;
      Modring.sqr_into f i i;
      Modring.mul_into f j h i;
      (* R = 2 (S2 - Y1), V = X1 I *)
      Modring.sub_into f r s2 p1.y;
      Modring.double_into f r r;
      Modring.mul_into f v p1.x i;
      (* 2 Y1 J (Y3's subtrahend) and Z3 = 2 Z1 H, staged while the
         operand coordinates are still readable. *)
      Modring.mul_into f s2 p1.y j;
      Modring.double_into f s2 s2;
      Modring.double_into f t p1.z;
      Modring.mul_into f zt t h;
      (* X3 = R^2 - J - 2V *)
      Modring.sqr_into f dst.x r;
      Modring.sub_into f dst.x dst.x j;
      Modring.double_into f t v;
      Modring.sub_into f dst.x dst.x t;
      (* Y3 = R (V - X3) - 2 Y1 J *)
      Modring.sub_into f t v dst.x;
      Modring.mul_into f dst.y r t;
      Modring.sub_into f dst.y dst.y s2;
      Modring.copy_into f dst.z zt
    end
  end

(* Allocating forms, for table construction and one-shot callers: a
   fresh point written by the corresponding [_into] op. *)

let neg cv pt =
  let r = point_alloc cv in
  neg_into cv r pt;
  r

let double cv pt =
  let r = point_alloc cv in
  double_into cv r pt;
  r

let add cv p1 p2 =
  let r = point_alloc cv in
  add_into cv r p1 p2;
  r

(* Build the odd multiples P, 3P, 5P, 7P into [tbl] (1 doubling + 3
   additions, the same ticks as the old per-call build); [s.ptmp] holds
   2P and is free again afterwards. *)
let fill_odd_points cv s (tbl : point array) pt =
  double_into cv s.ptmp pt;
  copy_point_into cv tbl.(0) pt;
  for i = 1 to 3 do
    add_into cv tbl.(i) tbl.(i - 1) s.ptmp
  done

(* Add the odd multiple for wNAF digit [d] (non-zero) into the
   accumulator; negative digits negate through [s.ptmp] (free outside
   table builds), since point negation costs no group op. *)
let mix_digit_point cv s (tbl : point array) d =
  if d > 0 then add_into cv s.pacc s.pacc tbl.(d / 2)
  else begin
    neg_into cv s.ptmp tbl.(-d / 2);
    add_into cv s.pacc s.pacc s.ptmp
  end

let escape_point cv s =
  let r = point_alloc cv in
  copy_point_into cv r s.pacc;
  r

let scalar_mul cv pt e =
  let e = if Bigint.in_range e cv.prm.n then e else Bigint.erem e cv.prm.n in
  if Bigint.is_zero e || is_infinity cv pt then infinity cv
  else begin
    (* wNAF-4 over the per-domain point scratch: the whole ladder runs
       in place and only the returned point allocates. *)
    let s = Ppgr_exec.Slot_local.get cv.pscratch in
    fill_odd_points cv s s.podd pt;
    let len = Group_intf.wnaf4_into e s.pdg in
    set_infinity_into cv s.pacc;
    for k = len - 1 downto 0 do
      double_into cv s.pacc s.pacc;
      let d = s.pdg.(k) in
      if d <> 0 then mix_digit_point cv s s.podd d
    done;
    escape_point cv s
  end

(** Fixed-base window table: [ptbl.(i).(d-1) = d * 2^(w*i) * P] for
    digits [d] in [1..2^w-1].  A table-backed scalar multiplication then
    needs no doublings, only one point addition per non-zero window
    digit of the scalar. *)
type powtable = { pw : int; ptbl : point array array }

let make_powtable cv ?(window = Group_intf.fixed_base_window) pt ~bits =
  let nwin = Stdlib.max 1 ((bits + window - 1) / window) in
  let size = (1 lsl window) - 1 in
  let tbl = Array.init nwin (fun _ -> Array.make size pt) in
  (* Sequential doubling spine (the 2^k multiples of every row and each
     next window's base), then per-window fill chains that only read the
     spine fan out over the domain pool.  Cost is identical to the
     sequential chain: per window (w-1) spine doublings + 1 next-base
     doubling + 2^w-1-w chain additions = 2^w-1 ops, one fewer for the
     last window. *)
  let base = ref pt in
  for i = 0 to nwin - 1 do
    let row = tbl.(i) in
    row.(0) <- !base;
    for k = 1 to window - 1 do
      row.((1 lsl k) - 1) <- double cv row.((1 lsl (k - 1)) - 1)
    done;
    (* Next window's base 2^(w*(i+1)) P = double (2^(w-1) * 2^(w*i) P). *)
    if i < nwin - 1 then base := double cv row.((1 lsl (window - 1)) - 1)
  done;
  let nchains = window - 1 in
  Ppgr_exec.Pool.parallel_for (nwin * nchains) (fun t ->
      let row = tbl.(t / nchains) in
      let k = (t mod nchains) + 1 in
      let hi = Stdlib.min ((1 lsl (k + 1)) - 2) (size - 1) in
      for d = 1 lsl k to hi do
        row.(d) <- add cv row.(d - 1) row.(0)
      done);
  (* Normalize the finished table to affine (z = 1) with ONE shared
     Montgomery inversion for all [nwin * (2^w - 1)] entries.  Same
     group elements, cheaper life: every table-backed addition starts
     from z = 1 operands and the entries serialize without any further
     inversion.  (Runs after the parallel fill, sequentially, so the
     table bytes stay independent of the job count.) *)
  let flat = Array.concat (Array.to_list tbl) in
  Array.iteri
    (fun k aff ->
      match aff with
      | None -> ()
      | Some (ax, ay) -> tbl.(k / size).(k mod size) <- of_affine cv ax ay)
    (to_affine_batch cv flat);
  { pw = window; ptbl = tbl }

let scalar_mul_table cv t e =
  let e = if Bigint.in_range e cv.prm.n then e else Bigint.erem e cv.prm.n in
  if Bigint.is_zero e then infinity cv
  else begin
    (* Window digits read straight off the exponent bits; entries are
       batch-normalized to z = 1 at build time, so almost every addition
       takes the cheaper mixed path (the [is_one] probe keeps a general
       fallback for unnormalized tables). *)
    let nb = Bigint.numbits e in
    let nd = Stdlib.max 1 ((nb + t.pw - 1) / t.pw) in
    if nd > Array.length t.ptbl then
      invalid_arg "Ec_curve.scalar_mul_table: exponent wider than table";
    let s = Ppgr_exec.Slot_local.get cv.pscratch in
    let started = ref false in
    for i = 0 to nd - 1 do
      let d = ref 0 in
      for k = t.pw - 1 downto 0 do
        d := (!d lsl 1) lor if Bigint.testbit e ((i * t.pw) + k) then 1 else 0
      done;
      if !d > 0 then begin
        let entry = t.ptbl.(i).(!d - 1) in
        if not !started then begin
          (* First term: the old ladder's add (infinity, entry), which
             copies without ticking. *)
          copy_point_into cv s.pacc entry;
          started := true
        end
        else if Modring.is_one cv.fp entry.z then mixed_add_into cv s.pacc s.pacc entry
        else add_into cv s.pacc s.pacc entry
      end
    done;
    if !started then escape_point cv s else infinity cv
  end

(** Shamir's trick [e*P + f*Q]: aligned wNAF-4 recodings of both scalars
    share one doubling chain; negative digits cost nothing extra because
    point negation is free. *)
let scalar_mul2 cv p e q f =
  let e = if Bigint.in_range e cv.prm.n then e else Bigint.erem e cv.prm.n
  and f = if Bigint.in_range f cv.prm.n then f else Bigint.erem f cv.prm.n in
  if Bigint.is_zero e || is_infinity cv p then scalar_mul cv q f
  else if Bigint.is_zero f || is_infinity cv q then scalar_mul cv p e
  else begin
    let s = Ppgr_exec.Slot_local.get cv.pscratch in
    fill_odd_points cv s s.podd p;
    fill_odd_points cv s s.podd2 q;
    let len = Group_intf.wnaf4_pair_into e f s.pdg s.pdg2 in
    set_infinity_into cv s.pacc;
    for k = len - 1 downto 0 do
      double_into cv s.pacc s.pacc;
      let da = s.pdg.(k) in
      if da <> 0 then mix_digit_point cv s s.podd da;
      let db = s.pdg2.(k) in
      if db <> 0 then mix_digit_point cv s s.podd2 db
    done;
    escape_point cv s
  end

(* ---- Batched affine ladders (DESIGN.md §5h) ----

   [pow2_pow_batch] runs one chunk of independent ladders in lockstep on
   affine points.  An affine addition or doubling divides once; a step
   applies one operation to many points and shares a single inversion
   among all of them (Montgomery's trick), which leaves 6 field
   multiplications per addition and 7 per doubling where the Jacobian
   formulas spend 16 and 8.  Any zero denominator (an operand at
   infinity, equal x-coordinates) abandons the chunk, which the
   Jacobian ladders then recompute. *)

(* The denominator of operation [i] into [t_den]: 2y or x2 - x1.  (A
   top-level function: a local closure would allocate on every step.) *)
let batch_den cv s i =
  let p1 = Array.unsafe_get s.op1 i and p2 = Array.unsafe_get s.op2 i in
  if p2 < 0 then Modring.Flat.add cv.fp s.tmp t_den s.by p1 s.by p1
  else Modring.Flat.sub cv.fp s.tmp t_den s.bx p2 s.bx p1

(* A chunk's state for [m] ladders, allocated per chunk: kept between
   calls it would stay live for good, and in a session that raised the
   peak heap more than the chunks' garbage does. *)
let batch_state cv m =
  let module F = Modring.Flat in
  let fp = cv.fp and nb = Bigint.numbits cv.prm.n in
  let tmp = F.create fp n_tmp in
  F.set fp tmp t_a cv.ca;
  let dlen = nb + 2 in
  {
    bx = F.create fp (10 * m);
    by = F.create fp (10 * m);
    pre = F.create fp (2 * m);
    tmp;
    odst = Array.make (2 * m) 0;
    op1 = Array.make (2 * m) 0;
    op2 = Array.make (2 * m) 0;
    oneg = Bytes.make (2 * m) '\000';
    started = Bytes.make (2 * m) '\000';
    digits = Bytes.make (2 * m * ((dlen + 1) / 2)) '\000';
    dlen;
    dtmp = Array.make (nb + 8) 0;
  }

(* Apply the [np] pending operations of [s] with one shared inversion:
   operation [i] writes to point [odst.(i)] the sum of points [op1.(i)]
   and [op2.(i)] ([op2] negated where [oneg] is set), or the double of
   [op1.(i)] where [op2.(i) < 0].  A destination is no other operation's
   operand.  False, having written no point, if a denominator is
   zero. *)
let batch_step cv s np =
  let module F = Modring.Flat in
  let f = cv.fp and bx = s.bx and by = s.by and pre = s.pre and tmp = s.tmp in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < np do
    batch_den cv s !i;
    if F.is_zero f tmp t_den then ok := false
    else if !i = 0 then F.copy f pre 0 tmp t_den
    else F.mul f pre !i pre (!i - 1) tmp t_den;
    incr i
  done;
  if !ok && np > 0 then begin
    Ppgr_exec.Meter.incr cv.invs;
    F.inv f tmp t_inv pre (np - 1);
    for i = np - 1 downto 0 do
      batch_den cv s i;
      if i > 0 then begin
        F.mul f tmp t_iv tmp t_inv pre (i - 1);
        F.mul f tmp t_inv tmp t_inv tmp t_den
      end
      else F.copy f tmp t_iv tmp t_inv;
      let d = Array.unsafe_get s.odst i
      and p1 = Array.unsafe_get s.op1 i
      and p2 = Array.unsafe_get s.op2 i in
      let neg = Bytes.unsafe_get s.oneg i <> '\000' in
      (* lambda = num / den; for a negated second operand num = y2 + y1
         is minus the true numerator, so lambda^2 holds and y3 takes
         x3 - x1 in place of x1 - x3. *)
      if p2 < 0 then begin
        F.sqr f tmp t_num bx p1;
        F.add f tmp t_lam tmp t_num tmp t_num;
        F.add f tmp t_num tmp t_lam tmp t_num;
        F.add f tmp t_num tmp t_num tmp t_a
      end
      else if neg then F.add f tmp t_num by p2 by p1
      else F.sub f tmp t_num by p2 by p1;
      F.mul f tmp t_lam tmp t_num tmp t_iv;
      (* x3 = lambda^2 - x1 - x2 (x2 = x1 for a doubling) *)
      F.sqr f tmp t_x3 tmp t_lam;
      F.sub f tmp t_x3 tmp t_x3 bx p1;
      F.sub f tmp t_x3 tmp t_x3 bx (if p2 < 0 then p1 else p2);
      (* y3 = lambda (x1 - x3) - y1 *)
      if neg then F.sub f tmp t_num tmp t_x3 bx p1 else F.sub f tmp t_num bx p1 tmp t_x3;
      F.mul f tmp t_num tmp t_lam tmp t_num;
      F.sub f by d tmp t_num by p1;
      F.copy f bx d tmp t_x3
    done
  end;
  !ok

(* Queue operation [np]: [d] := [p1] + (±)[p2], or 2 [p1] for [p2 = -1]. *)
let batch_push s np d p1 p2 neg =
  Array.unsafe_set s.odst np d;
  Array.unsafe_set s.op1 np p1;
  Array.unsafe_set s.op2 np p2;
  Bytes.unsafe_set s.oneg np (if neg then '\001' else '\000')

(* Ladder [k]'s points: table [0] (a) or [1] (b) entries, accumulators
   [0] (a^e b^f) and [1] (b^e). *)
let tbl_pt k t = (10 * k) + (4 * t)
let acc_pt k r = (10 * k) + 8 + r

(* Mix ladder digit [d] from table [tbl] into accumulator [r] of ladder
   [k]: queue the addition of entry [|d|/2] (negated for d < 0), or,
   while the accumulator is still at infinity, copy the entry in without
   a tick, as the Jacobian ladder's first addition does.  Returns the
   new queue length. *)
let batch_digit cv s np k r tbl d =
  if d = 0 then np
  else begin
    let src = tbl_pt k tbl + (abs d / 2) and acc = acc_pt k r and slot = (2 * k) + r in
    if Bytes.unsafe_get s.started slot <> '\000' then begin
      batch_push s np acc acc src (d < 0);
      np + 1
    end
    else begin
      let module F = Modring.Flat in
      Bytes.unsafe_set s.started slot '\001';
      F.copy cv.fp s.bx acc s.bx src;
      if d < 0 then F.sub cv.fp s.by acc s.tmp t_zero s.by src
      else F.copy cv.fp s.by acc s.by src;
      np
    end
  end

let digit s row j =
  let b = Char.code (Bytes.unsafe_get s.digits ((row * ((s.dlen + 1) / 2)) + (j lsr 1))) in
  ((if j land 1 = 0 then b else b lsr 4) land 15) - 8

(* One chunk: ladders [lo, lo + m), their results written over [a] and
   [b], or false (nothing written) if the chunk must fall back.  Ticks
   [ops] only on success, exactly as the Jacobian [scalar_mul2]/
   [scalar_mul] pair would minus b's shared table; every inversion it
   performed is ticked. *)
let batch_chunk_run cv s (a : point array) e (b : point array) f lo m =
  let module F = Modring.Flat in
  let fp = cv.fp in
  let n = cv.prm.n in
  let red x = if Bigint.in_range x n then x else Bigint.erem x n in
  let ok = ref true and np = ref 0 and len = ref 0 in
  (* Base [pt] into its table entry 0, its z parked in the accumulator's
     x slot when it is not 1. *)
  let load pt base z =
    F.set fp s.bx base pt.x;
    F.set fp s.by base pt.y;
    if not (Modring.is_one fp pt.z) then begin
      F.set fp s.bx z pt.z;
      batch_push s !np base z 0 false;
      incr np
    end
  in
  let recode row x =
    let l = Group_intf.wnaf4_into x s.dtmp in
    let bytes = (s.dlen + 1) / 2 in
    for i = 0 to bytes - 1 do
      let lo = if 2 * i < l then s.dtmp.(2 * i) + 8 else 8
      and hi = if (2 * i) + 1 < l then s.dtmp.((2 * i) + 1) + 8 else 8 in
      Bytes.unsafe_set s.digits ((row * bytes) + i) (Char.unsafe_chr (lo lor (hi lsl 4)))
    done;
    if l > !len then len := l
  in
  (* A zero exponent or a base at infinity meets infinity: fall back. *)
  let k = ref 0 in
  while !ok && !k < m do
    let i = lo + !k in
    let ek = red e.(i) and fk = red f.(i) in
    if Bigint.is_zero ek || Bigint.is_zero fk || is_infinity cv a.(i) || is_infinity cv b.(i)
    then ok := false
    else begin
      load a.(i) (tbl_pt !k 0) (acc_pt !k 0);
      load b.(i) (tbl_pt !k 1) (acc_pt !k 1);
      recode (2 * !k) ek;
      recode ((2 * !k) + 1) fk
    end;
    incr k
  done;
  (* Jacobian inputs: x/z^2, y/z^3 with one shared inversion of the z. *)
  if !ok && !np > 0 then begin
    let pre = s.pre and tmp = s.tmp in
    let np = !np in
    for i = 0 to np - 1 do
      if i = 0 then F.copy fp pre 0 s.bx s.op1.(0)
      else F.mul fp pre i pre (i - 1) s.bx s.op1.(i)
    done;
    Ppgr_exec.Meter.incr cv.invs;
    F.inv fp tmp t_inv pre (np - 1);
    for i = np - 1 downto 0 do
      let d = s.odst.(i) and z = s.op1.(i) in
      if i > 0 then begin
        F.mul fp tmp t_iv tmp t_inv pre (i - 1);
        F.mul fp tmp t_inv tmp t_inv s.bx z
      end
      else F.copy fp tmp t_iv tmp t_inv;
      F.sqr fp tmp t_num tmp t_iv;
      F.mul fp s.bx d s.bx d tmp t_num;
      F.mul fp tmp t_num tmp t_num tmp t_iv;
      F.mul fp s.by d s.by d tmp t_num
    done
  end;
  let ticks = ref 0 in
  let step np =
    if !ok && np > 0 then
      if batch_step cv s np then ticks := !ticks + np else ok := false
  in
  (* The odd multiples: 2A and 2B into the accumulators, then
     3, 5, 7 times each, one step apiece. *)
  if !ok then begin
    for k = 0 to m - 1 do
      for r = 0 to 1 do
        batch_push s ((2 * k) + r) (acc_pt k r) (tbl_pt k r) (-1) false
      done
    done;
    step (2 * m);
    for t = 1 to 3 do
      for k = 0 to m - 1 do
        for r = 0 to 1 do
          let d = tbl_pt k r + t in
          batch_push s ((2 * k) + r) d (d - 1) (acc_pt k r) false
        done
      done;
      step (2 * m)
    done
  end;
  (* The ladders: acc1 = a^e b^f over rows e and f, acc2 = b^e over row
     e, most significant digit first. *)
  if !ok then begin
    Bytes.fill s.started 0 (2 * m) '\000';
    let j = ref (!len - 1) in
    while !ok && !j >= 0 do
      let np = ref 0 in
      for k = 0 to m - 1 do
        for r = 0 to 1 do
          if Bytes.unsafe_get s.started ((2 * k) + r) <> '\000' then begin
            batch_push s !np (acc_pt k r) (acc_pt k r) (-1) false;
            incr np
          end
        done
      done;
      step !np;
      let np = ref 0 in
      for k = 0 to m - 1 do
        let d = digit s (2 * k) !j in
        np := batch_digit cv s !np k 0 0 d;
        np := batch_digit cv s !np k 1 1 d
      done;
      step !np;
      let np = ref 0 in
      for k = 0 to m - 1 do
        np := batch_digit cv s !np k 0 1 (digit s ((2 * k) + 1) !j)
      done;
      step !np;
      decr j
    done
  end;
  if !ok then begin
    Ppgr_exec.Meter.add cv.ops !ticks;
    let out acc = { x = F.get fp s.bx acc; y = F.get fp s.by acc; z = Modring.one fp } in
    for k = 0 to m - 1 do
      a.(lo + k) <- out (acc_pt k 0);
      b.(lo + k) <- out (acc_pt k 1)
    done
  end;
  !ok

(** [pow2_pow_batch cv a e b f] replaces, for every [k], [a.(k)] by
    [scalar_mul2 cv a.(k) e.(k) b.(k) f.(k)] and [b.(k)] by
    [scalar_mul cv b.(k) e.(k)]: the two exponentiations of a
    strip-and-blind decryption.  Batches below [batch_crossover] run
    those per element over the domain pool.  Larger ones split into
    equal chunks of at most [batch_chunk] ladders (boundaries depend on
    the length alone) that fan out over the pool, each run as lockstep
    affine ladders sharing b's odd multiples between its two outputs; a
    chunk that meets infinity or equal x-coordinates is recomputed per
    element.  Same elements either way, with z = 1 from the affine
    path; [ops] ticks the Jacobian ladders' count less 4 per shared
    table, [invs] one per lockstep step. *)
let pow2_pow_batch cv (a : point array) e (b : point array) f =
  let k = Array.length a in
  if Array.length e <> k || Array.length b <> k || Array.length f <> k then
    invalid_arg "Ec_curve.pow2_pow_batch: lengths differ";
  if k > 0 && a == b then invalid_arg "Ec_curve.pow2_pow_batch: a and b are one array";
  let each i =
    let x = scalar_mul2 cv a.(i) e.(i) b.(i) f.(i) and y = scalar_mul cv b.(i) e.(i) in
    a.(i) <- x;
    b.(i) <- y
  in
  if k < batch_crossover then Ppgr_exec.Pool.parallel_for k each
  else begin
    let chunks = (k + batch_chunk - 1) / batch_chunk in
    Ppgr_exec.Pool.parallel_for chunks (fun c ->
        let lo = c * k / chunks and hi = (c + 1) * k / chunks in
        if not (batch_chunk_run cv (batch_state cv (hi - lo)) a e b f lo (hi - lo)) then begin
          Ppgr_exec.Meter.incr cv.fallbacks;
          for i = lo to hi - 1 do
            each i
          done
        end)
  end

(* Equality in Jacobian coordinates: cross-multiplied comparison to avoid
   inversion. *)
let equal cv p1 p2 =
  match (is_infinity cv p1, is_infinity cv p2) with
  | true, true -> true
  | true, false | false, true -> false
  | false, false ->
      let f = cv.fp in
      let sc = Ppgr_exec.Slot_local.get cv.scratch in
      let z1z1 = sc.(0) and z2z2 = sc.(1) and a = sc.(2) and b = sc.(3) and t = sc.(4) in
      Modring.sqr_into f z1z1 p1.z;
      Modring.sqr_into f z2z2 p2.z;
      Modring.mul_into f a p1.x z2z2;
      Modring.mul_into f b p2.x z1z1;
      Modring.equal f a b
      &&
      (Modring.mul_into f t p2.z z2z2;
       Modring.mul_into f a p1.y t;
       Modring.mul_into f t p1.z z1z1;
       Modring.mul_into f b p2.y t;
       Modring.equal f a b)
