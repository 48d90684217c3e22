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

type curve = {
  prm : params;
  fp : Modring.ctx;
  ca : Modring.elt;
  cb : Modring.elt;
  a_is_minus3 : bool;
  ops : Ppgr_exec.Meter.t; (* point additions/doublings performed *)
  invs : Ppgr_exec.Meter.t; (* field inversions (normalization cost) *)
  scratch : Modring.elt array Ppgr_exec.Slot_local.t;
      (* 13 per-domain field temporaries for the Jacobian formulas: the
         add/double hot paths run entirely in these via the Modring
         [_into] ops and only allocate the three limb arrays of the
         returned point.  Curves are shared across pool workers, hence
         domain-local. *)
  pscratch : pscratch Ppgr_exec.Slot_local.t;
}

let make_curve prm =
  let fp = Modring.ctx ~modulus:prm.p in
  let ca = Modring.enter fp prm.a in
  let digit_slots = Bigint.numbits prm.n + 8 in
  let fresh_point () =
    { x = Modring.alloc fp; y = Modring.alloc fp; z = Modring.alloc fp }
  in
  {
    prm;
    fp;
    ca;
    cb = Modring.enter fp prm.b;
    a_is_minus3 = Bigint.equal (Bigint.erem prm.a prm.p) (Bigint.sub prm.p (Bigint.of_int 3));
    ops = Ppgr_exec.Meter.create ();
    invs = Ppgr_exec.Meter.create ();
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
