(** The "DL" group family: quadratic residues modulo a safe prime.

    For a safe prime [p = 2q + 1] the quadratic residues form the unique
    subgroup of prime order [q]; DDH is believed hard there (§IV-B of the
    paper).  Elements are kept in Montgomery form so a group
    multiplication is a single Montgomery multiplication. *)

open Ppgr_bigint
open Ppgr_rng

module type PARAMS = sig
  val name : string
  val security_bits : int

  val p : Bigint.t
  (** Safe prime with [p = 7 (mod 8)] (so that 2 is a residue). *)

  val g : Bigint.t
  (** Generator of the order-[q] subgroup of residues. *)
end

module Make (P : PARAMS) : Group_intf.GROUP = struct
  let name = P.name
  let security_bits = P.security_bits

  type element = Bigint.Modring.elt

  let ring = Bigint.Modring.ctx ~modulus:P.p
  let order = Bigint.shift_right (Bigint.pred P.p) 1
  let identity = Bigint.Modring.one ring
  let generator = Bigint.Modring.enter ring P.g

  (* A mergeable per-domain meter: ticks arrive from pool workers during
     parallel hot loops and the summed read equals the sequential
     count. *)
  let ops = Ppgr_exec.Meter.create ()
  let op_count () = Ppgr_exec.Meter.read ops
  let reset_op_count () = Ppgr_exec.Meter.reset ops
  let op_snapshot () = Ppgr_exec.Meter.snapshot ops
  let ops_since s = Ppgr_exec.Meter.since ops s

  let mul a b =
    Ppgr_exec.Meter.incr ops;
    Bigint.Modring.mul ring a b

  let equal a b = Bigint.Modring.equal ring a b
  let is_identity x = equal x identity

  let inv x =
    (* Via the group structure: x^(q-1); counted through [mul]. *)
    Ppgr_exec.Meter.incr ops;
    Bigint.Modring.inv ring x

  let sqr x =
    Ppgr_exec.Meter.incr ops;
    Bigint.Modring.sqr ring x

  (* Per-domain exponentiation scratch (DESIGN.md §5h): the wNAF odd-
     powers tables, their lazily-filled inverse caches, the accumulator
     and the recoding digit buffers all live here, so a steady-state
     [pow]/[pow2]/[pow_table] allocates nothing but its escaping result.
     Two table slots because [pow2] runs two bases down one shared
     squaring chain.  The digit buffers take one slot per exponent bit
     plus slack for the recoding's possible carry digit. *)
  type scratch = {
    acc : element;
    x2 : element;
    odd : element array; (* x^1, x^3, x^5, x^7 *)
    oddinv : element array;
    mutable inv_mask : int; (* bit i set = oddinv.(i) is valid *)
    odd2 : element array;
    oddinv2 : element array;
    mutable inv_mask2 : int;
    dg : int array;
    dg2 : int array;
  }

  let digit_slots = Bigint.numbits order + 8

  let scratch : scratch Ppgr_exec.Slot_local.t =
    Ppgr_exec.Slot_local.make (fun () ->
        let elts n = Array.init n (fun _ -> Bigint.Modring.alloc ring) in
        {
          acc = Bigint.Modring.alloc ring;
          x2 = Bigint.Modring.alloc ring;
          odd = elts 4;
          oddinv = elts 4;
          inv_mask = 0;
          odd2 = elts 4;
          oddinv2 = elts 4;
          inv_mask2 = 0;
          dg = Array.make digit_slots 0;
          dg2 = Array.make digit_slots 0;
        })

  (* Build the odd-powers table x^1,x^3,x^5,x^7 into [tbl], using [s.x2]
     as the x^2 temporary.  Tick parity with the old per-call table:
     1 squaring + 3 multiplications. *)
  let fill_odd s (tbl : element array) x =
    Ppgr_exec.Meter.incr ops;
    Bigint.Modring.sqr_into ring s.x2 x;
    Bigint.Modring.copy_into ring tbl.(0) x;
    for i = 1 to 3 do
      Ppgr_exec.Meter.incr ops;
      Bigint.Modring.mul_into ring tbl.(i) tbl.(i - 1) s.x2
    done

  (* Multiply the table entry for wNAF digit [d] (non-zero) into the
     accumulator, inverting lazily into the cache slot on first negative
     use — at most 4 inversions per exponentiation, each ticking the
     meter once, exactly like the old [inv_odd] option cache. *)
  let mix_digit s (tbl : element array) (invtbl : element array) ~second d =
    if d > 0 then begin
      Ppgr_exec.Meter.incr ops;
      Bigint.Modring.mul_into ring s.acc s.acc tbl.(d / 2)
    end
    else begin
      let i = -d / 2 in
      let mask = if second then s.inv_mask2 else s.inv_mask in
      if mask land (1 lsl i) = 0 then begin
        Ppgr_exec.Meter.incr ops;
        Bigint.Modring.inv_into ring invtbl.(i) tbl.(i);
        if second then s.inv_mask2 <- mask lor (1 lsl i)
        else s.inv_mask <- mask lor (1 lsl i)
      end;
      Ppgr_exec.Meter.incr ops;
      Bigint.Modring.mul_into ring s.acc s.acc invtbl.(i)
    end

  (* Copy the scratch accumulator out as the (sole) escaping allocation. *)
  let escape s =
    let r = Bigint.Modring.alloc ring in
    Bigint.Modring.copy_into ring r s.acc;
    r

  let pow_nonneg x e =
    (* wNAF-4 with precomputed odd powers; every group multiplication
       (squarings included) ticks the op counter once — the squarings go
       through the cheaper dedicated squaring kernel. *)
    let s = Ppgr_exec.Slot_local.get scratch in
    fill_odd s s.odd x;
    s.inv_mask <- 0;
    let len = Group_intf.wnaf4_into e s.dg in
    Bigint.Modring.one_into ring s.acc;
    for k = len - 1 downto 0 do
      Ppgr_exec.Meter.incr ops;
      Bigint.Modring.sqr_into ring s.acc s.acc;
      let d = s.dg.(k) in
      if d <> 0 then mix_digit s s.odd s.oddinv ~second:false d
    done;
    escape s

  let pow x e =
    (* Canonical-exponent fast path: protocol exponents are already in
       [0, order), so the Euclidean division is usually skipped. *)
    let e = if Bigint.in_range e order then e else Bigint.erem e order in
    if Bigint.is_zero e then identity else pow_nonneg x e

  (* Fixed-base window table: tbl.(i).(d-1) = x^(d * 2^(w*i)) for
     d in 1..2^w-1.  An exponentiation then needs no squarings, only one
     multiplication per non-zero window digit. *)
  type powtable = element array array

  let table_window = Group_intf.fixed_base_window
  let table_windows = (Bigint.numbits order + table_window - 1) / table_window
  let digits_per_window = (1 lsl table_window) - 1

  let powtable x =
    let tbl = Array.init table_windows (fun _ -> Array.make digits_per_window x) in
    (* Sequential squaring spine: the doubling entries x^(2^k * 2^(w*i))
       of every row, and each next window's base, come from squarings
       alone; everything left is per-window fill chains that only read
       the spine, so they fan out over the domain pool.  The reshape
       keeps the construction at the sequential chain's exact cost: per
       window (w-1) spine squarings + 1 next-base squaring + 2^w-1-w
       chain multiplications = 2^w-1 ops, one fewer for the last
       window. *)
    let base = ref x in
    for i = 0 to table_windows - 1 do
      let row = tbl.(i) in
      row.(0) <- !base;
      for k = 1 to table_window - 1 do
        row.((1 lsl k) - 1) <- sqr row.((1 lsl (k - 1)) - 1)
      done;
      (* Next window's base x^(2^(w*(i+1))) = (x^(2^(w-1) * 2^(w*i)))^2. *)
      if i < table_windows - 1 then base := sqr row.((1 lsl (table_window - 1)) - 1)
    done;
    let nchains = table_window - 1 in
    Ppgr_exec.Pool.parallel_for (table_windows * nchains) (fun t ->
        let row = tbl.(t / nchains) in
        let k = (t mod nchains) + 1 in
        let hi = Stdlib.min ((1 lsl (k + 1)) - 2) (digits_per_window - 1) in
        for d = 1 lsl k to hi do
          row.(d) <- mul row.(d - 1) row.(0)
        done);
    tbl

  let pow_table tbl e =
    let e = if Bigint.in_range e order then e else Bigint.erem e order in
    if Bigint.is_zero e then identity
    else begin
      (* Window digits read straight off the exponent bits and the
         product accumulated in scratch: the old version allocated a
         digit array (one boxed bigint per nibble) plus a [Some] per
         non-zero digit.  Tick parity: one multiplication per non-zero
         digit after the first. *)
      let s = Ppgr_exec.Slot_local.get scratch in
      let nb = Bigint.numbits e in
      let n = (nb + table_window - 1) / table_window in
      let started = ref false in
      for i = 0 to n - 1 do
        let b = i * table_window in
        let d =
          (if Bigint.testbit e b then 1 else 0)
          lor (if Bigint.testbit e (b + 1) then 2 else 0)
          lor (if Bigint.testbit e (b + 2) then 4 else 0)
          lor if Bigint.testbit e (b + 3) then 8 else 0
        in
        if d > 0 then begin
          let entry = tbl.(i).(d - 1) in
          if !started then begin
            Ppgr_exec.Meter.incr ops;
            Bigint.Modring.mul_into ring s.acc s.acc entry
          end
          else begin
            Bigint.Modring.copy_into ring s.acc entry;
            started := true
          end
        end
      done;
      if !started then escape s else identity
    end

  (* Shamir's trick: one shared squaring chain over the aligned wNAF-4
     recodings of both exponents, both odd-powers tables in scratch. *)
  let pow2 a e b f =
    let e = if Bigint.in_range e order then e else Bigint.erem e order
    and f = if Bigint.in_range f order then f else Bigint.erem f order in
    if Bigint.is_zero e then pow b f
    else if Bigint.is_zero f then pow a e
    else begin
      let s = Ppgr_exec.Slot_local.get scratch in
      fill_odd s s.odd a;
      s.inv_mask <- 0;
      fill_odd s s.odd2 b;
      s.inv_mask2 <- 0;
      let len = Group_intf.wnaf4_pair_into e f s.dg s.dg2 in
      Bigint.Modring.one_into ring s.acc;
      for k = len - 1 downto 0 do
        Ppgr_exec.Meter.incr ops;
        Bigint.Modring.sqr_into ring s.acc s.acc;
        let da = s.dg.(k) in
        if da <> 0 then mix_digit s s.odd s.oddinv ~second:false da;
        let db = s.dg2.(k) in
        if db <> 0 then mix_digit s s.odd2 s.oddinv2 ~second:true db
      done;
      escape s
    end

  (* Double-checked mutex memo: [Lazy.force] is unsafe under concurrent
     forcing from pool workers (it raises [Undefined]). *)
  let gen_table = Atomic.make None
  let gen_table_lock = Mutex.create ()

  let gen_powtable () =
    match Atomic.get gen_table with
    | Some t -> t
    | None ->
        Mutex.lock gen_table_lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock gen_table_lock)
          (fun () ->
            match Atomic.get gen_table with
            | Some t -> t
            | None ->
                let t = powtable generator in
                Atomic.set gen_table (Some t);
                t)

  let pow_gen e = pow_table (gen_powtable ()) e

  let element_bytes = (Bigint.numbits P.p + 7) / 8

  let to_bytes x =
    Bigint.to_bytes_be_padded element_bytes
      (Bigint.Modring.leave ring x)

  (* Residues are affine already: batching buys nothing here, the hook
     exists for the EC family's shared-inversion normalization. *)
  let to_bytes_batch a = Array.map to_bytes a
  let probes = []

  let of_bytes b =
    if Bytes.length b <> element_bytes then None
    else begin
      let v = Bigint.of_bytes_be b in
      if Bigint.sign v <= 0 || Bigint.compare v P.p >= 0 then None
      else if Bigint.jacobi v P.p <> 1 then None
      else Some (Bigint.Modring.enter ring v)
    end

  let pp fmt x = Bigint.pp fmt (Bigint.Modring.leave ring x)

  let random_scalar rng =
    Bigint.succ (Rng.bigint_below rng (Bigint.pred order))
end

(* [pow] in this family starts from the identity and multiplies [wnaf]
   digits in; [inv] inside [pow_nonneg] is counted but occurs at most 4
   times per exponentiation (table setup), matching the paper's O(lambda)
   multiplications per exponentiation. *)

let of_safe_prime ~name ~security_bits p : Group_intf.group =
  (module Make (struct
    let name = name
    let security_bits = security_bits
    let p = p
    let g = Bigint.of_int 4

    (* 4 = 2^2 is always a quadratic residue; for a safe prime every
       non-identity residue generates the whole order-q subgroup. *)
  end))

let dl_512 () = of_safe_prime ~name:"DL-512" ~security_bits:56 Modp_params.p_512
let dl_1024 () = of_safe_prime ~name:"DL-1024" ~security_bits:80 Modp_params.p_1024
let dl_2048 () = of_safe_prime ~name:"DL-2048" ~security_bits:112 Modp_params.p_2048

let dl_3072 () = of_safe_prime ~name:"DL-3072" ~security_bits:128 Modp_params.p_3072

let dl_test_64 () = of_safe_prime ~name:"DL-test-64" ~security_bits:0 Modp_params.test_64
let dl_test_96 () = of_safe_prime ~name:"DL-test-96" ~security_bits:0 Modp_params.test_96
let dl_test_128 () = of_safe_prime ~name:"DL-test-128" ~security_bits:0 Modp_params.test_128
let dl_test_256 () = of_safe_prime ~name:"DL-test-256" ~security_bits:0 Modp_params.test_256
