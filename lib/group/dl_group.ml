(** The "DL" group family: quadratic residues modulo a safe prime, as
    signed quadratic residues.

    For a safe prime [p = 2q + 1] the quadratic residues form the unique
    subgroup of prime order [q]; DDH is believed hard there (§IV-B of the
    paper).  Since [p = 3 (mod 4)], [-1] is not a residue, so each pair
    [{x, p - x}] holds exactly one residue and [x -> min(x, p - x)] maps
    the residues one-to-one onto [[1, q]]: the group of signed quadratic
    residues of Hofheinz and Kiltz (CRYPTO 2009), isomorphic to the
    residues, so DDH carries over.  Arithmetic stays in [Z_p^*] on
    Montgomery residues (a group multiplication is one Montgomery
    multiplication); [x] and [p - x] are one element, the encoding is
    [min(x, p - x)], and membership of a decoded value is the range
    check [1 <= y <= q] (DESIGN.md §5a). *)

open Ppgr_bigint
open Ppgr_rng

module type PARAMS = sig
  val name : string
  val security_bits : int

  val p : Bigint.t
  (** Safe prime [p = 2q + 1], so [p = 3 (mod 4)]. *)

  val g : Bigint.t
  (** Generator of the order-[q] subgroup of residues. *)
end

(** The variable-base window width for a group of the given order: 4
    up to 256 bits, 5 above. *)
let window_width order = if Bigint.numbits order <= 256 then 4 else 5

(** Unsigned sliding-window recoding of a non-negative exponent [e] for
    window width [w]: writes digits LEAST significant first into [dst]
    and returns the digit count, one past the top non-zero digit (0 for
    [e = 0]).  Then [e = Σ dst.(k)·2^k], every non-zero digit is odd
    and below [2^w], and at least [w - 1] zero digits separate two
    non-zero ones.  [dst] must hold [Bigint.numbits e] entries, all of
    which are written.  Allocation-free: the exponent is read through
    [Bigint.testbit] only. *)
let sliding_window_into ~w (e : Bigint.t) (dst : int array) : int =
  if Bigint.sign e < 0 then invalid_arg "sliding_window_into: negative exponent";
  let nb = Bigint.numbits e in
  Array.fill dst 0 nb 0;
  let len = ref 0 in
  let i = ref 0 in
  while !i < nb do
    if Bigint.testbit e !i then begin
      (* The w bits from the set bit i up: an odd digit below 2^w. *)
      let d = ref 0 in
      for k = w - 1 downto 0 do
        d := (!d lsl 1) lor if Bigint.testbit e (!i + k) then 1 else 0
      done;
      dst.(!i) <- !d;
      len := !i + 1;
      i := !i + w
    end
    else incr i
  done;
  !len

module Make (P : PARAMS) : Group_intf.GROUP = struct
  let name = P.name
  let security_bits = P.security_bits

  type element = Bigint.Modring.elt

  let ring = Bigint.Modring.ctx ~modulus:P.p
  let order = Bigint.shift_right (Bigint.pred P.p) 1
  let identity = Bigint.Modring.one ring
  let generator = Bigint.Modring.enter ring P.g

  (* Mergeable per-domain meters: ticks arrive from pool workers during
     parallel hot loops and the summed read equals the sequential
     count.  [ops] counts group operations; [invs], the [field_invs]
     probe, one per [inv] and one per [inv_batch].  Both share one lane
     array. *)
  let meters = Ppgr_exec.Meter.create_group 2
  let ops = meters.(0)
  let invs = meters.(1)
  let op_count () = Ppgr_exec.Meter.read ops

  let mul a b =
    Ppgr_exec.Meter.incr ops;
    Bigint.Modring.mul ring a b

  (* x and p - x are one element; -a is p - a in Montgomery form too,
     so both tests read the limbs as they are. *)
  let equal a b = Bigint.Modring.equal ring a b || Bigint.Modring.equal_neg ring a b

  let is_identity x =
    Bigint.Modring.is_one ring x || Bigint.Modring.equal_neg ring x identity

  let inv x =
    (* Binary extended gcd on the Montgomery residue; ticked as one op
       although it costs tens of multiplications. *)
    Ppgr_exec.Meter.incr ops;
    Ppgr_exec.Meter.incr invs;
    Bigint.Modring.inv ring x

  (* Montgomery's trick: the prefix products, one inversion of the
     whole product, then one backward pass peeling off each element:
     3(k - 1) multiplications and one inversion for k elements. *)
  let inv_batch a =
    let k = Array.length a in
    if k = 0 then [||]
    else begin
      let prefix = Array.make k a.(0) in
      for i = 1 to k - 1 do
        prefix.(i) <- mul prefix.(i - 1) a.(i)
      done;
      let out = Array.make k identity in
      let t = ref (inv prefix.(k - 1)) in
      for i = k - 1 downto 1 do
        out.(i) <- mul !t prefix.(i - 1);
        t := mul !t a.(i)
      done;
      out.(0) <- !t;
      out
    end

  let sqr x =
    Ppgr_exec.Meter.incr ops;
    Bigint.Modring.sqr ring x

  (* Variable-base exponentiation is an unsigned sliding window
     (DESIGN.md §5h) against the table x, x^3, ..., x^(2^w - 1): an
     inversion costs tens of multiplications here, so signed digits
     would only trade table entries for inversions. *)
  let window = window_width order

  (* Per-domain exponentiation scratch (DESIGN.md §5h): the odd-powers
     tables, the accumulator and the recoding digit buffers all live
     here, so a steady-state [pow]/[pow2]/[pow_table] allocates nothing
     but its escaping result.  Two table slots because [pow2] runs two
     bases down one shared squaring chain.  Exponents are reduced below
     [order] first, so a digit buffer needs one slot per order bit. *)
  type scratch = {
    acc : element;
    x2 : element;
    odd : element array; (* x^1, x^3, ..., x^(2^w - 1) *)
    odd2 : element array;
    dg : int array;
    dg2 : int array;
  }

  let scratch : scratch Ppgr_exec.Slot_local.t =
    Ppgr_exec.Slot_local.make (fun () ->
        let elts n = Array.init n (fun _ -> Bigint.Modring.alloc ring) in
        let slots = Bigint.numbits order in
        {
          acc = Bigint.Modring.alloc ring;
          x2 = Bigint.Modring.alloc ring;
          odd = elts (1 lsl (window - 1));
          odd2 = elts (1 lsl (window - 1));
          dg = Array.make slots 0;
          dg2 = Array.make slots 0;
        })

  (* Build the odd-powers table x^1, x^3, ..., x^(2^w - 1) into [tbl],
     using [s.x2] as the x^2 temporary: 1 squaring + 2^(w-1) - 1
     multiplications, each ticked. *)
  let fill_odd s (tbl : element array) x =
    Ppgr_exec.Meter.incr ops;
    Bigint.Modring.sqr_into ring s.x2 x;
    Bigint.Modring.copy_into ring tbl.(0) x;
    for i = 1 to Array.length tbl - 1 do
      Ppgr_exec.Meter.incr ops;
      Bigint.Modring.mul_into ring tbl.(i) tbl.(i - 1) s.x2
    done

  (* Multiply the table entry for digit [d] (odd, or 0 for none) into
     the accumulator. *)
  let mix_digit s (tbl : element array) d =
    if d <> 0 then begin
      Ppgr_exec.Meter.incr ops;
      Bigint.Modring.mul_into ring s.acc s.acc tbl.(d lsr 1)
    end

  (* Copy the scratch accumulator out as the (sole) escaping allocation. *)
  let escape s =
    let r = Bigint.Modring.alloc ring in
    Bigint.Modring.copy_into ring r s.acc;
    r

  let pow_nonneg x e =
    (* The top digit seeds the accumulator, then one squaring per lower
       digit position.  Every group multiplication (squarings included)
       ticks the op counter once; squarings go through the cheaper
       dedicated kernel. *)
    let s = Ppgr_exec.Slot_local.get scratch in
    fill_odd s s.odd x;
    let top = sliding_window_into ~w:window e s.dg - 1 in
    Bigint.Modring.copy_into ring s.acc s.odd.(s.dg.(top) lsr 1);
    for k = top - 1 downto 0 do
      Ppgr_exec.Meter.incr ops;
      Bigint.Modring.sqr_into ring s.acc s.acc;
      mix_digit s s.odd s.dg.(k)
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

  (* Shamir's trick: one shared squaring chain over the aligned window
     recodings of both exponents, both odd-powers tables in scratch. *)
  let pow2 a e b f =
    let e = if Bigint.in_range e order then e else Bigint.erem e order
    and f = if Bigint.in_range f order then f else Bigint.erem f order in
    if Bigint.is_zero e then pow b f
    else if Bigint.is_zero f then pow a e
    else begin
      let s = Ppgr_exec.Slot_local.get scratch in
      fill_odd s s.odd a;
      fill_odd s s.odd2 b;
      let la = sliding_window_into ~w:window e s.dg
      and lb = sliding_window_into ~w:window f s.dg2 in
      let len = Stdlib.max la lb in
      Array.fill s.dg la (len - la) 0;
      Array.fill s.dg2 lb (len - lb) 0;
      (* At least one of the two top digits is non-zero. *)
      let top = len - 1 in
      let da = s.dg.(top) in
      if da <> 0 then begin
        Bigint.Modring.copy_into ring s.acc s.odd.(da lsr 1);
        mix_digit s s.odd2 s.dg2.(top)
      end
      else Bigint.Modring.copy_into ring s.acc s.odd2.(s.dg2.(top) lsr 1);
      for k = top - 1 downto 0 do
        Ppgr_exec.Meter.incr ops;
        Bigint.Modring.sqr_into ring s.acc s.acc;
        mix_digit s s.odd s.dg.(k);
        mix_digit s s.odd2 s.dg2.(k)
      done;
      escape s
    end

  (* An exponentiation here inverts nothing, so a batch has nothing to
     share: per element over the pool. *)
  let pow2_pow_batch a e b f = Group_intf.pow2_pow_each ~pow2 ~pow a e b f

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

  (* The canonical value of the element {x, p - x}: the one in [1, q]. *)
  let canonical x =
    let v = Bigint.Modring.leave ring x in
    if Bigint.compare v order > 0 then Bigint.sub P.p v else v

  let to_bytes x = Bigint.to_bytes_be_padded element_bytes (canonical x)

  (* Residues are affine already: batching buys nothing here, the hook
     exists for the EC family's shared-inversion normalization. *)
  let to_bytes_batch a = Array.map to_bytes a
  let probes = [ ("field_invs", fun () -> Ppgr_exec.Meter.read invs) ]

  (* Every y in [1, q] is the canonical value of exactly one element, so
     membership is a range check: no Jacobi symbol. *)
  let of_bytes b =
    if Bytes.length b <> element_bytes then None
    else begin
      let v = Bigint.of_bytes_be b in
      if Bigint.sign v <= 0 || Bigint.compare v order > 0 then None
      else Some (Bigint.Modring.enter ring v)
    end

  let pp fmt x = Bigint.pp fmt (canonical x)

  let random_scalar rng =
    Bigint.succ (Rng.bigint_below rng (Bigint.pred order))
end

(* A [pow] costs numbits(e) - 1 squarings, about numbits(e)/(w+1)
   multiplications and a 2^(w-1)-entry table, and no inversion: the
   paper's O(lambda) multiplications per exponentiation. *)

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
let dl_test_128 () = of_safe_prime ~name:"DL-test-128" ~security_bits:0 Modp_params.test_128
