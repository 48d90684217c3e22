(** A synchronous-lockstep simulator of [n]-party Shamir-based MPC.

    A {!shared} value is the vector of all parties' shares (index [i] =
    party [i+1]'s share); the engine executes each sub-protocol for every
    party and keeps the cost ledger the evaluation reads:

    - invocation counts: multiplications (the unit of the paper's SS
      cost analysis), random values, openings, inputs dealt and public
      scalings;
    - [rounds]: communication rounds, counting parallel multiplications
      batched by {!mul_batch} as one round;
    - the field elements on the wire and the field multiplications per
      party, both priced from the counts ({!elements},
      {!field_mults_per_party});
    - the underlying field's own multiplication counter, the work the
      simulation really did, all parties together.

    Degree reduction after multiplication follows Gennaro–Rabin–Rabin:
    each party reshares its local product with a fresh degree-[t]
    polynomial and the new share is the Lagrange-weighted sum of the
    subshares.  The engine tolerates the most colluders that allows,
    t = (n-1)/2, so n >= 2t + 1 at every n.

    Shares are Montgomery-form limb vectors over the field's cached
    context ({!Zfield.ring}): every share operation runs on the
    allocation-free [_into] kernels, and values meet {!Bigint.t} only
    where they enter ({!input}, {!of_public}, public constants) or
    leave ({!open_}).  The Lagrange weights at 0 for the points [1..n]
    are computed once in {!create} and serve every degree reduction and
    every opening. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_dotprod
module M = Bigint.Modring

type t = {
  f : Zfield.t;
  ring : M.ctx;
  n : int;
  th : int; (* polynomial degree t; tolerates t colluders *)
  rng : Rng.t;
  xs : M.elt array; (* evaluation points 1..n *)
  lagrange_all : M.elt array; (* weights at 0 for points 1..n *)
  half : M.elt; (* 1/2 *)
  root_exp : Bigint.t; (* (p+1)/4: v^root_exp is a square root of a square v *)
  half_p : Bigint.t; (* (p-1)/2, the largest canonical square root *)
  mutable mults : int;
  mutable rounds : int;
  mutable opens : int;
  mutable randoms : int;
  mutable inputs : int;
  mutable scalings : int;
}

(* Length n.  Operations never write into an operand's elements, so one
   element may back several shares (see {!of_public}). *)
type shared = M.elt array

(* The largest t with n >= 2t + 1. *)
let threshold_of n = (n - 1) / 2

let create rng f ~n =
  if n < 1 then invalid_arg "Engine.create: need n >= 1";
  let p = Zfield.modulus f in
  (* Random bits take square roots as one exponentiation by (p+1)/4,
     which needs p = 3 mod 4 (every vendored prime is). *)
  if Bigint.to_int_exn (Bigint.logand p (Bigint.of_int 3)) <> 3 then
    invalid_arg "Engine.create: field prime must be 3 mod 4";
  let ring = Zfield.ring f in
  let xs = Shamir.points f n in
  {
    f;
    ring;
    n;
    th = threshold_of n;
    rng;
    xs;
    lagrange_all = Shamir.lagrange_at_zero f xs;
    half = M.inv ring (M.of_int ring 2);
    root_exp = Bigint.shift_right (Bigint.succ p) 2;
    half_p = Bigint.shift_right p 1;
    mults = 0;
    rounds = 0;
    opens = 0;
    randoms = 0;
    inputs = 0;
    scalings = 0;
  }

let field e = e.f

type costs = {
  c_mults : int;
  c_rounds : int;
  c_elements : int;
  c_opens : int;
  c_randoms : int;
  c_inputs : int;
  c_scalings : int;
  c_field_mults : int;
}

(** Field elements on the wire, all parties: every multiplication,
    random value and opening is an all-to-all exchange of one element
    per ordered pair, and an input goes from its dealer to the other
    n-1 parties. *)
let elements ~n c =
  ((c.c_mults + c.c_randoms + c.c_opens) * n * (n - 1)) + (c.c_inputs * (n - 1))

(** Field multiplications per party: each invocation's simulation-wide
    count divided by n, with t = (n-1)/2 and a share dealt costing t+1
    (Horner).  A multiplication is n local products, n resharings of n
    shares and n^2 recombination terms, so 1 + n(t+2); a random value
    is n sharings, n(t+1); an opening is n Lagrange terms, 1; an input
    is one sharing, t+1; a public scaling is one per share, 1.  These
    are the only unit prices in the repository; the field meter of a
    run whose ledger started at {!reset_costs} reads n times this. *)
let field_mults_per_party ~n c =
  let t = threshold_of n in
  (c.c_mults * (1 + (n * (t + 2))))
  + (c.c_randoms * n * (t + 1))
  + c.c_opens
  + (c.c_inputs * (t + 1))
  + c.c_scalings

let costs e =
  let c =
    {
      c_mults = e.mults;
      c_rounds = e.rounds;
      c_elements = 0;
      c_opens = e.opens;
      c_randoms = e.randoms;
      c_inputs = e.inputs;
      c_scalings = e.scalings;
      c_field_mults = Zfield.mult_count e.f;
    }
  in
  { c with c_elements = elements ~n:e.n c }

let reset_costs e =
  e.mults <- 0;
  e.rounds <- 0;
  e.opens <- 0;
  e.randoms <- 0;
  e.inputs <- 0;
  e.scalings <- 0;
  Zfield.reset_mult_count e.f

(** A child engine for one independent task of a parallel batch: its
    randomness is a split of the parent's stream under [label] (so the
    transcript does not depend on how tasks interleave) and its ledger
    starts at zero over the same field; {!absorb} folds the counters
    back in. *)
let fork e ~label =
  {
    e with
    rng = Rng.split e.rng ~label;
    mults = 0;
    rounds = 0;
    opens = 0;
    randoms = 0;
    inputs = 0;
    scalings = 0;
  }

(** Fold a batch of {!fork}ed children that ran in lockstep into the
    parent, in array order: their invocation counters add up, and their
    rounds count once, at the batch's maximum.  A batch of one is
    sequential composition. *)
let absorb e children =
  Array.iter
    (fun c ->
      e.mults <- e.mults + c.mults;
      e.opens <- e.opens + c.opens;
      e.randoms <- e.randoms + c.randoms;
      e.inputs <- e.inputs + c.inputs;
      e.scalings <- e.scalings + c.scalings)
    children;
  e.rounds <- e.rounds + Array.fold_left (fun m c -> Stdlib.max m c.rounds) 0 children

(* Fresh zero elements: a share vector, or dealing scratch. *)
let fresh e len = Array.init len (fun _ -> M.alloc e.ring)

(* Party i's share of the result is [op a_i], written into a fresh
   element. *)
let map e op (a : shared) : shared =
  Array.map
    (fun s ->
      let d = M.alloc e.ring in
      op d s;
      d)
    a

(* Party i's share of the result is [op a_i b_i]. *)
let map2 e op (a : shared) (b : shared) : shared =
  Array.init e.n (fun i ->
      let d = M.alloc e.ring in
      op d a.(i) b.(i);
      d)

(* Every party multiplies its share by the public [c]. *)
let scale_elt e c (a : shared) : shared =
  e.scalings <- e.scalings + 1;
  Zfield.count_mults e.f e.n;
  map e (fun d s -> M.mul_into e.ring d c s) a

(* Shares of [a + c] for a public [c]: the constant polynomial adds to
   every share. *)
let add_elt e (a : shared) c : shared = map e (fun d s -> M.add_into e.ring d s c) a

(** {1 Linear (communication-free) operations} *)

let of_public e v : shared =
  (* Shares of a public constant: the constant polynomial. *)
  Array.make e.n (M.enter e.ring v)

let add e (a : shared) b : shared = map2 e (M.add_into e.ring) a b
let sub e (a : shared) b : shared = map2 e (M.sub_into e.ring) a b
let add_public e (a : shared) v = add_elt e a (M.enter e.ring v)
let scale e k (a : shared) : shared = scale_elt e (M.enter e.ring k) a
let neg e (a : shared) : shared = map e (M.neg_into e.ring) a

(** {1 Interactive operations} *)

(* A fresh sharing of [v] drawn from the engine's stream. *)
let deal e coeffs v : shared =
  let out = fresh e e.n in
  Shamir.share_into e.rng e.f ~coeffs ~xs:e.xs v out;
  out

(** A party shares a private input with the others (1 round, n-1
    elements). *)
let input e v : shared =
  e.rounds <- e.rounds + 1;
  e.inputs <- e.inputs + 1;
  deal e (fresh e (e.th + 1)) (M.enter e.ring v)

(** Many parties share their private inputs simultaneously (1 round,
    n-1 elements each) — the merge-stage fan-in, where every shard
    representative feeds the l bits of its masked gain to the committee
    at once. *)
let input_batch e vs : shared list =
  e.rounds <- e.rounds + 1;
  let coeffs = fresh e (e.th + 1) in
  List.map
    (fun v ->
      e.inputs <- e.inputs + 1;
      deal e coeffs (M.enter e.ring v))
    vs

(* Reconstruction with the cached weights, left in Montgomery form. *)
let reveal e (a : shared) = Shamir.interpolate e.f e.lagrange_all a

let count_opens e k =
  e.rounds <- e.rounds + 1;
  e.opens <- e.opens + k

(** Open a shared value to all parties (1 round; every party broadcasts
    its share). *)
let open_ e (a : shared) =
  count_opens e 1;
  M.leave e.ring (reveal e a)

(** Open many shared values in a single round. *)
let open_batch e (vs : shared list) =
  match vs with
  | [] -> []
  | _ ->
      count_opens e (List.length vs);
      List.map (fun a -> M.leave e.ring (reveal e a)) vs

(* GRR degree reduction for a batch of products computed in lockstep:
   counting the batch as a single communication round models parallel
   multiplication, which the sorting network exploits. *)
let mul_batch e (pairs : (shared * shared) list) : shared list =
  match pairs with
  | [] -> []
  | _ ->
      e.rounds <- e.rounds + 1;
      let ring = e.ring in
      let coeffs = fresh e (e.th + 1) and subs = fresh e e.n in
      let prod = M.alloc ring and term = M.alloc ring in
      List.map
        (fun ((a : shared), (b : shared)) ->
          e.mults <- e.mults + 1;
          let out = fresh e e.n in
          (* The local products, then the n^2 weighted recombinations. *)
          Zfield.count_mults e.f (e.n * (e.n + 1));
          for i = 0 to e.n - 1 do
            (* Party i reshares its local product a_i * b_i; party j's
               new share is sum_i lambda_i * subshare_{i->j}. *)
            M.mul_into ring prod a.(i) b.(i);
            Shamir.share_into e.rng e.f ~coeffs ~xs:e.xs prod subs;
            for j = 0 to e.n - 1 do
              M.mul_into ring term e.lagrange_all.(i) subs.(j);
              M.add_into ring out.(j) out.(j) term
            done
          done;
          out)
        pairs

let mul e a b =
  match mul_batch e [ (a, b) ] with
  | [ r ] -> r
  | _ -> assert false

(* One jointly random value: every party deals a sharing of its own
   uniform draw, and the shares add up. *)
let random_shared e coeffs subs secret : shared =
  let out = fresh e e.n in
  for _ = 1 to e.n do
    M.enter_into e.ring secret (Zfield.random e.rng e.f);
    Shamir.share_into e.rng e.f ~coeffs ~xs:e.xs secret subs;
    for j = 0 to e.n - 1 do
      M.add_into e.ring out.(j) out.(j) subs.(j)
    done
  done;
  out

(** [k] jointly random shared values in a single round. *)
let random_batch e k : shared array =
  if k = 0 then [||]
  else begin
    e.rounds <- e.rounds + 1;
    e.randoms <- e.randoms + k;
    let coeffs = fresh e (e.th + 1) and subs = fresh e e.n in
    let secret = M.alloc e.ring in
    Array.init k (fun _ -> random_shared e coeffs subs secret)
  end

(** Jointly generated uniformly random shared value (every party
    contributes a sharing; 1 round). *)
let random e : shared = (random_batch e 1).(0)

(* The canonical square root (at most (p-1)/2) of a non-zero public
   value [v], as [v^((p+1)/4)] checked by squaring; [None] when [v] is
   not a square. *)
let sqrt_public e v =
  let r = M.pow e.ring v e.root_exp in
  if not (M.equal e.ring (M.sqr e.ring r) v) then None
  else if Bigint.compare (M.leave e.ring r) e.half_p <= 0 then Some r
  else Some (M.neg e.ring r)

(* b = (r / root + 1) / 2: linear in the shares of r. *)
let bit_of e (r : shared) root =
  let scaled = scale_elt e (M.inv e.ring root) r in
  scale_elt e e.half (add_elt e scaled (M.one e.ring))

(** [k] random shared bits generated with batched rounds (Damgård et
    al.): sample [r], open [r^2], retry on 0, and output
    [(r / sqrt(r^2) + 1) / 2].  One round of joint randomness, one of
    multiplications, one of openings, plus rare retries for candidates
    whose square opened to 0. *)
let random_bit_batch e k : shared array =
  let out = Array.make k (of_public e Bigint.zero) in
  let rec fill needed_idx =
    (* Indexes in [out] still awaiting a bit. *)
    match needed_idx with
    | [] -> ()
    | _ ->
        let rs = random_batch e (List.length needed_idx) in
        let squares = mul_batch e (Array.to_list (Array.map (fun r -> (r, r)) rs)) in
        count_opens e (List.length squares);
        let remaining = ref [] in
        List.iteri
          (fun i (idx, sq) ->
            let v = reveal e sq in
            if M.is_zero e.ring v then remaining := idx :: !remaining
            else begin
              match sqrt_public e v with
              | None -> assert false (* squares are residues *)
              | Some root -> out.(idx) <- bit_of e rs.(i) root
            end)
          (List.combine needed_idx squares);
        fill (List.rev !remaining)
  in
  fill (List.init k Fun.id);
  out

(** [nbits] independent random shared bits, with their weighted value
    [Σ 2^i b_i] (free given the bits). *)
let random_bits e nbits : shared array * shared =
  let bits = random_bit_batch e nbits in
  let value = ref (of_public e Bigint.zero) in
  for i = nbits - 1 downto 0 do
    value := add e (scale e (Bigint.of_int 2) !value) bits.(i)
  done;
  (bits, !value)
