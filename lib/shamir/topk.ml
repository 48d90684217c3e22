(** Secret-shared top-k selection by threshold search, after Burkhart
    and Dimitropoulos [4] ("Fast privacy-preserving top-k queries using
    secret sharing", ICCCN 2010), the second baseline the paper's
    related-work section discusses.

    Instead of sorting, the parties binary-search the value domain: for
    a public threshold [T] they compute and open
    [count(T) = Σ_i [x_i >= T]] — one parallel comparison per input —
    and narrow [T] until exactly [k] values clear it, then open the
    [k] membership bits.  The cost is [O(n l)] comparisons (linear in
    [n]) against the sorting network's [O(n log^2 n)]: the probing
    approach pulls ahead once [log^2 n] outgrows [l], i.e. for large
    groups, which is the regime [4] targets.

    Inputs enter as bits.  Each value's owner knows its value, so it
    deals shares of the value's [l] little-endian bits itself
    ({!input_bits}); under the honest-but-curious model no bit
    decomposition protocol is needed.  A probe is then bitwise:
    [x >= T] is [T - 1 < x], one {!Compare.bit_lt_public} against the
    public bits of [T - 1] (and the public 1 when [T = 0]).  It draws
    no random bit and opens nothing; the only values ever opened are
    the probe counts [count(T)], one per probe, and the membership
    bits of the final threshold (of two thresholds when ties straddle
    the cut).

    The trade-offs match the paper's characterization of [4]:

    - {e probabilistic termination}: if more than [k] inputs tie at the
      cut value there is no threshold selecting exactly [k] ("cannot be
      guaranteed to terminate with a correct result every time").
      {!top_k_det} closes that gap with a deterministic input-index
      tie-break, which the sharded-ranking merge stage requires to
      always terminate;
    - {e leakage}: the opened counts reveal how many inputs lie in each
      probed interval, strictly more than the ranking framework
      reveals.  This is a baseline, not a privacy-preserving
      replacement. *)

open Ppgr_bigint

(** Shares of each value's [l] little-endian bits, dealt by the value's
    owner: all values enter in one {!Engine.input_batch} round, [l]
    inputs each.
    @raise Invalid_argument if a value lies outside [[0, 2^l)]. *)
let input_bits e ~l (values : Bigint.t array) : Engine.shared array array =
  if Array.exists (fun v -> Bigint.sign v < 0 || Bigint.numbits v > l) values then
    invalid_arg "Topk.input_bits: value outside [0, 2^l)";
  let bits =
    List.concat_map
      (fun v -> List.map Bigint.of_int (Array.to_list (Bigint.bits_of v ~width:l)))
      (Array.to_list values)
  in
  let shared = Array.of_list (Engine.input_batch e bits) in
  Array.init (Array.length values) (fun i -> Array.sub shared (i * l) l)

(* The inputs of one selection, each as its shared bits, and the count
   of probes run on them so far. *)
type probes = {
  e : Engine.t;
  values : Engine.shared array array;
  mutable next : int;
}

(* Shares of [x >= t] for every value [x] against a public threshold [t]
   in [[0, 2^l]].  The comparisons are independent, so they run as one
   lockstep batch, the idiom of {!Ss_sort}'s layers: each on a child
   engine forked under a (probe, candidate) label, the batch costing the
   rounds of one comparison.  The probe index keeps every child stream
   distinct, since forking never advances the parent's stream. *)
let ge_threshold pr threshold =
  let n = Array.length pr.values in
  if Bigint.is_zero threshold then Array.init n (fun _ -> Engine.of_public pr.e Bigint.one)
  else begin
    let probe = pr.next in
    pr.next <- probe + 1;
    let a_bits =
      Bigint.bits_of (Bigint.pred threshold) ~width:(Array.length pr.values.(0))
    in
    let subs =
      Array.init n (fun i ->
          Engine.fork pr.e ~label:(Printf.sprintf "probe-%d-%d" probe i))
    in
    let bits =
      Ppgr_exec.Pool.parallel_init n (fun i ->
          Compare.bit_lt_public subs.(i) ~a_bits ~b_bits:pr.values.(i))
    in
    Engine.absorb pr.e subs;
    bits
  end

(* Shares of count(T) = Σ_i [x_i >= T] for a public threshold T. *)
let count_ge pr threshold =
  Array.fold_left (Engine.add pr.e) (Engine.of_public pr.e Bigint.zero)
    (ge_threshold pr threshold)

(* Open the membership bits for the final threshold. *)
let members pr threshold =
  let opened = Engine.open_batch pr.e (Array.to_list (ge_threshold pr threshold)) in
  List.concat
    (List.mapi (fun i b -> if Bigint.equal b Bigint.one then [ i ] else []) opened)

(* The shared binary search: returns the converged cut [lo] with
   count(lo) >= k > count(lo + 1).  Invariant: count(lo) >= k and
   count(hi) < k; lo = 0 qualifies everything (count = n >= k),
   hi = 2^l exceeds every input (count = 0 < k). *)
let search_cut pr ~k =
  let open_count t = Engine.open_ pr.e (count_ge pr t) in
  let rec search lo hi =
    (* lo < hi - 1 means the interval still contains candidate cuts. *)
    if Bigint.compare (Bigint.sub hi lo) Bigint.one <= 0 then lo
    else begin
      let mid = Bigint.shift_right (Bigint.add lo hi) 1 in
      let c = Bigint.to_int_exn (open_count mid) in
      if c >= k then search mid hi else search lo mid
    end
  in
  search Bigint.zero (Bigint.nth_bit_weight (Array.length pr.values.(0)))

(** The indices of the [k] largest inputs, always exactly [k]; each
    input is its {!input_bits} shares.  When more than [k] inputs reach
    the cut value, the winners are the inputs strictly above the cut
    plus the lowest-indexed inputs {e at} the cut — a public,
    deterministic tie-break, which is what lets the sharded-ranking
    merge stage terminate on any input.

    Leakage note (documented, accepted): resolving the tie opens the
    membership bits for both [cut] and [cut + 1], so every party learns
    {e which} inputs tie at the cut value (in addition to the opened
    probe counts).  The caller should index inputs by a canonical
    public order — e.g. (shard, local index) — so the tie-break reveals
    nothing beyond that public ordering. *)
let top_k_det e ~k (values : Engine.shared array array) : int list =
  if k < 1 || k > Array.length values then invalid_arg "Topk.top_k: k out of range";
  let pr = { e; values; next = 0 } in
  let lo = search_cut pr ~k in
  let at_or_above = members pr lo in
  if List.length at_or_above = k then at_or_above
  else begin
    (* Strictly above the cut: values >= lo + 1.  By the search
       invariant there are fewer than k of them, and at_or_above holds
       more than k, so the cut ties fill the remainder. *)
    let above = members pr (Bigint.succ lo) in
    let at_cut = List.filter (fun i -> not (List.mem i above)) at_or_above in
    let need = k - List.length above in
    (* members returns ascending indices: take the first [need]. *)
    let rec take n = function
      | [] -> []
      | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl
    in
    List.sort compare (above @ take need at_cut)
  end
