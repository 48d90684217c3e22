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

(* Shares of count(T) = Σ_i [x_i >= T] for a public threshold T. *)
let count_ge e prm (values : Engine.shared array) threshold =
  let shared_t = Engine.of_public e threshold in
  let bits =
    Array.map (fun v -> Compare.ge e prm v shared_t) values
  in
  Array.fold_left (Engine.add e) (Engine.of_public e Bigint.zero) bits

(* Open the membership bits for the final threshold. *)
let members e prm (values : Engine.shared array) threshold =
  let shared_t = Engine.of_public e threshold in
  let bits =
    Array.to_list (Array.map (fun v -> Compare.ge e prm v shared_t) values)
  in
  let opened = Engine.open_batch e bits in
  List.concat
    (List.mapi (fun i b -> if Bigint.equal b Bigint.one then [ i ] else []) opened)

(* The shared binary search: returns the converged cut [lo] with
   count(lo) >= k > count(lo + 1).  Invariant: count(lo) >= k and
   count(hi) < k; lo = 0 qualifies everything (count = n >= k),
   hi = 2^l exceeds every input (count = 0 < k). *)
let search_cut e prm ~k (values : Engine.shared array) =
  let open_count t = Engine.open_ e (count_ge e prm values t) in
  let rec search lo hi =
    (* lo < hi - 1 means the interval still contains candidate cuts. *)
    if Bigint.compare (Bigint.sub hi lo) Bigint.one <= 0 then lo
    else begin
      let mid = Bigint.shift_right (Bigint.add lo hi) 1 in
      let c = Bigint.to_int_exn (open_count mid) in
      if c >= k then search mid hi else search lo mid
    end
  in
  search Bigint.zero (Bigint.nth_bit_weight prm.Compare.l)

(** The indices of the [k] largest inputs, always exactly [k].  When
    more than [k] inputs reach the cut value, the winners are the
    inputs strictly above the cut plus the lowest-indexed inputs {e at}
    the cut — a public, deterministic tie-break, which is what lets the
    sharded-ranking merge stage terminate on any input.

    Leakage note (documented, accepted): resolving the tie opens the
    membership bits for both [cut] and [cut + 1], so every party learns
    {e which} inputs tie at the cut value (in addition to the opened
    probe counts).  The caller should index inputs by a canonical
    public order — e.g. (shard, local index) — so the tie-break reveals
    nothing beyond that public ordering. *)
let top_k_det e prm ~k (values : Engine.shared array) : int list =
  if k < 1 || k > Array.length values then invalid_arg "Topk.top_k: k out of range";
  let lo = search_cut e prm ~k values in
  let at_or_above = members e prm values lo in
  if List.length at_or_above = k then at_or_above
  else begin
    (* Strictly above the cut: values >= lo + 1.  By the search
       invariant there are fewer than k of them, and at_or_above holds
       more than k, so the cut ties fill the remainder. *)
    let above = members e prm values (Bigint.succ lo) in
    let at_cut = List.filter (fun i -> not (List.mem i above)) at_or_above in
    let need = k - List.length above in
    (* members returns ascending indices: take the first [need]. *)
    let rec take n = function
      | [] -> []
      | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl
    in
    List.sort compare (above @ take need at_cut)
  end
