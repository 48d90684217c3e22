(** Secret-shared sorting (the Jónsson et al. baseline, [3]): Batcher's
    network with an oblivious compare-exchange at every comparator.

    A comparator on shares [x, y] computes [b = [x >= y]] with the
    {!Compare} primitive, then
    [lo = y + b (x - y) ... ] — concretely [hi' = x + y - lo] — using one
    extra multiplication, leaving the wires sorted ascending without
    anyone learning [b]. *)

module Trace = Ppgr_obs.Trace

(** Sort an array of shared [l]-bit values ascending.  Comparators in
    the same network layer run in lockstep, so a layer costs the rounds
    of one comparator, plus one for the batched exchange products. *)
let sort e prm (values : Engine.shared array) : Engine.shared array =
  let a = Array.copy values in
  let net = Sort_network.generate (Array.length a) in
  Trace.with_span
    ~attrs:
      [ ("n", Trace.Int (Array.length a)); ("layers", Trace.Int (List.length net)) ]
    "sssort.sort"
  @@ fun () ->
  List.iteri
    (fun li layer ->
      let layer_arr = Array.of_list layer in
      Trace.with_span
        ~attrs:
          [
            ("layer", Trace.Int li);
            ("comparators", Trace.Int (Array.length layer_arr));
          ]
        "sssort.layer"
      @@ fun () ->
      let before = if Trace.enabled () then Some (Engine.costs e) else None in
      (* Comparisons of one layer touch disjoint wire pairs, so they
         fan out over the domain pool: each comparator runs on a child
         engine forked under a stable (layer, slot) label, and the
         children's ledgers are absorbed back as one lockstep batch,
         keeping transcript and costs independent of the job count. *)
      let subs =
        Array.mapi
          (fun ci _ -> Engine.fork e ~label:(Printf.sprintf "sort-%d-%d" li ci))
          layer_arr
      in
      let bits =
        Ppgr_exec.Pool.parallel_init (Array.length layer_arr) (fun ci ->
            let i, j = layer_arr.(ci) in
            Compare.ge subs.(ci) prm a.(i) a.(j))
      in
      Engine.absorb e subs;
      (* lo = x - b (x - y); hi = y + b (x - y). *)
      let diffs =
        Array.to_list
          (Array.mapi
             (fun ci (i, j) -> (bits.(ci), Engine.sub e a.(i) a.(j)))
             layer_arr)
      in
      let prods = Engine.mul_batch e diffs in
      List.iteri
        (fun ci p ->
          let i, j = layer_arr.(ci) in
          let lo = Engine.sub e a.(i) p in
          let hi = Engine.add e a.(j) p in
          a.(i) <- lo;
          a.(j) <- hi)
        prods;
      match before with
      | None -> ()
      | Some b ->
          let c = Engine.costs e in
          Trace.add_attr "ss_mults" (Trace.Int (c.Engine.c_mults - b.Engine.c_mults));
          Trace.add_attr "ss_rounds" (Trace.Int (c.Engine.c_rounds - b.Engine.c_rounds));
          Trace.add_attr "ss_elements"
            (Trace.Int (c.Engine.c_elements - b.Engine.c_elements)))
    net;
  a

(** The full baseline sorting protocol for ranking: every party inputs a
    private value, all in one round; the sorted sequence is opened in
    one round; each party reads off the rank of its own input.  Ranks
    are 1-based in non-increasing order (rank 1 = largest), ties broken
    arbitrarily, to match the framework's ranking convention. *)
let rank_via_sort e prm (inputs : Ppgr_bigint.Bigint.t array) : int array =
  let shared = Array.of_list (Engine.input_batch e (Array.to_list inputs)) in
  let sorted = sort e prm shared in
  let opened = Array.of_list (Engine.open_batch e (Array.to_list sorted)) in
  (* opened is ascending; rank of v = n - (index of v) counting from the
     end, consuming duplicates so equal gains get distinct slots. *)
  let n = Array.length inputs in
  let used = Array.make n false in
  Array.map
    (fun v ->
      let rec find i =
        if i < 0 then invalid_arg "rank_via_sort: value missing from sorted output"
        else if (not used.(i)) && Ppgr_bigint.Bigint.equal opened.(i) v then i
        else find (i - 1)
      in
      let idx = find (n - 1) in
      used.(idx) <- true;
      n - idx)
    inputs
