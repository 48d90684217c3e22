type rand = Bigint.t -> Bigint.t

let small_primes =
  (* Sieve of Eratosthenes below 1000, computed once at load. *)
  let limit = 1000 in
  let sieve = Array.make (limit + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to limit do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j <= limit do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  let out = ref [] in
  for i = limit downto 2 do
    if sieve.(i) then out := i :: !out
  done;
  Array.of_list !out

(* One Miller-Rabin round with witness [a]; [n - 1 = d * 2^s], d odd. *)
let mr_round n d s a =
  let open Bigint in
  let x = powmod a d n in
  if equal x one || equal x (sub n one) then true
  else begin
    let rec go x i =
      if i >= s then false
      else begin
        let x = powmod x two n in
        if equal x (sub n one) then true else go x (i + 1)
      end
    in
    go x 1
  end

let deterministic_witnesses = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]

let is_probable_prime ?(rounds = 32) (rand : rand) n =
  let open Bigint in
  if sign n <= 0 then false
  else begin
    match to_int_opt n with
    | Some v when v < 2 -> false
    | Some v when v <= 1_000_000 ->
        (* Exact for small values via trial division. *)
        let rec go i =
          if i >= Array.length small_primes then true
          else begin
            let p = small_primes.(i) in
            if p * p > v then true
            else if v mod p = 0 then v = p
            else go (i + 1)
          end
        in
        if v mod 2 = 0 then v = 2
        else go 0
    | _ ->
        let divisible_by_small =
          Array.exists
            (fun p -> is_zero (rem n (of_int p)) && not (equal n (of_int p)))
            small_primes
        in
        if divisible_by_small then false
        else begin
          let n1 = sub n one in
          let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
          let d, s = split n1 0 in
          (* Witness rounds are independent, so they fan out over the
             domain pool.  The random witnesses are drawn sequentially
             from [rand] first (the stream consumption is therefore
             schedule-independent), then every round runs in parallel;
             a composite fails some round either way. *)
          let det_witnesses =
            Array.of_list
              (List.filter
                 (fun w -> compare (of_int w) n1 < 0)
                 deterministic_witnesses)
          in
          let det_ok =
            Array.for_all Fun.id
              (Ppgr_exec.Pool.parallel_map
                 (fun w -> mr_round n d s (of_int w))
                 det_witnesses)
          in
          if not det_ok then false
          else if numbits n <= 81 then true
            (* Sorenson–Webster: the 12 smallest primes are a complete
               witness set below 3.3e24 (~2^81). *)
          else begin
            let witnesses =
              Array.init rounds (fun _ -> add (rand (sub n (of_int 3))) two)
            in
            Array.for_all Fun.id
              (Ppgr_exec.Pool.parallel_map (fun a -> mr_round n d s a) witnesses)
          end
        end
  end

let random_prime rand ~bits =
  if bits < 2 then invalid_arg "Prime.random_prime: bits < 2";
  let open Bigint in
  let top = nth_bit_weight (bits - 1) in
  let rec go () =
    (* Uniform in [2^(bits-1), 2^bits), forced odd. *)
    let c = add top (rand top) in
    let c = if is_even c then succ c else c in
    if numbits c = bits && is_probable_prime rand c then c else go ()
  in
  go ()

let random_safe_prime rand ~bits =
  if bits < 3 then invalid_arg "Prime.random_safe_prime: bits < 3";
  let open Bigint in
  let rec go () =
    let q = random_prime rand ~bits:(bits - 1) in
    let p = succ (shift_left q 1) in
    if numbits p = bits && is_probable_prime rand p then p else go ()
  in
  go ()
