(* Multicore execution layer: the domain pool's combinators, mergeable
   meters, and — the contract everything else rests on — byte-identical
   protocol results at any job count.  Every jobs=k run is compared
   against the jobs=1 run of the same seed on fresh modules. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_group
open Ppgr_grouprank
module Pool = Ppgr_exec.Pool
module Meter = Ppgr_exec.Meter
module Trace = Ppgr_obs.Trace

(* ---- Pool combinators ---- *)

(* A few microseconds of work, so that an idle domain has time to claim
   a task from a batch that is still being drained. *)
let busy () = ignore (Ppgr_hash.Sha256.digest_string (String.make 4096 'x'))

let pool_suite =
  [
    Alcotest.test_case "jobs override round-trips" `Quick (fun () ->
        Pool.set_jobs 4;
        Alcotest.(check int) "set 4" 4 (Pool.jobs ());
        Pool.set_jobs 1;
        Alcotest.(check int) "set 1" 1 (Pool.jobs ()));
    Alcotest.test_case "parallel_init matches Array.init" `Quick (fun () ->
        Pool.set_jobs 4;
        let expect = Array.init 100 (fun i -> (i * i) + 1) in
        let got = Pool.parallel_init 100 (fun i -> (i * i) + 1) in
        Pool.set_jobs 1;
        Alcotest.(check (array int)) "results in slot order" expect got);
    Alcotest.test_case "parallel_map matches Array.map" `Quick (fun () ->
        Pool.set_jobs 4;
        let a = Array.init 57 string_of_int in
        let got = Pool.parallel_map String.length a in
        Pool.set_jobs 1;
        Alcotest.(check (array int)) "lengths" (Array.map String.length a) got);
    Alcotest.test_case "parallel_for touches every disjoint slot once" `Quick
      (fun () ->
        Pool.set_jobs 4;
        let hits = Array.make 200 0 in
        Pool.parallel_for 200 (fun i -> hits.(i) <- hits.(i) + 1);
        Pool.set_jobs 1;
        Alcotest.(check (array int)) "each exactly once" (Array.make 200 1) hits);
    Alcotest.test_case "lowest-index exception wins" `Quick (fun () ->
        Pool.set_jobs 4;
        Alcotest.check_raises "first failing task's exception"
          (Failure "boom-3") (fun () ->
            ignore
              (Pool.parallel_init 64 (fun i ->
                   if i = 3 || i = 47 then failwith (Printf.sprintf "boom-%d" i)
                   else i)));
        (* The pool survives a failed batch. *)
        let ok = Pool.parallel_init 8 (fun i -> i * 2) in
        Pool.set_jobs 1;
        Alcotest.(check (array int)) "pool reusable after failure"
          (Array.init 8 (fun i -> i * 2))
          ok);
    Alcotest.test_case "nested tasks run inline, in index order" `Quick
      (fun () ->
        Pool.set_jobs 4;
        let got =
          Pool.parallel_init 8 (fun i ->
              let runs = ref [] in
              Pool.parallel_for 6 (fun j ->
                  busy ();
                  runs := (j, Meter.slot ()) :: !runs);
              (Pool.in_parallel_task (), (Meter.slot (), i), List.rev !runs))
        in
        Pool.set_jobs 1;
        (* Assert on the main domain: Alcotest's reporter is not safe to
           call from several domains at once. *)
        Array.iter
          (fun (in_task, (slot, i), runs) ->
            Alcotest.(check bool) "in task after the nested loop" true in_task;
            Alcotest.(check (list (pair int int)))
              (Printf.sprintf "outer %d: each inner task once, ascending, on slot %d" i slot)
              (List.init 6 (fun j -> (j, slot)))
              runs)
          got);
    Alcotest.test_case "three-deep nesting keeps slot order" `Quick (fun () ->
        Pool.set_jobs 4;
        let got =
          Pool.parallel_init 4 (fun i ->
              Pool.parallel_init 3 (fun j ->
                  Array.fold_left ( + ) 0
                    (Pool.parallel_init 5 (fun k -> (100 * i) + (10 * j) + k))))
        in
        Pool.set_jobs 1;
        let expect =
          Array.init 4 (fun i ->
              Array.init 3 (fun j ->
                  Array.fold_left ( + ) 0
                    (Array.init 5 (fun k -> (100 * i) + (10 * j) + k))))
        in
        Alcotest.(check (array (array int))) "slot-ordered sums" expect got);
    Alcotest.test_case "nested exception surfaces in the nesting task" `Quick
      (fun () ->
        Pool.set_jobs 4;
        Alcotest.check_raises "inner lowest index wins through two levels"
          (Failure "inner-2-1") (fun () ->
            ignore
              (Pool.parallel_init 8 (fun i ->
                   Array.fold_left ( + ) 0
                     (Pool.parallel_init 6 (fun j ->
                          if i = 2 && j >= 1 then
                            failwith (Printf.sprintf "inner-%d-%d" i j)
                          else j)))));
        (* The pool survives nested failures. *)
        let ok =
          Pool.parallel_init 5 (fun i ->
              Array.fold_left ( + ) 0 (Pool.parallel_init 4 (fun j -> i * j)))
        in
        Pool.set_jobs 1;
        Alcotest.(check (array int)) "reusable after nested failure"
          (Array.init 5 (fun i -> 6 * i))
          ok);
    Alcotest.test_case "nested spans parent under the outer task" `Quick
      (fun () ->
        (* Each span as its name and index attributes beside its
           parent's. *)
        let show (sp : Trace.span) =
          String.concat " "
            (sp.Trace.name
            :: List.filter_map
                 (function k, Trace.Int v -> Some (Printf.sprintf "%s=%d" k v) | _ -> None)
                 sp.Trace.attrs)
        in
        let tree jobs =
          Pool.set_jobs jobs;
          let (), spans =
            Trace.capture (fun () ->
                Trace.with_span "batch" (fun () ->
                    Pool.parallel_for 8 (fun i ->
                        Trace.with_span ~attrs:[ ("i", Trace.Int i) ] "outer" (fun () ->
                            Pool.parallel_for 4 (fun j ->
                                Trace.with_span
                                  ~attrs:[ ("i", Trace.Int i); ("j", Trace.Int j) ]
                                  "inner" busy)))))
          in
          Pool.set_jobs 1;
          List.sort compare
            (List.map
               (fun (sp : Trace.span) ->
                 match List.find_opt (fun (p : Trace.span) -> p.Trace.id = sp.Trace.parent) spans with
                 | Some p -> show sp ^ " <- " ^ show p
                 | None -> show sp)
               spans)
        in
        let expect =
          List.sort compare
            ("batch"
            :: List.concat
                 (List.init 8 (fun i ->
                      Printf.sprintf "outer i=%d <- batch" i
                      :: List.init 4 (fun j ->
                             Printf.sprintf "inner i=%d j=%d <- outer i=%d" i j i))))
        in
        Alcotest.(check (list string)) "jobs=1 tree" expect (tree 1);
        Alcotest.(check (list string)) "jobs=4 tree" expect (tree 4));
    Alcotest.test_case "meter lanes merge to the sequential count" `Quick
      (fun () ->
        Pool.set_jobs 4;
        let m = Meter.create () in
        Pool.parallel_for 500 (fun i -> Meter.add m (i mod 7));
        Pool.set_jobs 1;
        let expect = Array.fold_left ( + ) 0 (Array.init 500 (fun i -> i mod 7)) in
        Alcotest.(check int) "merged read" expect (Meter.read m);
        let s = Meter.read m in
        Meter.incr m;
        Alcotest.(check int) "read delta" 1 (Meter.read m - s);
        Meter.reset m;
        Alcotest.(check int) "reset" 0 (Meter.read m));
    Alcotest.test_case "meters of one group count apart" `Quick (fun () ->
        (* Three counters in one lane array: each merges its own lanes,
           and a reset clears only itself. *)
        Pool.set_jobs 4;
        let g = Meter.create_group 3 in
        Pool.parallel_for 600 (fun i -> Meter.add g.(i mod 3) (i mod 5));
        Pool.set_jobs 1;
        let expect r =
          Array.fold_left ( + ) 0 (Array.init 600 (fun i -> if i mod 3 = r then i mod 5 else 0))
        in
        Array.iteri (fun r m -> Alcotest.(check int) "merged read" (expect r) (Meter.read m)) g;
        Meter.reset g.(1);
        Alcotest.(check (list int)) "reset one" [ expect 0; 0; expect 2 ]
          (Array.to_list (Array.map Meter.read g));
        Alcotest.check_raises "at most 8" (Invalid_argument "Meter.create_group: 1 to 8 counters")
          (fun () -> ignore (Meter.create_group 9)));
    Alcotest.test_case "hashes on several domains at once" `Quick (fun () ->
        (* Rng.split and the transcript digest hash on whichever domain a
           session runs on, so SHA-256 may share no scratch state. *)
        let inputs =
          Array.init 64 (fun i -> String.init (1000 + i) (fun k -> Char.chr ((k * (i + 1)) land 255)))
        in
        let digest s = Bytes.to_string (Ppgr_hash.Sha256.digest_string s) in
        let expect = Array.map digest inputs in
        Pool.set_jobs 4;
        let got = Array.init 5 (fun _ -> Pool.parallel_map digest inputs) in
        Pool.set_jobs 1;
        Array.iter (Alcotest.(check (array string)) "digests" expect) got);
  ]

(* ---- Protocol-level determinism: jobs=1 vs jobs=2 and jobs=4 ---- *)

let phase2_suite =
  let run_once jobs =
    Pool.set_jobs jobs;
    (* Fresh module per run: its op meters and generator table start
       cold, so counts are self-contained and comparable. *)
    let module G = (val Dl_group.dl_test_64 ()) in
    let module R = Runtime.Make (G) in
    let rng = Rng.create ~seed:"parallel-phase2" in
    let l = 12 in
    let betas =
      Array.init 6 (fun _ -> Rng.bigint_below rng (Bigint.nth_bit_weight l))
    in
    let r = R.run rng ~l ~betas in
    Pool.set_jobs 1;
    ( r.R.ranks,
      r.R.per_party_ops,
      r.R.per_party_exps,
      r.R.zero_flags,
      List.map
        (fun (rd : Cost.round) ->
          ( rd.Cost.critical_ops,
            (List.length rd.Cost.messages, Cost.total_bytes [ rd ]) ))
        r.R.schedule )
  in
  [
    Alcotest.test_case "phase-2 results identical at jobs=1 and jobs in {2, 4}"
      `Quick (fun () ->
        let ra, oa, ea, za, sa = run_once 1 in
        List.iter
          (fun jobs ->
            let rb, ob, eb, zb, sb = run_once jobs in
            let what s = Printf.sprintf "%s (jobs=%d)" s jobs in
            Alcotest.(check (array int)) (what "ranks") ra rb;
            Alcotest.(check (array int)) (what "per-party ops") oa ob;
            Alcotest.(check (array int)) (what "per-party exps") ea eb;
            Alcotest.(check (array (array bool)))
              (what "zero-flag transcript (post-permutation positions)") za zb;
            Alcotest.(check (list (pair int (pair int int))))
              (what "schedule (critical ops, messages, bytes per round)") sa sb)
          [ 2; 4 ])
  ]

let runtime_suite =
  let run_once jobs =
    Pool.set_jobs jobs;
    let module G = (val Dl_group.dl_test_64 ()) in
    let module R = Runtime.Make (G) in
    let rng = Rng.create ~seed:"parallel-runtime" in
    let l = 10 in
    let betas =
      Array.init 5 (fun _ -> Rng.bigint_below rng (Bigint.nth_bit_weight l))
    in
    let s = R.run rng ~l ~betas in
    Pool.set_jobs 1;
    (s.R.ranks, s.R.bytes_on_wire, s.R.messages)
  in
  [
    Alcotest.test_case "message-passing runtime identical at jobs 1, 2 and 4"
      `Quick (fun () ->
        let ra, ba, ma = run_once 1 in
        List.iter
          (fun jobs ->
            let rb, bb, mb = run_once jobs in
            let what s = Printf.sprintf "%s (jobs=%d)" s jobs in
            Alcotest.(check (array int)) (what "ranks") ra rb;
            Alcotest.(check int) (what "bytes on wire") ba bb;
            Alcotest.(check int) (what "messages") ma mb)
          [ 2; 4 ]);
  ]

let shamir_suite =
  let run_once jobs =
    Pool.set_jobs jobs;
    let f = Ppgr_dotprod.Zfield.default () in
    let rng = Rng.create ~seed:"parallel-shamir" in
    let e = Ppgr_shamir.Engine.create rng f ~n:5 in
    let prm = Ppgr_shamir.Compare.default_params ~l:8 () in
    let inputs = Array.init 7 (fun _ -> Rng.bigint_below rng (Bigint.of_int 200)) in
    let ranks = Ppgr_shamir.Ss_sort.rank_via_sort e prm inputs in
    let c = Ppgr_shamir.Engine.costs e in
    Pool.set_jobs 1;
    ( ranks,
      ( c.Ppgr_shamir.Engine.c_mults,
        c.Ppgr_shamir.Engine.c_rounds,
        c.Ppgr_shamir.Engine.c_elements,
        c.Ppgr_shamir.Engine.c_field_mults ) )
  in
  [
    Alcotest.test_case "shared sort identical at jobs=1 and jobs=4" `Quick
      (fun () ->
        let ra, ca = run_once 1 in
        let rb, cb = run_once 4 in
        Alcotest.(check (array int)) "ranks" ra rb;
        Alcotest.(check (pair int (pair int (pair int int))))
          "engine ledger (mults, rounds, elements, field mults)"
          (let m, r, el, fm = ca in
           (m, (r, (el, fm))))
          (let m, r, el, fm = cb in
           (m, (r, (el, fm)))));
  ]

let () =
  Alcotest.run "parallel"
    [
      ("pool", pool_suite);
      ("phase2", phase2_suite);
      ("runtime", runtime_suite);
      ("shamir", shamir_suite);
    ]
