let max_jobs = Meter.max_slot

(* ---- Job-count resolution ---- *)

let clamp j = if j < 1 then 1 else if j > max_jobs then max_jobs else j

let env_jobs =
  lazy
    (match Sys.getenv_opt "PPGR_JOBS" with
    | None | Some "" -> 1
    | Some ("0" | "auto") -> clamp (Domain.recommended_domain_count ())
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some 0 -> clamp (Domain.recommended_domain_count ())
        | Some k -> clamp k
        | None -> 1))

let override = ref None
let jobs () = match !override with Some j -> j | None -> Lazy.force env_jobs

(* ---- Jobs and the work-stealing pool ----

   A job is a batch of [total] independent tasks sharing one atomic
   index dispenser ([next]) and one atomic completion counter
   ([remaining]).  Any domain may claim indices from any live job, so a
   nested combinator call no longer degrades to sequential: the nesting
   task publishes its job on its domain's deque, drains it itself, and
   idle domains steal from it concurrently.

   Scheduling is cooperative under one pool mutex: tasks themselves are
   coarse (group exponentiations), so per-claim locking is noise.  The
   deques are tiny lists (live jobs = nesting depth x submitting
   domains), newest job first; an owner prefers its own newest job
   (deepest nesting, finishes its joiner soonest), a thief takes the
   oldest job of another deque (classic steal-from-the-top). *)

type job = {
  run : int -> unit;
  next : int Atomic.t;
  total : int;
  remaining : int Atomic.t;
  failure : (int * exn * Printexc.raw_backtrace) option Atomic.t;
}

type pool = {
  m : Mutex.t;
  cv : Condition.t;
      (* broadcast when a job is published, a job fully completes, or
         the pool stops; both workers and joining submitters wait on
         it. *)
  deques : job list array; (* slot-indexed; head = newest *)
  mutable njobs : int; (* jobs currently queued across all deques *)
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

let in_task_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let in_parallel_task () = Domain.DLS.get in_task_key

(* Lowest-failing-index exception, matching what the sequential loop
   would have raised first. *)
let record_failure failure i e bt =
  let rec go () =
    match Atomic.get failure with
    | Some (i0, _, _) when i0 <= i -> ()
    | cur -> if not (Atomic.compare_and_set failure cur (Some (i, e, bt))) then go ()
  in
  go ()

let reraise_min failure =
  match Atomic.get failure with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* Run task [i] of [j].  Never raises: failures go into the job's
   failure cell.  The completion decrement is in the [finally] so a
   joiner can never wait on a task that already unwound. *)
let exec_task p j i =
  let prev = Domain.DLS.get in_task_key in
  Domain.DLS.set in_task_key true;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set in_task_key prev;
      if Atomic.fetch_and_add j.remaining (-1) = 1 then begin
        Mutex.lock p.m;
        Condition.broadcast p.cv;
        Mutex.unlock p.m
      end)
    (fun () ->
      try j.run i
      with e -> record_failure j.failure i e (Printexc.get_raw_backtrace ()))

(* Claim one task index with [p.m] held.  Scans the caller's own deque
   newest-first, then the other deques oldest-first; exhausted jobs
   (every index claimed) are pruned as they are met, so [p.njobs] only
   counts jobs that may still have unclaimed indices. *)
let claim_locked p ~slot =
  let nslots = Array.length p.deques in
  let claim j =
    let i = Atomic.fetch_and_add j.next 1 in
    if i < j.total then Some (j, i) else None
  in
  let rec own = function
    | [] -> ([], None)
    | j :: rest -> (
        match claim j with
        | Some _ as hit -> (j :: rest, hit)
        | None ->
            p.njobs <- p.njobs - 1;
            own rest)
  in
  let deque, hit = own p.deques.(slot) in
  p.deques.(slot) <- deque;
  match hit with
  | Some _ -> hit
  | None ->
      let rec steal k =
        if k >= nslots then None
        else begin
          let s = (slot + k) mod nslots in
          (* Oldest job first: reverse, then prune/claim. *)
          let rec from_back = function
            | [] -> ([], None)
            | j :: rest -> (
                match claim j with
                | Some _ as hit -> (j :: rest, hit)
                | None ->
                    p.njobs <- p.njobs - 1;
                    from_back rest)
          in
          let rev, hit = from_back (List.rev p.deques.(s)) in
          p.deques.(s) <- List.rev rev;
          match hit with Some _ -> hit | None -> steal (k + 1)
        end
      in
      steal 1

let worker p slot () =
  Meter.set_slot slot;
  let rec loop () =
    Mutex.lock p.m;
    while (not p.stop) && p.njobs = 0 do
      Condition.wait p.cv p.m
    done;
    if p.stop then Mutex.unlock p.m
    else begin
      let c = claim_locked p ~slot in
      Mutex.unlock p.m;
      (match c with Some (j, i) -> exec_task p j i | None -> ());
      loop ()
    end
  in
  loop ()

let the_pool = ref None
let exit_hook = ref false

let teardown () =
  match !the_pool with
  | None -> ()
  | Some p ->
      Mutex.lock p.m;
      p.stop <- true;
      Condition.broadcast p.cv;
      Mutex.unlock p.m;
      Array.iter Domain.join p.workers;
      the_pool := None

let get_pool () =
  let needed = jobs () - 1 in
  (match !the_pool with
  | Some p when Array.length p.workers <> needed -> teardown ()
  | _ -> ());
  match !the_pool with
  | Some p -> p
  | None ->
      let p =
        {
          m = Mutex.create ();
          cv = Condition.create ();
          deques = Array.make (needed + 1) [];
          njobs = 0;
          stop = false;
          workers = [||];
        }
      in
      p.workers <- Array.init needed (fun k -> Domain.spawn (worker p (k + 1)));
      the_pool := Some p;
      if not !exit_hook then begin
        exit_hook := true;
        at_exit teardown
      end;
      p

let set_jobs j =
  let j = if j <= 0 then clamp (Domain.recommended_domain_count ()) else clamp j in
  if jobs () <> j then teardown ();
  override := Some j

(* ---- Submit / join ---- *)

(* Publish [j], drain it on the submitting domain, then join: while
   tasks of [j] still run elsewhere, help with any live job rather than
   blocking, and only sleep when there is nothing claimable anywhere.

   Deadlock-freedom: the submitter's own drain alone completes every
   index nobody else claimed, and a thief runs a claimed task to
   completion before claiming again, so by induction on the (finite)
   nesting depth every join terminates.  Helping while joining is a
   throughput refinement, not a liveness requirement. *)
let run_job p j =
  let slot = Meter.slot () in
  Mutex.lock p.m;
  p.deques.(slot) <- j :: p.deques.(slot);
  p.njobs <- p.njobs + 1;
  Condition.broadcast p.cv;
  Mutex.unlock p.m;
  let rec drain () =
    let i = Atomic.fetch_and_add j.next 1 in
    if i < j.total then begin
      exec_task p j i;
      drain ()
    end
  in
  drain ();
  (* Our indices are exhausted; prune [j] from our deque if a thief has
     not already done so. *)
  Mutex.lock p.m;
  if List.memq j p.deques.(slot) then begin
    p.deques.(slot) <- List.filter (fun j' -> j' != j) p.deques.(slot);
    p.njobs <- p.njobs - 1
  end;
  Mutex.unlock p.m;
  let rec join () =
    if Atomic.get j.remaining > 0 then begin
      Mutex.lock p.m;
      let c = claim_locked p ~slot in
      (match c with
      | None ->
          (* [claim_locked] returning [None] under the lock implies
             every deque is empty, so the wait predicate is
             consistent. *)
          while Atomic.get j.remaining > 0 && p.njobs = 0 do
            Condition.wait p.cv p.m
          done
      | Some _ -> ());
      Mutex.unlock p.m;
      (match c with Some (j', i) -> exec_task p j' i | None -> ());
      join ()
    end
  in
  join ()

let submit_pool () =
  if in_parallel_task () then
    (* A task implies a live pool; reuse it without the resize check,
       which only the main domain may perform. *)
    match !the_pool with Some p -> p | None -> assert false
  else get_pool ()

let run_tasks ~total ~run =
  let failure = Atomic.make None in
  let j =
    { run; next = Atomic.make 0; total; remaining = Atomic.make total; failure }
  in
  run_job (submit_pool ()) j;
  reraise_min failure

(* ---- Combinators ---- *)

let parallel_init n f =
  if n < 0 then invalid_arg "Pool.parallel_init: negative length";
  if n = 0 then [||]
  else if jobs () = 1 || n = 1 then begin
    (* Exact sequential path, ascending order. *)
    let r0 = f 0 in
    let out = Array.make n r0 in
    for i = 1 to n - 1 do
      out.(i) <- f i
    done;
    out
  end
  else begin
    let results = Array.make n None in
    run_tasks ~total:n ~run:(fun i -> results.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) results
  end

let parallel_map f a = parallel_init (Array.length a) (fun i -> f a.(i))

let parallel_for n f =
  if n < 0 then invalid_arg "Pool.parallel_for: negative length";
  if n = 0 then ()
  else if jobs () = 1 || n = 1 then
    for i = 0 to n - 1 do
      f i
    done
  else run_tasks ~total:n ~run:f
