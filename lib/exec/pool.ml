let max_jobs = Meter.max_slot

(* ---- Job-count resolution ---- *)

let clamp j = if j < 1 then 1 else if j > max_jobs then max_jobs else j
let auto () = clamp (Domain.recommended_domain_count ())

let env_jobs =
  lazy
    (match Sys.getenv_opt "PPGR_JOBS" with
    | None | Some "" -> 1
    | Some ("0" | "auto") -> auto ()
    | Some s -> (
        match int_of_string_opt s with
        | Some k when k > 0 && String.for_all (fun c -> c >= '0' && c <= '9') s ->
            clamp k
        | _ ->
            invalid_arg
              (Printf.sprintf
                 "PPGR_JOBS=%S: expected a positive integer, 0 or auto" s)))

let override = ref None
let jobs () = match !override with Some j -> j | None -> Lazy.force env_jobs

(* ---- The one-batch pool ----

   A job is a batch of [total] independent tasks sharing one atomic
   index dispenser ([next]) and one atomic completion counter
   ([remaining]).  Only the main domain submits, one job at a time: it
   publishes the job, drains it beside the workers, and sleeps until
   the last task completes.  A combinator called inside a task runs the
   sequential loop on that task's domain, so there is never a second
   live job. *)

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
      (* broadcast when a job is published, its last task completes, or
         the pool stops; both workers and the submitter wait on it. *)
  mutable job : job option; (* the live batch, [None] between batches *)
  mutable gen : int; (* jobs published so far *)
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

(* Claim and run tasks of [j] until its indices are exhausted.  Never
   raises: failures go into the job's failure cell, and the task that
   completes the job wakes the submitter. *)
let drain p j =
  let rec go () =
    let i = Atomic.fetch_and_add j.next 1 in
    if i < j.total then begin
      Domain.DLS.set in_task_key true;
      (try j.run i
       with e -> record_failure j.failure i e (Printexc.get_raw_backtrace ()));
      Domain.DLS.set in_task_key false;
      if Atomic.fetch_and_add j.remaining (-1) = 1 then begin
        Mutex.lock p.m;
        Condition.broadcast p.cv;
        Mutex.unlock p.m
      end;
      go ()
    end
  in
  go ()

(* A worker drains each published job once, then sleeps until the next
   one is published; a job it meets after its last index went is a
   no-op. *)
let worker p slot () =
  Meter.set_slot slot;
  let rec loop seen =
    Mutex.lock p.m;
    while (not p.stop) && p.gen = seen do
      Condition.wait p.cv p.m
    done;
    let stop = p.stop and gen = p.gen and job = p.job in
    Mutex.unlock p.m;
    if not stop then begin
      Option.iter (drain p) job;
      loop gen
    end
  in
  loop 0

let the_pool = ref None

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

let () = at_exit teardown

(* A live pool always has [jobs () - 1] workers: [set_jobs] tears down
   a pool of any other size. *)
let get_pool () =
  match !the_pool with
  | Some p -> p
  | None ->
      let p =
        {
          m = Mutex.create ();
          cv = Condition.create ();
          job = None;
          gen = 0;
          stop = false;
          workers = [||];
        }
      in
      p.workers <- Array.init (jobs () - 1) (fun k -> Domain.spawn (worker p (k + 1)));
      the_pool := Some p;
      p

(* Sets the override without reading PPGR_JOBS, so a malformed variable
   never fails an explicit job count. *)
let set_jobs j =
  let j = if j <= 0 then auto () else clamp j in
  (match !the_pool with
  | Some p when Array.length p.workers <> j - 1 -> teardown ()
  | _ -> ());
  override := Some j

let run_tasks ~total ~run =
  let p = get_pool () in
  let j =
    { run; next = Atomic.make 0; total; remaining = Atomic.make total; failure = Atomic.make None }
  in
  Mutex.lock p.m;
  p.job <- Some j;
  p.gen <- p.gen + 1;
  Condition.broadcast p.cv;
  Mutex.unlock p.m;
  drain p j;
  Mutex.lock p.m;
  while Atomic.get j.remaining > 0 do
    Condition.wait p.cv p.m
  done;
  p.job <- None;
  Mutex.unlock p.m;
  match Atomic.get j.failure with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* ---- Combinators ---- *)

(* The exact sequential loop: at jobs = 1, and inside a pool task. *)
let sequential n = jobs () = 1 || n = 1 || in_parallel_task ()

let parallel_init n f =
  if n < 0 then invalid_arg "Pool.parallel_init: negative length";
  if n = 0 then [||]
  else if sequential n then begin
    (* Ascending order, as Array.init. *)
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
  else if sequential n then
    for i = 0 to n - 1 do
      f i
    done
  else run_tasks ~total:n ~run:f
