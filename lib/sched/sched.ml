let recommended_jobs () = Domain.recommended_domain_count ()

(* Span sites guard on [Span.enabled] before building arg lists so the
   disabled path allocates nothing. *)
let span_task i remaining =
  if Fpx_obs.Span.enabled () then
    Fpx_obs.Span.begin_ ~cat:"sched"
      ~args:[ ("i", Fpx_obs.Trace.I i);
              ("queue_remaining", Fpx_obs.Trace.I remaining) ]
      "sched.task"

let span_end () = if Fpx_obs.Span.enabled () then Fpx_obs.Span.end_ ()

module Pool = struct
  (* A fixed set of worker domains spawned once and fed through a
     mutex-guarded queue: the domain-spawn cost is paid at [create],
     not per map call. A task is a pre-packed closure that computes
     (never raising) and returns the step that publishes its result, so
     the queue needs no existential wrapper and the worker can retire
     the task from [running] before anyone can observe it done. *)
  type t = {
    jobs : int;
    m : Mutex.t;
    work : Condition.t;
    q : (unit -> unit -> unit) Queue.t;
    mutable queued : int;  (* tasks enqueued, not yet picked up *)
    mutable running : int;  (* tasks currently executing on a worker *)
    mutable stop : bool;
    mutable workers : unit Domain.t list;
  }

  let worker pool () =
    let rec loop () =
      Mutex.lock pool.m;
      while Queue.is_empty pool.q && not pool.stop do
        Condition.wait pool.work pool.m
      done;
      if Queue.is_empty pool.q then Mutex.unlock pool.m (* stop *)
      else begin
        let task = Queue.pop pool.q in
        pool.queued <- pool.queued - 1;
        pool.running <- pool.running + 1;
        Mutex.unlock pool.m;
        let publish = task () in
        Mutex.lock pool.m;
        pool.running <- pool.running - 1;
        Mutex.unlock pool.m;
        publish ();
        loop ()
      end
    in
    loop ()

  let create ?jobs () =
    let jobs =
      match jobs with Some j when j >= 1 -> j | _ -> recommended_jobs ()
    in
    let pool =
      { jobs; m = Mutex.create (); work = Condition.create ();
        q = Queue.create (); queued = 0; running = 0; stop = false;
        workers = [] }
    in
    pool.workers <- List.init jobs (fun _ -> Domain.spawn (worker pool));
    pool

  let jobs pool = pool.jobs

  let in_flight pool =
    Mutex.lock pool.m;
    let n = pool.queued + pool.running in
    Mutex.unlock pool.m;
    n

  let enqueue pool task =
    Mutex.lock pool.m;
    if pool.stop then begin
      Mutex.unlock pool.m;
      invalid_arg "Sched.Pool: submit after shutdown"
    end;
    Queue.add task pool.q;
    pool.queued <- pool.queued + 1;
    Condition.signal pool.work;
    Mutex.unlock pool.m

  (* A one-shot completion cell. Results and exceptions both travel
     through it, so [await] reproduces the task's outcome exactly. *)
  type 'a future = {
    fm : Mutex.t;
    fc : Condition.t;
    mutable state : 'a state;
  }

  and 'a state =
    | Pending
    | Done of 'a
    | Raised of exn * Printexc.raw_backtrace

  let submit pool f =
    let fut = { fm = Mutex.create (); fc = Condition.create ();
                state = Pending }
    in
    enqueue pool (fun () ->
        let r =
          try Done (f ())
          with e -> Raised (e, Printexc.get_raw_backtrace ())
        in
        fun () ->
          Mutex.lock fut.fm;
          fut.state <- r;
          Condition.broadcast fut.fc;
          Mutex.unlock fut.fm);
    fut

  let await fut =
    Mutex.lock fut.fm;
    while fut.state = Pending do
      Condition.wait fut.fc fut.fm
    done;
    let r = fut.state in
    Mutex.unlock fut.fm;
    match r with
    | Done v -> v
    | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
    | Pending -> assert false

  let run pool f = await (submit pool f)

  let shutdown pool =
    Mutex.lock pool.m;
    pool.stop <- true;
    Condition.broadcast pool.work;
    let workers = pool.workers in
    pool.workers <- [];
    Mutex.unlock pool.m;
    List.iter Domain.join workers
end

let materialize out =
  (* Materialise in input order, so the first failing item (in input
     order) is the one re-raised. *)
  Fpx_obs.Span.with_ ~cat:"sched" "sched.materialize" (fun () ->
      Array.to_list
        (Array.map
           (function
             | Some (Ok v) -> v
             | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
             | None -> assert false)
           out))

(* Fan the n index tasks over a persistent pool: every index is one
   pool task writing its input-order slot, the caller blocks until all
   slots are filled. Result and exception semantics match the
   spawn-per-call path exactly. *)
let pool_mapi pool f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let out = Array.make n None in
  Fpx_obs.Span.with_ ~cat:"sched"
    ~args:
      (if Fpx_obs.Span.enabled () then
         [ ("pool_jobs", Fpx_obs.Trace.I (Pool.jobs pool));
           ("n", Fpx_obs.Trace.I n) ]
       else [])
    "sched.map"
    (fun () ->
      let futs =
        Array.init n (fun i ->
            Pool.submit pool (fun () ->
                span_task i (n - 1 - i);
                Fun.protect ~finally:span_end (fun () ->
                    out.(i) <-
                      Some
                        (try Ok (f i arr.(i))
                         with e ->
                           Error (e, Printexc.get_raw_backtrace ())))))
      in
      Array.iter Pool.await futs);
  materialize out

let mapi ?pool ?(jobs = 1) f xs =
  match (pool, xs) with
  | _, [] -> []
  | Some pool, _ -> pool_mapi pool f xs
  | None, [ x ] ->
    span_task 0 0;
    Fun.protect ~finally:span_end (fun () -> [ f 0 x ])
  | None, _ ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let out = Array.make n None in
    let compute i =
      span_task i (n - 1 - i);
      Fun.protect ~finally:span_end (fun () ->
          out.(i) <-
            Some
              (try Ok (f i arr.(i))
               with e -> Error (e, Printexc.get_raw_backtrace ())))
    in
    Fpx_obs.Span.with_ ~cat:"sched"
      ~args:
        (if Fpx_obs.Span.enabled () then
           [ ("jobs", Fpx_obs.Trace.I jobs); ("n", Fpx_obs.Trace.I n) ]
         else [])
      "sched.map"
      (fun () ->
        if jobs <= 1 then
          for i = 0 to n - 1 do
            compute i
          done
        else begin
          (* Index-stealing over the input array: workers grab the next
             unclaimed index, so results land in input slots regardless
             of which domain computed them. *)
          let next = Atomic.make 0 in
          let worker () =
            Fpx_obs.Span.with_ ~cat:"sched" "sched.worker" (fun () ->
                let continue = ref true in
                while !continue do
                  (* the claim span isolates fetch_and_add contention
                     from the task body that follows *)
                  if Fpx_obs.Span.enabled () then
                    Fpx_obs.Span.begin_ ~cat:"sched" "sched.claim";
                  let i = Atomic.fetch_and_add next 1 in
                  span_end ();
                  if i >= n then continue := false else compute i
                done)
          in
          let spawned =
            Fpx_obs.Span.with_ ~cat:"sched" "sched.spawn" (fun () ->
                Array.init (min jobs n - 1) (fun _ -> Domain.spawn worker))
          in
          worker ();
          Fpx_obs.Span.with_ ~cat:"sched" "sched.join" (fun () ->
              Array.iter Domain.join spawned)
        end);
    materialize out

let map ?pool ?jobs f xs = mapi ?pool ?jobs (fun _ x -> f x) xs
let iter ?pool ?jobs f xs = ignore (map ?pool ?jobs f xs : unit list)
