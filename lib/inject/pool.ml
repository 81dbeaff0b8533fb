(** Parallel work pool over OCaml 5 domains.

    Campaigns are embarrassingly parallel: each injection run is a pure
    function of [(config, seed)], with no shared mutable state anywhere
    in the simulator (each worker owns its machine, restored to its
    boot image between runs, and every run derives every stochastic
    decision from its own splitmix64 stream). The pool
    exploits that with shared-nothing workers: [jobs] domains pull
    chunks of the index range [0, n) from a single [Atomic] cursor,
    accumulate into a worker-local accumulator, and the per-worker
    accumulators are merged at the end.

    Determinism contract: as long as [body] is a pure function of the
    index (per accumulator) and [merge] is commutative and associative,
    the final accumulator is identical for every value of [jobs] and
    [chunk] — only the wall-clock time changes. *)

let default_jobs () = Domain.recommended_domain_count ()

(* Chunked self-scheduling: aim for ~4 chunks per worker, so cursor
   contention stays negligible while the tail imbalance is bounded by a
   quarter of a worker's share. Capped at [default_chunk_cap]: beyond
   ~16k items the cursor is already uncontended, and soak campaigns want
   many small chunks for checkpoint granularity and tail balance rather
   than a handful of enormous ones. *)
let default_chunk_cap = 4096

let default_chunk ~n ~jobs =
  max 1 (min default_chunk_cap (n / (jobs * 4)))

(* The worker-domain count a pool call over [n] work units actually
   runs: [jobs] (default one per core), at most one per unit and, unless
   [oversubscribe], at most one per core. *)
let workers ?jobs ~oversubscribe n =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let jobs = min jobs (max 1 n) in
  if oversubscribe then jobs else min jobs (default_jobs ())

(* [map_reduce ~jobs ~chunk ~n ~init ~body ~merge] folds [body acc i]
   for every [i] in [0, n) into worker-local accumulators created by
   [init slot], then combines them with [merge]. [init] receives the
   worker's slot index ([0] for the calling domain, [1 .. jobs-1] for
   spawned domains) and runs inside that worker's own domain, so it can
   both pick a slot-indexed resource (a pre-booted machine pool) and
   capture domain-local state. [jobs] defaults to [default_jobs ()];
   [jobs <= 1] (or [n <= 1]) degrades to a plain sequential loop with no
   domain spawned at all. [finish], if given, runs on each accumulator
   in its own worker domain after that worker's last index -- the place
   to capture domain-local state (e.g. [Gc.minor_words], which is
   per-domain in OCaml 5) before the accumulator crosses to the caller
   for merging.

   The pool never runs more domains than the host has cores (unless
   [oversubscribe] is set): each domain's minor collection is a
   stop-the-world rendezvous of every domain, and when runnable domains
   outnumber cores that rendezvous waits on the OS scheduler --
   allocating work measures ~20x slower at 4 domains on 1 core. Capping
   at the core count costs nothing (the extra domains had no core to run
   on) and cannot change results: the accumulator is identical for every
   worker count. [oversubscribe] exists so tests can force the
   real multi-domain path on any host. *)
let map_reduce ?jobs ?chunk ?(oversubscribe = false)
    ?(finish : ('acc -> unit) option) ~n ~(init : int -> 'acc)
    ~(body : 'acc -> int -> unit) ~(merge : 'acc -> 'acc -> 'acc) () : 'acc =
  let jobs = workers ?jobs ~oversubscribe n in
  let finish = match finish with Some f -> f | None -> fun _ -> () in
  if n <= 0 then begin
    let acc = init 0 in
    finish acc;
    acc
  end
  else if jobs = 1 then begin
    let acc = init 0 in
    for i = 0 to n - 1 do
      body acc i
    done;
    finish acc;
    acc
  end
  else begin
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> default_chunk ~n ~jobs
    in
    let next = Atomic.make 0 in
    let worker slot =
      let acc = init slot in
      let rec loop () =
        let lo = Atomic.fetch_and_add next chunk in
        if lo < n then begin
          let hi = min n (lo + chunk) in
          for i = lo to hi - 1 do
            body acc i
          done;
          loop ()
        end
      in
      loop ();
      finish acc;
      acc
    in
    (* jobs - 1 spawned domains; the calling domain is slot 0. *)
    let spawned =
      Array.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
    in
    let acc = worker 0 in
    Array.fold_left (fun acc d -> merge acc (Domain.join d)) acc spawned
  end

(* [map_chunks] is the checkpointable sibling of [map_reduce]: the work
   range is pre-cut into [n_chunks] fixed chunks, workers claim whole
   chunks from an [Atomic] cursor, and each finished chunk's result is
   handed to [publish] under a single mutex -- so the coordinator can
   fold chunk results into a running aggregate and periodically persist
   it, knowing exactly which chunks the aggregate covers. [skip c] lets
   a resumed campaign leave already-aggregated chunks untouched (the
   cursor still walks every index so chunk identity never depends on
   which chunks were skipped). [should_stop] is polled before claiming
   each chunk; it simulates a mid-campaign kill in tests. In-flight
   chunks still publish after the stop trips, so up to [jobs - 1] extra
   chunks beyond the trigger may land in the checkpoint -- a resume
   skips those too, which is the point.

   [publish] and [finish] both run under the mutex: they are the only
   cross-domain communication, so [body] results must not be mutated by
   the worker after publishing. *)
let map_chunks ?jobs ?(oversubscribe = false)
    ?(should_stop = fun () -> false) ?(finish : ('w -> unit) option)
    ~n_chunks ~(skip : int -> bool) ~(init : int -> 'w)
    ~(body : 'w -> int -> 'a) ~(publish : int -> 'a -> unit) () : unit =
  let jobs = workers ?jobs ~oversubscribe n_chunks in
  let finish = match finish with Some f -> f | None -> fun _ -> () in
  let lock = Mutex.create () in
  let next = Atomic.make 0 in
  let worker slot =
    let w = init slot in
    let rec loop () =
      if not (should_stop ()) then begin
        let c = Atomic.fetch_and_add next 1 in
        if c < n_chunks then begin
          if not (skip c) then begin
            let r = body w c in
            Mutex.protect lock (fun () -> publish c r)
          end;
          loop ()
        end
      end
    in
    loop ();
    Mutex.protect lock (fun () -> finish w)
  in
  if jobs = 1 then worker 0
  else begin
    let spawned =
      Array.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
    in
    worker 0;
    Array.iter Domain.join spawned
  end
