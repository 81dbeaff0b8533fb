(** Fleet-scale serving scenario: hundreds of tenant VMs issuing request
    traffic *through* a hypervisor recovery event.

    The paper evaluates recovery latency on one machine with a handful of
    AppVMs; what a cloud operator cares about is the user-perceived
    degradation across a fleet of tenants when the hypervisor under them
    recovers (cf. "End-User Effects of Microreboots", PAPERS.md). This
    module hosts [tenants] small single-vCPU guests on a hypervisor
    ({!Hyper.Hypervisor.Tenant_fleet}), drives a mixed warmup through the
    real workload samplers, damages a few victim tenants' page-frame
    state at a golden quiesce point, recovers with one of three
    mechanisms, and accounts per-tenant request latency through the
    event:

    - [Serial_full]: the paper's serial microreset with the full
      page-frame consistency scan -- every tenant stalls for the whole
      O(machine) recovery (~22 ms at reference geometry).
    - [Serial_incremental]: the same serial microreset driven off the
      dirty sets -- every tenant stalls, but only O(damaged state).
    - [Sharded]: {!Recovery.Shard} -- a short global quiesce, then
      per-domain shards on the simulated CPUs; a tenant resumes as soon
      as the global phase and its own shard are done.

    All three are recovery plans, so every trial reads each tenant's
    stall from the plan outcome's resume offsets.

    Requests arrive on a per-tenant cadence across a fixed window around
    the fault. A request arriving while its tenant is stalled completes
    when the tenant resumes (latency = residual stall + service time);
    everything else pays only its service time. Latencies land in the
    log-bucket histogram [fleet.request_ns] (p50/p99/p999 within 25%
    relative error), SLO violations and netstack loss counters ride
    alongside. Each trial's metrics fold in place into its pool
    worker's registry ({!Obs.Metrics.accumulate}, the in-place form of
    the commutative {!Obs.Metrics.merge_snapshots}), workers' registries
    fold together, and a call takes one snapshot at the end -- so fleet
    results are bit-identical for any [--jobs], the same contract the
    campaign engine has.

    The accounting is per tenant, not per request. An unstalled
    request's latency is one of 200 service times, so those requests
    only tally their service draw, and the tallies reach the histogram
    and the counters once per trial ({!Obs.Metrics.observe_n}). Stalled
    requests are observed one by one, each bucket search starting from
    the previous one's ({!Obs.Metrics.observe_near}). Each tenant's ping
    sender, started when the window opens, takes its delivered ticks as
    two closed-form runs around the stall. Every RNG draw is made, in
    arrival order, so the metrics equal a per-request loop's (test_fleet
    "batched accounting equals per-request loop").

    Trials recover in place rather than reboot, like the paper's
    mechanisms do: a worker's machine is booted for no mechanism, every
    trial restores its post-boot image (O(state the previous trial
    touched)) and then sets the trial's scan path, and the golden
    quiesce point is a layer snapshot over it
    ({!Hyper.Hypervisor.snapshot} [~layer:true]), which the next restore
    unwinds.

    The worker pool. {!run} takes its slot workers from one pool that
    lives as long as the process, so a process boots one machine per
    pool slot and every later call, for any mechanism, restores it. The
    pool is keyed by [(tenants, request_interval)]: a call with another
    key drops the old machines first, so at most one machine per slot
    is ever retained (about 8 MB at 200 tenants). A call claims the
    whole pool with an [Atomic] compare-and-set; a concurrent call that
    finds it busy boots private workers instead, and a call that raises
    drops the pool's machines. None of this can change a result, since
    a restored worker equals a fresh boot (below); it changes only how
    many machines a process boots, which {!boots} counts.

    Every trial is a pure function of [(config, mechanism, trial seed)]:
    the boot takes no randomness, so a restored trial equals one on a
    freshly-booted machine ({!run_trial}); the warmup, the victims and
    the request streams all derive from the trial's own splitmix
    stream. *)

open Hyper

type mechanism = Serial_full | Serial_incremental | Sharded

let mechanism_name = function
  | Serial_full -> "serial-full"
  | Serial_incremental -> "serial-incremental"
  | Sharded -> "sharded"

let mechanism_of_string = function
  | "serial-full" -> Some Serial_full
  | "serial-incremental" -> Some Serial_incremental
  | "sharded" -> Some Sharded
  | _ -> None

let all_mechanisms = [ Serial_full; Serial_incremental; Sharded ]

type config = {
  tenants : int; (* tenant VMs sharing the host *)
  trials : int; (* independent fleet trials (distinct seeds) *)
  victims : int; (* tenants whose pfn state the fault damages *)
  frames_per_victim : int; (* damaged descriptors per victim *)
  warmup_activities : int; (* mixed workload steps before the fault *)
  request_interval : Sim.Time.ns; (* per-tenant request cadence *)
  pre_window : Sim.Time.ns; (* observation window before the fault... *)
  post_window : Sim.Time.ns; (* ...and after it *)
  slo : Sim.Time.ns; (* request-latency SLO *)
  base_seed : int64;
}

let default_config =
  {
    tenants = 200;
    trials = 4;
    victims = 3;
    frames_per_victim = 6;
    warmup_activities = 400;
    request_interval = Sim.Time.us 250;
    pre_window = Sim.Time.ms 5;
    post_window = Sim.Time.ms 25;
    slo = Sim.Time.ms 1;
    base_seed = 42_000L;
  }

(* Costs are charged at the paper's reference geometry (2 Mi frames,
   8 CPUs) while the mechanics run on the scaled-down campaign tables:
   the latencies reported here are the 8 GB host's, not the simulator's.
   The serial full-scan baseline uses the stock NiLiHype config; the
   other two mechanisms enable the dirty-set consistency scan, the only
   field in which the three configs differ. *)
let incremental_scan = function
  | Serial_full -> false
  | Serial_incremental | Sharded -> true

let hv_config mech =
  {
    Config.nilihype with
    Config.geometry = Some Config.reference_geometry;
    incremental_scan = incremental_scan mech;
  }

(* The observation window must be a real one: a non-positive request
   interval would never advance the arrival loop. *)
let check_config (cfg : config) =
  if cfg.request_interval <= 0 then
    invalid_arg "Fleet: request_interval must be positive";
  if cfg.pre_window < 0 || cfg.post_window < 0 then
    invalid_arg "Fleet: pre_window and post_window must be non-negative"

(* The trial's nine instruments, resolved once per worker:
   [Obs.Recorder.reset] zeroes them in place, so the handles stay valid
   across every rewind. *)
type instruments = {
  requests_c : Obs.Metrics.counter;
  stalled_c : Obs.Metrics.counter;
  violations_c : Obs.Metrics.counter;
  failed_c : Obs.Metrics.counter;
  lost_c : Obs.Metrics.counter;
  req_h : Obs.Metrics.histogram;
  rec_h : Obs.Metrics.histogram;
  rec_max : Obs.Metrics.gauge;
  gap_max : Obs.Metrics.gauge;
}

let instruments (m : Obs.Metrics.t) =
  {
    requests_c = Obs.Metrics.counter m "fleet.requests";
    stalled_c = Obs.Metrics.counter m "fleet.requests_stalled";
    violations_c = Obs.Metrics.counter m "fleet.slo_violations";
    failed_c = Obs.Metrics.counter m "fleet.tenants_failed";
    lost_c = Obs.Metrics.counter m "fleet.net_lost";
    req_h =
      Obs.Metrics.log_histogram m "fleet.request_ns" ~lo:(Sim.Time.us 1)
        ~hi:(Sim.Time.ms 100);
    rec_h =
      Obs.Metrics.log_histogram m "fleet.recovery_ns" ~lo:(Sim.Time.us 10)
        ~hi:(Sim.Time.s 1);
    rec_max = Obs.Metrics.gauge m "fleet.recovery_ns_max";
    gap_max = Obs.Metrics.gauge m "fleet.max_gap_ns";
  }

(* A request's service time is [service_ns k] for one draw
   [k = Sim.Rng.int rng service_values]. *)
let service_values = 200
let service_ns k = Sim.Time.us (30 + k)

(* A fleet worker: one tenant-fleet machine, with its recorder
   ([w_hv.obs]) and its post-boot base image. It serves every
   mechanism: each trial restores that image instead of booting again
   and then sets the mechanism's scan path; [Hypervisor.boot] takes no
   RNG, so the restored machine is the one a fresh boot for that
   mechanism would build. The rest is per-trial scratch that every
   trial overwrites: built once here, so a trial allocates none of it. *)
type worker = {
  w_hv : Hypervisor.t;
  w_base : Hypervisor.image;
  w_tenants : int;
  w_interval : Sim.Time.ns;
  w_ins : instruments;
  w_loads : Workloads.Workload.t array; (* tenant t's sampler, domid t + 1 *)
  w_nets : Guest.Netstack.t array; (* tenant t's ping sender *)
  w_stalls : Sim.Time.ns array; (* per domid, the trial's stall *)
  w_served : int array; (* per service draw, the trial's unstalled requests *)
}

(* Mixed tenant population driven through the real workload samplers:
   the warmup dirties pfn/heap/timer state the way guest traffic does,
   so the dirty sets the incremental scan walks are workload-shaped.
   Sampling reads a workload and never writes it. *)
let kinds =
  [|
    Workloads.Workload.Netbench; Workloads.Workload.Unixbench;
    Workloads.Workload.Blkbench;
  |]

(* Fleet machines booted in this process, [run_trial]'s included. *)
let boot_count = Atomic.make 0
let boots () = Atomic.get boot_count

(* A worker whose machine boots under [config]. *)
let boot_worker (cfg : config) config =
  Atomic.incr boot_count;
  let hv =
    Hypervisor.boot ~mconfig:Hw.Machine.campaign_config
      ~obs:(Obs.Recorder.create ~capacity:64 ~min_level:Obs.Event.Error ())
      ~config
      ~setup:(Hypervisor.Tenant_fleet cfg.tenants)
      (Sim.Clock.create ())
  in
  {
    w_hv = hv;
    w_base = Hypervisor.snapshot hv;
    w_tenants = cfg.tenants;
    w_interval = cfg.request_interval;
    w_ins = instruments hv.Hypervisor.obs.Obs.Recorder.metrics;
    w_loads =
      Array.init cfg.tenants (fun i ->
          Workloads.Workload.create kinds.(i mod Array.length kinds)
            ~domid:(i + 1));
    w_nets =
      Array.init cfg.tenants (fun _ ->
          Guest.Netstack.create ~interval:cfg.request_interval ());
    w_stalls = Array.make (cfg.tenants + 1) 0;
    w_served = Array.make service_values 0;
  }

(* Booted under the serial-full config: [rewind] sets the one field in
   which a mechanism's config differs, so the worker serves them all. *)
let worker cfg = boot_worker cfg (hv_config Serial_full)

(* Back to the freshly-booted machine, set up for [mech]: the restore
   rewinds [hv.config] to the boot's, so the scan path is set after it.
   The recorder is not part of the image, so it is reset by hand for
   per-trial metric isolation. *)
let rewind w mech =
  let hv = w.w_hv in
  Obs.Recorder.reset hv.Hypervisor.obs;
  Hypervisor.restore hv w.w_base;
  let c = hv.Hypervisor.config in
  if c.Config.incremental_scan <> incremental_scan mech then
    hv.Hypervisor.config <-
      { c with Config.incremental_scan = incremental_scan mech }

(* How many of the arrivals [first], [first + iv], ... fall before
   [limit]. *)
let arrivals_before ~first ~iv limit =
  if limit <= first then 0 else ((limit - first - 1) / iv) + 1

(* [n] unstalled requests: each draws its service time, which is its
   whole latency, so only the draw's tally is kept. *)
let serve rng served n =
  for _ = 1 to n do
    let k = Sim.Rng.int rng service_values in
    served.(k) <- served.(k) + 1
  done

(* The trial up to its fault: rewind [w] for [mech], warm up,
   snapshot, damage victims. *)
let inject w (cfg : config) mech rng =
  rewind w mech;
  let hv = w.w_hv in
  let clock = hv.Hypervisor.clock in
  for _ = 1 to cfg.warmup_activities do
    Sim.Clock.advance_by clock (Sim.Time.us (20 + Sim.Rng.int rng 180));
    let l = w.w_loads.(Sim.Rng.int rng cfg.tenants) in
    Hypervisor.execute hv rng (Workloads.Workload.sample_activity rng l)
  done;
  (* Golden quiesce point: refresh baselines and drain the dirty sets,
     so what is dirty at recovery time is exactly the damage. A layer
     over the base image, so the next trial's rewind unwinds it. *)
  ignore (Hypervisor.snapshot ~layer:true hv);
  (* The fault: a few tenants' typed frames lose their references --
     the validation/use-count disagreement the consistency scan exists
     to repair. Victims are spread across the tenant range. *)
  let victims = max 1 (min cfg.victims cfg.tenants) in
  let off = Sim.Rng.int rng cfg.tenants in
  let victim_ids =
    List.sort_uniq compare
      (List.init victims (fun k ->
           1 + ((off + (k * cfg.tenants / victims)) mod cfg.tenants)))
  in
  let n_frames = Hypervisor.frames hv in
  List.iter
    (fun domid ->
      let left = ref cfg.frames_per_victim in
      let i = ref 0 in
      while !left > 0 && !i < n_frames do
        (* A peek: the untouched frames' sentinel is never a victim's. *)
        let d = Pfn.peek hv.Hypervisor.pfn !i in
        if d.Pfn.owner = domid && d.Pfn.use_count > 0 then begin
          Pfn.touch d;
          d.Pfn.use_count <- 0;
          decr left
        end;
        incr i
      done)
    victim_ids

(* Recover [w]'s machine. Serial plans stall every tenant for the whole
   latency; sharded recovery gives each domain its own resume offset. *)
let recover w mech =
  let enh = Recovery.Enhancement.full_set in
  match mech with
  | Serial_full | Serial_incremental ->
    Recovery.Engine.recover Recovery.Engine.Nilihype w.w_hv ~enh ~detected_on:0
  | Sharded -> Recovery.Shard.recover w.w_hv ~enh ~detected_on:0

(* The trial up to its request accounting: the fault, the recovery and
   its latency record. Returns the fault time and the recovery outcome;
   the next draw from [rng] is the accounting's first. *)
let recover_event w (cfg : config) mech rng =
  inject w cfg mech rng;
  let ins = w.w_ins in
  let fault_time = Sim.Clock.now w.w_hv.Hypervisor.clock in
  let out = recover w mech in
  let latency = out.Recovery.Plan.latency in
  Obs.Metrics.observe ins.rec_h latency;
  if latency > ins.rec_max.Obs.Metrics.value then
    Obs.Metrics.set ins.rec_max latency;
  (fault_time, out)

(* The trial's request accounting through the recovery event [out]
   that began at [fault_time]. *)
let account w (cfg : config) rng ~fault_time (out : Recovery.Plan.outcome) =
  let ins = w.w_ins in
  (* Each tenant's stall, by domid: the global phase's offset, or the
     later one of a domain whose lane steps the plan lists. *)
  let stalls = w.w_stalls in
  Array.fill stalls 0 (Array.length stalls) out.Recovery.Plan.resume_global;
  List.iter
    (fun (domid, o) ->
      if domid >= 0 && domid < Array.length stalls then stalls.(domid) <- o)
    out.Recovery.Plan.resume_offsets;
  (* Request accounting through the event, per tenant. Arrivals run on
     the tenant's cadence from a random phase; the ones that arrive
     while the tenant is stalled complete when it resumes (latency =
     residual stall + service time) and are observed one by one, the
     rest cost their service time only and are tallied per draw, then
     folded into the histogram once per trial. Every draw happens in
     arrival order. The netstack models the same window as the paper's
     UDP ping sender, started when the window opens: ticks while the
     tenant serves, one interruption for its stall. *)
  let iv = cfg.request_interval in
  let served = w.w_served in
  let stalled = ref 0 and violations = ref 0 in
  let failed = ref 0 and lost = ref 0 and max_gap = ref 0 in
  (* Bucket of the previous stalled request: one tenant's stalled
     latencies fall by about [iv] a request. *)
  let near = ref 0 in
  for t = 0 to cfg.tenants - 1 do
    let stall = stalls.(t + 1) in
    let stall_end = fault_time + stall in
    let first = fault_time - cfg.pre_window + Sim.Rng.int rng (max 1 iv) in
    let count = arrivals_before ~first ~iv (fault_time + cfg.post_window + 1) in
    let n_pre = min count (arrivals_before ~first ~iv fault_time) in
    let n_resumed = min count (arrivals_before ~first ~iv stall_end) in
    serve rng served n_pre;
    for i = n_pre to n_resumed - 1 do
      let lat =
        stall_end - (first + (i * iv))
        + service_ns (Sim.Rng.int rng service_values)
      in
      near := Obs.Metrics.observe_near ins.req_h ~near:!near lat;
      if lat > cfg.slo then incr violations
    done;
    serve rng served (count - n_resumed);
    stalled := !stalled + (n_resumed - n_pre);
    let net = w.w_nets.(t) in
    Guest.Netstack.reset net ~now:(fault_time - cfg.pre_window);
    Guest.Netstack.delivered_run net ~first ~count:n_pre;
    Guest.Netstack.delivered_run net
      ~first:(first + (n_resumed * iv))
      ~count:(count - n_resumed);
    Guest.Netstack.interruption net ~now:fault_time ~duration:stall;
    if Guest.Netstack.failed net then incr failed;
    lost := !lost + (net.Guest.Netstack.sent - net.Guest.Netstack.echoed);
    max_gap := max !max_gap net.Guest.Netstack.max_gap
  done;
  let requests = ref !stalled in
  for k = 0 to service_values - 1 do
    let n = served.(k) in
    if n > 0 then begin
      let v = service_ns k in
      Obs.Metrics.observe_n ins.req_h v n;
      if v > cfg.slo then violations := !violations + n;
      requests := !requests + n;
      served.(k) <- 0
    end
  done;
  Obs.Metrics.incr ~by:!requests ins.requests_c;
  Obs.Metrics.incr ~by:!stalled ins.stalled_c;
  Obs.Metrics.incr ~by:!violations ins.violations_c;
  Obs.Metrics.incr ~by:!failed ins.failed_c;
  Obs.Metrics.incr ~by:!lost ins.lost_c;
  if !max_gap > ins.gap_max.Obs.Metrics.value then
    Obs.Metrics.set ins.gap_max !max_gap

(* One [mech] trial on [w], whose machine was booted for [cfg]'s
   tenants and request cadence: the recovery event, then the request
   accounting through it. The trial's metrics are left in [w]'s
   recorder, until the next trial's rewind zeroes them. *)
let trial_event w (cfg : config) mech ~seed =
  check_config cfg;
  if cfg.tenants <> w.w_tenants || cfg.request_interval <> w.w_interval then
    invalid_arg "Fleet.trial: the worker was built for other tenants or cadence";
  let rng = Sim.Rng.create seed in
  let fault_time, out = recover_event w cfg mech rng in
  account w cfg rng ~fault_time out

let trial_metrics w = w.w_hv.Hypervisor.obs.Obs.Recorder.metrics

(* [trial_event], returning the trial's metrics snapshot. *)
let trial w (cfg : config) mech ~seed : Obs.Metrics.snapshot =
  trial_event w cfg mech ~seed;
  Obs.Metrics.snapshot (trial_metrics w)

(* A trial on a machine freshly booted under [mech]'s own config: the
   reference every restored trial must equal. *)
let run_trial (cfg : config) mech ~seed =
  trial (boot_worker cfg (hv_config mech)) cfg mech ~seed

type result = {
  mech : mechanism;
  tenants : int;
  trials : int;
  metrics : Obs.Metrics.snapshot;
      (* merged across trials; counters sum, gauges take the max, the
         [fleet.request_ns] histogram pools every request *)
}

(* The process's worker pool (see the header): slot [k] holds the
   machine that pool worker [k] booted, if it has booted one. Its
   mutable fields are read and written only by the call that holds
   [busy]. *)
type pool = {
  busy : bool Atomic.t;
  mutable key : int * Sim.Time.ns; (* tenants, request interval *)
  mutable slots : worker option array;
}

let pool = { busy = Atomic.make false; key = (0, 0); slots = [||] }

(* [f slots] with [n] worker slots: the pool's when it is free, private
   ones when another call holds it. A raising call drops the pool's
   array, so a machine in an unknown state is never reused and a slot
   still running in an abandoned worker domain writes to an array the
   pool no longer holds. *)
let with_slots (cfg : config) n f =
  if Atomic.compare_and_set pool.busy false true then
    Fun.protect
      ~finally:(fun () -> Atomic.set pool.busy false)
      (fun () ->
        let key = (cfg.tenants, cfg.request_interval) in
        if pool.key <> key then begin
          pool.key <- key;
          pool.slots <- [||]
        end;
        let have = Array.length pool.slots in
        if have < n then
          pool.slots <- Array.append pool.slots (Array.make (n - have) None);
        match f pool.slots with
        | r -> r
        | exception e ->
          pool.slots <- [||];
          raise e)
  else f (Array.make n None)

(* Trials are embarrassingly parallel pure functions of the trial seed.
   Worker [k] runs on slot [k]: it boots that slot's machine at its
   first trial if the slot has none (a slot that gets no trial never
   boots), and restores it for every trial. Each trial's metrics fold
   into the worker's own registry, made in its [init]; the registries
   fold together (the merge is commutative and associative, so the
   result is identical for every [jobs]) and the call snapshots the
   total once. *)
let run ?(jobs = 1) ?(oversubscribe = false) (cfg : config) mech =
  check_config cfg;
  let n = Inject.Pool.workers ~jobs ~oversubscribe cfg.trials in
  let merged =
    with_slots cfg n (fun slots ->
        let slot_worker k =
          match slots.(k) with
          | Some w -> w
          | None ->
            let w = worker cfg in
            slots.(k) <- Some w;
            w
        in
        let _, merged =
          Inject.Pool.map_reduce ~jobs ~oversubscribe ~n:cfg.trials
            ~init:(fun slot -> (slot, Obs.Metrics.create ()))
            ~body:(fun (slot, acc) i ->
              let w = slot_worker slot in
              trial_event w cfg mech
                ~seed:(Int64.add cfg.base_seed (Int64.of_int i));
              Obs.Metrics.accumulate ~into:acc (trial_metrics w))
            ~merge:(fun ((_, a) as into) (_, b) ->
              Obs.Metrics.accumulate ~into:a b;
              into)
            ()
        in
        Obs.Metrics.snapshot merged)
  in
  { mech; tenants = cfg.tenants; trials = cfg.trials; metrics = merged }

(* --- Readbacks ----------------------------------------------------- *)

let counter r name =
  match List.assoc_opt name r.metrics.Obs.Metrics.counters with
  | Some v -> v
  | None -> 0

let gauge r name =
  match List.assoc_opt name r.metrics.Obs.Metrics.gauges with
  | Some v -> v
  | None -> 0

let hist r name = List.assoc_opt name r.metrics.Obs.Metrics.histograms

let requests r = counter r "fleet.requests"
let requests_stalled r = counter r "fleet.requests_stalled"
let slo_violations r = counter r "fleet.slo_violations"
let tenants_failed r = counter r "fleet.tenants_failed"
let net_lost r = counter r "fleet.net_lost"
let scan_incremental r = counter r "recovery.pfn_scan.incremental"
let scan_full r = counter r "recovery.pfn_scan.full"
let recovery_max_ns r = gauge r "fleet.recovery_ns_max"
let max_gap_ns r = gauge r "fleet.max_gap_ns"

let request_quantile r q =
  match Option.bind (hist r "fleet.request_ns") (fun h -> Obs.Metrics.quantile h q) with
  | Some v -> v
  | None -> 0

let request_samples r =
  match hist r "fleet.request_ns" with
  | Some h -> h.Obs.Metrics.h_samples
  | None -> 0

(* Mean recovery latency across trials (one recovery per trial). *)
let recovery_mean_ns r =
  match hist r "fleet.recovery_ns" with
  | Some h when h.Obs.Metrics.h_samples > 0 ->
    h.Obs.Metrics.h_sum / h.Obs.Metrics.h_samples
  | _ -> 0

let pp fmt r =
  Format.fprintf fmt
    "%-19s recovery %a (max %a)  p50 %a  p99 %a  p999 %a  SLO viol %d/%d  \
     stalled %d  lost %d@."
    (mechanism_name r.mech) Sim.Time.pp_ms (recovery_mean_ns r) Sim.Time.pp_ms
    (recovery_max_ns r) Sim.Time.pp_ms
    (request_quantile r 0.50)
    Sim.Time.pp_ms
    (request_quantile r 0.99)
    Sim.Time.pp_ms
    (request_quantile r 0.999)
    (slo_violations r) (requests r) (requests_stalled r) (net_lost r)

(* --- nlh-fleet/1: the report ----------------------------------------- *)

(* This module owns the schema: [to_json] writes a report and
   [of_json] / [of_string] decode one, making every consistency check a
   reader relies on. A report is named integers: a header from the
   config, and per mechanism the readbacks above. *)

let schema = "nlh-fleet/1"

(* The named integers, in file order, with their readers. *)
let header_fields : (string * (config -> int)) list =
  [
    ("tenants", fun c -> c.tenants); ("trials", fun c -> c.trials);
    ("victims", fun c -> c.victims);
    ("request_interval_ns", fun c -> c.request_interval);
    ("slo_ns", fun c -> c.slo);
  ]

let stat_fields : (string * (result -> int)) list =
  [
    ("requests", requests); ("samples", request_samples);
    ("stalled", requests_stalled); ("slo_violations", slo_violations);
    ("tenants_failed", tenants_failed); ("net_lost", net_lost);
    ("recovery_ns_mean", recovery_mean_ns);
    ("recovery_ns_max", recovery_max_ns); ("max_gap_ns", max_gap_ns);
    ("request_p50_ns", fun r -> request_quantile r 0.50);
    ("request_p99_ns", fun r -> request_quantile r 0.99);
    ("request_p999_ns", fun r -> request_quantile r 0.999);
    ("scan_incremental", scan_incremental); ("scan_full", scan_full);
  ]

let read fields v = List.map (fun (k, f) -> (k, f v)) fields

type report = {
  header : (string * int) list; (* [header_fields], in order *)
  mechanisms : (mechanism * (string * int) list) list; (* [stat_fields] *)
}

let report (cfg : config) results =
  {
    header = read header_fields cfg;
    mechanisms = List.map (fun r -> (r.mech, read stat_fields r)) results;
  }

let to_json cfg results =
  let rp = report cfg results in
  Obs.Export.document ~schema ~meta:[]
    Obs.Json.(
      int_members rp.header
      @ [
          ( "mechanisms",
            List
              (List.map
                 (fun (mech, stats) ->
                   Obj (("mechanism", String (mechanism_name mech)) :: int_members stats))
                 rp.mechanisms) );
        ])

(* Invariants: every mechanism is known and appears once; request
   counts equal the histogram sample counts; stalled and SLO-violating
   requests cannot exceed the total; no count is negative; quantiles
   are ordered; the mean recovery latency is positive and cannot exceed
   the max; and each trial took exactly one consistency-scan path
   (incremental + full = trials). *)
let of_json root =
  let open Obs.Json in
  let ints what v fields = List.map (fun (k, _) -> (k, int_exn what k v)) fields in
  decoding (fun () ->
      expect_schema schema root;
      let header = ints "document" root header_fields in
      let h k = List.assoc k header in
      let trials = h "trials" in
      if trials < 1 then fail "trials %d < 1" trials;
      if h "tenants" < 1 then fail "tenants < 1";
      if h "slo_ns" <= 0 then fail "slo_ns <= 0";
      let seen = ref [] in
      let entry i m =
        let what = Printf.sprintf "mechanisms[%d]" i in
        let name = str what "mechanism" m in
        let mech =
          match mechanism_of_string name with
          | Some mech -> mech
          | None -> fail "%s: unknown mechanism %S" what name
        in
        if List.mem mech !seen then fail "%s: duplicate mechanism %S" what name;
        seen := mech :: !seen;
        let stats = ints what m stat_fields in
        let f k = List.assoc k stats in
        List.iter (fun (k, v) -> if v < 0 then fail "%s: negative %s" what k) stats;
        let requests = f "requests" in
        if requests < 1 then fail "%s: no requests" what;
        if f "samples" <> requests then
          fail "%s: samples %d <> requests %d" what (f "samples") requests;
        if f "stalled" > requests then fail "%s: stalled > requests" what;
        if f "slo_violations" > requests then
          fail "%s: slo_violations > requests" what;
        let p50 = f "request_p50_ns"
        and p99 = f "request_p99_ns"
        and p999 = f "request_p999_ns" in
        if not (0 < p50 && p50 <= p99 && p99 <= p999) then
          fail "%s: request quantiles not ordered (%d %d %d)" what p50 p99 p999;
        if f "recovery_ns_mean" > f "recovery_ns_max" then
          fail "%s: recovery mean exceeds max" what;
        if f "recovery_ns_mean" <= 0 then
          fail "%s: non-positive recovery latency" what;
        if f "scan_incremental" + f "scan_full" <> trials then
          fail "%s: scan_incremental %d + scan_full %d <> trials %d" what
            (f "scan_incremental") (f "scan_full") trials;
        (mech, stats)
      in
      let mechanisms =
        List.mapi entry (list_of "mechanisms" (get "document" "mechanisms" root))
      in
      if mechanisms = [] then fail "empty mechanisms array";
      { header; mechanisms })

let of_string s = Result.bind (Obs.Json.parse_document s) of_json
