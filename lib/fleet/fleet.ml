(** Fleet-scale serving scenario: hundreds of tenant VMs issuing request
    traffic *through* a hypervisor recovery event.

    The paper evaluates recovery latency on one machine with a handful of
    AppVMs; what a cloud operator cares about is the user-perceived
    degradation across a fleet of tenants when the hypervisor under them
    recovers (cf. "End-User Effects of Microreboots", PAPERS.md). This
    module boots a hypervisor hosting [tenants] small single-vCPU guests
    ({!Hyper.Hypervisor.Tenant_fleet}), drives a mixed warmup through the
    real workload samplers, damages a few victim tenants' page-frame
    state at a golden quiesce point, recovers with one of three
    mechanisms, and accounts per-tenant request latency through the
    event:

    - [Serial_full]: the paper's serial microreset with the full
      page-frame consistency scan -- every tenant stalls for the whole
      O(machine) recovery (~22 ms at reference geometry).
    - [Serial_incremental]: the same serial microreset driven off the
      dirty lists -- every tenant stalls, but only O(damaged state).
    - [Sharded]: {!Recovery.Shard} -- a short global quiesce, then
      per-domain shards on the simulated CPUs; a tenant resumes as soon
      as the global phase and its own shard are done.

    All three are recovery plans, so every trial reads each tenant's
    stall from the plan outcome's resume offsets.

    Requests arrive on a per-tenant cadence across a fixed window around
    the fault. A request arriving while its tenant is stalled completes
    when the tenant resumes (latency = residual stall + service time);
    everything else pays only its service time. Latencies land in the
    PR 7 log-bucket histogram [fleet.request_ns] (p50/p99/p999 within
    25% relative error), SLO violations and netstack loss counters ride
    alongside, and trials aggregate through commutative
    {!Obs.Metrics.merge_snapshots} -- so fleet results are bit-identical
    for any [--jobs], the same contract the campaign engine has.

    Every trial is a pure function of [(config, mechanism, trial seed)]:
    the simulated machine, the warmup, the victims and the request
    streams all derive from the trial's own splitmix stream. *)

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
   other two mechanisms enable the dirty-list consistency scan. *)
let hv_config = function
  | Serial_full ->
    { Config.nilihype with Config.geometry = Some Config.reference_geometry }
  | Serial_incremental | Sharded ->
    {
      Config.nilihype_incremental with
      Config.geometry = Some Config.reference_geometry;
    }

(* One trial: boot, warm up, snapshot, damage victims, recover, account
   request latencies. Returns the trial's metrics snapshot. *)
let run_trial (cfg : config) mech ~seed : Obs.Metrics.snapshot =
  let recorder = Obs.Recorder.create ~capacity:64 ~min_level:Obs.Event.Error () in
  let m = recorder.Obs.Recorder.metrics in
  let requests_c = Obs.Metrics.counter m "fleet.requests" in
  let stalled_c = Obs.Metrics.counter m "fleet.requests_stalled" in
  let violations_c = Obs.Metrics.counter m "fleet.slo_violations" in
  let failed_c = Obs.Metrics.counter m "fleet.tenants_failed" in
  let lost_c = Obs.Metrics.counter m "fleet.net_lost" in
  let req_h =
    Obs.Metrics.log_histogram m "fleet.request_ns" ~lo:(Sim.Time.us 1)
      ~hi:(Sim.Time.ms 100)
  in
  let rec_h =
    Obs.Metrics.log_histogram m "fleet.recovery_ns" ~lo:(Sim.Time.us 10)
      ~hi:(Sim.Time.s 1)
  in
  let rec_max = Obs.Metrics.gauge m "fleet.recovery_ns_max" in
  let gap_max = Obs.Metrics.gauge m "fleet.max_gap_ns" in
  let rng = Sim.Rng.create seed in
  let clock = Sim.Clock.create () in
  let hv =
    Hypervisor.boot ~mconfig:Hw.Machine.campaign_config ~obs:recorder
      ~config:(hv_config mech)
      ~setup:(Hypervisor.Tenant_fleet cfg.tenants)
      clock
  in
  (* Mixed tenant population driven through the real workload samplers:
     the warmup dirties pfn/heap/timer state the way guest traffic does,
     so the dirty sets the incremental scan walks are workload-shaped. *)
  let kinds =
    [|
      Workloads.Workload.Netbench; Workloads.Workload.Unixbench;
      Workloads.Workload.Blkbench;
    |]
  in
  let loads =
    Array.init cfg.tenants (fun i ->
        Workloads.Workload.create kinds.(i mod Array.length kinds)
          ~domid:(i + 1))
  in
  for _ = 1 to cfg.warmup_activities do
    Sim.Clock.advance_by clock (Sim.Time.us (20 + Sim.Rng.int rng 180));
    let w = loads.(Sim.Rng.int rng cfg.tenants) in
    Hypervisor.execute hv rng (Workloads.Workload.sample_activity rng w)
  done;
  (* Golden quiesce point: refresh baselines and drain the dirty lists,
     so what is dirty at recovery time is exactly the damage. *)
  ignore (Hypervisor.snapshot hv);
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
        let d = Pfn.get hv.Hypervisor.pfn !i in
        if d.Pfn.owner = domid && d.Pfn.use_count > 0 then begin
          Pfn.touch d;
          d.Pfn.use_count <- 0;
          decr left
        end;
        incr i
      done)
    victim_ids;
  (* Recover. Serial plans stall every tenant for the whole latency;
     sharded recovery gives each domain its own resume offset. *)
  let fault_time = Sim.Clock.now clock in
  let enh = Recovery.Enhancement.full_set in
  let out =
    match mech with
    | Serial_full | Serial_incremental ->
      Recovery.Engine.recover Recovery.Engine.Nilihype hv ~enh ~detected_on:0
    | Sharded -> Recovery.Shard.recover hv ~enh ~detected_on:0
  in
  let latency = out.Recovery.Plan.latency in
  Obs.Metrics.observe rec_h latency;
  if latency > rec_max.Obs.Metrics.value then Obs.Metrics.set rec_max latency;
  let stall_of domid =
    match List.assoc_opt domid out.Recovery.Plan.resume_offsets with
    | Some o -> o
    | None -> latency
  in
  (* Request accounting through the event, per tenant. The netstack
     models the same window as the paper's UDP ping sender: ticks while
     the tenant serves, one interruption for its stall. *)
  for t = 0 to cfg.tenants - 1 do
    let domid = t + 1 in
    let stall = stall_of domid in
    let stall_end = fault_time + stall in
    let net = Guest.Netstack.create ~interval:cfg.request_interval () in
    let phase = Sim.Rng.int rng (max 1 cfg.request_interval) in
    let arrival = ref (fault_time - cfg.pre_window + phase) in
    while !arrival <= fault_time + cfg.post_window do
      let a = !arrival in
      let service = Sim.Time.us (30 + Sim.Rng.int rng 200) in
      let lat =
        if a >= fault_time && a < stall_end then begin
          Obs.Metrics.incr stalled_c;
          stall_end - a + service
        end
        else begin
          Guest.Netstack.sender_tick net ~now:a ~delivered:true;
          service
        end
      in
      Obs.Metrics.observe req_h lat;
      Obs.Metrics.incr requests_c;
      if lat > cfg.slo then Obs.Metrics.incr violations_c;
      arrival := a + cfg.request_interval
    done;
    Guest.Netstack.interruption net ~now:fault_time ~duration:stall;
    if Guest.Netstack.failed net then Obs.Metrics.incr failed_c;
    Obs.Metrics.incr ~by:(net.Guest.Netstack.sent - net.Guest.Netstack.echoed)
      lost_c;
    if net.Guest.Netstack.max_gap > gap_max.Obs.Metrics.value then
      Obs.Metrics.set gap_max net.Guest.Netstack.max_gap
  done;
  Obs.Recorder.metrics_snapshot recorder

type result = {
  mech : mechanism;
  tenants : int;
  trials : int;
  metrics : Obs.Metrics.snapshot;
      (* merged across trials; counters sum, gauges take the max, the
         [fleet.request_ns] histogram pools every request *)
}

(* Trials are embarrassingly parallel pure functions of the trial seed;
   the snapshot merge is commutative and associative, so the merged
   result is identical for every [jobs]. *)
let run ?(jobs = 1) ?(oversubscribe = false) (cfg : config) mech =
  let merged =
    Inject.Pool.map_reduce ~jobs ~oversubscribe ~n:cfg.trials
      ~init:(fun _slot -> ref Obs.Metrics.empty_snapshot)
      ~body:(fun acc i ->
        let seed = Int64.add cfg.base_seed (Int64.of_int i) in
        acc := Obs.Metrics.merge_snapshots !acc (run_trial cfg mech ~seed))
      ~merge:(fun a b -> ref (Obs.Metrics.merge_snapshots !a !b))
      ()
  in
  { mech; tenants = cfg.tenants; trials = cfg.trials; metrics = !merged }

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

(* --- nlh-fleet/1 export -------------------------------------------- *)

let json_entry r =
  Printf.sprintf
    "    { \"mechanism\": %S, \"requests\": %d, \"samples\": %d, \"stalled\": \
     %d, \"slo_violations\": %d, \"tenants_failed\": %d, \"net_lost\": %d, \
     \"recovery_ns_mean\": %d, \"recovery_ns_max\": %d, \"max_gap_ns\": %d, \
     \"request_p50_ns\": %d, \"request_p99_ns\": %d, \"request_p999_ns\": %d, \
     \"scan_incremental\": %d, \"scan_full\": %d }"
    (mechanism_name r.mech) (requests r) (request_samples r)
    (requests_stalled r) (slo_violations r) (tenants_failed r) (net_lost r)
    (recovery_mean_ns r) (recovery_max_ns r) (max_gap_ns r)
    (request_quantile r 0.50)
    (request_quantile r 0.99)
    (request_quantile r 0.999)
    (scan_incremental r) (scan_full r)

let write_json oc (cfg : config) (results : result list) =
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"nlh-fleet/1\",\n\
    \  \"tenants\": %d,\n\
    \  \"trials\": %d,\n\
    \  \"victims\": %d,\n\
    \  \"request_interval_ns\": %d,\n\
    \  \"slo_ns\": %d,\n\
    \  \"mechanisms\": [\n%s\n  ]\n\
     }\n"
    cfg.tenants cfg.trials cfg.victims cfg.request_interval cfg.slo
    (String.concat ",\n" (List.map json_entry results))
