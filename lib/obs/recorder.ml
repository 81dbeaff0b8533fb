(** A recorder bundles the three observability surfaces of one run: the
    typed event ring, the recovery-span collector and the metrics
    registry. The simulated hypervisor carries exactly one recorder;
    the injector threads it from boot to outcome classification.

    The hot-path instruments (journal writes, hypercall entries/retries,
    timer fires...) are registered once at creation and cached as plain
    record fields, so normal-operation code pays a single unguarded
    integer increment per metric -- no name lookup on the hot path. *)

(* Phases of one injection run, as attributed by the allocation
   profiler. [Workload] covers both the warmup and the post-recovery
   activity stream; [Injection] is the armed trigger window. *)
type alloc_phase = Boot | Workload | Injection | Detection | Recovery | Audit

let alloc_phases = [ Boot; Workload; Injection; Detection; Recovery; Audit ]

let alloc_phase_name = function
  | Boot -> "boot"
  | Workload -> "workload"
  | Injection -> "injection"
  | Detection -> "detection"
  | Recovery -> "recovery"
  | Audit -> "audit"

(* What the activity-kind ledger splits the activity stream into:
   drawing the next activity, then executing it by its kind (the six
   [Hyper.Hypervisor.activity] constructors; [obs] sits below [hyper],
   so the kinds are restated here). *)
type activity_kind =
  | Sampling
  | Timer_tick
  | Device_interrupt
  | Hypercall
  | Syscall_forward
  | Context_switch
  | Idle_poll

let activity_kinds =
  [
    Sampling;
    Timer_tick;
    Device_interrupt;
    Hypercall;
    Syscall_forward;
    Context_switch;
    Idle_poll;
  ]

let activity_kind_index = function
  | Sampling -> 0
  | Timer_tick -> 1
  | Device_interrupt -> 2
  | Hypercall -> 3
  | Syscall_forward -> 4
  | Context_switch -> 5
  | Idle_poll -> 6

type t = {
  trace : Trace.t;
  spans : Span.t;
  metrics : Metrics.t;
  (* Cached hot-path instruments (all registered by name in [metrics]). *)
  hypercall_entries : Metrics.counter;
  hypercall_retries : Metrics.counter;
  journal_writes : Metrics.counter;
  journal_undone : Metrics.counter;
  timer_fires : Metrics.counter;
  recovery_lock_releases : Metrics.counter;
  (* Which consistency-scan path a microreset took: dirty-set-driven
     incremental or the full table walk (chosen per recovery, including
     the forced fallback after a recovery attempt died). Registered
     eagerly like the outcome counters, and surfaced as fuzz coverage
     points via [Coverage.points]. *)
  scan_incremental : Metrics.counter;
  scan_full : Metrics.counter;
  faults_injected : Metrics.counter;
  detections : Metrics.counter;
  recovery_latency_ms : Metrics.histogram;
  (* Log-bucket (geometric) latency histograms: the fleet-tail primitive.
     Nanosecond-resolution with ~25% relative error, so p50/p99/p999 can
     be read off campaign aggregates (see [Metrics.quantile]). *)
  run_latency_ns : Metrics.histogram;
  recovery_latency_ns : Metrics.histogram;
  recovery_phase_ns : Metrics.histogram;
  (* Outcome classification instruments. Registered eagerly so a reused
     recorder's registry is structurally identical to a fresh per-run one
     (lazily registering them on first use would make snapshots differ
     between runs that hit different outcome classes). *)
  outcome_non_manifested : Metrics.counter;
  outcome_sdc : Metrics.counter;
  outcome_detected : Metrics.counter;
  run_end_time_ns : Metrics.gauge;
  (* Phase-attributed allocation profiler: per-phase [Gc.minor_words]
     deltas. The [alloc.*] counters are registered eagerly so a registry
     snapshots identically whether profiling is enabled or not (they
     just stay zero when off); the mark and current phase live outside
     the registry so they survive the per-run [reset] inside the
     harness's rewind. *)
  alloc_boot : Metrics.counter;
  alloc_workload : Metrics.counter;
  alloc_injection : Metrics.counter;
  alloc_detection : Metrics.counter;
  alloc_recovery : Metrics.counter;
  alloc_audit : Metrics.counter;
  mutable alloc_on : bool;
  mutable alloc_mark : float;
  mutable alloc_cur : alloc_phase;
  (* Activity-kind ledger: minor words and calls per [activity_kind]
     index, fed only while allocation profiling is on. Plain arrays
     outside the registry, so metric snapshots (and everything built
     from them) are the same with profiling on or off; like the mark,
     they survive [reset] and accumulate until [clear_activity_ledger]. *)
  act_words : int array;
  act_calls : int array;
}

(* Fixed recovery-latency buckets in milliseconds: NiLiHype lands in the
   16..32 ms region, ReHype around 700 ms; sub-ms and multi-second tails
   get their own buckets so miscalibrations show up. *)
let latency_bounds_ms = [| 1; 4; 16; 32; 64; 128; 256; 512; 1024; 4096 |]

(* Geometric bounds for the nanosecond histograms: 1us up to ~100s
   covers everything from a single recovery phase to a whole run. *)
let log_lo_ns = 1_000
let log_hi_ns = 100_000_000_000

let create ?(capacity = 4096) ?(min_level = Event.Info) () =
  let metrics = Metrics.create () in
  {
    trace = Trace.create ~capacity ~min_level ();
    spans = Span.create ();
    metrics;
    hypercall_entries = Metrics.counter metrics "hypercall.entries";
    hypercall_retries = Metrics.counter metrics "hypercall.retries";
    journal_writes = Metrics.counter metrics "journal.writes";
    journal_undone = Metrics.counter metrics "journal.entries_undone";
    timer_fires = Metrics.counter metrics "timer.fires";
    recovery_lock_releases = Metrics.counter metrics "recovery.locks_released";
    scan_incremental = Metrics.counter metrics "recovery.pfn_scan.incremental";
    scan_full = Metrics.counter metrics "recovery.pfn_scan.full";
    faults_injected = Metrics.counter metrics "inject.faults";
    detections = Metrics.counter metrics "detect.detections";
    recovery_latency_ms =
      Metrics.histogram metrics "recovery.latency_ms" ~bounds:latency_bounds_ms;
    run_latency_ns =
      Metrics.log_histogram metrics "run.latency_ns" ~lo:log_lo_ns ~hi:log_hi_ns;
    recovery_latency_ns =
      Metrics.log_histogram metrics "recovery.latency_ns" ~lo:log_lo_ns
        ~hi:log_hi_ns;
    recovery_phase_ns =
      Metrics.log_histogram metrics "recovery.phase_ns" ~lo:log_lo_ns
        ~hi:log_hi_ns;
    outcome_non_manifested = Metrics.counter metrics "outcome.non_manifested";
    outcome_sdc = Metrics.counter metrics "outcome.sdc";
    outcome_detected = Metrics.counter metrics "outcome.detected";
    run_end_time_ns = Metrics.gauge metrics "run.end_time_ns";
    alloc_boot = Metrics.counter metrics "alloc.boot";
    alloc_workload = Metrics.counter metrics "alloc.workload";
    alloc_injection = Metrics.counter metrics "alloc.injection";
    alloc_detection = Metrics.counter metrics "alloc.detection";
    alloc_recovery = Metrics.counter metrics "alloc.recovery";
    alloc_audit = Metrics.counter metrics "alloc.audit";
    alloc_on = false;
    alloc_mark = 0.0;
    alloc_cur = Boot;
    act_words = Array.make (List.length activity_kinds) 0;
    act_calls = Array.make (List.length activity_kinds) 0;
  }

let alloc_counter t = function
  | Boot -> t.alloc_boot
  | Workload -> t.alloc_workload
  | Injection -> t.alloc_injection
  | Detection -> t.alloc_detection
  | Recovery -> t.alloc_recovery
  | Audit -> t.alloc_audit

(* Words attributed to [phase] so far, as a plain int read (no snapshot
   allocation) -- the bench's agreement check reads these in its loop. *)
let alloc_words t phase = (alloc_counter t phase).Metrics.count

let set_alloc_profiling t on = t.alloc_on <- on

(* Start attributing: minor words allocated from here on are credited to
   [Boot] until the first [alloc_phase] transition. Call BEFORE the
   rewind/boot work the boot phase should capture; the counters it later
   feeds are zeroed by the [reset] inside the rewind, but the mark set
   here survives it. *)
let alloc_begin t =
  if t.alloc_on then begin
    t.alloc_cur <- Boot;
    t.alloc_mark <- Gc.minor_words ()
  end

(* Credit the words since the last mark to the phase being left, then
   start attributing to [phase]. *)
let alloc_phase t phase =
  if t.alloc_on then begin
    let now = Gc.minor_words () in
    Metrics.incr
      ~by:(int_of_float (now -. t.alloc_mark))
      (alloc_counter t t.alloc_cur);
    t.alloc_mark <- now;
    t.alloc_cur <- phase
  end

(* End-of-run close: credit the tail to the current phase. *)
let alloc_close t = alloc_phase t t.alloc_cur

(* Credit one completed [kind] call of [words] minor words to the
   activity-kind ledger. The caller measures (and checks [alloc_on]);
   integer arguments, so noting allocates nothing. *)
let note_activity t kind words =
  let i = activity_kind_index kind in
  t.act_words.(i) <- t.act_words.(i) + words;
  t.act_calls.(i) <- t.act_calls.(i) + 1

let activity_words t kind = t.act_words.(activity_kind_index kind)
let activity_calls t kind = t.act_calls.(activity_kind_index kind)

let clear_activity_ledger t =
  Array.fill t.act_words 0 (Array.length t.act_words) 0;
  Array.fill t.act_calls 0 (Array.length t.act_calls) 0

let set_min_level t level = Trace.set_min_level t.trace level
let min_level t = Trace.min_level t.trace

(* Oldest-first view of the event ring, for postmortem assembly. *)
let events t = Trace.to_list t.trace

let clear t =
  Trace.clear t.trace;
  Span.clear t.spans

(* Whether an event at [level] would be recorded: lets hot call sites
   skip constructing the payload when it would only be filtered out. *)
let enabled t level = Trace.enabled t.trace level

(* Full per-run reset for worker reuse: drop trace/span contents and zero
   every metric, leaving the recorder exactly as freshly created (cached
   instrument handles stay valid). *)
let reset t =
  clear t;
  Metrics.reset t.metrics

(* Record a typed event. [domid = -1] when no domain is attributable. *)
let event t ~time ?(cpu = -1) ?(domid = -1) level payload =
  Trace.record t.trace { Event.time; level; cpu; domid; payload }

let span t ~name ~cat ~track ~start ~duration =
  Span.add t.spans ~name ~cat ~track ~start ~duration

let metrics_snapshot t = Metrics.snapshot t.metrics
