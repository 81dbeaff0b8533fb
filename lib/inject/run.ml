(** A single fault-injection run: boot the target system, run the
    benchmarks, inject one fault through the two-level trigger, let
    detection and recovery play out, then classify the outcome
    (Section VI-C / VII-A). *)

open Hyper

type setup = One_appvm of Workloads.Workload.kind | Three_appvm

type mech =
  | No_recovery
  | Mech of Recovery.Engine.mechanism * Recovery.Enhancement.set

(* Which execution threads microreset discards (the design choice of
   Section III-C). The paper's choice is all threads; the alternative --
   discard only the faulting CPU's thread -- leaves the surviving
   threads to collide with the recovery process's global state changes
   (released locks, cleared IRQ counts). *)
type discard_scope = Scope_all_threads | Scope_faulting_only

type config = {
  seed : int64;
  fault : Fault.t;
  setup : setup;
  mech : mech;
  hv_config : Config.t;
  mconfig : Hw.Machine.config;
  warmup_activities : int;
  post_activities : int;
  discard_scope : discard_scope;
  vcpus_per_cpu : int; (* >1 explores the paper's future-work configs *)
  directive : Fault.directive option;
      (* [Some d]: apply exactly the fault point [d] instead of sampling
         a manifestation -- the fuzzer's mutation hook. Post-warmup only,
         so runs sharing a seed share a warmup whatever their directives. *)
}

let default_config =
  {
    seed = 1L;
    fault = Fault.Failstop;
    setup = Three_appvm;
    mech = Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
    hv_config = Config.nilihype;
    mconfig = Hw.Machine.campaign_config;
    warmup_activities = 150;
    post_activities = 900;
    discard_scope = Scope_all_threads;
    vcpus_per_cpu = 1;
    directive = None;
  }

type outcome =
  | Non_manifested
  | Silent_corruption
  | Detected of detected

and detected = {
  detection : Crash.detection;
  recovered : bool; (* the hypervisor survived and operates correctly *)
  app_vms_affected : int; (* initial AppVMs failed or corrupted *)
  new_vm_ok : bool; (* 3AppVM: post-recovery VM creation + BlkBench *)
  success : bool; (* the paper's per-setup success definition *)
  no_vmf : bool; (* detected errors with no AppVM failure at all *)
  recovery_latency : Sim.Time.ns;
  breakdown : Latency_model.breakdown option; (* per-phase recovery spans *)
  failure_reason : string option; (* why recovery failed, when it did *)
}

let outcome_class = function
  | Non_manifested -> `Non_manifested
  | Silent_corruption -> `Sdc
  | Detected _ -> `Detected

(* The one canonical outcome-class name, shared by display code, metric
   names and the [Outcome_classified] event payload. *)
let outcome_name = function
  | Non_manifested -> "non_manifested"
  | Silent_corruption -> "sdc"
  | Detected _ -> "detected"

(* Mutable state threaded through a run. *)
type state = {
  cfg : config;
  rng : Sim.Rng.t;
  hv : Hypervisor.t;
  mix : Workloads.System_mix.t;
  benchmarks : Workloads.Workload.t list;
  mutable last_cpu : int; (* CPU of the most recent hypervisor step *)
  mutable fault_applied : bool;
  mutable first_target : string option;
      (* first structure the fault corrupted ("failstop" for pure
         crashes): the target axis of the failure signature *)
}

let hv_setup_of cfg =
  match cfg.setup with
  | One_appvm _ -> Hypervisor.One_appvm
  | Three_appvm -> Hypervisor.Three_appvm

(* The run's activity tables: its benchmarks and their system mix, for
   [cfg]'s setup on the booted [hv]. Both are immutable and depend only
   on the setup and the boot image's domains, so a worker builds them
   once per image and setup and shares them across its runs. *)
type tables = {
  tb_setup : setup;
  tb_benchmarks : Workloads.Workload.t list;
  tb_mix : Workloads.System_mix.t;
}

let tables cfg (hv : Hypervisor.t) =
  let vcpus = cfg.vcpus_per_cpu in
  let benchmarks =
    match cfg.setup with
    | One_appvm kind -> [ Workloads.Workload.create ~vcpus kind ~domid:1 ]
    | Three_appvm ->
      [
        Workloads.Workload.create ~vcpus Workloads.Workload.Unixbench ~domid:1;
        Workloads.Workload.create ~vcpus Workloads.Workload.Netbench ~domid:2;
      ]
  in
  let active_cpus =
    List.sort_uniq compare
      (Domain_table.fold_right
         (fun (d : Domain.t) cpus ->
           if d.Domain.is_idle then cpus
           else
             Array.fold_right
               (fun (v : Domain.vcpu) cpus -> v.Domain.processor :: cpus)
               d.Domain.vcpus cpus)
         hv.Hypervisor.domains [])
  in
  let blk_dom =
    List.find_opt (fun (b : Workloads.Workload.t) -> b.kind = Workloads.Workload.Blkbench) benchmarks
    |> Option.map (fun (b : Workloads.Workload.t) -> b.domid)
  in
  let net_dom =
    List.find_opt (fun (b : Workloads.Workload.t) -> b.kind = Workloads.Workload.Netbench) benchmarks
    |> Option.map (fun (b : Workloads.Workload.t) -> b.domid)
  in
  {
    tb_setup = cfg.setup;
    tb_benchmarks = benchmarks;
    tb_mix = Workloads.System_mix.create ~benchmarks ~active_cpus ~blk_dom ~net_dom;
  }

let state_with tb cfg rng hv =
  {
    cfg;
    rng;
    hv;
    mix = tb.tb_mix;
    benchmarks = tb.tb_benchmarks;
    last_cpu = 0;
    fault_applied = false;
    first_target = None;
  }

(* Build the per-run state around an already-booted hypervisor. Shared by
   the fresh-boot path and the worker-reuse path, so both runs see the
   same benchmarks/mix construction. *)
let make_state cfg rng hv = state_with (tables cfg hv) cfg rng hv

(* Boot the hypervisor for [cfg] on a fresh clock. The single boot
   construction shared by the fresh-boot path ([boot_state]), the worker
   path ([prepare]) and the worker's geometry-change rebuild, so all
   three see the same machine. *)
let boot_hv ?recorder (cfg : config) =
  let clock = Sim.Clock.create () in
  Hypervisor.boot ~mconfig:cfg.mconfig ?obs:recorder
    ~vcpus_per_cpu:cfg.vcpus_per_cpu ~config:cfg.hv_config
    ~setup:(hv_setup_of cfg) clock

let boot_state ?recorder cfg =
  make_state cfg (Sim.Rng.create cfg.seed) (boot_hv ?recorder cfg)

(* Activities are separated by an exponential-ish think-time so
   software timer deadlines actually come due during a run: draw the
   gap, advance the clock, then draw the activity. *)
let sample_activity st =
  let gap = Sim.Time.us (30 + Sim.Rng.int st.rng 340) in
  Sim.Clock.advance_by st.hv.Hypervisor.clock gap;
  Workloads.System_mix.sample st.rng st.mix

(* Execute one sampled activity. Timer ticks fire when the APIC deadline
   arrives, so the clock jumps there first; a CPU whose APIC is disarmed
   never gets another tick. *)
let execute_activity st activity =
  match activity with
  | Hypervisor.Timer_tick cpu ->
    let apic = (Hw.Machine.cpu st.hv.Hypervisor.machine cpu).Hw.Cpu.apic in
    (* A disarmed CPU gets no more timer interrupts. *)
    if Hw.Apic.timer_armed apic then begin
      (* The tick happens when the one-shot deadline arrives. *)
      let d = apic.Hw.Apic.timer_deadline in
      if d > Sim.Clock.now st.hv.Hypervisor.clock then
        Sim.Clock.advance_to st.hv.Hypervisor.clock d;
      Hypervisor.execute st.hv st.rng activity
    end
  | _ -> Hypervisor.execute st.hv st.rng activity

let activity_kind : Hypervisor.activity -> Obs.Recorder.activity_kind =
  function
  | Hypervisor.Timer_tick _ -> Obs.Recorder.Timer_tick
  | Hypervisor.Device_interrupt _ -> Obs.Recorder.Device_interrupt
  | Hypervisor.Hypercall _ -> Obs.Recorder.Hypercall
  | Hypervisor.Syscall_forward _ -> Obs.Recorder.Syscall_forward
  | Hypervisor.Context_switch _ -> Obs.Recorder.Context_switch
  | Hypervisor.Idle_poll _ -> Obs.Recorder.Idle_poll

(* One activity of the stream. With allocation profiling on, the
   recorder's activity-kind ledger is credited with the minor words of
   the draw and of the execution (an activity cut short by a crash or an
   abandonment is not counted). [Gc.minor_words] is an unboxed, non-
   allocating read, so the brackets add no words of their own and the
   phase counters read the same with or without them. *)
let run_one_activity st =
  let obs = st.hv.Hypervisor.obs in
  if not obs.Obs.Recorder.alloc_on then execute_activity st (sample_activity st)
  else begin
    let w0 = Gc.minor_words () in
    let activity = sample_activity st in
    let w1 = Gc.minor_words () in
    Obs.Recorder.note_activity obs Obs.Recorder.Sampling
      (int_of_float (w1 -. w0));
    execute_activity st activity;
    Obs.Recorder.note_activity obs (activity_kind activity)
      (int_of_float (Gc.minor_words () -. w1))
  end

(* Track which CPU executes each step so detection knows where it was. *)
let install_cpu_tracker st =
  st.hv.Hypervisor.step_hook <-
    Some (fun _hv _activity _idx _name cpu -> st.last_cpu <- cpu)

(* Arm the two-level trigger: after [countdown] further hypervisor
   steps, the sampled manifestation is applied -- or, when the config
   carries a {!Fault.directive}, exactly that fault point. A directed
   fault draws the corruption's internal choices (which frame, which
   delta) from its own splitmix stream seeded by [d_payload] instead of
   the run stream: mutating the payload bits explores different concrete
   corruptions of the same target against the identical trigger state. *)
let arm_fault st =
  let directed = st.cfg.directive in
  let manifestation =
    match directed with
    | None -> Profile.sample_manifestation st.rng st.cfg.fault
    | Some d ->
      {
        Profile.corruptions = (if d.Fault.d_target >= 0 then 1 else 0);
        crash_now =
          (match d.Fault.d_crash with
          | Fault.Crash_none -> `No
          | Fault.Crash_panic -> `Panic
          | Fault.Crash_hang -> `Hang);
        guest_hit = false;
      }
  in
  let countdown =
    ref
      (match directed with
      | Some d -> 1 + (d.Fault.d_window mod Fault.trigger_window_steps)
      | None -> 1 + Sim.Rng.int st.rng Fault.trigger_window_steps)
  in
  st.hv.Hypervisor.step_hook <-
    Some
      (fun hv activity _idx step_name cpu ->
        st.last_cpu <- cpu;
        if not st.fault_applied then begin
          decr countdown;
          if !countdown <= 0 then begin
            st.fault_applied <- true;
            let note_fault target_name =
              if st.first_target = None then st.first_target <- Some target_name;
              Obs.Metrics.incr hv.Hypervisor.obs.Obs.Recorder.faults_injected;
              Obs.Recorder.event hv.Hypervisor.obs
                ~time:(Sim.Clock.now hv.Hypervisor.clock)
                ~cpu Obs.Event.Warn
                (Obs.Event.Fault_injected { target = target_name })
            in
            for _ = 1 to manifestation.Profile.corruptions do
              match directed with
              | Some d ->
                let target = Corrupt.of_index d.Fault.d_target in
                note_fault (Corrupt.name target);
                Corrupt.apply hv (Sim.Rng.create d.Fault.d_payload) target
              | None ->
                let target =
                  Profile.sample_corruption_target_for st.rng st.cfg.fault
                in
                note_fault (Corrupt.name target);
                Corrupt.apply hv st.rng target
            done;
            if manifestation.Profile.guest_hit then begin
              note_fault (Corrupt.name Corrupt.Guest_frame);
              Corrupt.apply hv st.rng Corrupt.Guest_frame
            end;
            (match manifestation.Profile.crash_now with
            | `Panic | `Hang -> note_fault "failstop"
            | `No -> ());
            match manifestation.Profile.crash_now with
            | `Panic ->
              Crash.panic "injected fault on cpu%d in %s/%s" cpu
                (Hypervisor.activity_name activity)
                step_name
            | `Hang ->
              Crash.hang "injected fault wedges cpu%d in %s" cpu
                (Hypervisor.activity_name activity)
            | `No -> ()
          end
        end)

(* Model the execution threads in flight on the *other* CPUs at
   detection: with some probability each was mid-request; its thread is
   abandoned with partial state in place. Returns the CPUs that were
   busy (needed by the Scope_faulting_only ablation). *)
let abandon_concurrent_work st ~faulted_cpu =
  let busy = ref [] in
  Array.iter
    (fun cpu ->
      if cpu <> faulted_cpu
         && Sim.Rng.float st.rng 1.0 < Profile.concurrent_busy_prob
      then begin
        busy := cpu :: !busy;
        let bench_on_cpu =
          List.find_opt
            (fun (b : Workloads.Workload.t) ->
              match Hypervisor.domain st.hv b.Workloads.Workload.domid with
              | Some d ->
                Array.exists
                  (fun (v : Domain.vcpu) -> v.Domain.processor = cpu)
                  d.Domain.vcpus
              | None -> false)
            st.benchmarks
        in
        let activity =
          match bench_on_cpu with
          | Some b when Sim.Rng.float st.rng 1.0 < 0.7 ->
            Workloads.Workload.sample_activity st.rng b
          | _ -> Hypervisor.Timer_tick cpu
        in
        let stop_at = Sim.Rng.int st.rng 14 in
        (* The concurrent thread may itself trip over state the fault
           already damaged (e.g. spin on a dead lock); either way it is
           abandoned here, partial state left in place. *)
        (try Hypervisor.execute_partial st.hv st.rng activity ~stop_at
         with Crash.Hypervisor_crash _ -> ())
      end)
    st.mix.Workloads.System_mix.active_cpus;
  !busy

(* The error-detection path runs in exception/NMI context on every CPU
   (the detecting CPU traps; the others are stopped by IPI), so each
   CPU's interrupt-nesting counter is bumped and stays bumped when the
   threads are discarded -- which is why "Clear IRQ count" is the very
   first enhancement needed. *)
let enter_detection_context st =
  Array.iter Percpu.irq_enter st.hv.Hypervisor.percpu

let count_affected_app_vms st ~initial_app_domids =
  List.fold_left
    (fun acc domid ->
      match Hypervisor.domain st.hv domid with
      | Some d -> if Domain.affected d then acc + 1 else acc
      | None -> acc + 1)
    0 initial_app_domids

(* Resume the guests after a recovery: retry the interactions abandoned
   at detection and fail the guests whose work was lost. Raises
   [Crash.Hypervisor_crash] when a retry trips over residual damage. *)
let resume_guests st =
  let hv = st.hv in
  let mark_failed domid =
    match Hypervisor.domain hv domid with
    | Some d -> d.Domain.guest_failed <- true
    | None -> ()
  in
  Domain_table.iter_vcpus
    (fun (v : Domain.vcpu) ->
      if v.Domain.lost_work then begin
        mark_failed v.Domain.domid;
        v.Domain.lost_work <- false
      end;
      if v.Domain.retry_pending then Hypervisor.retry_hypercall hv st.rng v;
      if v.Domain.syscall_retry_pending then Hypervisor.retry_syscall hv v;
      (* Guest processes resumed with clobbered FS/GS crash. *)
      if not v.Domain.fsgs_valid then mark_failed v.Domain.domid)
    hv.Hypervisor.domains

(* The 3AppVM criterion: after a recovery, a new AppVM can be created and
   runs BlkBench unaffected. *)
let new_vm_probe st =
  let hv = st.hv in
  match
    Hypervisor.execute hv st.rng
      (Hypervisor.Hypercall
         { domid = 0; vid = 0; kind = Hypercalls.Domctl_create_domain })
  with
  | exception Crash.Hypervisor_crash _ -> false
  | () -> (
    match
      Domain_table.find_first
        (fun (d : Domain.t) -> Domain.is_app d && d.Domain.domid >= 3)
        hv.Hypervisor.domains
    with
    | None -> false
    | Some d -> (
      let blk =
        Workloads.Workload.create Workloads.Workload.Blkbench ~domid:d.Domain.domid
      in
      try
        for _ = 1 to 150 do
          Hypervisor.execute hv st.rng
            (Workloads.Workload.sample_activity st.rng blk)
        done;
        not (Domain.affected d)
      with Crash.Hypervisor_crash _ -> false))

(* The first failure the post-recovery health checks found. *)
type health_failure =
  | Privvm_starved (* a PrivVM CPU's APIC timer was left disarmed *)
  | Privvm_failed
  | Crashed_again of Crash.detection (* before the checks completed *)
  | Residual of Hypervisor.audit_report (* the final audit was not clean *)

let failure_reason = function
  | Privvm_starved -> "PrivVM CPU starved: APIC timer disarmed"
  | Privvm_failed -> "PrivVM failed"
  | Crashed_again d -> "post-recovery crash: " ^ Crash.describe d
  | Residual report ->
    Format.asprintf "residual inconsistency: %a" Hypervisor.pp_audit report

type health = {
  failure : health_failure option; (* [None]: the hypervisor is healthy *)
  probe_ok : bool;
      (* the new-VM probe passed; [true] when none was asked for or a
         crash ended the checks before it *)
}

(* Resume the VMs after a completed recovery and check the platform:
   retry the interactions abandoned at detection, fail what the blocked
   vectors and disarmed timers starve, run [settle] activities of the
   resumed benchmarks, run the new-VM probe when asked, then audit. The
   first failure skips the checks after it. *)
let post_recovery_phase st ~settle ~new_vm_probe:probe =
  let hv = st.hv in
  (* The resumed benchmarks are workload again; the final audit gets its
     own allocation phase. *)
  Obs.Recorder.alloc_phase hv.Hypervisor.obs Obs.Recorder.Workload;
  let hv_ok = ref true in
  let failure = ref None in
  let fail f =
    hv_ok := false;
    match !failure with None -> failure := Some f | Some _ -> ()
  in
  let probe_ok = ref true in
  (try
     resume_guests st;
     (* Detection removed the step hook; a later cycle's detection reads
        the CPU of the last step before its crash. *)
     install_cpu_tracker st;
     (* Interrupt vectors left in service block further delivery of that
        vector. A blocked timer vector is equivalent to a disarmed APIC
        (the CPU starves); blocked device vectors stall the paravirtual
        I/O of every VM, failing the benchmarks. *)
     Hw.Machine.iter_cpus hv.Hypervisor.machine (fun c ->
         let apic = c.Hw.Cpu.apic in
         if Hw.Apic.in_service apic 0x31 || Hw.Apic.in_service apic 0x32 then
           List.iter
             (fun (b : Workloads.Workload.t) ->
               match Hypervisor.domain hv b.Workloads.Workload.domid with
               | Some d -> d.Domain.guest_failed <- true
               | None -> ())
             st.benchmarks;
         if Hw.Apic.in_service apic 0xf0 then Hw.Apic.disarm_timer apic);
     (* A CPU whose APIC timer was left disarmed gets no timer
        interrupts: the vCPU pinned there starves. If that CPU belongs
        to the PrivVM the platform is dead. *)
     Hw.Machine.iter_cpus hv.Hypervisor.machine (fun c ->
         if not (Hw.Apic.timer_armed c.Hw.Cpu.apic) then
           Domain_table.iter_vcpus
             (fun (v : Domain.vcpu) ->
               if v.Domain.processor = c.Hw.Cpu.id then
                 match Hypervisor.domain hv v.Domain.domid with
                 | Some d ->
                   if d.Domain.privileged then fail Privvm_starved
                   else d.Domain.guest_failed <- true
                 | None -> ())
             hv.Hypervisor.domains);
     (* Resume the benchmarks for their remaining duration. *)
     for _ = 1 to settle do
       if !hv_ok then run_one_activity st
     done;
     (* The PrivVM must still work for the platform to be healthy. *)
     if (Hypervisor.privvm hv).Domain.guest_failed then fail Privvm_failed;
     if probe then probe_ok := !hv_ok && new_vm_probe st;
     (* Final health check: residual inconsistencies that the benchmarks
        did not happen to touch still leave the hypervisor latently
        broken. *)
     Obs.Recorder.alloc_phase hv.Hypervisor.obs Obs.Recorder.Audit;
     if !hv_ok then begin
       let report = Hypervisor.audit hv in
       if not (Hypervisor.audit_clean report) then begin
         (* Violations also land as typed events + per-kind [audit.*]
            counters, not just the failure reason. *)
         Hypervisor.record_audit_violations hv report;
         fail (Residual report)
       end
     end
   with Crash.Hypervisor_crash d -> fail (Crashed_again d));
  { failure = !failure; probe_ok = !probe_ok }

(* First half of a run: warm the machine up to the fault trigger point.
   Returns the AppVM domids present before injection (the set the
   outcome classification counts casualties against). Split from
   [finish_prepared] so clone fan-out can drive one machine to exactly
   this point, snapshot it, and replay many fault variants from the
   image; an endurance scenario warms up here once, then runs its
   cycles. *)
let warmup_prepared st =
  let cfg = st.cfg in
  let obs = st.hv.Hypervisor.obs in
  install_cpu_tracker st;
  (* Boot (everything since [alloc_begin]) ends here; the warmup
     activities are workload. *)
  Obs.Recorder.alloc_phase obs Obs.Recorder.Workload;
  (* Warm-up: the first-level trigger fires well after benchmark start. *)
  for _ = 1 to cfg.warmup_activities do
    run_one_activity st
  done;
  Domain_table.fold_right
    (fun (d : Domain.t) domids ->
      if Domain.is_app d then d.Domain.domid :: domids else domids)
    st.hv.Hypervisor.domains []

(* The fault cycle. [Quiet]: the fault did not crash the hypervisor
   within the configured activity stream. [Crashed]: it did, and the
   record holds what detection, recovery and the health checks found. *)
type recovery =
  | Aborted of string (* why the recovery did not complete *)
  | Recovered of Recovery.Plan.outcome * health

type cycle = Quiet | Crashed of crash

and crash = {
  det : Crash.detection;
  latent_trigger : bool;
      (* the crash arrived before the fault was applied: residue of an
         earlier fault, not this one *)
  busy_cpus : int list; (* CPUs whose in-flight threads were abandoned *)
  recovery : recovery;
}

(* Recover with the configured mechanism; [Error] is the abort reason. *)
let recover st ~faulted_cpu ~busy_cpus =
  match st.cfg.mech with
  | No_recovery -> Error "no recovery mechanism"
  | Mech (mechanism, enh) -> (
    match
      Recovery.Engine.recover mechanism st.hv ~enh ~detected_on:faulted_cpu
    with
    | exception Crash.Hypervisor_crash d -> Error (Crash.describe d)
    | plan -> (
      (* Scope_faulting_only ablation: the surviving threads on the other
         CPUs resume after recovery and collide with its global state
         changes -- their IRQ-nesting counters were zeroed while they
         were still inside handlers, and the locks they held were force-
         released, so their epilogues trip assertions. *)
      match (st.cfg.discard_scope, busy_cpus) with
      | Scope_faulting_only, cpu :: _ ->
        Error
          (Printf.sprintf
             "surviving thread on cpu%d: irq_exit underflow after recovery \
              cleared its nesting counter"
             cpu)
      | (Scope_all_threads | Scope_faulting_only), _ -> Ok plan))

(* One fault cycle over a prepared state, the sequence every driver
   shares: arm the fault, run the activity stream until the hypervisor
   crashes, mark the detection, abandon the concurrent work, enter the
   detection context, recover, then resume the guests and check the
   platform over [settle] activities ([post_recovery_phase]). A
   single-shot run reads the result as its outcome ([finish_prepared]);
   an endurance scenario runs one cycle per round on one instance. *)
let fault_cycle st ~settle ~new_vm_probe =
  let hv = st.hv in
  let obs = hv.Hypervisor.obs in
  (* Per-cycle fault state: a failure signature names this cycle's own
     fault target. *)
  st.fault_applied <- false;
  st.first_target <- None;
  (* The armed trigger window counts as injection, detected or not. *)
  Obs.Recorder.alloc_phase obs Obs.Recorder.Injection;
  arm_fault st;
  let crashed =
    match
      for _ = 1 to st.cfg.post_activities do
        run_one_activity st
      done
    with
    | () -> None
    | exception Crash.Hypervisor_crash d -> Some d
  in
  hv.Hypervisor.step_hook <- None;
  match crashed with
  | None -> Quiet
  | Some det ->
    Obs.Recorder.alloc_phase obs Obs.Recorder.Detection;
    let latent_trigger = not st.fault_applied in
    let faulted_cpu = st.last_cpu in
    Obs.Metrics.incr obs.Obs.Recorder.detections;
    Obs.Recorder.event obs
      ~time:(Sim.Clock.now hv.Hypervisor.clock)
      ~cpu:faulted_cpu Obs.Event.Error
      (Obs.Event.Detection
         {
           kind = (match det with Crash.Panic _ -> "panic" | Crash.Hang _ -> "hang");
           message = Crash.describe det;
         });
    Sim.Clock.advance_by hv.Hypervisor.clock
      (Crash.detection_latency ~config:hv.Hypervisor.config det);
    let busy_cpus = abandon_concurrent_work st ~faulted_cpu in
    enter_detection_context st;
    Obs.Recorder.alloc_phase obs Obs.Recorder.Recovery;
    let recovery =
      match recover st ~faulted_cpu ~busy_cpus with
      | Error why -> Aborted why
      | Ok plan -> Recovered (plan, post_recovery_phase st ~settle ~new_vm_probe)
    in
    Crashed { det; latent_trigger; busy_cpus; recovery }

(* A single-shot run's reading of a crashed cycle: the paper's per-setup
   success criterion over the AppVMs present before injection. *)
let detected_of st ~initial_app_domids c =
  let all_affected = List.length initial_app_domids in
  match c.recovery with
  | Aborted why ->
    {
      detection = c.det;
      recovered = false;
      app_vms_affected = all_affected;
      new_vm_ok = false;
      success = false;
      no_vmf = false;
      recovery_latency = 0;
      breakdown = None;
      failure_reason = Some ("recovery aborted: " ^ why);
    }
  | Recovered (plan, h) ->
    let hv_ok = Option.is_none h.failure in
    let app_vms_affected =
      if hv_ok then count_affected_app_vms st ~initial_app_domids
      else all_affected
    in
    let success, no_vmf =
      match st.cfg.setup with
      | One_appvm _ ->
        let s = hv_ok && app_vms_affected = 0 in
        (s, s)
      | Three_appvm ->
        ( hv_ok && h.probe_ok && app_vms_affected <= 1,
          hv_ok && h.probe_ok && app_vms_affected = 0 )
    in
    {
      detection = c.det;
      recovered = hv_ok;
      app_vms_affected;
      new_vm_ok = h.probe_ok;
      success;
      no_vmf;
      recovery_latency = plan.Recovery.Plan.latency;
      breakdown = Some plan.Recovery.Plan.breakdown;
      failure_reason = Option.map failure_reason h.failure;
    }

(* Second half: run the fault cycle, then classify. *)
let finish_prepared st ~initial_app_domids : outcome =
  let obs = st.hv.Hypervisor.obs in
  let new_vm_probe =
    match st.cfg.setup with Three_appvm -> true | One_appvm _ -> false
  in
  let out =
    match fault_cycle st ~settle:st.cfg.post_activities ~new_vm_probe with
    | Quiet ->
      let any_sdc =
        Domain_table.find_first
          (fun (d : Domain.t) ->
            Domain.is_app d && (d.Domain.guest_sdc || d.Domain.guest_failed))
          st.hv.Hypervisor.domains
        <> None
      in
      if any_sdc then Silent_corruption else Non_manifested
    | Crashed c -> Detected (detected_of st ~initial_app_domids c)
  in
  (* Classify: one counter per outcome class, the latency histogram for
     completed recoveries, and a terminal event closing the timeline. The
     instruments are the recorder's cached fields -- no name lookup. *)
  let now = Sim.Clock.now st.hv.Hypervisor.clock in
  (match out with
  | Non_manifested -> Obs.Metrics.incr obs.Obs.Recorder.outcome_non_manifested
  | Silent_corruption -> Obs.Metrics.incr obs.Obs.Recorder.outcome_sdc
  | Detected d ->
    Obs.Metrics.incr obs.Obs.Recorder.outcome_detected;
    if d.recovery_latency > 0 then begin
      Obs.Metrics.observe obs.Obs.Recorder.recovery_latency_ms
        (d.recovery_latency / 1_000_000);
      Obs.Metrics.observe obs.Obs.Recorder.recovery_latency_ns
        d.recovery_latency
    end;
    (* Per-phase recovery timings into the log-bucket histogram: the
       quantile source for "where does the recovery tail come from". *)
    (match d.breakdown with
    | Some b ->
      List.iter
        (fun (_, ns) ->
          if ns > 0 then
            Obs.Metrics.observe obs.Obs.Recorder.recovery_phase_ns ns)
        b.Latency_model.steps
    | None -> ()));
  Obs.Metrics.observe obs.Obs.Recorder.run_latency_ns now;
  Obs.Metrics.set obs.Obs.Recorder.run_end_time_ns now;
  Obs.Recorder.event obs ~time:now Obs.Event.Info
    (Obs.Event.Outcome_classified { name = outcome_name out });
  Obs.Recorder.alloc_close obs;
  out

(* The run proper, over an already-booted (fresh or restored) machine. *)
let run_prepared st : outcome =
  finish_prepared st ~initial_app_domids:(warmup_prepared st)

(* Execute one complete fault-injection run on a freshly booted machine.
   [recorder] (optional) is the observability recorder the run's
   hypervisor reports into; callers that want the trace/spans/metrics of
   the run pass one and inspect it after. *)
let run_obs ?recorder (cfg : config) : outcome =
  (match recorder with
  | Some r -> Obs.Recorder.alloc_begin r
  | None -> ());
  run_prepared (boot_state ?recorder cfg)

let run (cfg : config) : outcome = run_obs cfg

(* ------------------------------------------------------------------ *)
(* Worker reuse: one long-lived machine, restored between runs         *)
(* ------------------------------------------------------------------ *)

(* A worker owns one machine plus the per-run scratch (RNG, recorder)
   and reuses them across runs: [execute_into] rewinds everything by
   restoring the golden post-boot image instead of booting again,
   cutting the per-run rewind to O(state the previous run touched) --
   which is what lets parallel campaigns scale instead of serialising on
   the OCaml 5 stop-the-world minor GC. The contract (enforced by
   tests): a run through [execute_into] is observationally identical to
   [run_obs] on a fresh machine with the same config -- outcomes, stats
   and metric snapshots all match bit for bit, including after runs that
   died unrecovered and after clone fan-outs.

   [w_boot_key] is what the boot image bakes in: runs that share it
   rewind through [Hypervisor.restore]; any other run boots a
   replacement machine and takes its image. The image is a base for the
   worker's whole life: a clone fan-out layers its trigger-point image
   over it ({!prepare_clone}), and the next restore of the base unwinds
   that layer. *)
type boot_key = {
  bk_mconfig : Hw.Machine.config; (* geometry the machine is built with *)
  bk_hv_config : Config.t;
  bk_setup : Hypervisor.setup;
  bk_vcpus_per_cpu : int;
}

type worker = {
  w_rng : Sim.Rng.t;
  mutable w_hv : Hypervisor.t;
  mutable w_boot_key : boot_key;
  mutable w_image : Hypervisor.image; (* golden post-boot image *)
  mutable w_tables : tables; (* for the image and the latest run's setup *)
  mutable w_golden_ledger : Ledger.t option; (* captured with the image when auditing *)
  mutable w_audit_restores : bool;
  mutable w_last_target : string option;
      (* [first_target] of the most recent run: postmortem capture reads
         it after [execute_into]/[clone_into] return *)
}

let boot_key_of (cfg : config) =
  {
    bk_mconfig = cfg.mconfig;
    bk_hv_config = cfg.hv_config;
    bk_setup = hv_setup_of cfg;
    bk_vcpus_per_cpu = cfg.vcpus_per_cpu;
  }

(* Opt-in zero-leak audit at restore points: after every snapshot
   restore, recapture the ledger and require the orphan view to be
   exactly the image's -- no orphaned frames, held locks, lost recurring
   timers etc. may survive a rewind, whatever the previous run did
   (fault-free, recovered, or died). [Ledger.capture] walks the whole
   frame table, so this deliberately stays off in production campaigns
   and is exercised by the tests. The ledger is captured with the image,
   so it is the baseline every audited restore must come back to. *)
let set_restore_audit w flag =
  w.w_audit_restores <- flag;
  w.w_golden_ledger <-
    (if flag then Some (Ledger.capture w.w_hv) else None)

let check_restore_leaks w =
  match w.w_golden_ledger with
  | None -> ()
  | Some golden ->
    let d = Ledger.diff ~before:golden ~after:(Ledger.capture w.w_hv) in
    if not (Ledger.no_leak d) then
      failwith
        (Format.asprintf "Run: resources leaked across snapshot restore: %a"
           Ledger.pp_diff d)

let prepare ?recorder (cfg : config) =
  let hv = boot_hv ?recorder cfg in
  {
    w_rng = Sim.Rng.create cfg.seed;
    w_hv = hv;
    w_boot_key = boot_key_of cfg;
    w_image = Hypervisor.snapshot hv;
    w_tables = tables cfg hv;
    w_golden_ledger = None;
    w_audit_restores = false;
    w_last_target = None;
  }

(* The recorder the worker's next run will report into: inspect or export
   it after [execute_into] returns. *)
let worker_recorder w = w.w_hv.Hypervisor.obs

(* Rewind the worker to a freshly-booted machine for [cfg]: reseed the
   RNG and restore the golden boot image -- O(state the previous run
   dirtied), not O(machine). A run whose boot parameters or geometry
   differ from the image's boots a replacement machine instead, keeping
   the worker's recorder, and later runs restore its image. *)
let rewind w (cfg : config) =
  Sim.Rng.reseed w.w_rng cfg.seed;
  (* The recorder is not part of the image; reset it by hand for per-run
     metric isolation. *)
  let obs = w.w_hv.Hypervisor.obs in
  Obs.Recorder.reset obs;
  if boot_key_of cfg <> w.w_boot_key then begin
    w.w_hv <- boot_hv ~recorder:obs cfg;
    w.w_boot_key <- boot_key_of cfg;
    w.w_image <- Hypervisor.snapshot w.w_hv;
    w.w_tables <- tables cfg w.w_hv;
    set_restore_audit w w.w_audit_restores
  end
  else begin
    Hypervisor.restore w.w_hv w.w_image;
    check_restore_leaks w
  end

(* The prologue of every run on a worker -- a campaign run, a clone
   source, an endurance scenario: mark the boot phase before the rewind
   (the mark survives the recorder reset inside it), rewind, open a new
   flight-ring epoch (the rings survive the rewind by design, so this
   scopes readback to the run's own entries) and build the run state
   around the worker's activity tables. *)
let start_on w (cfg : config) =
  Obs.Recorder.alloc_begin w.w_hv.Hypervisor.obs;
  rewind w cfg;
  Hypervisor.new_flight_epoch w.w_hv;
  if w.w_tables.tb_setup <> cfg.setup then w.w_tables <- tables cfg w.w_hv;
  state_with w.w_tables cfg w.w_rng w.w_hv

let execute_into w (cfg : config) : outcome =
  let st = start_on w cfg in
  let out = run_prepared st in
  w.w_last_target <- st.first_target;
  out

(* ------------------------------------------------------------------ *)
(* Clone fan-out: one warmed-up image, many fault variants              *)
(* ------------------------------------------------------------------ *)

(* A trigger-point clone source: the machine driven to the fault trigger
   point exactly once, plus everything [finish_prepared] needs to replay
   from there -- the hypervisor image, the metric values accumulated so
   far (fan-out variants must start from them or their per-run metric
   deltas would differ from a fresh run's), the RNG position and the
   harness scalars. *)
type clone_source = {
  cs_worker : worker;
  cs_state : state;
  cs_initial_app_domids : int list;
  cs_image : Hypervisor.image;
  cs_metrics : Obs.Metrics.snapshot;
  cs_rng_pos : int64;
  cs_last_cpu : int;
}

(* Drive the worker's machine to the trigger point for [cfg] (rewind,
   boot bookkeeping, warmup) and snapshot it there, as a layer over the
   worker's boot image: the next [rewind] restores the boot image and
   drops the layer, so the source is valid until then. The returned
   source replays with [clone_into]. *)
let prepare_clone (w : worker) (cfg : config) : clone_source =
  let st = start_on w cfg in
  let initial_app_domids = warmup_prepared st in
  (* Quiesce for the snapshot: the tracker hook is reinstalled (and the
     trigger armed over it) by each variant. *)
  st.hv.Hypervisor.step_hook <- None;
  let image = Hypervisor.snapshot ~layer:true st.hv in
  {
    cs_worker = w;
    cs_state = st;
    cs_initial_app_domids = initial_app_domids;
    cs_image = image;
    cs_metrics = Obs.Recorder.metrics_snapshot st.hv.Hypervisor.obs;
    cs_rng_pos = Sim.Rng.save w.w_rng;
    cs_last_cpu = st.last_cpu;
  }

(* Replay one fault variant from the trigger-point image. [reseed]
   selects the variant: it rewinds the RNG to the trigger point by
   default (identical twins) or forks the stream for distinct variants.
   [cfg] overrides the post-trigger configuration -- fault kind and
   directive in particular -- so the fuzzer can clone one warmup across
   mutants that differ only past the trigger point; the prepared machine
   and warmup are shared, only [finish_prepared] sees the variant
   config. The first replay runs directly on the just-prepared machine;
   later ones restore the image first -- O(what the previous variant
   touched). Each variant's run records into the worker recorder exactly
   what a fresh full run with the same post-trigger stream would have
   recorded. *)
let clone_into ?reseed ?cfg (src : clone_source) : outcome =
  let st =
    match cfg with
    | None -> src.cs_state
    | Some cfg -> { src.cs_state with cfg }
  in
  let w = src.cs_worker in
  Obs.Recorder.alloc_begin st.hv.Hypervisor.obs;
  Hypervisor.restore st.hv src.cs_image;
  (* The restore rewinds [hv.config] to the image's. Recovery-path-only
     flags from the variant config are legitimate post-trigger variation
     (they cannot affect the shared warmup), so re-apply them here. *)
  st.hv.Hypervisor.config <-
    {
      st.hv.Hypervisor.config with
      Config.incremental_scan = st.cfg.hv_config.Config.incremental_scan;
    };
  let r = st.hv.Hypervisor.obs in
  Obs.Recorder.reset r;
  Obs.Metrics.restore r.Obs.Recorder.metrics src.cs_metrics;
  check_restore_leaks w;
  Hypervisor.new_flight_epoch st.hv;
  Sim.Rng.reseed st.rng
    (match reseed with Some s -> s | None -> src.cs_rng_pos);
  st.last_cpu <- src.cs_last_cpu;
  let out = finish_prepared st ~initial_app_domids:src.cs_initial_app_domids in
  w.w_last_target <- st.first_target;
  out
