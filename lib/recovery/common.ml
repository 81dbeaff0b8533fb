(** Recovery actions shared by the plans: stopping and resuming the
    world, the singleton repairs and the scan-path decision both
    microreset plans use, their observability notes, and the post-reset
    resolution of inconsistencies with the VMs (hypercall/syscall retry
    set-up, FS/GS restoration). None of them charges time: {!Plan.run}
    does. *)

open Hyper

(* Whether enhancement [e] is enabled; each enabled one that runs gets a
   debug-level note. *)
let has (hv : Hypervisor.t) ~mechanism ~cpu (enh : Enhancement.set) e =
  let present = Enhancement.mem enh e in
  if present then
    Obs.Recorder.event hv.Hypervisor.obs
      ~time:(Sim.Clock.now hv.Hypervisor.clock)
      ~cpu Obs.Event.Debug
      (Obs.Event.Recovery_step
         { mechanism; step = "enhancement:" ^ Enhancement.name e });
  present

(* Record forced lock releases performed during recovery: a typed event
   per lock class plus the [recovery.locks_released] counter. *)
let note_lock_releases (hv : Hypervisor.t) ~cpu (r : Plan.repairs) =
  let note name count =
    if count > 0 then begin
      Obs.Metrics.incr ~by:count
        hv.Hypervisor.obs.Obs.Recorder.recovery_lock_releases;
      Obs.Recorder.event hv.Hypervisor.obs
        ~time:(Sim.Clock.now hv.Hypervisor.clock)
        ~cpu Obs.Event.Info
        (Obs.Event.Lock_release { name; count })
    end
  in
  note "heap" r.Plan.heap_locks_released;
  note "static" r.Plan.static_locks_released

(* Stop the world: every CPU disables interrupts and discards its
   hypervisor execution thread (stack-pointer reset). For a microreset
   the detecting CPU goes on to run the recovery while the others
   busy-wait; for a microreboot they all halt. *)
let stop_world ?(halt = false) (hv : Hypervisor.t) ~detected_on =
  Hw.Machine.iter_cpus hv.Hypervisor.machine (fun c ->
      Hw.Cpu.disable_interrupts c;
      Hw.Cpu.discard_hypervisor_stack c;
      c.Hw.Cpu.state <-
        (if halt then Hw.Cpu.Halted
         else if c.Hw.Cpu.id = detected_on then Hw.Cpu.Running
         else Hw.Cpu.Busy_wait));
  Array.iter
    (fun (p : Percpu.t) -> p.Percpu.in_hypercall_depth <- 0)
    hv.Hypervisor.percpu

let resume_cpus (hv : Hypervisor.t) =
  Hw.Machine.iter_cpus hv.Hypervisor.machine (fun c ->
      Hw.Cpu.enable_interrupts c;
      c.Hw.Cpu.state <- Hw.Cpu.Running)

(* Resolve inconsistencies between the recovered hypervisor and the VMs:
   arrange for partially executed hypercalls and forwarded system calls
   to be retried when VM execution resumes. Without the retry
   mechanisms the interaction is simply lost and the issuing guest
   blocks forever. *)
let setup_retry ~(enh : Enhancement.set) (v : Domain.vcpu) =
  (match v.Domain.in_hypercall with
  | Some record when not record.Hypercalls.committed ->
    if Enhancement.mem enh Enhancement.Hypercall_retry then
      v.Domain.retry_pending <- true
    else v.Domain.lost_work <- true
  | Some _ -> v.Domain.in_hypercall <- None
  | None -> ());
  if v.Domain.in_syscall_forward then begin
    if Enhancement.mem enh Enhancement.Syscall_retry then
      v.Domain.syscall_retry_pending <- true
    else v.Domain.lost_work <- true
  end

let setup_retries (hv : Hypervisor.t) ~(enh : Enhancement.set) =
  Domain_table.iter_vcpus (setup_retry ~enh) hv.Hypervisor.domains

(* Restore guest FS/GS for vCPUs that were inside the hypervisor when
   the error was detected. Only possible if the entry path saved them
   (the Save-FS/GS port fix, [Config.save_fs_gs]); otherwise the guest
   resumes with clobbered segment bases and its processes fail. *)
let restore_fs_gs_vcpu (hv : Hypervisor.t) ~(enh : Enhancement.set)
    (v : Domain.vcpu) =
  let was_in_hypervisor =
    v.Domain.in_hypercall <> None || v.Domain.in_syscall_forward
    || v.Domain.retry_pending || v.Domain.syscall_retry_pending
  in
  if
    was_in_hypervisor
    && not
         (Enhancement.mem enh Enhancement.Restore_fs_gs
         && hv.Hypervisor.config.Config.save_fs_gs)
  then v.Domain.fsgs_valid <- false

let restore_fs_gs (hv : Hypervisor.t) ~(enh : Enhancement.set) =
  Domain_table.iter_vcpus (restore_fs_gs_vcpu hv ~enh) hv.Hypervisor.domains

(* Acknowledge all pending and in-service interrupts so stale interrupt
   state cannot block future delivery (shared ReHype mechanism). *)
let ack_interrupts (hv : Hypervisor.t) =
  Hw.Machine.iter_cpus hv.Hypervisor.machine (fun c -> Hw.Apic.ack_all c.Hw.Cpu.apic)

(* Release all heap-resident locks (ReHype mechanism reused by
   NiLiHype). *)
let release_heap_locks (hv : Hypervisor.t) = Heap.release_locks hv.Hypervisor.heap

(* Reprogram each CPU's APIC one-shot timer from the software timer
   heap, closing the fired-but-not-reprogrammed window. *)
let reprogram_apic_timers (hv : Hypervisor.t) =
  let now = Sim.Clock.now hv.Hypervisor.clock in
  let deadline =
    match Timer_heap.next_deadline hv.Hypervisor.timers with
    | Some d -> max d (now + Sim.Time.us 10)
    | None -> now + Sim.Time.ms 10
  in
  Hw.Machine.iter_cpus hv.Hypervisor.machine (fun c ->
      Hw.Apic.program_timer c.Hw.Cpu.apic ~deadline)

(* --- Shared by the serial and sharded microreset plans ------------- *)

(* Decide the scan path up front: the recovery's own repairs dirty state
   as they go, and the decision must not depend on them. The dirty sets
   can be trusted unless a recovery attempt died since the last
   consistent baseline. *)
let scan_mode (hv : Hypervisor.t) =
  if
    hv.Hypervisor.config.Config.incremental_scan
    && Pfn.tracking_usable hv.Hypervisor.pfn
  then Plan.Incremental_scan
  else Plan.Full_scan

(* The singletons every domain depends on: IRQ counts, heap and static
   locks, pending interrupts, scheduler metadata, recurring timers. *)
let repair_singletons (hv : Hypervisor.t) ~has (r : Plan.repairs) =
  if has Enhancement.Clear_irq_count then
    Array.iter Percpu.clear_irq_count hv.Hypervisor.percpu;
  if has Enhancement.Release_heap_locks then
    r.Plan.heap_locks_released <- release_heap_locks hv;
  if has Enhancement.Unlock_static_locks then
    r.Plan.static_locks_released <-
      Spinlock.Segment.unlock_all hv.Hypervisor.static_segment;
  if has Enhancement.Ack_interrupts then ack_interrupts hv;
  if has Enhancement.Sched_consistency then
    r.Plan.sched_fixes <-
      Sched.fix_from_percpu hv.Hypervisor.sched hv.Hypervisor.domains;
  if has Enhancement.Reactivate_recurring_timers then
    r.Plan.recurring_reactivated <-
      Timer_heap.reactivate_recurring hv.Hypervisor.timers
        ~now:(Sim.Clock.now hv.Hypervisor.clock)

(* Notes closing the step that repaired the singletons: the forced lock
   releases, then which page-frame scan path comes next. *)
let singletons_repaired (hv : Hypervisor.t) ~has ~cpu mode r () =
  note_lock_releases hv ~cpu r;
  if has Enhancement.Pfn_consistency_scan then
    Obs.Metrics.incr
      (match mode with
      | Plan.Incremental_scan -> hv.Hypervisor.obs.Obs.Recorder.scan_incremental
      | Plan.Full_scan -> hv.Hypervisor.obs.Obs.Recorder.scan_full)

(* Reprogram hardware timers and resume normal operation. *)
let resume_step (hv : Hypervisor.t) ~has =
  Plan.step "Reprogram timers, resume normal operation"
    Latency_model.microreset_misc (fun () ->
      if has Enhancement.Reprogram_apic_timer then reprogram_apic_timers hv;
      resume_cpus hv)
