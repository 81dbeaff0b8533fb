(** ReHype: microreboot-based recovery of the hypervisor (Section III-B).

    All CPUs disable interrupts and all but one halt. The remaining CPU
    preserves the static data segments, boots a new hypervisor instance
    (hardware re-initialisation, fresh memory state), re-integrates the
    preserved state (non-free heap pages, page tables, domain
    structures) and wakes the other CPUs. The reboot gives ReHype
    "free" repairs that NiLiHype needs explicit enhancements for --
    fresh static data, a rebuilt heap, a fresh timer heap, re-initialised
    scheduler state -- at the price of a ~713 ms recovery latency
    (Table II) and extra normal-operation logging (IO-APIC writes, boot
    line options). *)

open Hyper

(* The Table II plan: twelve global steps. Costs are charged at the
   configured geometry; mechanics operate on the real (possibly
   scaled-down) simulated tables. *)
let plan (hv : Hypervisor.t) ~(enh : Enhancement.set) ~detected_on repairs =
  let geo = Hypervisor.geometry hv in
  let frames = geo.Config.frames in
  let cpus = Hypervisor.cpu_count hv in
  let machine = hv.Hypervisor.machine in

  (* Boot requires the logged boot-line options; without the log the new
     instance comes up with wrong parameters. *)
  if not hv.Hypervisor.config.Config.bootline_logging then
    Crash.panic "rehype: boot line options were not logged; reboot misconfigured";
  if not hv.Hypervisor.bootline_ok then
    Crash.panic "rehype: logged boot line options corrupted";
  let step = Plan.step in
  {
    Plan.mechanism = "ReHype";
    mode = None;
    steps =
      [
        (* --- Stop the world and preserve state ------------------------ *)
        step "Halt CPUs, preserve static data segments" (Sim.Time.ms 1)
          (fun () -> Common.stop_world ~halt:true hv ~detected_on);
        (* --- Hardware initialisation (412 ms, Table II) --------------- *)
        step "Early initialize of the boot CPU"
          Latency_model.reboot_early_boot_cpu (fun () ->
            Hw.Machine.reset_for_reboot machine);
        step "Initialize and wait for other CPUs to come online"
          (Latency_model.reboot_cpu_online_per_cpu * (geo.Config.cpus - 1))
          (fun () ->
            Hw.Machine.iter_cpus machine (fun c -> c.Hw.Cpu.state <- Hw.Cpu.Halted));
        step "Verify, connect and setup local APIC and IO APIC"
          Latency_model.reboot_apic_ioapic_setup (fun () ->
            (* The reboot re-initialises the IO-APIC; the pre-failure
               routing must be replayed from the normal-operation write
               log. *)
            if hv.Hypervisor.config.Config.ioapic_write_logging then
              Hw.Ioapic.replay_log machine.Hw.Machine.ioapic);
        step "Initialize and calibrate TSC timer"
          Latency_model.reboot_tsc_calibrate ignore;
        (* --- Memory initialisation (266 ms, Table II) ----------------- *)
        step "Record allocated pages of old heap"
          (Latency_model.reboot_record_old_heap ~frames)
          ignore;
        step "Restore and check consistency of page frame entries"
          (Latency_model.pfn_scan ~frames)
          (fun () ->
            repairs.Plan.pfn_fixed <- Pfn.repair_all hv.Hypervisor.pfn);
        step "Re-initialize the page frame descriptor for un-preserved pages"
          (Latency_model.reboot_reinit_unpreserved_pfn ~frames)
          ignore;
        step "Recreate the new heap" (Latency_model.reboot_recreate_heap ~frames)
          (fun () ->
            (* A fresh allocator is built and live objects re-integrated:
               this repairs free-list corruption and, because static data
               was re-initialised by the boot, static-segment corruption
               too. *)
            Heap.rebuild_for_reboot hv.Hypervisor.heap;
            hv.Hypervisor.static_data_ok <- true;
            hv.Hypervisor.static_data_note <- "");
        (* --- Misc (35 ms, Table II) ----------------------------------- *)
        step "SMP initialization" Latency_model.reboot_smp_init
          ~after:(fun () -> Common.note_lock_releases hv ~cpu:detected_on repairs)
          (fun () ->
            (* Fresh per-CPU state: IRQ counts zero, static locks
               re-initialised unlocked, timer heap rebuilt with the
               standard recurring events, scheduler state rebuilt from
               the preserved domain structures. *)
            Array.iter Percpu.clear_irq_count hv.Hypervisor.percpu;
            ignore (Spinlock.Segment.unlock_all hv.Hypervisor.static_segment);
            repairs.Plan.heap_locks_released <- Common.release_heap_locks hv;
            Common.ack_interrupts hv;
            Timer_heap.rebuild_for_reboot hv.Hypervisor.timers
              ~now:(Sim.Clock.now hv.Hypervisor.clock);
            (* Scheduler: every vCPU is re-queued; nothing is current. *)
            let sched = hv.Hypervisor.sched in
            Domain_table.iter_vcpus
              (fun (v : Domain.vcpu) ->
                Sched.vcpu_clear_current v;
                if v.Domain.runstate = Domain.Running then
                  v.Domain.runstate <- Domain.Runnable)
              hv.Hypervisor.domains;
            for cpu = 0 to cpus - 1 do
              Sched.clear_current sched ~cpu;
              hv.Hypervisor.percpu.(cpu).Percpu.curr_domid <- -1;
              hv.Hypervisor.percpu.(cpu).Percpu.curr_vcpuid <- -1
            done;
            Domain_table.iter_vcpus
              (fun (v : Domain.vcpu) ->
                if not (Sched.is_queued sched v) then Sched.enqueue sched v)
              hv.Hypervisor.domains);
        step "Identify valid page frames, relocate boot modules"
          Latency_model.reboot_relocate_modules ignore;
        step "Others (state re-integration, domain wiring)"
          Latency_model.reboot_others (fun () ->
            Common.setup_retries hv ~enh;
            Common.restore_fs_gs hv ~enh;
            (* Resume: make each pinned vCPU current again and re-arm
               timers. *)
            Hypervisor.start_vcpus hv;
            Common.reprogram_apic_timers hv;
            Common.resume_cpus hv);
      ];
  }

let recover hv ~enh ~detected_on =
  Plan.run hv ~detected_on (plan hv ~enh ~detected_on)
