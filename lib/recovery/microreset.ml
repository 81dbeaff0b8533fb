(** NiLiHype: microreset-based recovery of the hypervisor (Section V).

    When an error is detected, the recovery handler is invoked on the
    detecting CPU. It disables interrupts on its own CPU and interrupts
    all others, which disable theirs; every CPU discards its execution
    thread within the hypervisor by resetting its stack pointer, then
    all but the detecting CPU busy-wait while it applies the
    enhancements. No reboot: the entire global state stays in place,
    which is why recovery completes in ~22 ms instead of ~713 ms. *)

open Hyper

(* The Table III plan: four global steps. Costs are charged at the
   configured geometry; mechanics operate on the real (possibly
   scaled-down) simulated tables. *)
let plan (hv : Hypervisor.t) ~(enh : Enhancement.set) ~detected_on repairs =
  let mechanism = "NiLiHype" in
  let has = Common.has hv ~mechanism ~cpu:detected_on enh in
  let geo = Hypervisor.geometry hv in
  let mode = Common.scan_mode hv in
  let pfn = hv.Hypervisor.pfn in
  (* Phase 3: page-frame descriptor consistency scan. The full walk is
     the dominant latency component (21 ms for 8 GB), proportional to
     memory size; the incremental walk visits only descriptors written
     since the last golden refresh -- O(damaged state + workload drift)
     -- and repairs exactly the same descriptors (clean ones are
     consistent by construction of the baseline). The full walk is
     charged at its modelled O(frames) cost either way; the simulator
     itself skips the clean frames when the image allows it
     ({!Pfn.repair_all}). *)
  let scan =
    if not (Enhancement.mem enh Enhancement.Pfn_consistency_scan) then []
    else
      match mode with
      | Plan.Incremental_scan ->
        [
          Plan.step "Incremental consistency scan of dirty page frame entries"
            (Latency_model.pfn_scan_dirty ~dirty:(Pfn.dirty_count pfn))
            (fun () -> repairs.Plan.pfn_fixed <- Pfn.scan_and_fix_dirty pfn);
        ]
      | Plan.Full_scan ->
        [
          Plan.step "Restore and check consistency of page frame entries"
            (Latency_model.pfn_scan ~frames:geo.Config.frames)
            (fun () -> repairs.Plan.pfn_fixed <- Pfn.repair_all pfn);
        ]
  in
  {
    Plan.mechanism;
    mode = Some mode;
    steps =
      [
        (* Phase 1: stop the world. *)
        Plan.step "Interrupt CPUs, discard execution threads"
          (Latency_model.microreset_interrupt_cpus ~cpus:geo.Config.cpus)
          (fun () -> Common.stop_world hv ~detected_on);
        (* Phase 2: state-consistency enhancements, run by the detecting
           CPU. *)
        Plan.step "Apply state-consistency enhancements"
          (match mode with
          | Plan.Incremental_scan ->
            Latency_model.microreset_enhancements_dirty
              ~heap_dirty:(Heap.dirty_count hv.Hypervisor.heap)
              ~timer_dirty:(Timer_heap.dirty_count hv.Hypervisor.timers)
          | Plan.Full_scan -> Latency_model.microreset_enhancements)
          ~after:(Common.singletons_repaired hv ~has ~cpu:detected_on mode repairs)
          (fun () ->
            Common.repair_singletons hv ~has repairs;
            Common.setup_retries hv ~enh;
            Common.restore_fs_gs hv ~enh);
      ]
      @ scan
      (* Phase 4: reprogram hardware timers and resume. *)
      @ [ Common.resume_step hv ~has ];
  }

let recover hv ~enh ~detected_on =
  Plan.run hv ~detected_on (plan hv ~enh ~detected_on)
