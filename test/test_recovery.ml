(* Tests for the recovery engines: microreset (NiLiHype) and microreboot
   (ReHype), enhancement-by-enhancement. *)

open Contract

(* Put the hypervisor in a typical post-failure state: a hypercall
   abandoned mid-flight, a concurrent context switch abandoned, IRQ
   counts bumped by the detection path. *)
let wreck hv rng =
  (try
     Hyper.Hypervisor.execute_partial hv rng
       (Hyper.Hypervisor.Hypercall
          { domid = 1; vid = 0; kind = Hyper.Hypercalls.Mmu_update 2 })
       ~stop_at:5
   with Hyper.Crash.Hypervisor_crash _ -> ());
  (try
     Hyper.Hypervisor.execute_partial hv rng (Hyper.Hypervisor.Context_switch 2)
       ~stop_at:6
   with Hyper.Crash.Hypervisor_crash _ -> ());
  (try
     Hyper.Hypervisor.execute_partial hv rng (Hyper.Hypervisor.Timer_tick 0)
       ~stop_at:3
   with Hyper.Crash.Hypervisor_crash _ -> ());
  Array.iter Hyper.Percpu.irq_enter hv.Hyper.Hypervisor.percpu

let full = Recovery.Enhancement.full_set

(* ------------------------- Enhancement catalogue -------------------- *)

let test_ladder_is_cumulative () =
  let sizes =
    List.map
      (fun (_, _, set) -> List.length set.Recovery.Enhancement.enabled)
      Recovery.Enhancement.table1_ladder
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  checkb "each row adds enhancements" true (monotone sizes);
  checki "seven rows like Table I" 7 (List.length Recovery.Enhancement.table1_ladder)

let test_ladder_first_row_basic () =
  match Recovery.Enhancement.table1_ladder with
  | (label, _, set) :: _ ->
    Alcotest.check Alcotest.string "basic" "Basic" label;
    checki "no enhancements" 0 (List.length set.Recovery.Enhancement.enabled)
  | [] -> Alcotest.fail "empty ladder"

let test_rehype_mechanisms_subset_of_all () =
  List.iter
    (fun e -> checkb (Recovery.Enhancement.name e) true (List.mem e Recovery.Enhancement.all))
    Recovery.Enhancement.rehype_mechanisms

(* ------------------------- Microreset ------------------------------- *)

let test_microreset_clears_irq_counts () =
  let hv = boot () in
  let rng = Sim.Rng.create 1L in
  wreck hv rng;
  ignore (Recovery.Microreset.recover hv ~enh:full ~detected_on:0);
  Array.iter
    (fun (p : Hyper.Percpu.t) -> checki "irq count zero" 0 p.Hyper.Percpu.local_irq_count)
    hv.Hyper.Hypervisor.percpu

let test_microreset_releases_locks () =
  let hv = boot () in
  let rng = Sim.Rng.create 2L in
  wreck hv rng;
  Hyper.Spinlock.acquire hv.Hyper.Hypervisor.console_lock ~cpu:3;
  let r = Recovery.Microreset.recover hv ~enh:full ~detected_on:0 in
  let repairs = r.Recovery.Plan.repairs in
  checkb "heap locks released" true (repairs.Recovery.Plan.heap_locks_released > 0);
  checkb "static locks released" true (repairs.Recovery.Plan.static_locks_released > 0);
  checkb "console lock free" false
    (Hyper.Spinlock.is_held hv.Hyper.Hypervisor.console_lock)

let test_microreset_reprograms_apics () =
  let hv = boot () in
  let rng = Sim.Rng.create 3L in
  wreck hv rng;
  (* The abandoned timer tick left CPU 0's APIC disarmed. *)
  ignore (Recovery.Microreset.recover hv ~enh:full ~detected_on:0);
  Hw.Machine.iter_cpus hv.Hyper.Hypervisor.machine (fun c ->
      checkb "apic armed after recovery" true (Hw.Apic.timer_armed c.Hw.Cpu.apic))

let test_microreset_sets_up_retry () =
  let hv = boot () in
  let rng = Sim.Rng.create 4L in
  wreck hv rng;
  ignore (Recovery.Microreset.recover hv ~enh:full ~detected_on:0);
  let v = Hyper.Domain.vcpu (Option.get (Hyper.Hypervisor.domain hv 1)) 0 in
  checkb "hypercall retry pending" true v.Hyper.Domain.retry_pending

let test_microreset_without_retry_loses_work () =
  let hv = boot () in
  let rng = Sim.Rng.create 5L in
  wreck hv rng;
  let enh =
    Recovery.Enhancement.set_of_list
      (List.filter
         (fun e -> e <> Recovery.Enhancement.Hypercall_retry)
         Recovery.Enhancement.all)
  in
  ignore (Recovery.Microreset.recover hv ~enh ~detected_on:0);
  let v = Hyper.Domain.vcpu (Option.get (Hyper.Hypervisor.domain hv 1)) 0 in
  checkb "work lost without retry" true v.Hyper.Domain.lost_work;
  checkb "no retry pending" false v.Hyper.Domain.retry_pending

let test_microreset_audit_clean_after_full_recovery () =
  let hv = boot () in
  let rng = Sim.Rng.create 6L in
  wreck hv rng;
  ignore (Recovery.Microreset.recover hv ~enh:full ~detected_on:0);
  (* Complete the retries, then the audit must be clean. *)
  List.iter
    (fun (v : Hyper.Domain.vcpu) ->
      if v.Hyper.Domain.retry_pending then Hyper.Hypervisor.retry_hypercall hv rng v;
      if v.Hyper.Domain.syscall_retry_pending then Hyper.Hypervisor.retry_syscall hv v)
    (Doms.vcpus hv);
  let report = Hyper.Hypervisor.audit hv in
  checkb
    (Format.asprintf "clean: %a" Hyper.Hypervisor.pp_audit report)
    true
    (Hyper.Hypervisor.audit_clean report)

let test_microreset_basic_leaves_irq_residue () =
  (* With no enhancements, the IRQ counters bumped by detection stay,
     and the next schedule() asserts: Table I's 0% row. *)
  let hv = boot ~config:Hyper.Config.stock () in
  let rng = Sim.Rng.create 7L in
  wreck hv rng;
  ignore
    (Recovery.Microreset.recover hv
       ~enh:(Recovery.Enhancement.set_of_list [])
       ~detected_on:0);
  checkb "irq residue" true
    (Array.exists
       (fun (p : Hyper.Percpu.t) -> p.Hyper.Percpu.local_irq_count > 0)
       hv.Hyper.Hypervisor.percpu);
  checkb "next schedule asserts" true
    (crashes (fun () ->
         Hyper.Hypervisor.execute hv rng (Hyper.Hypervisor.Context_switch 0)))

let test_microreset_corrupted_handler_fails () =
  let hv = boot () in
  let rng = Sim.Rng.create 8L in
  wreck hv rng;
  hv.Hyper.Hypervisor.recovery_handler_ok <- false;
  checkb "recovery aborts" true
    (crashes (fun () -> Recovery.Microreset.recover hv ~enh:full ~detected_on:0))

let test_microreset_latency_breakdown () =
  (* Table III at full geometry: ~22 ms dominated by the pfn scan. *)
  let hv = boot ~mconfig:Hw.Machine.default_config ~setup:Hyper.Hypervisor.One_appvm () in
  Array.iter Hyper.Percpu.irq_enter hv.Hyper.Hypervisor.percpu;
  let r = Recovery.Microreset.recover hv ~enh:full ~detected_on:0 in
  let total = Hyper.Latency_model.total r.Recovery.Plan.breakdown in
  checkb "about 22ms" true (total > Sim.Time.ms 21 && total < Sim.Time.ms 23);
  let scan =
    List.assoc "Restore and check consistency of page frame entries"
      r.Recovery.Plan.breakdown.Hyper.Latency_model.steps
  in
  checkb "scan dominates" true (scan > (total * 9) / 10)

let test_microreset_latency_scales_with_memory () =
  let measure mem_bytes =
    let hv =
      boot
        ~mconfig:{ Hw.Machine.default_config with Hw.Machine.mem_bytes }
        ~setup:Hyper.Hypervisor.One_appvm ()
    in
    let r = Recovery.Microreset.recover hv ~enh:full ~detected_on:0 in
    Hyper.Latency_model.total r.Recovery.Plan.breakdown
  in
  let l8 = measure (8 * 1024 * 1024 * 1024) in
  let l16 = measure (16 * 1024 * 1024 * 1024) in
  (* Section VII-B: "the latency ... is proportional to the size of the
     host memory". *)
  checkb "16GB roughly doubles the scan" true
    (l16 > l8 + Sim.Time.ms 19 && l16 < (2 * l8) + Sim.Time.ms 1)

(* ------------------------- Microreboot ------------------------------ *)

let test_microreboot_latency_breakdown () =
  let hv =
    boot ~mconfig:Hw.Machine.default_config ~config:Hyper.Config.rehype
      ~setup:Hyper.Hypervisor.One_appvm ()
  in
  Array.iter Hyper.Percpu.irq_enter hv.Hyper.Hypervisor.percpu;
  let r = Recovery.Microreboot.recover hv ~enh:full ~detected_on:0 in
  let total = Hyper.Latency_model.total r.Recovery.Plan.breakdown in
  checkb "about 713ms" true (total > Sim.Time.ms 700 && total < Sim.Time.ms 725)

let test_latency_ratio_over_30x () =
  let total m =
    Hyper.Latency_model.total (Recovery.Engine.measure m).Recovery.Plan.breakdown
  in
  let nl = total Recovery.Engine.Nilihype and re = total Recovery.Engine.Rehype in
  checkb "paper headline: >30x" true (re > 30 * nl)

let test_microreboot_requires_bootline_log () =
  let hv = boot ~config:{ Hyper.Config.rehype with Hyper.Config.bootline_logging = false } () in
  let rng = Sim.Rng.create 9L in
  wreck hv rng;
  checkb "reboot without boot options fails" true
    (crashes (fun () -> Recovery.Microreboot.recover hv ~enh:full ~detected_on:0))

let test_microreboot_restores_ioapic_from_log () =
  let hv = boot ~config:Hyper.Config.rehype () in
  let rng = Sim.Rng.create 10L in
  wreck hv rng;
  ignore (Recovery.Microreboot.recover hv ~enh:full ~detected_on:0);
  checkb "routing replayed from the log" true
    (Hw.Ioapic.routing_valid hv.Hyper.Hypervisor.machine.Hw.Machine.ioapic)

let test_microreboot_repairs_heap_and_static () =
  (* The reboot repairs damage classes microreset cannot. *)
  let hv = boot ~config:Hyper.Config.rehype () in
  let rng = Sim.Rng.create 11L in
  wreck hv rng;
  Hyper.Heap.corrupt_freelist hv.Hyper.Hypervisor.heap "test";
  hv.Hyper.Hypervisor.static_data_ok <- false;
  Hyper.Timer_heap.corrupt_structure hv.Hyper.Hypervisor.timers;
  ignore (Recovery.Microreboot.recover hv ~enh:full ~detected_on:0);
  checkb "freelist rebuilt" true (Hyper.Heap.freelist_ok hv.Hyper.Hypervisor.heap);
  checkb "static data reinitialised" true hv.Hyper.Hypervisor.static_data_ok;
  checkb "timer heap rebuilt" true
    (Hyper.Timer_heap.structure_ok hv.Hyper.Hypervisor.timers)

let test_microreset_cannot_repair_freelist () =
  let hv = boot () in
  let rng = Sim.Rng.create 12L in
  wreck hv rng;
  Hyper.Heap.corrupt_freelist hv.Hyper.Hypervisor.heap "test";
  ignore (Recovery.Microreset.recover hv ~enh:full ~detected_on:0);
  checkb "freelist still corrupt (NiLiHype limit)" false
    (Hyper.Heap.freelist_ok hv.Hyper.Hypervisor.heap)

let test_microreboot_audit_clean () =
  let hv = boot ~config:Hyper.Config.rehype () in
  let rng = Sim.Rng.create 13L in
  wreck hv rng;
  ignore (Recovery.Microreboot.recover hv ~enh:full ~detected_on:0);
  List.iter
    (fun (v : Hyper.Domain.vcpu) ->
      if v.Hyper.Domain.retry_pending then Hyper.Hypervisor.retry_hypercall hv rng v;
      if v.Hyper.Domain.syscall_retry_pending then Hyper.Hypervisor.retry_syscall hv v)
    (Doms.vcpus hv);
  let report = Hyper.Hypervisor.audit hv in
  checkb
    (Format.asprintf "clean: %a" Hyper.Hypervisor.pp_audit report)
    true
    (Hyper.Hypervisor.audit_clean report)

let test_fsgs_lost_without_save () =
  (* x86-64 port fix: without Save FS/GS, a vCPU inside the hypervisor at
     detection resumes with clobbered segment bases. *)
  let hv = boot ~config:{ Hyper.Config.nilihype with Hyper.Config.save_fs_gs = false } () in
  let rng = Sim.Rng.create 14L in
  wreck hv rng;
  ignore (Recovery.Microreset.recover hv ~enh:full ~detected_on:0);
  let v = Hyper.Domain.vcpu (Option.get (Hyper.Hypervisor.domain hv 1)) 0 in
  checkb "fs/gs lost" false v.Hyper.Domain.fsgs_valid

let test_fsgs_preserved_with_save () =
  let hv = boot ~config:Hyper.Config.nilihype () in
  let rng = Sim.Rng.create 14L in
  wreck hv rng;
  ignore (Recovery.Microreset.recover hv ~enh:full ~detected_on:0);
  let v = Hyper.Domain.vcpu (Option.get (Hyper.Hypervisor.domain hv 1)) 0 in
  checkb "fs/gs preserved" true v.Hyper.Domain.fsgs_valid

let test_engine_dispatch () =
  let hv = boot () in
  let rng = Sim.Rng.create 15L in
  wreck hv rng;
  let o = Recovery.Engine.recover Recovery.Engine.Nilihype hv ~enh:full ~detected_on:0 in
  checkb "latency positive" true (o.Recovery.Plan.latency > 0);
  checkb "microreset scan path recorded" true
    (o.Recovery.Plan.scan_mode = Some Recovery.Plan.Full_scan)

(* The scheduling-metadata repair counts only the records it changes: a
   recovery repairs what the abandoned context switch left, and a second
   serial recovery of the just-recovered machine finds nothing to fix
   and leaves the scheduler as it was. *)
let test_second_recovery_fixes_nothing () =
  let hv = boot () in
  let rng = Sim.Rng.create 17L in
  wreck hv rng;
  let first = Recovery.Microreset.recover hv ~enh:full ~detected_on:0 in
  checkb "the first recovery repairs the switch" true
    (first.Recovery.Plan.repairs.Recovery.Plan.sched_fixes > 0);
  let scheduler () =
    List.filter (fun l -> String.length l > 0 && l.[0] = 'c')
      (String.split_on_char '\n' (Stores.dump hv))
  in
  let vcpus () =
    List.map
      (fun (v : Hyper.Domain.vcpu) ->
        (v.Hyper.Domain.is_current, v.Hyper.Domain.curr_slot, v.Hyper.Domain.runstate))
      (Doms.vcpus hv)
  in
  let before = (scheduler (), vcpus ()) in
  let second = Recovery.Microreset.recover hv ~enh:full ~detected_on:0 in
  checki "the second recovery fixes nothing" 0
    second.Recovery.Plan.repairs.Recovery.Plan.sched_fixes;
  checkb "and changes nothing" true (before = (scheduler (), vcpus ()));
  checkb "scheduler consistent" true (Hyper.Hypervisor.sched_consistent hv)

let test_recovery_is_repeatable () =
  (* Nine lives: the hypervisor can be recovered many times over. The
     abandoned hypercall here is idempotent, so every retry succeeds;
     the non-idempotent hazard is exercised by its own tests. *)
  let hv = boot () in
  let rng = Sim.Rng.create 16L in
  for _ = 1 to 9 do
    (try
       Hyper.Hypervisor.execute_partial hv rng
         (Hyper.Hypervisor.Hypercall
            { domid = 1; vid = 0; kind = Hyper.Hypercalls.Sched_op_block })
         ~stop_at:4
     with Hyper.Crash.Hypervisor_crash _ -> ());
    (try
       Hyper.Hypervisor.execute_partial hv rng (Hyper.Hypervisor.Timer_tick 0)
         ~stop_at:3
     with Hyper.Crash.Hypervisor_crash _ -> ());
    Array.iter Hyper.Percpu.irq_enter hv.Hyper.Hypervisor.percpu;
    ignore (Recovery.Microreset.recover hv ~enh:full ~detected_on:0);
    List.iter
      (fun (v : Hyper.Domain.vcpu) ->
        if v.Hyper.Domain.retry_pending then Hyper.Hypervisor.retry_hypercall hv rng v;
        if v.Hyper.Domain.syscall_retry_pending then Hyper.Hypervisor.retry_syscall hv v;
        v.Hyper.Domain.lost_work <- false)
      (Doms.vcpus hv)
  done;
  checkb "healthy after nine recoveries" true
    (Hyper.Hypervisor.audit_clean (Hyper.Hypervisor.audit hv))

let () =
  Alcotest.run "recovery"
    [
      ( "enhancements",
        [
          Alcotest.test_case "ladder cumulative" `Quick test_ladder_is_cumulative;
          Alcotest.test_case "basic row" `Quick test_ladder_first_row_basic;
          Alcotest.test_case "rehype mechanisms subset" `Quick
            test_rehype_mechanisms_subset_of_all;
        ] );
      ( "microreset",
        [
          Alcotest.test_case "clears irq counts" `Quick test_microreset_clears_irq_counts;
          Alcotest.test_case "releases locks" `Quick test_microreset_releases_locks;
          Alcotest.test_case "reprograms apics" `Quick test_microreset_reprograms_apics;
          Alcotest.test_case "sets up retry" `Quick test_microreset_sets_up_retry;
          Alcotest.test_case "without retry loses work" `Quick
            test_microreset_without_retry_loses_work;
          Alcotest.test_case "audit clean after recovery" `Quick
            test_microreset_audit_clean_after_full_recovery;
          Alcotest.test_case "basic leaves irq residue" `Quick
            test_microreset_basic_leaves_irq_residue;
          Alcotest.test_case "corrupted handler fails" `Quick
            test_microreset_corrupted_handler_fails;
          Alcotest.test_case "latency breakdown ~22ms" `Quick
            test_microreset_latency_breakdown;
          Alcotest.test_case "latency scales with memory" `Quick
            test_microreset_latency_scales_with_memory;
          Alcotest.test_case "cannot repair freelist" `Quick
            test_microreset_cannot_repair_freelist;
          Alcotest.test_case "repeatable (nine lives)" `Quick test_recovery_is_repeatable;
          Alcotest.test_case "second recovery fixes nothing" `Quick
            test_second_recovery_fixes_nothing;
        ] );
      ( "microreboot",
        [
          Alcotest.test_case "latency breakdown ~713ms" `Quick
            test_microreboot_latency_breakdown;
          Alcotest.test_case "ratio >30x" `Quick test_latency_ratio_over_30x;
          Alcotest.test_case "requires bootline log" `Quick
            test_microreboot_requires_bootline_log;
          Alcotest.test_case "restores ioapic from log" `Quick
            test_microreboot_restores_ioapic_from_log;
          Alcotest.test_case "repairs heap and static data" `Quick
            test_microreboot_repairs_heap_and_static;
          Alcotest.test_case "audit clean" `Quick test_microreboot_audit_clean;
        ] );
      ( "fsgs",
        [
          Alcotest.test_case "lost without save" `Quick test_fsgs_lost_without_save;
          Alcotest.test_case "preserved with save" `Quick test_fsgs_preserved_with_save;
        ] );
      ( "engine",
        [ Alcotest.test_case "dispatch" `Quick test_engine_dispatch ] );
    ]
