(* Tests for the simulated hypervisor: page frames, heap, locks, timer
   heap, scheduler, journal, hypercalls, activities, audit. *)

open Contract

(* ------------------------- Pfn -------------------------------------- *)

let test_pfn_alloc_free_cycle () =
  let t = Hyper.Pfn.create ~frames:16 in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Writable in
  checki "one ref" 1 d.Hyper.Pfn.use_count;
  Hyper.Pfn.put_page d;
  checkb "freed" true (d.Hyper.Pfn.ptype = Hyper.Pfn.Free);
  checki "free count" 16 (Hyper.Pfn.free_frames t)

let test_pfn_get_put_balance () =
  let t = Hyper.Pfn.create ~frames:4 in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Writable in
  Hyper.Pfn.get_page d;
  Hyper.Pfn.get_page d;
  checki "3 refs" 3 d.Hyper.Pfn.use_count;
  Hyper.Pfn.put_page d;
  Hyper.Pfn.put_page d;
  checki "1 ref" 1 d.Hyper.Pfn.use_count

let test_pfn_double_validate_panics () =
  (* The non-idempotent retry hazard of Section IV. *)
  let t = Hyper.Pfn.create ~frames:4 in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Page_table in
  Hyper.Pfn.validate d;
  checkb "second validate panics" true (crashes (fun () -> Hyper.Pfn.validate d))

let test_pfn_double_invalidate_panics () =
  let t = Hyper.Pfn.create ~frames:4 in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Page_table in
  Hyper.Pfn.validate d;
  Hyper.Pfn.invalidate d;
  checkb "double invalidate panics" true
    (crashes (fun () -> Hyper.Pfn.invalidate d))

let test_pfn_underflow_panics () =
  let t = Hyper.Pfn.create ~frames:4 in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Writable in
  Hyper.Pfn.put_page d;
  checkb "double put panics" true (crashes (fun () -> Hyper.Pfn.put_page d))

let test_pfn_get_on_free_panics () =
  let t = Hyper.Pfn.create ~frames:4 in
  let d = Hyper.Pfn.get t 0 in
  checkb "get_page on free frame" true (crashes (fun () -> Hyper.Pfn.get_page d))

let test_pfn_scan_fixes_validated_zero_refs () =
  (* The validation-bit / use-counter disagreement the recovery scan
     repairs (Section VII-B). *)
  let t = Hyper.Pfn.create ~frames:8 in
  let d = Hyper.Pfn.get t 3 in
  d.Hyper.Pfn.validated <- true; (* corrupt: validated but Free, 0 refs *)
  checki "one inconsistent" 1 (Hyper.Pfn.count_inconsistent t);
  let fixed = Hyper.Pfn.scan_and_fix t in
  checki "fixed one" 1 fixed;
  checki "consistent after scan" 0 (Hyper.Pfn.count_inconsistent t)

let test_pfn_scan_fixes_orphan_typed_page () =
  let t = Hyper.Pfn.create ~frames:8 in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Writable in
  d.Hyper.Pfn.use_count <- 0; (* corrupt: typed page with no refs *)
  ignore (Hyper.Pfn.scan_and_fix t);
  checkb "returned to free" true (d.Hyper.Pfn.ptype = Hyper.Pfn.Free);
  checki "consistent" 0 (Hyper.Pfn.count_inconsistent t)

let test_pfn_scan_idempotent () =
  let t = Hyper.Pfn.create ~frames:8 in
  (Hyper.Pfn.get t 2).Hyper.Pfn.validated <- true;
  ignore (Hyper.Pfn.scan_and_fix t);
  checki "second scan fixes nothing" 0 (Hyper.Pfn.scan_and_fix t)

(* ------------------------- Spinlock --------------------------------- *)

let test_lock_acquire_release () =
  let l = Hyper.Spinlock.create ~name:"t" ~location:Hyper.Spinlock.Static in
  Hyper.Spinlock.acquire l ~cpu:0;
  checkb "held" true (Hyper.Spinlock.is_held l);
  Hyper.Spinlock.release l ~cpu:0;
  checkb "released" false (Hyper.Spinlock.is_held l)

let test_lock_dead_holder_hangs () =
  let l = Hyper.Spinlock.create ~name:"t" ~location:Hyper.Spinlock.Heap in
  Hyper.Spinlock.acquire l ~cpu:1;
  (* cpu1's thread is discarded; cpu0 now spins forever -> watchdog. *)
  checkb "spin on dead holder" true
    (crashes (fun () -> Hyper.Spinlock.acquire l ~cpu:0))

let test_lock_recursive_panics () =
  let l = Hyper.Spinlock.create ~name:"t" ~location:Hyper.Spinlock.Static in
  Hyper.Spinlock.acquire l ~cpu:0;
  checkb "recursive acquisition" true
    (crashes (fun () -> Hyper.Spinlock.acquire l ~cpu:0))

let test_lock_wrong_release_panics () =
  let l = Hyper.Spinlock.create ~name:"t" ~location:Hyper.Spinlock.Static in
  Hyper.Spinlock.acquire l ~cpu:0;
  checkb "release by non-holder" true
    (crashes (fun () -> Hyper.Spinlock.release l ~cpu:1));
  Hyper.Spinlock.force_unlock l;
  checkb "release unheld" true (crashes (fun () -> Hyper.Spinlock.release l ~cpu:0))

let test_static_segment_unlock_all () =
  (* The "Unlock static locks" enhancement: the linker-script lock
     segment is walked and every held lock released. *)
  let seg = Hyper.Spinlock.Segment.create () in
  let mk name =
    let l = Hyper.Spinlock.create ~name ~location:Hyper.Spinlock.Static in
    Hyper.Spinlock.Segment.register seg l;
    l
  in
  let a = mk "a" and b = mk "b" and _c = mk "c" in
  Hyper.Spinlock.acquire a ~cpu:0;
  Hyper.Spinlock.acquire b ~cpu:2;
  checki "released two" 2 (Hyper.Spinlock.Segment.unlock_all seg);
  checki "none held" 0 (Hyper.Spinlock.Segment.held_count seg)

let test_segment_rejects_heap_lock () =
  let seg = Hyper.Spinlock.Segment.create () in
  let l = Hyper.Spinlock.create ~name:"h" ~location:Hyper.Spinlock.Heap in
  Alcotest.check_raises "heap lock in static segment"
    (Invalid_argument "Spinlock.Segment.register: not a static lock") (fun () ->
      Hyper.Spinlock.Segment.register seg l)

(* ------------------------- Heap ------------------------------------- *)

let test_heap_alloc_free () =
  let h = Hyper.Heap.create () in
  let o = Hyper.Heap.alloc h ~size:128 Hyper.Heap.Generic in
  checki "bytes live" 128 (Hyper.Heap.bytes_live h);
  Hyper.Heap.free h o;
  checki "bytes after free" 0 (Hyper.Heap.bytes_live h)

let test_heap_double_free_panics () =
  let h = Hyper.Heap.create () in
  let o = Hyper.Heap.alloc h Hyper.Heap.Generic in
  Hyper.Heap.free h o;
  checkb "double free" true (crashes (fun () -> Hyper.Heap.free h o))

let test_heap_freelist_corruption_hangs () =
  let h = Hyper.Heap.create () in
  Hyper.Heap.corrupt_freelist h "test";
  checkb "alloc hangs" true
    (crashes (fun () -> Hyper.Heap.alloc h Hyper.Heap.Generic))

let test_heap_rebuild_repairs_freelist () =
  (* ReHype's "recreate the new heap" reboot step. *)
  let h = Hyper.Heap.create () in
  let o = Hyper.Heap.alloc h Hyper.Heap.Generic in
  Hyper.Heap.corrupt_freelist h "test";
  Hyper.Heap.rebuild_for_reboot h;
  checkb "freelist ok" true (Hyper.Heap.freelist_ok h);
  checkb "live object preserved" true o.Hyper.Heap.live;
  ignore (Hyper.Heap.alloc h Hyper.Heap.Generic)

let test_heap_release_locks () =
  (* The heap-lock release mechanism NiLiHype reuses from ReHype. *)
  let h = Hyper.Heap.create () in
  let l1 = Hyper.Spinlock.create ~name:"l1" ~location:Hyper.Spinlock.Heap in
  let l2 = Hyper.Spinlock.create ~name:"l2" ~location:Hyper.Spinlock.Heap in
  ignore (Hyper.Heap.alloc h (Hyper.Heap.Lock l1));
  ignore (Hyper.Heap.alloc h (Hyper.Heap.Lock l2));
  Hyper.Spinlock.acquire l1 ~cpu:0;
  checki "released one" 1 (Hyper.Heap.release_locks h);
  checkb "no heap lock held" false (Hyper.Heap.any_heap_lock_held h)

(* ------------------------- Timer heap ------------------------------- *)

let test_timer_heap_order () =
  let th = Hyper.Timer_heap.create () in
  ignore (Hyper.Timer_heap.add th ~deadline:30 Hyper.Timer_heap.Generic_oneshot);
  ignore (Hyper.Timer_heap.add th ~deadline:10 Hyper.Timer_heap.Generic_oneshot);
  ignore (Hyper.Timer_heap.add th ~deadline:20 Hyper.Timer_heap.Generic_oneshot);
  let d () =
    match Hyper.Timer_heap.pop th with
    | Some e -> e.Hyper.Timer_heap.deadline
    | None -> -1
  in
  checki "10" 10 (d ());
  checki "20" 20 (d ());
  checki "30" 30 (d ())

let test_timer_pop_due_only () =
  let th = Hyper.Timer_heap.create () in
  ignore (Hyper.Timer_heap.add th ~deadline:100 Hyper.Timer_heap.Generic_oneshot);
  checkb "not due" false (Hyper.Timer_heap.due th ~now:50);
  checkb "due" true (Hyper.Timer_heap.due th ~now:100);
  ignore (Hyper.Timer_heap.pop_top th);
  checkb "nothing left due" false (Hyper.Timer_heap.due th ~now:100)

let test_timer_recurring_requeue () =
  let th = Hyper.Timer_heap.create () in
  let e = Hyper.Timer_heap.add th ~deadline:10 ~period:100 Hyper.Timer_heap.Time_sync in
  checkb "due" true (Hyper.Timer_heap.due th ~now:10);
  checkb "same event" true (Hyper.Timer_heap.pop_top th == e);
  checkb "not queued mid-handler" false e.Hyper.Timer_heap.queued;
  Hyper.Timer_heap.requeue th e ~now:10;
  checkb "requeued" true e.Hyper.Timer_heap.queued;
  checkb "next deadline = now+period" true
    (Hyper.Timer_heap.next_deadline th = Some 110)

let test_timer_reactivate_recurring () =
  (* The "Reactivate recurring timer events" enhancement. *)
  let th = Hyper.Timer_heap.create () in
  let e = Hyper.Timer_heap.add th ~deadline:10 ~period:100 Hyper.Timer_heap.Time_sync in
  ignore (Hyper.Timer_heap.pop_top th);
  (* handler abandoned before requeue: the event is lost *)
  checki "one missing" 1 (Hyper.Timer_heap.missing_recurring_count th);
  checki "reactivated" 1 (Hyper.Timer_heap.reactivate_recurring th ~now:50);
  checkb "queued again" true e.Hyper.Timer_heap.queued;
  checki "none missing" 0 (Hyper.Timer_heap.missing_recurring_count th)

let test_timer_structure_corruption_panics () =
  let th = Hyper.Timer_heap.create () in
  ignore (Hyper.Timer_heap.add th ~deadline:10 Hyper.Timer_heap.Generic_oneshot);
  Hyper.Timer_heap.corrupt_structure th;
  checkb "pop panics" true (crashes (fun () -> Hyper.Timer_heap.pop th));
  checkb "pop_top panics" true (crashes (fun () -> Hyper.Timer_heap.pop_top th))

let test_timer_rebuild_for_reboot () =
  let th = Hyper.Timer_heap.create () in
  ignore (Hyper.Timer_heap.add th ~deadline:10 ~period:50 Hyper.Timer_heap.Time_sync);
  ignore (Hyper.Timer_heap.add th ~deadline:20 Hyper.Timer_heap.Generic_oneshot);
  Hyper.Timer_heap.corrupt_structure th;
  Hyper.Timer_heap.rebuild_for_reboot th ~now:1000;
  checkb "structure repaired" true (Hyper.Timer_heap.structure_ok th);
  (* Recurring events re-registered; the oneshot is gone (fresh heap). *)
  checki "one event" 1 (Hyper.Timer_heap.size th);
  checkb "heap property" true (Hyper.Timer_heap.heap_property_holds th)

let test_timer_heap_property_random () =
  let th = Hyper.Timer_heap.create () in
  let r = Sim.Rng.create 17L in
  for _ = 1 to 200 do
    ignore
      (Hyper.Timer_heap.add th ~deadline:(Sim.Rng.int r 1000)
         Hyper.Timer_heap.Generic_oneshot)
  done;
  checkb "heap property holds" true (Hyper.Timer_heap.heap_property_holds th)

(* ------------------------- Journal ---------------------------------- *)

(* A journal over a small frame table and grant table, enabled, with
   room for [capacity] entries before it grows. *)
let journal ?(capacity = 8) ?(frames = 4) () =
  let pfn = Hyper.Pfn.create ~frames in
  let grants = Hyper.Grant.create (Hyper.Heap.create ()) ~slots:4 1 in
  let j = Hyper.Journal.create ~pfn ~grants ~capacity in
  Hyper.Journal.set_enabled j true;
  (j, pfn, grants)

let log_delta j (d : Hyper.Pfn.desc) delta =
  Hyper.Journal.log j Hyper.Journal.Use_count_delta ~target:d.Hyper.Pfn.index
    ~operand:delta

let test_journal_undo_refcount () =
  let j, t, _ = journal () in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Writable in
  log_delta j d 1;
  Hyper.Pfn.get_page d;
  checki "2 refs" 2 d.Hyper.Pfn.use_count;
  Hyper.Journal.undo_all j;
  checki "undone to 1" 1 d.Hyper.Pfn.use_count

let test_journal_undo_validation () =
  let j, t, _ = journal () in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Page_table in
  Hyper.Journal.log j Hyper.Journal.Validated_set ~target:d.Hyper.Pfn.index
    ~operand:0;
  Hyper.Pfn.validate d;
  Hyper.Journal.undo_all j;
  checkb "validation undone" false d.Hyper.Pfn.validated;
  (* After undo, a retry can validate again without panicking. *)
  Hyper.Pfn.validate d;
  checkb "retry validates cleanly" true d.Hyper.Pfn.validated

let test_journal_disabled_logs_nothing () =
  let j, t, _ = journal () in
  Hyper.Journal.set_enabled j false;
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Writable in
  log_delta j d 5;
  d.Hyper.Pfn.use_count <- 6;
  Hyper.Journal.undo_all j;
  checki "nothing undone when disabled" 6 d.Hyper.Pfn.use_count

let test_journal_commit_clears () =
  let j, t, _ = journal () in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Writable in
  log_delta j d 5;
  d.Hyper.Pfn.use_count <- 6;
  Hyper.Journal.commit j;
  Hyper.Journal.undo_all j;
  checki "committed changes stay" 6 d.Hyper.Pfn.use_count

let test_journal_undo_order () =
  (* Entries must be undone newest-first: the older type change must
     win, and the grant slot unmapped last must end up remapped. *)
  let j, t, grants = journal () in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Writable in
  let f = d.Hyper.Pfn.index in
  Hyper.Journal.log j Hyper.Journal.Type_change ~target:f
    ~operand:(Hyper.Pfn.page_type_code Hyper.Pfn.Writable);
  d.Hyper.Pfn.ptype <- Hyper.Pfn.Page_table;
  Hyper.Journal.log j Hyper.Journal.Type_change ~target:f
    ~operand:(Hyper.Pfn.page_type_code Hyper.Pfn.Page_table);
  d.Hyper.Pfn.ptype <- Hyper.Pfn.Shared;
  Hyper.Grant.grant grants ~slot:2 ~frame:f;
  Hyper.Journal.log j Hyper.Journal.Grant_unmap_undo ~target:2 ~operand:0;
  Hyper.Grant.map grants ~slot:2 ~by:0;
  Hyper.Journal.log j Hyper.Journal.Grant_remap_undo ~target:2 ~operand:0;
  Hyper.Grant.unmap grants ~slot:2;
  Hyper.Journal.undo_all j;
  checkb "oldest type restored" true (d.Hyper.Pfn.ptype = Hyper.Pfn.Writable);
  checki "remap undone before unmap" (-1) (Hyper.Grant.mapped_by grants ~slot:2)

let test_journal_depth_tracks_entries () =
  let j, t, _ = journal ~capacity:1 () in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Writable in
  checki "empty journal" 0 (Hyper.Journal.depth j);
  log_delta j d 1;
  log_delta j d 2;
  checki "two entries, past the capacity" 2 (Hyper.Journal.depth j);
  Hyper.Journal.undo_all j;
  checki "zero after undo_all" 0 (Hyper.Journal.depth j);
  log_delta j d 3;
  checki "one entry" 1 (Hyper.Journal.depth j);
  Hyper.Journal.commit j;
  checki "zero after commit" 0 (Hyper.Journal.depth j);
  (* Logging while disabled records nothing, so depth stays 0. *)
  Hyper.Journal.set_enabled j false;
  log_delta j d 4;
  checki "disabled journal stays empty" 0 (Hyper.Journal.depth j)

(* The flight-ring and event tags of the journal's ops: the three
   structure-specific ops keep the tag of the undo closures they
   replaced, so postmortem bundles and triage files read the same. *)
let test_journal_op_kinds () =
  Alcotest.(check (list string))
    "op tags"
    [
      "use_count_delta"; "validated_set"; "validated_cleared"; "type_change";
      "owner_change"; "undo_fn"; "undo_fn"; "undo_fn";
    ]
    (List.map Hyper.Journal.op_kind
       Hyper.Journal.
         [
           Use_count_delta; Validated_set; Validated_cleared; Type_change;
           Owner_change; Put_if_used; Grant_unmap_undo; Grant_remap_undo;
         ])

(* ------------------------- Boot / domains --------------------------- *)

let test_boot_three_appvm () =
  let hv = boot () in
  checki "privvm + 2 app + idle" 4 (List.length (Doms.domains hv));
  checki "2 app domains" 2 (List.length (Doms.app_domains hv));
  checkb "privvm exists" true (Hyper.Hypervisor.privvm hv).Hyper.Domain.privileged;
  checkb "idle exists" true (Hyper.Hypervisor.idle_domain hv).Hyper.Domain.is_idle

let test_boot_audit_clean () =
  let hv = boot () in
  let report = Hyper.Hypervisor.audit hv in
  checkb "fresh system audits clean" true (Hyper.Hypervisor.audit_clean report)

let test_boot_apics_armed () =
  let hv = boot () in
  Hw.Machine.iter_cpus hv.Hyper.Hypervisor.machine (fun c ->
      checkb "apic armed" true (Hw.Apic.timer_armed c.Hw.Cpu.apic))

let test_domain_create_destroy () =
  let hv = boot () in
  let free_before = Hyper.Pfn.free_frames hv.Hyper.Hypervisor.pfn in
  let d =
    Hyper.Hypervisor.create_domain_internal hv ~privileged:false ~vcpu_pins:[ 4 ]
      ~mem_frames:32
  in
  checkb "fewer free frames" true
    (Hyper.Pfn.free_frames hv.Hyper.Hypervisor.pfn < free_before);
  Hyper.Hypervisor.destroy_domain_internal hv d;
  checki "frames returned" free_before (Hyper.Pfn.free_frames hv.Hyper.Hypervisor.pfn);
  checkb "audit clean after destroy" true
    (Hyper.Hypervisor.audit_clean (Hyper.Hypervisor.audit hv))

(* ------------------------- Activities ------------------------------- *)

let run_n hv rng n =
  let bench = Workloads.Workload.create Workloads.Workload.Unixbench ~domid:1 in
  for _ = 1 to n do
    Hyper.Hypervisor.execute hv rng (Workloads.Workload.sample_activity rng bench)
  done

let test_healthy_workload_stays_clean () =
  let hv = boot () in
  let rng = Sim.Rng.create 123L in
  run_n hv rng 500;
  checkb "audit clean after 500 activities" true
    (Hyper.Hypervisor.audit_clean (Hyper.Hypervisor.audit hv))

let test_hypercall_completes_and_clears_record () =
  let hv = boot () in
  let rng = Sim.Rng.create 5L in
  Hyper.Hypervisor.execute hv rng
    (Hyper.Hypervisor.Hypercall
       { domid = 1; vid = 0; kind = Hyper.Hypercalls.Mmu_update 2 });
  let v = Hyper.Domain.vcpu (Option.get (Hyper.Hypervisor.domain hv 1)) 0 in
  checkb "record cleared" true (v.Hyper.Domain.in_hypercall = None)

let test_abandoned_hypercall_leaves_partial_state () =
  let hv = boot () in
  let rng = Sim.Rng.create 5L in
  Hyper.Hypervisor.execute_partial hv rng
    (Hyper.Hypervisor.Hypercall
       { domid = 1; vid = 0; kind = Hyper.Hypercalls.Mmu_update 2 })
    ~stop_at:4;
  let v = Hyper.Domain.vcpu (Option.get (Hyper.Hypervisor.domain hv 1)) 0 in
  checkb "in-flight record remains" true (v.Hyper.Domain.in_hypercall <> None);
  (* The per-domain page lock is stuck held. *)
  checkb "audit dirty" false
    (Hyper.Hypervisor.audit_clean (Hyper.Hypervisor.audit hv))

let test_abandoned_timer_tick_disarms_apic () =
  let hv = boot () in
  let rng = Sim.Rng.create 5L in
  Hyper.Hypervisor.execute_partial hv rng (Hyper.Hypervisor.Timer_tick 1) ~stop_at:3;
  let apic = (Hw.Machine.cpu hv.Hyper.Hypervisor.machine 1).Hw.Cpu.apic in
  checkb "apic left disarmed" false (Hw.Apic.timer_armed apic)

let test_retry_without_undo_can_panic () =
  (* Force an unenhanced-style retry: disable logging so the journal is
     empty, abandon an mmu_update mid-flight past its critical updates,
     then retry. *)
  let hv = boot ~config:Hyper.Config.stock () in
  let rng = Sim.Rng.create 77L in
  let dom = Option.get (Hyper.Hypervisor.domain hv 1) in
  let v = Hyper.Domain.vcpu dom 0 in
  (* Abandon late in the handler, after unpin/validate steps. *)
  Hyper.Hypervisor.execute_partial hv rng
    (Hyper.Hypervisor.Hypercall
       { domid = 1; vid = 0; kind = Hyper.Hypercalls.Mmu_update 1 })
    ~stop_at:8;
  (match v.Hyper.Domain.in_hypercall with
  | None -> Alcotest.fail "expected in-flight hypercall"
  | Some _ -> ());
  Hyper.Spinlock.force_unlock dom.Hyper.Domain.page_lock;
  checkb "naive retry panics" true
    (crashes (fun () -> Hyper.Hypervisor.retry_hypercall hv rng v))

let test_retry_with_undo_succeeds () =
  let hv = boot ~config:Hyper.Config.nilihype () in
  let rng = Sim.Rng.create 42L in
  let dom = Option.get (Hyper.Hypervisor.domain hv 1) in
  let v = Hyper.Domain.vcpu dom 0 in
  (* Find a seed/abandon point where the record is journaled
     (mitigation_coverage < 1, so sample until we get an enhanced one). *)
  let rec try_once attempt =
    if attempt > 20 then Alcotest.fail "no enhanced record sampled"
    else begin
      Hyper.Hypervisor.execute_partial hv rng
        (Hyper.Hypervisor.Hypercall
           { domid = 1; vid = 0; kind = Hyper.Hypercalls.Mmu_update 1 })
        ~stop_at:8;
      match v.Hyper.Domain.in_hypercall with
      | Some r when r.Hyper.Hypercalls.enhanced ->
        Hyper.Spinlock.force_unlock dom.Hyper.Domain.page_lock;
        Hyper.Hypervisor.retry_hypercall hv rng v;
        checkb "record cleared after retry" true (v.Hyper.Domain.in_hypercall = None)
      | Some _ ->
        (* Unenhanced sample: clean up and try again. *)
        Hyper.Spinlock.force_unlock dom.Hyper.Domain.page_lock;
        v.Hyper.Domain.in_hypercall <- None;
        ignore (Hyper.Pfn.scan_and_fix hv.Hyper.Hypervisor.pfn);
        try_once (attempt + 1)
      | None -> try_once (attempt + 1)
    end
  in
  try_once 0

let test_multicall_progress_tracking () =
  (* Fine-granularity batched retry: completed components are skipped. *)
  let hv = boot ~config:Hyper.Config.nilihype () in
  let rng = Sim.Rng.create 9L in
  let v = Hyper.Domain.vcpu (Option.get (Hyper.Hypervisor.domain hv 1)) 0 in
  let kind =
    Hyper.Hypercalls.Multicall
      [ Hyper.Hypercalls.Event_channel_send; Hyper.Hypercalls.Console_io;
        Hyper.Hypercalls.Event_channel_send ]
  in
  Hyper.Hypervisor.execute_partial hv rng
    (Hyper.Hypervisor.Hypercall { domid = 1; vid = 0; kind })
    ~stop_at:9;
  (match v.Hyper.Domain.in_hypercall with
  | Some r ->
    checkb "some components completed" true (r.Hyper.Hypercalls.sub_completed.(0) > 0)
  | None -> Alcotest.fail "expected in-flight multicall");
  Hyper.Spinlock.force_unlock hv.Hyper.Hypervisor.console_lock;
  (match Hyper.Hypervisor.domain hv 1 with
  | Some d ->
    Hyper.Spinlock.force_unlock (Hyper.Evtchn.lock d.Hyper.Domain.evtchn)
  | None -> ());
  Hyper.Hypervisor.retry_hypercall hv rng v;
  checkb "multicall completed on retry" true (v.Hyper.Domain.in_hypercall = None)

(* A vCPU's record after a multicall was abandoned inside its second
   component ([Update_va_mapping] at "write_pte"): returns the vCPU. *)
let abandon_multicall_in_second_component hv rng =
  let v = Hyper.Domain.vcpu (Option.get (Hyper.Hypervisor.domain hv 1)) 0 in
  let kind =
    Hyper.Hypercalls.Multicall
      [
        Hyper.Hypercalls.Mmu_update 1; Hyper.Hypercalls.Update_va_mapping;
        Hyper.Hypercalls.Mmu_update 2;
      ]
  in
  hv.Hyper.Hypervisor.step_hook <-
    Some
      (fun _ _ _ name _ ->
        if name = "write_pte" then raise Hyper.Hypervisor.Abandoned);
  (try
     Hyper.Hypervisor.execute hv rng
       (Hyper.Hypervisor.Hypercall { domid = 1; vid = 0; kind })
   with Hyper.Hypervisor.Abandoned -> ());
  hv.Hyper.Hypervisor.step_hook <- None;
  v

(* A retried multicall resumes at [sub_completed] and replays the
   arguments its components chose on the first run. *)
let test_multicall_retry_keeps_targets () =
  let hv = boot ~config:Hyper.Config.nilihype () in
  let rng = Sim.Rng.create 9L in
  let v = abandon_multicall_in_second_component hv rng in
  let r =
    match v.Hyper.Domain.in_hypercall with
    | Some r -> r
    | None -> Alcotest.fail "expected in-flight multicall"
  in
  checki "first component completed" 1 r.Hyper.Hypercalls.sub_completed.(0);
  let targets = Array.copy r.Hyper.Hypercalls.targets in
  checkb "both started components chose a frame" true
    (targets.(1) >= 0 && targets.(2) >= 0 && targets.(3) = -1);
  let steps = ref [] in
  hv.Hyper.Hypervisor.step_hook <-
    Some (fun _ _ _ name _ -> steps := name :: !steps);
  Hyper.Hypervisor.retry_hypercall hv rng v;
  checkb "multicall completed on retry" true (v.Hyper.Domain.in_hypercall = None);
  checki "only the last component allocates" 1
    (List.length (List.filter (( = ) "alloc_frame") !steps));
  checkb "the resumed component replays its frame" true
    (r.Hyper.Hypercalls.targets.(1) = targets.(1)
    && r.Hyper.Hypercalls.targets.(2) = targets.(2))

(* A vCPU's record, reset for a new call, reads exactly as a record
   freshly made for that call, whatever the previous call left in it. *)
let test_reset_record_matches_fresh () =
  let hv = boot ~config:Hyper.Config.nilihype () in
  let rng = Sim.Rng.create 9L in
  let v = abandon_multicall_in_second_component hv rng in
  let r = v.Hyper.Domain.record in
  checkb "the abandoned call left state behind" true
    (r.Hyper.Hypercalls.sub_completed.(0) > 0
    || Hyper.Journal.depth r.Hyper.Hypercalls.journal > 0);
  let view (r : Hyper.Hypercalls.record) =
    let j = r.Hyper.Hypercalls.journal in
    ( (r.Hyper.Hypercalls.kind, r.Hyper.Hypercalls.retries, r.Hyper.Hypercalls.committed,
       r.Hyper.Hypercalls.enhanced),
      (r.Hyper.Hypercalls.targets, r.Hyper.Hypercalls.old_frames,
       r.Hyper.Hypercalls.sub_completed),
      (Hyper.Journal.depth j, j.Hyper.Journal.enabled, Hyper.Journal.capacity j) )
  in
  let dom = Option.get (Hyper.Hypervisor.domain hv 1) in
  List.iter
    (fun (kind, enhanced) ->
      Hyper.Hypercalls.reset r ~enhanced ~logging:true kind;
      let fresh =
        Hyper.Hypercalls.make_record ~enhanced ~logging:true
          ~config:hv.Hyper.Hypervisor.config ~pfn:hv.Hyper.Hypervisor.pfn
          ~grants:dom.Hyper.Domain.grants kind
      in
      checkb (Hyper.Hypercalls.name kind ^ " reset = fresh") true (view r = view fresh))
    [
      (Hyper.Hypercalls.Mmu_update 3, true);
      (Hyper.Hypercalls.Grant_table_op 2, false);
      (Hyper.Hypercalls.Multicall [ Hyper.Hypercalls.Console_io ], true);
    ]

(* Snapshots are taken at quiesce points only: with a hypercall in
   flight, [snapshot] refuses; an image restores no call in flight. *)
let test_snapshot_refuses_in_flight_call () =
  let hv = boot () in
  let rng = Sim.Rng.create 5L in
  let image = Hyper.Hypervisor.snapshot hv in
  Hyper.Hypervisor.execute_partial hv rng
    (Hyper.Hypervisor.Hypercall
       { domid = 1; vid = 0; kind = Hyper.Hypercalls.Mmu_update 2 })
    ~stop_at:4;
  let v = Hyper.Domain.vcpu (Option.get (Hyper.Hypervisor.domain hv 1)) 0 in
  checkb "call in flight" true (v.Hyper.Domain.in_hypercall <> None);
  checkb "snapshot refuses" true (refuses (fun () -> Hyper.Hypervisor.snapshot hv));
  Hyper.Hypervisor.restore hv image;
  checkb "restore leaves no call in flight" true (v.Hyper.Domain.in_hypercall = None);
  ignore (Hyper.Hypervisor.snapshot hv)

let test_domctl_create_via_hypercall () =
  let hv = boot () in
  let rng = Sim.Rng.create 3L in
  let before = List.length (Doms.app_domains hv) in
  Hyper.Hypervisor.execute hv rng
    (Hyper.Hypervisor.Hypercall
       { domid = 0; vid = 0; kind = Hyper.Hypercalls.Domctl_create_domain });
  checki "one more app domain" (before + 1)
    (List.length (Doms.app_domains hv))

let test_domctl_fails_with_corrupt_static_data () =
  let hv = boot () in
  let rng = Sim.Rng.create 3L in
  hv.Hyper.Hypervisor.static_data_ok <- false;
  checkb "create fails" true
    (crashes (fun () ->
         Hyper.Hypervisor.execute hv rng
           (Hyper.Hypervisor.Hypercall
              { domid = 0; vid = 0; kind = Hyper.Hypercalls.Domctl_create_domain })))

(* ------------------------- Sched ------------------------------------ *)

let test_sched_fix_from_percpu () =
  let hv = boot () in
  let vcpus = Doms.vcpus hv in
  (* Scramble the redundant per-vCPU records. *)
  let v = List.hd vcpus in
  v.Hyper.Domain.is_current <- not v.Hyper.Domain.is_current;
  v.Hyper.Domain.curr_slot <- 7;
  checkb "audit detects scramble" false (Hyper.Hypervisor.sched_consistent hv);
  ignore (Hyper.Sched.fix_from_percpu hv.Hyper.Hypervisor.sched hv.Hyper.Hypervisor.domains);
  checkb "consistent after fix" true (Hyper.Hypervisor.sched_consistent hv)

let test_sched_abandoned_switch_detected () =
  let hv = boot () in
  let rng = Sim.Rng.create 31L in
  (* Abandon a context switch between the per-CPU and per-vCPU updates. *)
  Hyper.Hypervisor.execute_partial hv rng (Hyper.Hypervisor.Context_switch 1)
    ~stop_at:6;
  checkb "audit detects partial switch" false
    (Hyper.Hypervisor.sched_consistent hv
     && not
          (Hyper.Spinlock.is_held hv.Hyper.Hypervisor.percpu.(1).Hyper.Percpu.heap_lock))

let test_irq_count_assertions () =
  let hv = boot () in
  let p = hv.Hyper.Hypervisor.percpu.(0) in
  Hyper.Percpu.irq_enter p;
  checkb "schedule asserts in irq" true
    (crashes (fun () -> Hyper.Percpu.assert_not_in_irq p));
  Hyper.Percpu.irq_exit p;
  Hyper.Percpu.assert_not_in_irq p;
  checkb "irq_exit underflow asserts" true (crashes (fun () -> Hyper.Percpu.irq_exit p))

(* ------------------------- Evtchn / Grant --------------------------- *)

let test_evtchn_bind_send () =
  let heap = Hyper.Heap.create () in
  let t = Hyper.Evtchn.create heap ~ports:8 5 in
  Hyper.Evtchn.bind t ~port:3;
  Hyper.Evtchn.send t ~port:3;
  Hyper.Evtchn.send t ~port:3;
  Hyper.Evtchn.send t ~port:4;
  checki "bound port pending once" 1
    Hyper.Evtchn.(count t (port_bound lor port_pending));
  checki "unbound port stays quiet" 1 (Hyper.Evtchn.count t Hyper.Evtchn.port_pending)

let test_evtchn_double_bind_panics () =
  let heap = Hyper.Heap.create () in
  let t = Hyper.Evtchn.create heap ~ports:8 5 in
  Hyper.Evtchn.bind t ~port:3;
  checkb "double bind" true (crashes (fun () -> Hyper.Evtchn.bind t ~port:3))

let test_grant_map_unmap () =
  let heap = Hyper.Heap.create () in
  let t = Hyper.Grant.create heap ~slots:8 5 in
  Hyper.Grant.grant t ~slot:2 ~frame:100;
  Hyper.Grant.map t ~slot:2 ~by:0;
  checkb "double map panics" true (crashes (fun () -> Hyper.Grant.map t ~slot:2 ~by:0));
  Hyper.Grant.unmap t ~slot:2;
  checkb "double unmap panics" true (crashes (fun () -> Hyper.Grant.unmap t ~slot:2))

let test_grant_map_unused_panics () =
  let heap = Hyper.Heap.create () in
  let t = Hyper.Grant.create heap ~slots:8 5 in
  checkb "map of unused slot" true (crashes (fun () -> Hyper.Grant.map t ~slot:1 ~by:0))

(* ------------------------- Domain images ---------------------------- *)

(* A domain image packs each port's flags into one int and each grant
   slot into flat ints: every flag combination a port can reach
   (unbound, bound, bound and pending) and every slot value, including
   -1 and ints far past any frame number, must come back from a snapshot
   whatever was written over it in between, unused slots included. Writes
   go through the tables' mutators, which are the only way in. *)
let test_domain_image_round_trip () =
  let open Hyper in
  let hv = boot () in
  let d = Option.get (Hypervisor.domain hv 1) in
  let ev = d.Domain.evtchn and gr = d.Domain.grants in
  let nports = Evtchn.ports ev and nslots = Grant.length gr in
  let bind port =
    if Evtchn.flags ev ~port land Evtchn.port_bound = 0 then Evtchn.bind ev ~port
  in
  for port = 0 to nports - 1 do
    if port mod 3 > 0 then bind port;
    if port mod 3 = 2 then Evtchn.send ev ~port
  done;
  let values = [| -1; 0; 1; 4095; 1 lsl 40; max_int; min_int |] in
  let nv = Array.length values in
  for slot = 0 to nslots - 1 do
    if slot land 1 = 0 then begin
      Grant.grant gr ~slot ~frame:values.(slot mod nv);
      Grant.set_mapped_by gr ~slot values.((slot + 3) mod nv)
    end
  done;
  let ports () = Array.init nports (fun port -> Evtchn.flags ev ~port)
  and slots () =
    Array.init nslots (fun slot ->
        (Grant.in_use gr ~slot, Grant.frame gr ~slot, Grant.mapped_by gr ~slot))
  in
  let ports0 = ports () and slots0 = slots () in
  checki "every reachable port flag combination set" 3
    (List.length (List.sort_uniq compare (Array.to_list ports0)));
  checkb "some slots unused" true (Array.exists (fun (u, _, _) -> not u) slots0);
  let image = Hypervisor.snapshot hv in
  for port = 0 to nports - 1 do
    bind port;
    Evtchn.send ev ~port
  done;
  for slot = 0 to nslots - 1 do
    Grant.grant gr ~slot ~frame:7;
    Grant.set_mapped_by gr ~slot 9
  done;
  Hypervisor.restore hv image;
  checkb "ports restored" true (ports () = ports0);
  checkb "grant slots restored" true (slots () = slots0)

(* A snapshot writes every domain's state into storage allocated with
   the domain, and tables a run left alone capture as their last images:
   on an unchanged 200-tenant machine, a repeated base snapshot and a
   layer snapshot taken right after restoring the base each allocate at
   most 2 words per domain, and every domain keeps its event-channel,
   grant and owned-frame images. [Gc.minor] around the snapshot makes
   [Gc.allocated_bytes] count arrays allocated straight into the major
   heap too. *)
let test_snapshot_allocation_ceiling () =
  let module H = Hyper.Hypervisor in
  let module D = Hyper.Domain in
  let hv = boot ~setup:(H.Tenant_fleet 200) () in
  ignore (H.snapshot hv);
  let domains = Doms.domains hv in
  let n = float_of_int (List.length domains) in
  let images (slot : D.t -> D.slot) =
    List.map
      (fun d ->
        let s = slot d in
        (s.D.s_evtchn, s.D.s_grants, s.D.s_owned_frames))
      domains
  in
  let same a b =
    List.for_all2 (fun (e, g, o) (e', g', o') -> e == e' && g == g' && o == o') a b
  in
  let first = images (fun d -> d.D.base) in
  let per_domain f =
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    let image = Sys.opaque_identity (f ()) in
    Gc.minor ();
    ((Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) /. n, image)
  in
  let repeated, base = per_domain (fun () -> H.snapshot hv) in
  checkb
    (Printf.sprintf "repeated base snapshot: %.2f words per domain <= 2" repeated)
    true (repeated <= 2.0);
  checkb "every domain's table images shared" true
    (same first (images (fun d -> d.D.base)));
  H.restore hv base;
  let layered, _ = per_domain (fun () -> H.snapshot ~layer:true hv) in
  checkb
    (Printf.sprintf "layer after restoring the base: %.2f words per domain <= 2" layered)
    true (layered <= 2.0);
  checkb "the layer shares the base's table images" true
    (same first (images (fun d -> d.D.layer)))

(* Every vCPU scalar, register and per-domain lock comes back from its
   slot whatever was written over it in between: each runstate, both
   values of every flag, and lock holders and counts. *)
let test_vcpu_slot_round_trip () =
  let open Hyper in
  let hv = boot ~vcpus_per_cpu:5 () in
  let runstates = [| Domain.Running; Runnable; Blocked; Paused; Offline |] in
  let vcpus = Doms.vcpus hv in
  let fields (v : Domain.vcpu) =
    ( (v.Domain.processor, Domain.runstate_name v.Domain.runstate, v.Domain.is_current,
       v.Domain.curr_slot),
      ( v.Domain.fsgs_valid, v.Domain.in_syscall_forward, v.Domain.retry_pending,
        v.Domain.syscall_retry_pending, v.Domain.lost_work ),
      Array.map (Hw.Regs.get v.Domain.guest_regs) Hw.Regs.all_regs )
  in
  let scramble k =
    List.iteri
      (fun i (v : Domain.vcpu) ->
        let bit b = (i + k) land b <> 0 in
        v.Domain.processor <- (i + k) mod 8;
        v.Domain.runstate <- runstates.((i + k) mod 5);
        v.Domain.is_current <- bit 1;
        v.Domain.curr_slot <- ((i + k) mod 9) - 1;
        v.Domain.fsgs_valid <- bit 2;
        v.Domain.in_syscall_forward <- bit 4;
        v.Domain.retry_pending <- bit 8;
        v.Domain.syscall_retry_pending <- bit 16;
        v.Domain.lost_work <- bit 32;
        Hw.Regs.set v.Domain.guest_regs Hw.Regs.RIP (Int64.of_int ((i * 7919) + k));
        Hw.Regs.set v.Domain.guest_regs Hw.Regs.FS (Int64.of_int (-(i + k))))
      vcpus;
    List.iteri
      (fun i (d : Domain.t) ->
        let l = d.Domain.page_lock in
        l.Spinlock.holder <- ((i + k) mod 3) - 1;
        l.Spinlock.acquisitions <- (i * 13) + k)
      (Doms.domains hv)
  in
  let locks () =
    List.map
      (fun (d : Domain.t) ->
        (d.Domain.page_lock.Spinlock.holder, d.Domain.page_lock.Spinlock.acquisitions))
      (Doms.domains hv)
  in
  scramble 0;
  let before = List.map fields vcpus and locks0 = locks () in
  let image = Hypervisor.snapshot hv in
  for k = 1 to 40 do
    scramble k;
    Hypervisor.restore hv image;
    checkb (Printf.sprintf "vCPU slots restored after scramble %d" k) true
      (List.map fields vcpus = before);
    checkb (Printf.sprintf "lock slots restored after scramble %d" k) true
      (locks () = locks0)
  done

(* ------------------------- Domain table ----------------------------- *)

(* The order the domain table replaced: a domid-keyed [Hashtbl] folded
   and sorted by domid. It is filled by looking up every domid from -1
   to past [next_domid], and the idle domain's, so it holds exactly the
   domains [Hypervisor.domain] finds. *)
let sorted_fold (hv : Hyper.Hypervisor.t) =
  let module H = Hyper.Hypervisor in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun domid ->
      match H.domain hv domid with
      | Some d -> Hashtbl.replace tbl domid d
      | None -> ())
    (H.idle_domid :: List.init (hv.H.next_domid + 3) (fun i -> i - 1));
  Hashtbl.fold (fun _ d acc -> d :: acc) tbl []
  |> List.sort (fun (a : Hyper.Domain.t) b -> compare a.Hyper.Domain.domid b.Hyper.Domain.domid)

(* Every walk visits exactly the reference's sequence: domains, vCPUs,
   the right fold, and the counted and indexed picks. *)
let check_walks what (hv : Hyper.Hypervisor.t) ~domains =
  let module T = Hyper.Domain_table in
  let t = hv.Hyper.Hypervisor.domains in
  let reference = sorted_fold hv in
  let vreference =
    List.concat_map (fun (d : Hyper.Domain.t) -> Array.to_list d.Hyper.Domain.vcpus) reference
  in
  let walked f =
    let l = ref [] in
    f (fun x -> l := x :: !l);
    List.rev !l
  in
  let same what' a b = checkb (what ^ ": " ^ what') true (List.equal ( == ) a b) in
  checki (what ^ ": domains") domains (List.length reference);
  same "domain walk" reference (walked (fun f -> T.iter f t));
  same "vCPU walk" vreference (walked (fun f -> T.iter_vcpus f t));
  same "right fold" reference (T.fold_right List.cons t []);
  checki (what ^ ": count") domains (T.count (fun _ -> true) t);
  same "nth" reference (List.init domains (T.nth (fun _ -> true) t));
  checki (what ^ ": vCPU count") (List.length vreference) (T.vcpu_count t);
  same "nth vCPU" vreference (List.init (List.length vreference) (T.nth_vcpu t))

let test_walk_order_equals_sorted_fold () =
  let module H = Hyper.Hypervisor in
  check_walks "One_appvm" (boot ~setup:H.One_appvm ()) ~domains:3;
  check_walks "Tenant_fleet 200" (boot ~setup:(H.Tenant_fleet 200) ()) ~domains:202;
  let hv = boot () in
  check_walks "Three_appvm" hv ~domains:4;
  let image = H.snapshot hv in
  let rng = Sim.Rng.create 3L in
  let domctl kind = H.execute hv rng (H.Hypercall { domid = 0; vid = 0; kind }) in
  domctl Hyper.Hypercalls.Domctl_create_domain;
  check_walks "after a create" hv ~domains:5;
  H.restore hv image;
  check_walks "after a restore removing it" hv ~domains:4;
  domctl Hyper.Hypercalls.Domctl_destroy_domain;
  check_walks "after a destroy" hv ~domains:3;
  H.restore hv image;
  check_walks "after a restore putting it back" hv ~domains:4

(* Lookups and walks allocate nothing themselves: over a 200-tenant
   machine, each below reads 0 minor words when its function allocates
   nothing (closures are built before the measurement). *)
let test_walks_allocate_nothing () =
  let module T = Hyper.Domain_table in
  let hv = boot ~setup:(Hyper.Hypervisor.Tenant_fleet 200) () in
  let t = hv.Hyper.Hypervisor.domains in
  let sink = ref 0 in
  let words name f =
    ignore (f ());
    checkb (name ^ " allocates nothing") true (minor_words f = 0.)
  in
  let on_domain (d : Hyper.Domain.t) = sink := d.Hyper.Domain.domid
  and on_vcpu (v : Hyper.Domain.vcpu) = sink := v.Hyper.Domain.vid in
  words "find" (fun () -> T.find t 150);
  words "iter" (fun () -> T.iter on_domain t);
  words "iter_vcpus" (fun () -> T.iter_vcpus on_vcpu t);
  words "fold_right" (fun () -> T.fold_right (fun _ n -> n + 1) t 0);
  words "find_first" (fun () -> T.find_first (fun d -> d.Hyper.Domain.is_idle) t);
  words "count" (fun () -> T.count Hyper.Domain.is_app t);
  words "nth" (fun () -> T.nth Hyper.Domain.is_app t 150);
  words "vcpu_count" (fun () -> T.vcpu_count t);
  words "nth_vcpu" (fun () -> T.nth_vcpu t 150)

(* Domids no domain holds stay clean misses: a lookup is [None], a
   hypercall or forwarded syscall naming one is a no-op, a device
   interrupt aimed at one notifies nobody, and a vCPU whose domid is one
   panics as a dead domain's hypercall -- never an index error. The idle
   domain's reserved domid is held, and its activities run. *)
let test_unknown_domids () =
  let open Hyper in
  let module H = Hypervisor in
  let hv = boot () in
  let rng = Sim.Rng.create 11L in
  let unknown = [ -1; hv.H.next_domid; 999; 5000 ] in
  let entries () = hv.H.obs.Obs.Recorder.hypercall_entries.Obs.Metrics.count in
  let pending () =
    List.map (fun (d : Domain.t) -> Evtchn.count d.Domain.evtchn Evtchn.port_pending)
      (Doms.domains hv)
  in
  List.iter
    (fun domid ->
      let name what = Printf.sprintf "domid %d: %s" domid what in
      checkb (name "lookup") true (H.domain hv domid = None);
      let now = Sim.Clock.now hv.H.clock and calls = entries () in
      H.execute hv rng (H.Hypercall { domid; vid = 0; kind = Hypercalls.Console_io });
      H.execute hv rng (H.Syscall_forward { domid; vid = 0 });
      checkb (name "hypercall and syscall are no-ops") true
        (Sim.Clock.now hv.H.clock = now && entries () = calls);
      let before = pending () in
      H.execute hv rng (H.Device_interrupt { line = 2; target_dom = domid });
      checkb (name "interrupt notifies nobody") true (pending () = before);
      let grants = (H.privvm hv).Domain.grants in
      let v =
        Domain.make_vcpu ~domid ~vid:0 ~processor:1
          (Hypercalls.pooled hv.H.config ~pfn:hv.H.pfn ~grants)
      in
      match H.do_hypercall hv rng ~cpu:1 v Hypercalls.Console_io ~retry:false with
      | () -> Alcotest.fail (name "a dead domain's hypercall ran")
      | exception Crash.Hypervisor_crash (Crash.Panic msg) ->
        Alcotest.(check string) (name "panic")
          (Printf.sprintf "hypercall from dead domain %d" domid) msg)
    unknown;
  (match H.domain hv H.idle_domid with
  | Some d -> checkb "the idle domid is the idle domain" true d.Domain.is_idle
  | None -> Alcotest.fail "no idle domain");
  let calls = entries () in
  H.execute hv rng
    (H.Hypercall { domid = H.idle_domid; vid = 0; kind = Hypercalls.Vcpu_op_info });
  checki "the idle domain's hypercall ran" (calls + 1) (entries ())

(* A rewind puts back exactly the image's domain records: a domain
   created since is gone and one destroyed since is back under its
   domid. Removing a created domain allocates nothing, so a rewind after
   a run that created one costs the same words as after a quiet run. *)
let test_restore_domain_table () =
  let module H = Hyper.Hypervisor in
  let hv = boot () in
  let image = H.snapshot hv in
  let before = Doms.domains hv in
  let rng = Sim.Rng.create 3L in
  let domctl kind = H.execute hv rng (H.Hypercall { domid = 0; vid = 0; kind }) in
  let same () = List.equal ( == ) before (Doms.domains hv) in
  let restore_words () = minor_words (fun () -> H.restore hv image) in
  H.restore hv image;
  let quiet = restore_words () in
  domctl Hyper.Hypercalls.Domctl_create_domain;
  checki "one domain created" (List.length before + 1) (List.length (Doms.domains hv));
  let created = restore_words () in
  checkb "created domain removed" true (same ());
  checkb
    (Printf.sprintf "rewind words after a create %.0f = after a quiet run %.0f" created quiet)
    true (created = quiet);
  domctl Hyper.Hypercalls.Domctl_destroy_domain;
  domctl Hyper.Hypercalls.Domctl_create_domain;
  checkb "table changed" false (same ());
  H.restore hv image;
  checkb "destroyed domain back" true (same ())

(* ------------------------- Audit ------------------------------------ *)

(* The audit's page-frame count walks only the dirty set. With the
   tracking intact, a write that skips [touch] (which no library code
   does) is invisible to it but not to the full fold; a touched one is
   seen by both; once the tracking is invalidated, both see everything.
   An audit that kept the full fold would see the untracked write. *)
let test_audit_count_walks_dirty_set () =
  let module P = Hyper.Pfn in
  let hv = boot () in
  ignore (Hyper.Hypervisor.snapshot hv);
  let t = hv.Hyper.Hypervisor.pfn in
  let audited () = (Hyper.Hypervisor.audit hv).Hyper.Hypervisor.pfn_inconsistent in
  (* The last two frames are free: boot allocates from frame 0 up. *)
  (P.get t (P.frames t - 1)).P.validated <- true;
  checki "full fold sees the untracked write" 1 (P.count_inconsistent t);
  checki "audit does not" 0 (audited ());
  let d = P.get t (P.frames t - 2) in
  P.touch d;
  d.P.use_count <- 3;
  checki "full fold sees both writes" 2 (P.count_inconsistent t);
  checki "audit sees the touched one" 1 (audited ());
  P.invalidate_tracking t;
  checki "fallback sees both" 2 (audited ())

(* The recovery path's full scan walks only the dirty set while the
   tracking is intact and the latest image holds no inconsistent
   descriptor: a write that skips [touch] (which no library code does)
   is then left unrepaired, though the full fold sees it. Once the
   tracking is invalidated, or once the image itself is damaged, the
   scan is the full fold again and repairs every descriptor. *)
let test_repair_all_walks_dirty_set () =
  let module P = Hyper.Pfn in
  let hv = boot () in
  ignore (Hyper.Hypervisor.snapshot hv);
  let t = hv.Hyper.Hypervisor.pfn in
  (* The last two frames are free: boot allocates from frame 0 up. *)
  let last = P.get t (P.frames t - 1) in
  last.P.validated <- true;
  checki "clean image: the untracked write is skipped" 0 (P.repair_all t);
  checki "full fold sees it" 1 (P.count_inconsistent t);
  P.invalidate_tracking t;
  checki "untrusted tracking: it is repaired" 1 (P.repair_all t);
  checki "nothing left after the fallback" 0 (P.count_inconsistent t);
  let d = P.get t (P.frames t - 2) in
  P.touch d;
  d.P.use_count <- 3;
  ignore (Hyper.Hypervisor.snapshot hv);
  last.P.validated <- true;
  checki "damaged image: both are repaired" 2 (P.repair_all t);
  checki "nothing left after the second fallback" 0 (P.count_inconsistent t)

(* The audit's scheduler check walks the domains by domid, the idle
   domain's reserved one included: in every domain, a vCPU that is not
   current but claims its CPU's slot fails it. Only the vCPU walk can
   see that claim; the per-CPU records still agree with themselves. *)
let test_sched_check_covers_every_domain () =
  (* Two vCPUs per AppVM, so AppVMs have a vCPU that is not current. *)
  let hv = boot ~vcpus_per_cpu:2 () in
  let image = Hyper.Hypervisor.snapshot hv in
  let checked = ref [] in
  List.iter
    (fun (d : Hyper.Domain.t) ->
      match
        Array.find_opt
          (fun (v : Hyper.Domain.vcpu) -> not v.Hyper.Domain.is_current)
          d.Hyper.Domain.vcpus
      with
      | None -> ()
      | Some v ->
        Hyper.Hypervisor.restore hv image;
        checkb "consistent before" true (Hyper.Hypervisor.sched_consistent hv);
        v.Hyper.Domain.is_current <- true;
        v.Hyper.Domain.curr_slot <- v.Hyper.Domain.processor;
        checkb
          (Printf.sprintf "false claim in domain %d seen" d.Hyper.Domain.domid)
          false
          (Hyper.Hypervisor.sched_consistent hv);
        checked := d.Hyper.Domain.domid :: !checked)
    (Doms.domains hv);
  checkb "an AppVM and the idle domain were checked" true
    (List.mem 1 !checked && List.mem Hyper.Hypervisor.idle_domid !checked)

(* A warm, clean audit on a campaign machine allocates its report (ten
   fields and a header: 11 words) and nothing else: no domain or vCPU
   list, no closure per walk. *)
let test_clean_audit_words () =
  let hv = boot () in
  ignore (Hyper.Hypervisor.snapshot hv);
  run_n hv (Sim.Rng.create 7L) 200;
  checkb "clean" true (Hyper.Hypervisor.audit_clean (Hyper.Hypervisor.audit hv));
  let words = minor_words (fun () -> Hyper.Hypervisor.audit hv) in
  checkb (Printf.sprintf "%.0f minor words <= 11" words) true (words <= 11.0)

(* ------------------------- Copy-on-write stores ---------------------- *)

(* Creating a page-frame table allocates no descriptor record: every
   frame starts as the table's shared sentinel, so the minor heap sees
   only a constant 64 words (55 measured; 7 a frame while each frame got
   its record at create). In all, a frame costs at most 6 words (5.1
   measured: its sentinel slot, its materialization-stack slot and the
   store's golden ints, dirty mark and dirty-stack slot), so per-frame
   state cannot hide in major-heap arrays either. *)
let test_pfn_create_words () =
  let frames = 65536 in
  Gc.minor ();
  let minor0 = Gc.minor_words () and bytes0 = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (Hyper.Pfn.create ~frames));
  let minor = Gc.minor_words () -. minor0 in
  Gc.minor ();
  let words =
    (Gc.allocated_bytes () -. bytes0) /. float_of_int (Sys.word_size / 8)
  in
  let within per w =
    checkb
      (Printf.sprintf "%.0f words for %d descriptors <= %d each + 64" w
         frames per)
      true
      (w <= float_of_int ((per * frames) + 64))
  in
  within 0 minor;
  within 6 words

(* Read-only walks over a booted machine's frame table give no frame a
   descriptor record of its own: the ledger capture, the full folds, a
   full scan of a consistent table and the audit read an untouched frame
   as the table's shared sentinel. *)
let test_walks_materialize_nothing () =
  let hv = boot () in
  ignore (Hyper.Hypervisor.snapshot hv);
  run_n hv (Sim.Rng.create 11L) 200;
  let pfn = hv.Hyper.Hypervisor.pfn in
  let records = pfn.Hyper.Pfn.nmat in
  checkb "most frames untouched" true (records < Hyper.Pfn.frames pfn / 8);
  ignore (Hyper.Ledger.capture hv);
  ignore (Hyper.Pfn.count_inconsistent pfn);
  ignore (Hyper.Pfn.free_frames pfn);
  checki "consistent table: nothing to repair" 0 (Hyper.Pfn.scan_and_fix pfn);
  ignore (Hyper.Hypervisor.audit hv);
  checki "no record materialized" records pfn.Hyper.Pfn.nmat

(* Once warm, snapshots (base and layer), restores and unlayering on a
   store with existing elements allocate nothing: no first touch conses,
   no layer captures its base in tuples or a closure. *)
let cycles_allocate_nothing name cycle =
  cycle ();
  let words =
    minor_words (fun () ->
        for _ = 1 to 100 do
          cycle ()
        done)
  in
  checkb (Printf.sprintf "%s: %.0f minor words in 100 cycles" name words) true
    (words = 0.0)

let test_store_cycles_allocate_nothing () =
  let module P = Hyper.Pfn in
  let pfn = P.create ~frames:64 in
  let ds =
    Array.init 16 (fun i -> P.alloc_frame pfn ~owner:(i mod 3) ~ptype:P.Writable)
  in
  P.snapshot pfn;
  let churn () = Array.iter (fun d -> P.get_page d; P.validate d) ds in
  let unchurn () = Array.iter (fun d -> P.invalidate d; P.put_page d) ds in
  cycles_allocate_nothing "pfn" (fun () ->
      churn ();
      P.snapshot pfn;
      unchurn ();
      P.snapshot ~layer:true pfn;
      churn ();
      P.restore pfn;
      P.drop_layer pfn;
      P.restore pfn;
      unchurn ());
  let module H = Hyper.Heap in
  let heap = H.create () in
  let objs = Array.init 16 (fun _ -> H.alloc heap H.Generic) in
  H.snapshot heap;
  cycles_allocate_nothing "heap" (fun () ->
      Array.iter H.corrupt_header objs;
      H.snapshot heap;
      H.rebuild_for_reboot heap;
      H.snapshot ~layer:true heap;
      H.free heap objs.(0);
      H.restore heap;
      H.drop_layer heap;
      H.restore heap);
  let module T = Hyper.Timer_heap in
  let timers = T.create () in
  for i = 1 to 8 do
    ignore (T.add timers ~deadline:(10 * i) ~period:100 T.Time_sync)
  done;
  T.snapshot timers;
  let tick () =
    let e = T.pop_top timers in
    T.requeue timers e ~now:e.T.deadline
  in
  cycles_allocate_nothing "timer_heap" (fun () ->
      tick ();
      tick ();
      T.snapshot timers;
      tick ();
      T.snapshot ~layer:true timers;
      ignore (T.pop_top timers);
      T.restore timers;
      T.drop_layer timers;
      T.restore timers)

(* ------------------------- Latency model ---------------------------- *)

let test_latency_pfn_scan_scales () =
  let small = Hyper.Latency_model.pfn_scan ~frames:1000 in
  let big = Hyper.Latency_model.pfn_scan ~frames:2000 in
  checki "proportional" (2 * small) big

let test_latency_reference_values () =
  (* At the paper's geometry the scan costs ~21 ms. *)
  let ns = Hyper.Latency_model.pfn_scan ~frames:Hyper.Latency_model.reference_frames in
  checkb "about 21ms" true (ns > Sim.Time.ms 20 && ns < Sim.Time.ms 22)

let () =
  Alcotest.run "hyper"
    [
      ( "pfn",
        [
          Alcotest.test_case "alloc/free" `Quick test_pfn_alloc_free_cycle;
          Alcotest.test_case "get/put balance" `Quick test_pfn_get_put_balance;
          Alcotest.test_case "double validate" `Quick test_pfn_double_validate_panics;
          Alcotest.test_case "double invalidate" `Quick test_pfn_double_invalidate_panics;
          Alcotest.test_case "refcount underflow" `Quick test_pfn_underflow_panics;
          Alcotest.test_case "get on free" `Quick test_pfn_get_on_free_panics;
          Alcotest.test_case "scan fixes validated-no-refs" `Quick
            test_pfn_scan_fixes_validated_zero_refs;
          Alcotest.test_case "scan fixes orphan typed page" `Quick
            test_pfn_scan_fixes_orphan_typed_page;
          Alcotest.test_case "scan idempotent" `Quick test_pfn_scan_idempotent;
        ] );
      ( "spinlock",
        [
          Alcotest.test_case "acquire/release" `Quick test_lock_acquire_release;
          Alcotest.test_case "dead holder hangs" `Quick test_lock_dead_holder_hangs;
          Alcotest.test_case "recursive panics" `Quick test_lock_recursive_panics;
          Alcotest.test_case "wrong release panics" `Quick test_lock_wrong_release_panics;
          Alcotest.test_case "segment unlock_all" `Quick test_static_segment_unlock_all;
          Alcotest.test_case "segment rejects heap lock" `Quick
            test_segment_rejects_heap_lock;
        ] );
      ( "heap",
        [
          Alcotest.test_case "alloc/free" `Quick test_heap_alloc_free;
          Alcotest.test_case "double free" `Quick test_heap_double_free_panics;
          Alcotest.test_case "freelist corruption hangs" `Quick
            test_heap_freelist_corruption_hangs;
          Alcotest.test_case "rebuild repairs" `Quick test_heap_rebuild_repairs_freelist;
          Alcotest.test_case "release locks" `Quick test_heap_release_locks;
        ] );
      ( "timer_heap",
        [
          Alcotest.test_case "ordering" `Quick test_timer_heap_order;
          Alcotest.test_case "pop due only" `Quick test_timer_pop_due_only;
          Alcotest.test_case "recurring requeue" `Quick test_timer_recurring_requeue;
          Alcotest.test_case "reactivate recurring" `Quick test_timer_reactivate_recurring;
          Alcotest.test_case "structure corruption" `Quick
            test_timer_structure_corruption_panics;
          Alcotest.test_case "rebuild for reboot" `Quick test_timer_rebuild_for_reboot;
          Alcotest.test_case "heap property random" `Quick test_timer_heap_property_random;
        ] );
      ( "journal",
        [
          Alcotest.test_case "undo refcount" `Quick test_journal_undo_refcount;
          Alcotest.test_case "undo validation" `Quick test_journal_undo_validation;
          Alcotest.test_case "disabled logs nothing" `Quick
            test_journal_disabled_logs_nothing;
          Alcotest.test_case "commit clears" `Quick test_journal_commit_clears;
          Alcotest.test_case "undo order" `Quick test_journal_undo_order;
          Alcotest.test_case "op kinds" `Quick test_journal_op_kinds;
          Alcotest.test_case "depth tracks entries" `Quick
            test_journal_depth_tracks_entries;
        ] );
      ( "boot",
        [
          Alcotest.test_case "three appvm" `Quick test_boot_three_appvm;
          Alcotest.test_case "audit clean" `Quick test_boot_audit_clean;
          Alcotest.test_case "apics armed" `Quick test_boot_apics_armed;
          Alcotest.test_case "domain create/destroy" `Quick test_domain_create_destroy;
        ] );
      ( "activities",
        [
          Alcotest.test_case "healthy workload" `Quick test_healthy_workload_stays_clean;
          Alcotest.test_case "hypercall completes" `Quick
            test_hypercall_completes_and_clears_record;
          Alcotest.test_case "abandonment leaves partial state" `Quick
            test_abandoned_hypercall_leaves_partial_state;
          Alcotest.test_case "abandoned tick disarms apic" `Quick
            test_abandoned_timer_tick_disarms_apic;
          Alcotest.test_case "retry without undo panics" `Quick
            test_retry_without_undo_can_panic;
          Alcotest.test_case "retry with undo succeeds" `Quick
            test_retry_with_undo_succeeds;
          Alcotest.test_case "multicall progress tracking" `Quick
            test_multicall_progress_tracking;
          Alcotest.test_case "multicall retry keeps targets" `Quick
            test_multicall_retry_keeps_targets;
          Alcotest.test_case "reset record matches fresh" `Quick
            test_reset_record_matches_fresh;
          Alcotest.test_case "snapshot refuses in-flight call" `Quick
            test_snapshot_refuses_in_flight_call;
          Alcotest.test_case "domctl create" `Quick test_domctl_create_via_hypercall;
          Alcotest.test_case "domctl on corrupt static data" `Quick
            test_domctl_fails_with_corrupt_static_data;
        ] );
      ( "sched",
        [
          Alcotest.test_case "fix from percpu" `Quick test_sched_fix_from_percpu;
          Alcotest.test_case "abandoned switch detected" `Quick
            test_sched_abandoned_switch_detected;
          Alcotest.test_case "irq count assertions" `Quick test_irq_count_assertions;
        ] );
      ( "evtchn_grant",
        [
          Alcotest.test_case "bind/send" `Quick test_evtchn_bind_send;
          Alcotest.test_case "double bind" `Quick test_evtchn_double_bind_panics;
          Alcotest.test_case "grant map/unmap" `Quick test_grant_map_unmap;
          Alcotest.test_case "grant map unused" `Quick test_grant_map_unused_panics;
        ] );
      ( "domain_image",
        [
          Alcotest.test_case "packed round trip" `Quick test_domain_image_round_trip;
          Alcotest.test_case "vcpu and lock slots round trip" `Quick
            test_vcpu_slot_round_trip;
          Alcotest.test_case "walk order equals the sorted fold" `Quick
            test_walk_order_equals_sorted_fold;
          Alcotest.test_case "unknown domids are clean misses" `Quick
            test_unknown_domids;
          Alcotest.test_case "walks allocate nothing" `Quick
            test_walks_allocate_nothing;
          Alcotest.test_case "snapshot allocation ceiling" `Quick
            test_snapshot_allocation_ceiling;
          Alcotest.test_case "restore rebuilds the domain table" `Quick
            test_restore_domain_table;
        ] );
      ( "audit",
        [
          Alcotest.test_case "pfn count walks the dirty set" `Quick
            test_audit_count_walks_dirty_set;
          Alcotest.test_case "recovery scan walks the dirty set" `Quick
            test_repair_all_walks_dirty_set;
          Alcotest.test_case "clean audit allocates only its report" `Quick
            test_clean_audit_words;
          Alcotest.test_case "sched check covers every domain" `Quick
            test_sched_check_covers_every_domain;
        ] );
      ( "cow",
        [
          Alcotest.test_case "pfn create words" `Quick test_pfn_create_words;
          Alcotest.test_case "store cycles allocate nothing" `Quick
            test_store_cycles_allocate_nothing;
          Alcotest.test_case "read-only walks materialize nothing" `Quick
            test_walks_materialize_nothing;
        ] );
      ( "latency_model",
        [
          Alcotest.test_case "pfn scan scales" `Quick test_latency_pfn_scan_scales;
          Alcotest.test_case "reference values" `Quick test_latency_reference_values;
        ] );
    ]
