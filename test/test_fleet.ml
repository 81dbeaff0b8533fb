(* Tests for incremental microreset, sharded recovery, and the tenant
   fleet scenario: fresh-vs-incremental equivalence across the whole
   corruption catalogue, the O(dirty) audit against the full fold,
   sharded-vs-serial state equality and
   determinism, jobs-invariant fleet aggregates, restored fleet trials
   against fresh boots, the process's worker pool (warm results, boot
   counts, key changes, concurrent callers, words per call), the
   per-tenant request accounting against a
   per-request reference loop, the fleet's max gap, the nlh-fleet/1
   decoder and its damage cases,
   the scan-path coverage and fuzz axes, and dirty-tracked heap/timer
   restore with zero-leak ledger audits. *)

open Contract

(* Drive a deterministic mixed warmup of *completed* activities: no
   in-flight hypervisor state is left behind, so the machine's state is
   a pure function of the seed and both copies in a twin test agree. *)
let warmup hv rng ~steps =
  let loads =
    [|
      Workloads.Workload.create Workloads.Workload.Netbench ~domid:1;
      Workloads.Workload.create Workloads.Workload.Unixbench ~domid:2;
      Workloads.Workload.create Workloads.Workload.Blkbench ~domid:3;
    |]
  in
  for _ = 1 to steps do
    Sim.Clock.advance_by hv.Hyper.Hypervisor.clock
      (Sim.Time.us (20 + Sim.Rng.int rng 180));
    let w = loads.(Sim.Rng.int rng (Array.length loads)) in
    Hyper.Hypervisor.execute hv rng (Workloads.Workload.sample_activity rng w)
  done

let full = Recovery.Enhancement.full_set

(* A digest of the post-recovery machine state. Deliberately covers
   everything the recovery repairs -- the full pfn table, heap
   aggregates, domain and vCPU flags, per-CPU state, static locks and
   scheduler queues -- but summarises the timer heap *structurally*
   (size, order integrity, queued/recurring population): raw
   deadlines depend on the simulated time recovery finished at, which
   legitimately differs between a 22 ms full scan and a sub-ms
   incremental or sharded one. *)
let state_digest (hv : Hyper.Hypervisor.t) =
  let b = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let pfn = hv.Hyper.Hypervisor.pfn in
  for i = 0 to Hyper.Hypervisor.frames hv - 1 do
    let d = Hyper.Pfn.peek pfn i in
    pr "p%d:%b:%d:%s:%d\n" i d.Hyper.Pfn.validated d.Hyper.Pfn.use_count
      (Hyper.Pfn.page_type_name d.Hyper.Pfn.ptype)
      d.Hyper.Pfn.owner
  done;
  let h = hv.Hyper.Hypervisor.heap in
  pr "heap:%d:%d:%b\n" (Hyper.Heap.live_count h) (Hyper.Heap.bytes_live h)
    (Hyper.Heap.freelist_ok h);
  List.iter
    (fun (d : Hyper.Domain.t) ->
      pr "d%d:%b:%b:%b:%b:%d\n" d.Hyper.Domain.domid d.Hyper.Domain.alive
        d.Hyper.Domain.struct_ok d.Hyper.Domain.guest_failed
        d.Hyper.Domain.guest_sdc
        (Hyper.Owned_frames.length d.Hyper.Domain.owned_frames);
      Array.iter
        (fun (v : Hyper.Domain.vcpu) ->
          pr "v%d.%d:%s:%b:%d:%b:%b:%b:%b:%b\n" v.Hyper.Domain.domid
            v.Hyper.Domain.vid
            (Hyper.Domain.runstate_name v.Hyper.Domain.runstate)
            v.Hyper.Domain.is_current v.Hyper.Domain.curr_slot
            v.Hyper.Domain.fsgs_valid v.Hyper.Domain.retry_pending
            v.Hyper.Domain.syscall_retry_pending v.Hyper.Domain.lost_work
            (v.Hyper.Domain.in_hypercall <> None))
        d.Hyper.Domain.vcpus)
    (Doms.domains hv);
  Array.iter
    (fun (p : Hyper.Percpu.t) ->
      pr "c:%d:%d:%d:%d\n" p.Hyper.Percpu.local_irq_count
        p.Hyper.Percpu.in_hypercall_depth p.Hyper.Percpu.curr_domid
        p.Hyper.Percpu.curr_vcpuid)
    hv.Hyper.Hypervisor.percpu;
  Hw.Machine.iter_cpus hv.Hyper.Hypervisor.machine (fun c ->
      pr "x:%d:%b:%b\n" (Hashtbl.hash c.Hw.Cpu.state) c.Hw.Cpu.irq_enabled
        c.Hw.Cpu.in_hypervisor);
  Hyper.Spinlock.Segment.iter hv.Hyper.Hypervisor.static_segment (fun l ->
      pr "l:%b\n" (Hyper.Spinlock.is_held l));
  for cpu = 0 to Array.length hv.Hyper.Hypervisor.percpu - 1 do
    pr "q%d:%d:%b\n" cpu
      (Hyper.Sched.queue_length hv.Hyper.Hypervisor.sched ~cpu)
      (Hyper.Sched.current hv.Hyper.Hypervisor.sched ~cpu <> None)
  done;
  let tm = hv.Hyper.Hypervisor.timers in
  let queued = ref 0 in
  for i = 0 to Hyper.Timer_heap.size tm - 1 do
    if tm.Hyper.Timer_heap.arr.(i).Hyper.Timer_heap.queued then incr queued
  done;
  pr "t:%d:%b:%d:%d\n" (Hyper.Timer_heap.size tm)
    (Hyper.Timer_heap.structure_ok tm)
    !queued
    (List.length tm.Hyper.Timer_heap.recurring);
  Buffer.contents b

(* Boot + warmup + golden snapshot + one corruption, deterministically
   from [seed]; returns the machine ready for a recovery attempt.
   [eager] gives every frame its own descriptor record right after boot,
   as the page-frame table did before untouched frames shared one
   sentinel. *)
let damaged_machine ?obs ?(eager = false) ~config ~seed target =
  let hv = boot ~config ?obs () in
  let pfn = hv.Hyper.Hypervisor.pfn in
  if eager then
    for i = 0 to Hyper.Pfn.frames pfn - 1 do
      ignore (Hyper.Pfn.get pfn i)
    done;
  let rng = Sim.Rng.create seed in
  warmup hv rng ~steps:120;
  ignore (Hyper.Hypervisor.snapshot hv);
  Inject.Corrupt.apply hv rng target;
  hv

let outcome_of recover hv =
  match recover hv ~enh:full ~detected_on:0 with
  | out -> Ok out
  | exception Hyper.Crash.Hypervisor_crash c -> Error (Hyper.Crash.describe c)

let recover_outcome = outcome_of (Recovery.Engine.recover Recovery.Engine.Nilihype)
let shard_outcome = outcome_of Recovery.Shard.recover

(* ------------------- fresh vs incremental equivalence ---------------- *)

(* The equivalence guarantee: for every corruption in the catalogue, the
   incremental (dirty-list) consistency scan must leave the machine in
   exactly the state the full scan does, with the same outcome class.
   Identical twins differing only in [incremental_scan] are damaged
   identically and recovered with the same mechanism. *)
let test_equivalence_matrix () =
  List.iter
    (fun target ->
      let name = Inject.Corrupt.name target in
      let seed = 7_700L in
      let a = damaged_machine ~config:Hyper.Config.nilihype ~seed target in
      let bm =
        damaged_machine ~config:Hyper.Config.nilihype_incremental ~seed target
      in
      match (recover_outcome a, recover_outcome bm) with
      | Ok oa, Ok ob ->
        (match oa.Recovery.Plan.scan_mode with
        | Some Recovery.Plan.Full_scan -> ()
        | _ -> Alcotest.failf "%s: full machine did not take the full scan" name);
        (* The incremental machine takes the dirty-list path -- except
           when the corruption smashed the tracking itself, where the
           guarantee is delivered by falling back to the full scan. *)
        let got = Option.fold ~none:"none" ~some:Recovery.Plan.scan_mode_name in
        (match (target, ob.Recovery.Plan.scan_mode) with
        | Inject.Corrupt.Pfn_tracker, Some Recovery.Plan.Full_scan -> ()
        | Inject.Corrupt.Pfn_tracker, m ->
          Alcotest.failf "%s: expected full-scan fallback, got %s" name (got m)
        | _, Some Recovery.Plan.Incremental_scan -> ()
        | _, m -> Alcotest.failf "%s: expected incremental scan, got %s" name (got m));
        checki (name ^ ": pfn repairs agree")
          oa.Recovery.Plan.repairs.Recovery.Plan.pfn_fixed
          ob.Recovery.Plan.repairs.Recovery.Plan.pfn_fixed;
        checks (name ^ ": post-recovery state identical") (state_digest a)
          (state_digest bm)
      | Error ea, Error eb -> checks (name ^ ": same death") ea eb
      | Ok _, Error e ->
        Alcotest.failf "%s: incremental died (%s) where full recovered" name e
      | Error e, Ok _ ->
        Alcotest.failf "%s: full died (%s) where incremental recovered" name e)
    (Array.to_list Inject.Corrupt.all)

(* A recovery attempt that dies invalidates the dirty tracking, so the
   next attempt on the same instance must take the full scan even with
   [incremental_scan] on -- the automatic fallback the equivalence
   guarantee rests on after [died]. Serial and sharded recovery run
   through the same executor, so both honour it. *)
let fallback_after_died recover_outcome () =
  let hv = boot ~config:Hyper.Config.nilihype_incremental () in
  let rng = Sim.Rng.create 8_800L in
  warmup hv rng ~steps:80;
  ignore (Hyper.Hypervisor.snapshot hv);
  hv.Hyper.Hypervisor.recovery_handler_ok <- false;
  (match recover_outcome hv with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "recovery should die with a corrupted handler");
  checkb "tracking invalidated by the died attempt" false
    (Hyper.Pfn.tracking_usable hv.Hyper.Hypervisor.pfn);
  hv.Hyper.Hypervisor.recovery_handler_ok <- true;
  match recover_outcome hv with
  | Ok out ->
    (match out.Recovery.Plan.scan_mode with
    | Some Recovery.Plan.Full_scan -> ()
    | _ -> Alcotest.fail "post-died recovery must fall back to the full scan")
  | Error e -> Alcotest.failf "second recovery died: %s" e

(* The audit must report exactly what it would with the full fold over
   the frame table, for every corruption target, on both scan configs
   and both engines, right after the damage and again after the recovery (or its death). The
   [Pfn_tracker] target leaves the tracking unusable, so its audits take
   the full-fold fallback. *)
let test_audit_matrix () =
  let pfn_damage = ref 0 in
  List.iter
    (fun mech ->
      List.iter
        (fun config ->
          List.iter
            (fun target ->
              let name =
                Printf.sprintf "%s %s %s"
                  (Recovery.Engine.mechanism_name mech)
                  (if config.Hyper.Config.incremental_scan then "incremental"
                   else "full")
                  (Inject.Corrupt.name target)
              in
              let hv = damaged_machine ~config ~seed:7_700L target in
              let pfn = hv.Hyper.Hypervisor.pfn in
              if target = Inject.Corrupt.Pfn_tracker then
                checkb (name ^ ": tracking unusable") false
                  (Hyper.Pfn.tracking_usable pfn);
              if Hyper.Pfn.count_inconsistent pfn > 0 then incr pfn_damage;
              Stores.check_audit_exact (name ^ ", damaged") hv;
              ignore (outcome_of (Recovery.Engine.recover mech) hv);
              Stores.check_audit_exact (name ^ ", recovered") hv)
            (Array.to_list Inject.Corrupt.all))
        [ Hyper.Config.nilihype; Hyper.Config.nilihype_incremental ])
    [ Recovery.Engine.Nilihype; Recovery.Engine.Rehype ];
  checkb "some targets leave inconsistent frames" true (!pfn_damage > 0)

(* The serial scan step's contract, judged by the full fold rather than
   by the walk the step chose: for every corruption target and both
   engines, on each engine's full-scan configuration, the step repairs
   exactly the descriptors the fold counts as inconsistent and leaves
   none. The check runs inside the plan, right after the scan action, so
   a recovery that dies in a later step is still judged. *)
let test_scan_step_clears_fold () =
  let scan_step = "Restore and check consistency of page frame entries" in
  List.iter
    (fun (mech, plan) ->
      let scanned = ref 0 and damaged = ref 0 in
      List.iter
        (fun target ->
          let name =
            Recovery.Engine.mechanism_name mech ^ " " ^ Inject.Corrupt.name target
          in
          let hv =
            damaged_machine ~config:(Recovery.Engine.config mech) ~seed:7_700L
              target
          in
          let pfn = hv.Hyper.Hypervisor.pfn in
          let build repairs =
            let p = plan hv ~enh:full ~detected_on:0 repairs in
            let check (s : Recovery.Plan.step) =
              if s.Recovery.Plan.name <> scan_step then s
              else
                {
                  s with
                  Recovery.Plan.action =
                    (fun () ->
                      let before = Hyper.Pfn.count_inconsistent pfn in
                      if before > 0 then incr damaged;
                      s.Recovery.Plan.action ();
                      incr scanned;
                      checki (name ^ ": repairs = fold before") before
                        repairs.Recovery.Plan.pfn_fixed;
                      checki (name ^ ": fold clean after") 0
                        (Hyper.Pfn.count_inconsistent pfn));
                }
            in
            { p with Recovery.Plan.steps = List.map check p.Recovery.Plan.steps }
          in
          match Recovery.Plan.run hv ~detected_on:0 build with
          | _ -> ()
          | exception Hyper.Crash.Hypervisor_crash _ -> ())
        (Array.to_list Inject.Corrupt.all);
      let m = Recovery.Engine.mechanism_name mech in
      checkb (m ^ ": scan steps ran") true (!scanned > 0);
      checkb (m ^ ": some scans had damage") true (!damaged > 0))
    [
      (Recovery.Engine.Nilihype, Recovery.Microreset.plan);
      (Recovery.Engine.Rehype, Recovery.Microreboot.plan);
    ]

(* A recovery that dies invalidates the tracking: the audit after it
   takes the full fold, and the one after the next recovery is exact. *)
let test_audit_after_died () =
  let hv =
    damaged_machine ~config:Hyper.Config.nilihype_incremental ~seed:8_800L
      Inject.Corrupt.Pfn_use_count_skew
  in
  hv.Hyper.Hypervisor.recovery_handler_ok <- false;
  (match recover_outcome hv with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "recovery should die with a corrupted handler");
  checkb "died attempt invalidates tracking" false
    (Hyper.Pfn.tracking_usable hv.Hyper.Hypervisor.pfn);
  Stores.check_audit_exact "after the died attempt" hv;
  hv.Hyper.Hypervisor.recovery_handler_ok <- true;
  (match recover_outcome hv with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "second recovery died: %s" e);
  Stores.check_audit_exact "after the second recovery" hv

(* ------------------------- sharded recovery -------------------------- *)

(* Sharded recovery must converge to the serial microreset's machine
   state: the per-descriptor repair is order-independent, so per-domain
   shards and one serial sweep are different schedules of the same
   repair. Checked over the whole catalogue, on both scan paths. *)
let test_sharded_equals_serial () =
  List.iter
    (fun (path, config) ->
      List.iter
        (fun target ->
          let name = path ^ "/" ^ Inject.Corrupt.name target in
          let seed = 9_900L in
          let a = damaged_machine ~config ~seed target in
          let bm = damaged_machine ~config ~seed target in
          match (recover_outcome a, shard_outcome bm) with
          | Ok oa, Ok ob ->
            checkb (name ^ ": same scan path") true
              (oa.Recovery.Plan.scan_mode = ob.Recovery.Plan.scan_mode);
            checki (name ^ ": pfn repairs agree")
              oa.Recovery.Plan.repairs.Recovery.Plan.pfn_fixed
              ob.Recovery.Plan.repairs.Recovery.Plan.pfn_fixed;
            checks (name ^ ": sharded state = serial state") (state_digest a)
              (state_digest bm)
          | Error ea, Error eb -> checks (name ^ ": same death") ea eb
          | Ok _, Error e -> Alcotest.failf "%s: sharded died (%s)" name e
          | Error e, Ok _ -> Alcotest.failf "%s: serial died (%s)" name e)
        (Array.to_list Inject.Corrupt.all))
    [
      ("full", Hyper.Config.nilihype);
      ("incremental", Hyper.Config.nilihype_incremental);
    ]

(* The same contract when untrusted dirty tracking forces the full scan
   on an incremental configuration. The sharded full scan peeks at every
   frame, and an untouched one is the table's shared sentinel, grouped
   with the unowned frames. A twin whose every frame has its own record
   (the eager table) must recover identically: the same repairs,
   modelled latency, resume offsets and machine state. *)
let test_sharded_equals_serial_full_scan () =
  List.iter
    (fun target ->
      let name = Inject.Corrupt.name target in
      let damaged ?eager () =
        let hv =
          damaged_machine ?eager ~config:Hyper.Config.nilihype_incremental
            ~seed:9_910L target
        in
        Hyper.Pfn.invalidate_tracking hv.Hyper.Hypervisor.pfn;
        hv
      in
      let a = damaged () and bm = damaged () and c = damaged ~eager:true () in
      match (recover_outcome a, shard_outcome bm, shard_outcome c) with
      | Ok oa, Ok ob, Ok oc ->
        List.iter
          (fun (o : Recovery.Plan.outcome) ->
            checkb (name ^ ": full scan") true
              (o.Recovery.Plan.scan_mode = Some Recovery.Plan.Full_scan))
          [ oa; ob; oc ];
        checki (name ^ ": serial and sharded repairs agree")
          oa.Recovery.Plan.repairs.Recovery.Plan.pfn_fixed
          ob.Recovery.Plan.repairs.Recovery.Plan.pfn_fixed;
        checki (name ^ ": eager repairs agree")
          oc.Recovery.Plan.repairs.Recovery.Plan.pfn_fixed
          ob.Recovery.Plan.repairs.Recovery.Plan.pfn_fixed;
        checkb (name ^ ": same modelled latency and resume offsets") true
          (oc.Recovery.Plan.latency = ob.Recovery.Plan.latency
          && oc.Recovery.Plan.resume_global = ob.Recovery.Plan.resume_global
          && oc.Recovery.Plan.resume_offsets = ob.Recovery.Plan.resume_offsets);
        checks (name ^ ": sharded state = serial state") (state_digest a)
          (state_digest bm);
        checks (name ^ ": eager state = lazy state") (state_digest c)
          (state_digest bm)
      | _ -> Alcotest.failf "%s: a recovery died" name)
    Inject.Corrupt.
      [ Pfn_validated_flip; Pfn_use_count_skew; Pfn_type_scramble; Pfn_tracker ]

(* A sharded recovery under a forced full scan lists only the frames
   that have a record: an untouched frame just counts toward the
   unowned group. On the 64 Ki-frame campaign machine it allocates at
   most 5k minor words (~2.5k measured; ~328.6k when every frame was
   listed in its group and looked up in the group table). *)
let test_sharded_full_scan_words () =
  let hv =
    damaged_machine ~config:Hyper.Config.nilihype_incremental ~seed:9_910L
      Inject.Corrupt.Pfn_use_count_skew
  in
  Hyper.Pfn.invalidate_tracking hv.Hyper.Hypervisor.pfn;
  let w0 = Gc.minor_words () in
  let o = Recovery.Shard.recover hv ~enh:full ~detected_on:0 in
  let words = Gc.minor_words () -. w0 in
  checkb "full scan" true (o.Recovery.Plan.scan_mode = Some Recovery.Plan.Full_scan);
  checkb (Printf.sprintf "sharded full scan %.0f words <= 5k" words) true
    (words <= 5_000.)

(* Two identical sharded recoveries must produce identical results --
   lane assignment, spans and resume offsets included -- and every
   domain must get a resume offset no later than the total latency. *)
let test_sharded_deterministic () =
  let mk () =
    let hv =
      damaged_machine ~config:Hyper.Config.nilihype_incremental ~seed:4_400L
        Inject.Corrupt.Pfn_use_count_skew
    in
    (hv, Recovery.Shard.recover hv ~enh:full ~detected_on:0)
  in
  let hv, r1 = mk () and _, r2 = mk () in
  checkb "identical sharded results" true (r1 = r2);
  let domids = List.map (fun (d : Hyper.Domain.t) -> d.Hyper.Domain.domid) (Doms.domains hv) in
  (* Three_appvm at this point: PrivVM 0, two AppVMs, the idle domain. *)
  checkb "the machine's domains" true (domids = [ 0; 1; 2; 1000 ]);
  let offsets = List.map (Recovery.Plan.resume_offset r1) domids in
  List.iter2
    (fun domid off ->
      checkb (Printf.sprintf "domain %d resumes within the recovery" domid)
        true
        (off > 0 && off <= r1.Recovery.Plan.latency))
    domids offsets;
  (* Only domains moved past the global phase are listed. *)
  List.iter
    (fun (domid, off) ->
      checkb (Printf.sprintf "domain %d listed past the global phase" domid)
        true
        (off > r1.Recovery.Plan.resume_global))
    r1.Recovery.Plan.resume_offsets;
  (* The whole point of sharding: some unaffected domain resumes before
     the end-to-end latency. *)
  checkb "some domain resumes early" true
    (List.exists (fun off -> off < r1.Recovery.Plan.latency) offsets)

(* Every plan reconciles by construction: the global step costs plus the
   lane makespan give the latency, the recorded spans summed by name give
   the breakdown, and no two spans on one trace track overlap -- global
   steps run on the detecting CPU's track, lane steps on their lane's, so
   a sharded recovery reads as a lane chart. *)
let test_plans_reconcile () =
  let open Obs.Span in
  List.iter
    (fun (label, config, plan) ->
      let recorder = Obs.Recorder.create () in
      let hv =
        damaged_machine ~obs:recorder ~config ~seed:5_500L
          Inject.Corrupt.Pfn_use_count_skew
      in
      let plan = plan hv ~enh:full ~detected_on:0 in
      let steps = (plan (Recovery.Plan.no_repairs ())).Recovery.Plan.steps in
      Obs.Recorder.clear recorder;
      let out = Recovery.Plan.run hv ~detected_on:0 plan in
      let spans = to_list recorder.Obs.Recorder.spans in
      let is_global s =
        List.exists
          (fun (p : Recovery.Plan.step) ->
            p.name = s.name && p.owner = Recovery.Plan.Global)
          steps
      in
      let global, lanes = List.partition is_global spans in
      let makespan =
        if lanes = [] then 0
        else
          List.fold_left (fun m s -> max m (s.start + s.duration)) min_int lanes
          - List.fold_left (fun m s -> min m s.start) max_int lanes
      in
      checki (label ^ ": global costs + makespan = latency")
        out.Recovery.Plan.latency
        (List.fold_left (fun acc s -> acc + s.duration) 0 global + makespan);
      checkb (label ^ ": spans summed by name = breakdown") true
        (span_sums recorder.Obs.Recorder.spans
        = out.Recovery.Plan.breakdown.Hyper.Latency_model.steps);
      let tracks = List.sort_uniq compare (List.map (fun s -> s.track) spans) in
      List.iter
        (fun track ->
          let on_track =
            List.sort
              (fun a b -> compare a.start b.start)
              (List.filter (fun s -> s.track = track) spans)
          in
          ignore
            (List.fold_left
               (fun prev_end s ->
                 checkb
                   (Printf.sprintf "%s: %s starts after the previous span on track %d"
                      label s.name track)
                   true (s.start >= prev_end);
                 s.start + s.duration)
               min_int on_track))
        tracks;
      if List.length lanes > 1 then
        checkb (label ^ ": shards spread over several lanes") true
          (List.length tracks > 1))
    [
      ("serial", Hyper.Config.nilihype, Recovery.Microreset.plan);
      ("serial-incremental", Hyper.Config.nilihype_incremental, Recovery.Microreset.plan);
      ("sharded-full", Hyper.Config.nilihype, Recovery.Shard.plan);
      ("sharded", Hyper.Config.nilihype_incremental, Recovery.Shard.plan);
      ("microreboot", Hyper.Config.rehype, Recovery.Microreboot.plan);
    ]

(* --------------------------- fleet scenario -------------------------- *)

let small_fleet =
  {
    Fleet.default_config with
    Fleet.tenants = 32;
    trials = 2;
    victims = 2;
    warmup_activities = 120;
  }

(* One run per mechanism, shared by the gate and report tests. *)
let small_results = lazy (List.map (Fleet.run small_fleet) Fleet.all_mechanisms)

let fleet_metrics = digest ~what:"metrics" metrics_t (fun (r : Fleet.result) -> r.metrics)

let test_fleet_jobs_invariant () =
  List.iter
    (fun mech ->
      ignore
        (jobs_invariant ~label:(Fleet.mechanism_name mech ^ ": ") ~jobs:3 fleet_metrics
           (fun ~jobs ~oversubscribe -> Fleet.run ~jobs ~oversubscribe small_fleet mech)))
    Fleet.all_mechanisms

(* The two tail-latency claims, at test scale: the incremental
   microreset recovers in at most 15% of the full scan's latency at
   reference geometry, and sharded recovery's request p99 through the
   event is strictly below serial (full-scan) recovery's. *)
let test_fleet_gates () =
  let find mech =
    List.find (fun r -> r.Fleet.mech = mech) (Lazy.force small_results)
  in
  let full_r = find Fleet.Serial_full in
  let incr_r = find Fleet.Serial_incremental in
  let shard_r = find Fleet.Sharded in
  List.iter
    (fun r ->
      checki
        (Fleet.mechanism_name r.Fleet.mech ^ ": requests = histogram samples")
        (Fleet.requests r) (Fleet.request_samples r);
      checki
        (Fleet.mechanism_name r.Fleet.mech ^ ": one recovery per trial")
        small_fleet.Fleet.trials
        (Fleet.scan_incremental r + Fleet.scan_full r))
    [ full_r; incr_r; shard_r ];
  checki "serial-full takes the full scan every trial" small_fleet.Fleet.trials
    (Fleet.scan_full full_r);
  checki "serial-incremental takes the dirty path every trial"
    small_fleet.Fleet.trials
    (Fleet.scan_incremental incr_r);
  let fm = Fleet.recovery_mean_ns full_r in
  let im = Fleet.recovery_mean_ns incr_r in
  checkb
    (Printf.sprintf "incremental mean %d <= 15%% of full mean %d" im fm)
    true
    (im * 100 <= fm * 15);
  let p99f = Fleet.request_quantile full_r 0.99 in
  let p99s = Fleet.request_quantile shard_r 0.99 in
  checkb
    (Printf.sprintf "sharded p99 %d < serial-full p99 %d" p99s p99f)
    true (p99s < p99f);
  checkb "full-scan stall violates the SLO somewhere" true
    (Fleet.slo_violations full_r > 0);
  checki "sharded recovery stays inside the SLO" 0
    (Fleet.slo_violations shard_r)

(* [fleet.max_gap_ns] is the longest silence a tenant's ping sender
   sees inside the window: at most the longest stall plus the two
   request intervals around it, and under serial recovery, which stalls
   every tenant for the whole latency, at least that latency. *)
let test_max_gap_is_a_gap () =
  List.iter
    (fun r ->
      let name = Fleet.mechanism_name r.Fleet.mech in
      let gap = Fleet.max_gap_ns r and rec_max = Fleet.recovery_max_ns r in
      let iv = small_fleet.Fleet.request_interval in
      checkb
        (Printf.sprintf "%s: max gap %d <= recovery max %d + 2 intervals" name
           gap rec_max)
        true
        (gap <= rec_max + (2 * iv));
      match r.Fleet.mech with
      | Fleet.Serial_full | Fleet.Serial_incremental ->
        checkb
          (Printf.sprintf "%s: max gap %d >= recovery max %d" name gap rec_max)
          true (gap >= rec_max)
      | Fleet.Sharded -> ())
    (Lazy.force small_results)

(* A worker boots once and restores its base image for every trial, of
   any mechanism: each restored trial, in an order that interleaves the
   mechanisms, equals a trial on a machine freshly booted for its own
   mechanism with the same seed, a repeated seed repeats its trial, and
   the ledger after every restore is the one captured at the base
   image. *)
let trial_metrics = digest metrics_t Fun.id

let test_restore_equals_fresh_boot () =
  let w = Fleet.worker small_fleet in
  let base = Hyper.Ledger.capture w.Fleet.w_hv in
  let seen = Hashtbl.create 8 in
  fresh_equals_restore trial_metrics
    (List.map
       (fun (mech, seed) ->
         let name = Printf.sprintf "%s seed %Ld" (Fleet.mechanism_name mech) seed in
         ( name,
           (fun () -> Fleet.run_trial small_fleet mech ~seed),
           fun () ->
             let s = Fleet.trial w small_fleet mech ~seed in
             (match Hashtbl.find_opt seen (mech, seed) with
             | Some first ->
               checkb (name ^ ": a repeated seed repeats its trial") true (s = first)
             | None -> Hashtbl.add seen (mech, seed) s);
             Fleet.rewind w mech;
             checkb (name ^ ": ledger after restore = base") true
               (Hyper.Ledger.capture w.Fleet.w_hv = base);
             s ))
       Fleet.
         [
           (Sharded, 7_100L); (Serial_full, 7_100L); (Serial_incremental, 7_200L);
           (Sharded, 7_200L); (Serial_full, 7_200L); (Serial_incremental, 7_100L);
           (Sharded, 7_100L); (Serial_full, 7_100L);
         ])

let fleet_200 = { Fleet.default_config with Fleet.tenants = 200 }

(* Host words of one warm 200-tenant worker that serves every
   mechanism: a restored trial allocates at most 20k words, and the
   recovery inside it at most 1.5k serial or 2.5k sharded -- neither
   grows with the tenant count by a list or an image record per
   domain. *)
let test_trial_word_ceilings () =
  let cfg = fleet_200 in
  let worst f = List.fold_left (fun m seed -> Float.max m (allocated_words (f seed))) 0. [ 2L; 3L; 4L ] in
  let w = Fleet.worker cfg in
  List.iter (fun mech -> ignore (Fleet.trial w cfg mech ~seed:1L)) Fleet.all_mechanisms;
  List.iter
    (fun mech ->
      let name = Fleet.mechanism_name mech in
      let trial = worst (fun seed () -> Fleet.trial w cfg mech ~seed) in
      checkb (Printf.sprintf "%s: restored trial %.0f words <= 20k" name trial) true
        (trial <= 20_000.);
      (* The fault is injected before the measurement starts. *)
      let recovery =
        worst (fun seed ->
            Fleet.inject w cfg mech (Sim.Rng.create seed);
            fun () -> Fleet.recover w mech)
      in
      let ceiling = match mech with Fleet.Sharded -> 2_500. | _ -> 1_500. in
      checkb
        (Printf.sprintf "%s: recovery %.0f words <= %.0f" name recovery ceiling)
        true (recovery <= ceiling))
    Fleet.all_mechanisms

(* The whole warm call: once the pool holds a 200-tenant machine,
   [Fleet.run ~jobs:1] over all three mechanisms allocates at most 16k
   words per trial, boot, metrics and pool bookkeeping included
   (13.8k measured: each trial folds its metrics in place and a call
   takes one snapshot; 16.6k when every trial took a snapshot and
   merged it). *)
let test_warm_run_word_ceiling () =
  let cfg = { fleet_200 with Fleet.trials = 3 } in
  ignore (Fleet.run ~jobs:1 cfg Fleet.Sharded);
  let total =
    allocated_words (fun () ->
        List.iter
          (fun mech -> ignore (Fleet.run ~jobs:1 cfg mech))
          Fleet.all_mechanisms)
  in
  let per_trial = total /. float_of_int (3 * cfg.Fleet.trials) in
  checkb (Printf.sprintf "warm call %.0f words per trial <= 16k" per_trial) true
    (per_trial <= 16_000.)

(* --------------------------- the worker pool ------------------------ *)

(* The fresh-boot reference for a [Fleet.run cfg mech] call: one
   [run_trial] per seed, merged. *)
let fresh_fold (cfg : Fleet.config) mech =
  List.fold_left
    (fun acc i ->
      Obs.Metrics.merge_snapshots acc
        (Fleet.run_trial cfg mech
           ~seed:(Int64.add cfg.Fleet.base_seed (Int64.of_int i))))
    Obs.Metrics.empty_snapshot
    (List.init cfg.Fleet.trials Fun.id)

(* [small_fleet] on the [k]th other block of trial seeds. *)
let reseeded k =
  {
    small_fleet with
    Fleet.base_seed = Int64.add small_fleet.Fleet.base_seed (Int64.of_int (1_000 * k));
  }

(* A pool warmed by another mechanism and other seeds serves every
   mechanism, in an order that interleaves them, with the results of
   fresh boots, serial and on two worker domains. *)
let test_pool_equals_fresh_boot () =
  ignore (Fleet.run ~jobs:2 ~oversubscribe:true (reseeded 9) Fleet.Serial_incremental);
  fresh_equals_restore trial_metrics
    (List.concat
       (List.mapi
          (fun k mech ->
            let cfg = reseeded k in
            let want = lazy (fresh_fold cfg mech) in
            List.map
              (fun jobs ->
                ( Printf.sprintf "call %d, %s, jobs %d: warm pool" k
                    (Fleet.mechanism_name mech) jobs,
                  (fun () -> Lazy.force want),
                  fun () -> (Fleet.run ~jobs ~oversubscribe:true cfg mech).Fleet.metrics ))
              [ 1; 2 ])
          Fleet.[ Sharded; Serial_full; Serial_incremental; Sharded ]))

(* Once the pool holds a machine per slot, calls for every mechanism and
   other seeds boot nothing: a key change empties the pool, the first
   serial call boots slot 0 and no later serial call boots again; calls
   on two worker domains boot slot 1 at most once more. *)
let test_pool_boots_once () =
  ignore (Fleet.run { small_fleet with Fleet.tenants = 8; trials = 1 } Fleet.Sharded);
  let b0 = Fleet.boots () in
  let calls ~jobs =
    List.iteri
      (fun k mech ->
        ignore (Fleet.run ~jobs ~oversubscribe:true (reseeded k) mech))
      (Fleet.all_mechanisms @ Fleet.all_mechanisms)
  in
  calls ~jobs:1;
  checki "six serial calls after a key change boot one machine" (b0 + 1)
    (Fleet.boots ());
  calls ~jobs:2;
  checkb "calls on two domains boot one more machine at most" true
    (Fleet.boots () <= b0 + 2);
  let b1 = Fleet.boots () in
  calls ~jobs:1;
  checki "serial calls after them boot nothing" b1 (Fleet.boots ())

(* A call with other tenants or another request cadence rebuilds the
   pool, and a call back on the first key rebuilds it again: each boots
   its slot and gives the fresh boots' results. *)
let test_pool_key_change () =
  ignore (Fleet.run small_fleet Fleet.Sharded);
  List.iter
    (fun (name, cfg) ->
      let b = Fleet.boots () in
      let r = Fleet.run cfg Fleet.Serial_full in
      checki (name ^ ": boots the slot again") (b + 1) (Fleet.boots ());
      checkb (name ^ ": equals fresh boots") true
        (r.Fleet.metrics = fresh_fold cfg Fleet.Serial_full))
    [
      ("20 tenants", { small_fleet with Fleet.tenants = 20 });
      ("300 us cadence", { small_fleet with Fleet.request_interval = Sim.Time.us 300 });
      ("back to the first key", small_fleet);
    ]

(* Two callers at once, each on its own domain: one holds the pool, the
   other finds it busy and boots private workers (or takes the pool
   after the first call has released it). Both get the serial
   results. *)
let test_pool_concurrent_callers () =
  let want =
    List.map (fun mech -> (Fleet.run small_fleet mech).Fleet.metrics) Fleet.all_mechanisms
  in
  let ready = Atomic.make 0 in
  let caller () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    List.map (fun mech -> (Fleet.run small_fleet mech).Fleet.metrics) Fleet.all_mechanisms
  in
  let a = Domain.spawn caller in
  let b = Domain.spawn caller in
  let ra = Domain.join a and rb = Domain.join b in
  checkb "first caller gets the serial results" true (ra = want);
  checkb "second caller gets the serial results" true (rb = want)

(* A non-positive request interval would never end a trial's arrival
   loop, and a negative window is no window: both entry points refuse
   such a config before running a trial. *)
let rejects_config bad () =
  let cfg = bad { small_fleet with Fleet.tenants = 2; trials = 1; victims = 1 } in
  checkb "Fleet.run raises Invalid_argument" true
    (refuses (fun () -> Fleet.run cfg Fleet.Sharded));
  checkb "Fleet.run_trial raises Invalid_argument" true
    (refuses (fun () -> Fleet.run_trial cfg Fleet.Sharded ~seed:1L))

(* ----------------------- batched accounting -------------------------- *)

(* The request accounting as one loop over requests: a service draw, an
   observation and a sender tick or stall each, every instrument looked
   up by name. [Fleet.trial]'s per-tenant accounting must leave exactly
   the metrics this does. *)
let reference_account (w : Fleet.worker) (cfg : Fleet.config) rng ~fault_time
    (out : Recovery.Plan.outcome) =
  let m = w.Fleet.w_hv.Hyper.Hypervisor.obs.Obs.Recorder.metrics in
  let requests_c = Obs.Metrics.counter m "fleet.requests" in
  let stalled_c = Obs.Metrics.counter m "fleet.requests_stalled" in
  let violations_c = Obs.Metrics.counter m "fleet.slo_violations" in
  let failed_c = Obs.Metrics.counter m "fleet.tenants_failed" in
  let lost_c = Obs.Metrics.counter m "fleet.net_lost" in
  let req_h =
    Obs.Metrics.log_histogram m "fleet.request_ns" ~lo:(Sim.Time.us 1)
      ~hi:(Sim.Time.ms 100)
  in
  let gap_max = Obs.Metrics.gauge m "fleet.max_gap_ns" in
  for t = 0 to cfg.Fleet.tenants - 1 do
    let stall = Recovery.Plan.resume_offset out (t + 1) in
    let stall_end = fault_time + stall in
    let net = Guest.Netstack.create ~interval:cfg.Fleet.request_interval () in
    Guest.Netstack.reset net ~now:(fault_time - cfg.Fleet.pre_window);
    let phase = Sim.Rng.int rng (max 1 cfg.Fleet.request_interval) in
    let arrival = ref (fault_time - cfg.Fleet.pre_window + phase) in
    while !arrival <= fault_time + cfg.Fleet.post_window do
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
      if lat > cfg.Fleet.slo then Obs.Metrics.incr violations_c;
      arrival := a + cfg.Fleet.request_interval
    done;
    Guest.Netstack.interruption net ~now:fault_time ~duration:stall;
    if Guest.Netstack.failed net then Obs.Metrics.incr failed_c;
    Obs.Metrics.incr ~by:(net.Guest.Netstack.sent - net.Guest.Netstack.echoed)
      lost_c;
    if net.Guest.Netstack.max_gap > gap_max.Obs.Metrics.value then
      Obs.Metrics.set gap_max net.Guest.Netstack.max_gap
  done

let reference_trial w cfg mech ~seed =
  let rng = Sim.Rng.create seed in
  let fault_time, out = Fleet.recover_event w cfg mech rng in
  reference_account w cfg rng ~fault_time out;
  Obs.Recorder.metrics_snapshot w.Fleet.w_hv.Hyper.Hypervisor.obs

(* Whole metric snapshots, [Fleet.trial] against the reference, for
   every mechanism: four seeds at the default windows, then one seed
   each where unstalled requests violate the SLO, where the window
   opens at the fault, where it closes before serial-full's ~22 ms
   stall ends, and where a request arrives every nanosecond, so some
   arrive exactly at the fault, at the tenant's resume and at the
   window's end. *)
let test_batched_equals_reference () =
  let base =
    {
      Fleet.default_config with
      Fleet.tenants = 24;
      trials = 1;
      victims = 2;
      warmup_activities = 120;
    }
  in
  let cases =
    [
      ("default", base, [ 11L; 12L; 13L; 14L ]);
      ("slo 100us", { base with Fleet.slo = Sim.Time.us 100 }, [ 21L ]);
      ("pre_window 0", { base with Fleet.pre_window = 0 }, [ 31L ]);
      ( "post_window 10ms",
        { base with Fleet.post_window = Sim.Time.ms 10 },
        [ 41L ] );
      ( "1 ns cadence",
        {
          base with
          Fleet.tenants = 2;
          victims = 1;
          request_interval = 1;
          pre_window = 3;
          post_window = Sim.Time.ms 1;
        },
        [ 51L ] );
    ]
  in
  List.iter
    (fun mech ->
      List.iter
        (fun (name, cfg, seeds) ->
          let w = Fleet.worker cfg in
          List.iter
            (fun seed ->
              let got = Fleet.trial w cfg mech ~seed in
              let want = reference_trial w cfg mech ~seed in
              if got <> want then
                Alcotest.failf "%s, %s, seed %Ld: batched %a@.reference %a"
                  (Fleet.mechanism_name mech) name seed Obs.Metrics.pp_snapshot
                  got Obs.Metrics.pp_snapshot want;
              let r =
                {
                  Fleet.mech;
                  tenants = cfg.Fleet.tenants;
                  trials = 1;
                  metrics = got;
                }
              in
              checkb
                (Printf.sprintf "%s, %s: some requests stalled"
                   (Fleet.mechanism_name mech) name)
                true
                (Fleet.requests_stalled r > 0);
              if cfg.Fleet.slo < Sim.Time.us 230 then
                checkb
                  (Printf.sprintf "%s, %s: unstalled requests violate the SLO"
                     (Fleet.mechanism_name mech) name)
                  true
                  (Fleet.slo_violations r > Fleet.requests_stalled r))
            seeds)
        cases)
    Fleet.all_mechanisms

(* --------------------------- nlh-fleet/1 ----------------------------- *)

let report_file = lazy (Fleet.to_json small_fleet (Lazy.force small_results))

let test_report_round_trip () =
  let results = Lazy.force small_results in
  checkb "decodes to the report it was written from" true
    (Fleet.of_string (Lazy.force report_file) = Ok (Fleet.report small_fleet results))

(* Each edit of the first entry (serial-full) breaks one invariant the
   decoder checks. *)
let test_report_rejects_inconsistent () =
  let r = List.hd (Lazy.force small_results) in
  let field k v = Printf.sprintf "%S:%d" k v in
  let set k v into = (field k v, field k into) in
  let requests = Fleet.requests r in
  List.iter
    (fun (what, edit) ->
      checkb what true
        (Result.is_error (Fleet.of_string (replace_first (Lazy.force report_file) edit))))
    [
      ("wrong schema", ({|"nlh-fleet/1"|}, {|"nlh-fleet/2"|}));
      ("no trials", set "trials" small_fleet.Fleet.trials 0);
      ("unknown mechanism", ({|"serial-full"|}, {|"serial-half"|}));
      ("duplicate mechanism", ({|"sharded"|}, {|"serial-full"|}));
      ("samples <> requests", set "samples" requests (requests + 1));
      ("stalled > requests", set "stalled" (Fleet.requests_stalled r) (requests + 1));
      ( "SLO violations > requests",
        set "slo_violations" (Fleet.slo_violations r) (requests + 1) );
      ("negative count", set "net_lost" (Fleet.net_lost r) (-1));
      ( "quantiles out of order",
        set "request_p50_ns" (Fleet.request_quantile r 0.50)
          (Fleet.request_quantile r 0.99 + 1) );
      ( "recovery mean above max",
        set "recovery_ns_mean" (Fleet.recovery_mean_ns r)
          (Fleet.recovery_max_ns r + 1) );
      ("scans <> trials", set "scan_full" (Fleet.scan_full r) (Fleet.scan_full r + 1));
    ]

(* --------------------- coverage and fuzz axes ------------------------ *)

(* The recovery path taken is a fuzz coverage point: the scan counters
   land in the metrics snapshot, and [Obs.Coverage.points] derives
   c:<counter>:<bucket> points from nonzero counters. *)
let test_scan_path_is_coverage_point () =
  let recorder = Obs.Recorder.create () in
  let hv = boot ~config:Hyper.Config.nilihype_incremental ~obs:recorder () in
  let rng = Sim.Rng.create 3_300L in
  warmup hv rng ~steps:60;
  ignore (Hyper.Hypervisor.snapshot hv);
  Inject.Corrupt.apply hv rng Inject.Corrupt.Pfn_validated_flip;
  (match recover_outcome hv with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "recovery died: %s" e);
  let points =
    Obs.Coverage.points ~outcome:"recovered"
      (Obs.Recorder.metrics_snapshot recorder)
  in
  let has prefix =
    List.exists
      (fun p ->
        String.length p >= String.length prefix
        && String.sub p 0 (String.length prefix) = prefix)
      points
  in
  checkb "incremental scan path covered" true
    (has "c:recovery.pfn_scan.incremental:");
  checkb "full scan path not taken" false (has "c:recovery.pfn_scan.full:")

(* Fuzz op tag 4 carries the recovery-path axis in its spare arg bits:
   bit 2 of the argument toggles [p_incremental], and [config_of]
   propagates it into the run's hypervisor config. *)
let test_fuzz_incremental_axis () =
  let base_seed = 5_000L in
  let op ~arg = (arg lsl 3) lor 4 in
  (* args 6 and 0: same crash mode (arg mod 3 = 0), bit 2 differs *)
  let on = Fuzz.Input.apply ~base_seed [ op ~arg:0b110 ] in
  let off = Fuzz.Input.apply ~base_seed [ op ~arg:0b000 ] in
  checkb "bit 2 set turns the incremental scan on" true
    on.Fuzz.Input.p_incremental;
  checkb "bit 2 clear leaves it off" false off.Fuzz.Input.p_incremental;
  checki "crash mode decodes from the same op" on.Fuzz.Input.p_crash
    off.Fuzz.Input.p_crash;
  checkb "the axis is part of the point identity" false
    (Fuzz.Input.point_key on = Fuzz.Input.point_key off);
  let base = Inject.Run.default_config in
  let con = Fuzz.Input.config_of ~base on in
  let coff = Fuzz.Input.config_of ~base off in
  checkb "config_of turns the scan on" true
    con.Inject.Run.hv_config.Hyper.Config.incremental_scan;
  checkb "config_of leaves the scan off" false
    coff.Inject.Run.hv_config.Hyper.Config.incremental_scan

(* ----------------- dirty-tracked heap and timer restore ------------- *)

let test_heap_dirty_restore () =
  let h = Hyper.Heap.create () in
  let keep = Hyper.Heap.alloc h Hyper.Heap.Generic in
  Hyper.Heap.snapshot h;
  checki "snapshot drains the dirty list" 0 (Hyper.Heap.dirty_count h);
  let tmp = Hyper.Heap.alloc h ~size:128 Hyper.Heap.Timer_data in
  Hyper.Heap.free h keep;
  Hyper.Heap.corrupt_header tmp;
  Hyper.Heap.corrupt_freelist h "test";
  checkb "mutations land on the dirty list" true (Hyper.Heap.dirty_count h > 0);
  Hyper.Heap.restore h;
  checki "restore rewinds to the golden population" 1 (Hyper.Heap.live_count h);
  checkb "freed object live again" true keep.Hyper.Heap.live;
  checkb "allocated object gone" false tmp.Hyper.Heap.live;
  checkb "freelist integrity restored" true (Hyper.Heap.freelist_ok h);
  checki "restore drains the dirty list" 0 (Hyper.Heap.dirty_count h)

let test_timer_dirty_restore () =
  let t = Hyper.Timer_heap.create () in
  ignore (Hyper.Timer_heap.add t ~deadline:500 Hyper.Timer_heap.Watchdog_tick);
  Hyper.Timer_heap.snapshot t;
  let size0 = Hyper.Timer_heap.size t in
  ignore (Hyper.Timer_heap.add t ~deadline:100 Hyper.Timer_heap.Watchdog_tick);
  ignore (Hyper.Timer_heap.pop t);
  Hyper.Timer_heap.corrupt_structure t;
  checkb "mutations land on the dirty list" true
    (Hyper.Timer_heap.dirty_count t > 0);
  Hyper.Timer_heap.restore t;
  checki "size restored" size0 (Hyper.Timer_heap.size t);
  checkb "structure integrity restored" true (Hyper.Timer_heap.structure_ok t);
  checki "restore drains the dirty list" 0 (Hyper.Timer_heap.dirty_count t);
  match Hyper.Timer_heap.next_deadline t with
  | Some d -> checki "golden deadline back at the root" 500 d
  | None -> Alcotest.fail "restored heap is empty"

(* Restores must leak nothing: after a snapshot -> damage -> restore
   round trip the resource ledger is identical to the golden capture and
   every frame, heap object and queued timer is back element by element,
   whatever the workload dirtied in between. *)
let test_restore_zero_leak () =
  let hv = boot ~config:Hyper.Config.nilihype_incremental () in
  let rng = Sim.Rng.create 6_600L in
  warmup hv rng ~steps:100;
  let image = Hyper.Hypervisor.snapshot hv in
  let before = Hyper.Ledger.capture hv and stores = Stores.dump hv in
  warmup hv rng ~steps:60;
  Inject.Corrupt.apply hv rng Inject.Corrupt.Pfn_use_count_skew;
  Inject.Corrupt.apply hv rng Inject.Corrupt.Timer_deadline;
  Hyper.Hypervisor.restore hv image;
  let after = Hyper.Ledger.capture hv in
  let d = Hyper.Ledger.diff ~before ~after in
  Stores.check "restore rewinds every element" ~expected:stores (Stores.dump hv);
  checkb "no resource leaked across restore" true (Hyper.Ledger.no_leak d);
  checki "no pages leaked" 0 (Hyper.Ledger.leaked_pages d);
  checki "pfn dirty list drained" 0
    (Hyper.Pfn.dirty_count hv.Hyper.Hypervisor.pfn);
  checki "heap dirty list drained" 0
    (Hyper.Heap.dirty_count hv.Hyper.Hypervisor.heap);
  checki "timer dirty list drained" 0
    (Hyper.Timer_heap.dirty_count hv.Hyper.Hypervisor.timers)

let () =
  Alcotest.run "fleet"
    [
      ( "equivalence",
        [
          Alcotest.test_case "fresh vs incremental across the catalogue"
            `Quick test_equivalence_matrix;
          Alcotest.test_case "full-scan fallback after died" `Quick
            (fallback_after_died recover_outcome);
          Alcotest.test_case "sharded full-scan fallback after died" `Quick
            (fallback_after_died shard_outcome);
          Alcotest.test_case "incremental audit equals full audit" `Quick
            test_audit_matrix;
          Alcotest.test_case "scan step clears the full fold" `Quick
            test_scan_step_clears_fold;
          Alcotest.test_case "audit exact after died recovery" `Quick
            test_audit_after_died;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "sharded state equals serial" `Quick
            test_sharded_equals_serial;
          Alcotest.test_case "deterministic, early resume offsets" `Quick
            test_sharded_deterministic;
          Alcotest.test_case "plans reconcile by construction" `Quick
            test_plans_reconcile;
          Alcotest.test_case "sharded equals serial under a full scan" `Quick
            test_sharded_equals_serial_full_scan;
          Alcotest.test_case "full-scan shard word ceiling" `Quick
            test_sharded_full_scan_words;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "aggregates jobs-invariant" `Quick
            test_fleet_jobs_invariant;
          Alcotest.test_case "latency gates hold at test scale" `Quick
            test_fleet_gates;
          Alcotest.test_case "restored trials equal fresh boots" `Quick
            test_restore_equals_fresh_boot;
          Alcotest.test_case "trial and recovery word ceilings" `Quick
            test_trial_word_ceilings;
          Alcotest.test_case "zero request interval rejected" `Quick
            (rejects_config (fun c -> { c with Fleet.request_interval = 0 }));
          Alcotest.test_case "negative pre_window rejected" `Quick
            (rejects_config (fun c -> { c with Fleet.pre_window = -1 }));
          Alcotest.test_case "negative post_window rejected" `Quick
            (rejects_config (fun c -> { c with Fleet.post_window = -1 }));
          Alcotest.test_case "batched accounting equals per-request loop"
            `Quick test_batched_equals_reference;
          Alcotest.test_case "max gap is a gap, not time since boot" `Quick
            test_max_gap_is_a_gap;
        ] );
      ( "pool",
        [
          Alcotest.test_case "warm pool equals fresh boots" `Quick
            test_pool_equals_fresh_boot;
          Alcotest.test_case "warm pool boots no machine" `Quick
            test_pool_boots_once;
          Alcotest.test_case "key change rebuilds the pool" `Quick
            test_pool_key_change;
          Alcotest.test_case "concurrent callers get serial results" `Quick
            test_pool_concurrent_callers;
          Alcotest.test_case "warm call word ceiling" `Quick
            test_warm_run_word_ceiling;
        ] );
      ( "report",
        [
          Alcotest.test_case "round trip" `Quick test_report_round_trip;
          Alcotest.test_case "inconsistent reports rejected" `Quick
            test_report_rejects_inconsistent;
        ]
        @ damage [ file "" report_file Fleet.of_string ] );
      ( "coverage",
        [
          Alcotest.test_case "scan path is a coverage point" `Quick
            test_scan_path_is_coverage_point;
          Alcotest.test_case "fuzz tag-4 incremental axis" `Quick
            test_fuzz_incremental_axis;
        ] );
      ( "dirty-tracking",
        [
          Alcotest.test_case "heap dirty restore" `Quick test_heap_dirty_restore;
          Alcotest.test_case "timer dirty restore" `Quick
            test_timer_dirty_restore;
          Alcotest.test_case "zero-leak restore audit" `Quick
            test_restore_zero_leak;
        ] );
    ]
