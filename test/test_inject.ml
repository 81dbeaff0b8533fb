(* Tests for the fault injector: manifestation profiles, corruption
   application, single runs and campaign aggregation. *)

open Contract

(* ------------------------- Profiles --------------------------------- *)

let weights_sum_to_one dist =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 dist in
  abs_float (total -. 1.0) < 1e-9

let test_profile_weights_normalised () =
  checkb "register" true (weights_sum_to_one Inject.Profile.register_distribution);
  checkb "code" true (weights_sum_to_one Inject.Profile.code_distribution);
  checkb "targets" true (weights_sum_to_one Inject.Profile.corruption_targets)

let test_failstop_always_crashes () =
  let rng = Sim.Rng.create 1L in
  for _ = 1 to 50 do
    let m = Inject.Profile.sample_manifestation rng Inject.Fault.Failstop in
    checkb "panic" true (m.Inject.Profile.crash_now = `Panic);
    checki "no corruption" 0 m.Inject.Profile.corruptions
  done

let test_register_mostly_benign () =
  let rng = Sim.Rng.create 2L in
  let benign = ref 0 in
  let n = 5000 in
  for _ = 1 to n do
    let m = Inject.Profile.sample_manifestation rng Inject.Fault.Register in
    if m = Inject.Profile.no_effect then incr benign
  done;
  let p = float_of_int !benign /. float_of_int n in
  (* Paper: 74.8% of register faults are non-manifested. *)
  checkb "about 73.5%" true (p > 0.70 && p < 0.77)

let test_code_more_aggressive_than_register () =
  let rng = Sim.Rng.create 3L in
  let count fault =
    let n = 5000 and c = ref 0 in
    for _ = 1 to n do
      let m = Inject.Profile.sample_manifestation rng fault in
      if m.Inject.Profile.crash_now <> `No then incr c
    done;
    float_of_int !c /. float_of_int n
  in
  let reg = count Inject.Fault.Register and code = count Inject.Fault.Code in
  checkb "code faults crash more often" true (code > (2.0 *. reg))

let test_campaign_sizes_match_paper () =
  checki "failstop" 1000 (Inject.Fault.paper_campaign_size Inject.Fault.Failstop);
  checki "register" 5000 (Inject.Fault.paper_campaign_size Inject.Fault.Register);
  checki "code" 2000 (Inject.Fault.paper_campaign_size Inject.Fault.Code)

(* ------------------------- Corruption targets ----------------------- *)

let test_corrupt_pfn_validated () =
  let hv = boot () in
  let rng = Sim.Rng.create 4L in
  let before = Hyper.Pfn.count_inconsistent hv.Hyper.Hypervisor.pfn in
  (* Flipping the validation bit of an in-use frame usually creates an
     inconsistency or a latent hazard; apply a few to be sure state
     changed. *)
  for _ = 1 to 5 do
    Inject.Corrupt.apply hv rng Inject.Corrupt.Pfn_validated_flip
  done;
  let after = Hyper.Pfn.count_inconsistent hv.Hyper.Hypervisor.pfn in
  checkb "pfn state perturbed" true (after >= before)

let test_corrupt_sched_breaks_audit () =
  let hv = boot () in
  let rng = Sim.Rng.create 5L in
  let broke = ref false in
  for _ = 1 to 10 do
    Inject.Corrupt.apply hv rng Inject.Corrupt.Sched_metadata;
    if not (Hyper.Hypervisor.sched_consistent hv) then broke := true
  done;
  checkb "sched audit eventually broken" true !broke

let test_corrupt_heap_freelist () =
  let hv = boot () in
  let rng = Sim.Rng.create 6L in
  Inject.Corrupt.apply hv rng Inject.Corrupt.Heap_freelist;
  checkb "freelist corrupt" false (Hyper.Heap.freelist_ok hv.Hyper.Hypervisor.heap)

let test_corrupt_recovery_handler () =
  let hv = boot () in
  let rng = Sim.Rng.create 7L in
  Inject.Corrupt.apply hv rng Inject.Corrupt.Recovery_handler;
  checkb "handler corrupt" false hv.Hyper.Hypervisor.recovery_handler_ok

let test_corrupt_privvm () =
  let hv = boot () in
  let rng = Sim.Rng.create 8L in
  Inject.Corrupt.apply hv rng Inject.Corrupt.Privvm_critical;
  checkb "privvm failed" true (Hyper.Hypervisor.privvm hv).Hyper.Domain.guest_failed

let test_corrupt_guest_frame_hits_app_only () =
  let hv = boot () in
  let rng = Sim.Rng.create 9L in
  for _ = 1 to 20 do
    Inject.Corrupt.apply hv rng Inject.Corrupt.Guest_frame
  done;
  checkb "privvm untouched" false (Hyper.Hypervisor.privvm hv).Hyper.Domain.guest_failed;
  checkb "some app VM hit" true
    (List.exists Hyper.Domain.affected (Doms.app_domains hv))

(* ------------------------- Single runs ------------------------------ *)

let test_run_failstop_detected () =
  match Inject.Run.run (run_cfg ()) with
  | Inject.Run.Detected d ->
    checkb "latency recorded" true (d.Inject.Run.recovery_latency > 0)
  | Inject.Run.Non_manifested | Inject.Run.Silent_corruption ->
    Alcotest.fail "failstop must be detected"

let test_run_deterministic () =
  let a = Inject.Run.run (run_cfg ~seed:123L ()) in
  let b = Inject.Run.run (run_cfg ~seed:123L ()) in
  checkb "same seed, same outcome" true
    (Inject.Run.outcome_class a = Inject.Run.outcome_class b);
  match (a, b) with
  | Inject.Run.Detected da, Inject.Run.Detected db ->
    checkb "same success" true (da.Inject.Run.success = db.Inject.Run.success)
  | _ -> ()

let test_run_no_recovery_always_fails () =
  let cfg = run_cfg ~mech:Inject.Run.No_recovery () in
  match Inject.Run.run cfg with
  | Inject.Run.Detected d ->
    checkb "not recovered" false d.Inject.Run.recovered;
    checkb "not a success" false d.Inject.Run.success
  | _ -> Alcotest.fail "failstop must be detected"

let test_run_register_spectrum () =
  (* Register faults produce all three outcome classes across seeds. *)
  let nm = ref 0 and sdc = ref 0 and det = ref 0 in
  for i = 0 to 119 do
    match Inject.Run.run (run_cfg ~fault:Inject.Fault.Register ~seed:(Int64.of_int i) ()) with
    | Inject.Run.Non_manifested -> incr nm
    | Inject.Run.Silent_corruption -> incr sdc
    | Inject.Run.Detected _ -> incr det
  done;
  checkb "some non-manifested" true (!nm > 0);
  checkb "some detected" true (!det > 0);
  checkb "non-manifested dominates" true (!nm > !det)

let test_run_faulting_only_scope_worse () =
  let n = 60 in
  let count scope =
    let ok = ref 0 in
    for i = 0 to n - 1 do
      let cfg =
        { (run_cfg ~seed:(Int64.of_int (1000 + i)) ()) with Inject.Run.discard_scope = scope }
      in
      match Inject.Run.run cfg with
      | Inject.Run.Detected d when d.Inject.Run.success -> incr ok
      | _ -> ()
    done;
    !ok
  in
  let all = count Inject.Run.Scope_all_threads in
  let one = count Inject.Run.Scope_faulting_only in
  checkb "discarding all threads recovers more" true (all > one)

(* A vCPU that recovery left with clobbered FS/GS bases crashes its
   guest's processes once the guests resume, so Run's outcome counts
   that AppVM as affected while the platform stays healthy. *)
let test_run_fsgs_loss_affects_app_vm () =
  let st = Inject.Run.boot_state (run_cfg ~seed:21L ()) in
  let initial_app_domids = Inject.Run.warmup_prepared st in
  let affected () = Inject.Run.count_affected_app_vms st ~initial_app_domids in
  let hv = st.Inject.Run.hv in
  Inject.Run.enter_detection_context st;
  ignore
    (Recovery.Engine.recover Recovery.Engine.Nilihype hv
       ~enh:Recovery.Enhancement.full_set ~detected_on:0);
  checki "no AppVM affected by a clean recovery" 0 (affected ());
  let v = Hyper.Domain.vcpu (Option.get (Hyper.Hypervisor.domain hv 1)) 0 in
  v.Hyper.Domain.fsgs_valid <- false;
  let h =
    Inject.Run.post_recovery_phase st
      ~settle:st.Inject.Run.cfg.Inject.Run.post_activities ~new_vm_probe:true
  in
  checkb "platform healthy" true (h.Inject.Run.failure = None);
  checkb "new VM created" true h.Inject.Run.probe_ok;
  checki "one AppVM affected" 1 (affected ())

(* ------------------------- Campaign --------------------------------- *)

let test_campaign_aggregation () =
  let r = Inject.Campaign.run ~n:25 (run_cfg ()) in
  checki "25 runs" 25 r.Inject.Campaign.totals.Inject.Campaign.runs;
  checki "all detected" 25 r.Inject.Campaign.totals.Inject.Campaign.detected;
  let rate = Sim.Stats.rate (Inject.Campaign.success_rate r) in
  checkb "rate within [0,1]" true (rate >= 0.0 && rate <= 1.0)

let test_campaign_distinct_seeds () =
  (* Different base seeds must not produce identical run streams. *)
  let a = Inject.Campaign.run ~base_seed:1L ~n:40 (run_cfg ~fault:Inject.Fault.Register ()) in
  let b = Inject.Campaign.run ~base_seed:50_000L ~n:40 (run_cfg ~fault:Inject.Fault.Register ()) in
  (* Weak check: outcome mixes may differ; totals must both be 40. *)
  checki "a runs" 40 a.Inject.Campaign.totals.Inject.Campaign.runs;
  checki "b runs" 40 b.Inject.Campaign.totals.Inject.Campaign.runs

let test_campaign_novmf_le_success () =
  let r =
    Inject.Campaign.run ~n:60 (run_cfg ~fault:Inject.Fault.Code ~seed:9L ())
  in
  checkb "noVMF <= Success" true
    (r.Inject.Campaign.totals.Inject.Campaign.no_vmf
     <= r.Inject.Campaign.totals.Inject.Campaign.successes)

(* ------------------------- Latency report --------------------------- *)

(* nlh-latency/2 documents: the analytic latencies alone, and with a
   small failstop campaign's payload under "empirical" (fan-out 2, so
   the embedded fanout is not the default). *)
let latency_campaign =
  lazy (Inject.Campaign.run ~fanout:2 ~n:4 (run_cfg ()))

let latency_report ?empirical () =
  Inject.Latency_report.to_json
    ~meta:[ ("tool", `String "test_inject"); ("mem_gb", `Int 8) ]
    ~nilihype_ns:21_971_520 ~rehype_ns:712_251_152 ~empirical

let analytic_report = lazy (latency_report ())
let empirical_report = lazy (latency_report ~empirical:(2, Lazy.force latency_campaign) ())

let test_latency_round_trip () =
  (match Inject.Latency_report.of_string (Lazy.force analytic_report) with
  | Ok rp ->
    checki "nilihype" 21_971_520 rp.Inject.Latency_report.nilihype_ns;
    checki "rehype" 712_251_152 rp.Inject.Latency_report.rehype_ns;
    checkb "no empirical section" true (rp.Inject.Latency_report.empirical = None)
  | Error e -> Alcotest.failf "analytic report rejected: %s" e);
  match Inject.Latency_report.of_string (Lazy.force empirical_report) with
  | Ok { Inject.Latency_report.empirical = Some (fanout, t); _ } ->
    checki "campaign fanout" 2 fanout;
    campaign_totals "decoded empirical totals"
      (Lazy.force latency_campaign).Inject.Campaign.totals t
  | Ok _ -> Alcotest.fail "empirical section lost"
  | Error e -> Alcotest.failf "empirical report rejected: %s" e

let test_latency_rejects_inconsistent () =
  List.iter
    (fun (what, report, from, into) ->
      checkb what true
        (Result.is_error
           (Inject.Latency_report.of_string
              (replace_first (Lazy.force report) (from, into)))))
    [
      ("the /1 schema", analytic_report, {|"nlh-latency/2"|}, {|"nlh-latency/1"|});
      ("zero NiLiHype latency", analytic_report, "21971520", "0");
      ("ReHype not above NiLiHype", analytic_report, "712251152", "21971520");
      ("negative host figure", empirical_report, {|"jobs":1|}, {|"jobs":-1|});
      ("no host object", analytic_report, {|"host":|}, {|"hosts":|});
      ("runs <> outcomes", empirical_report, {|"runs":4|}, {|"runs":5|});
      ("fanout 0", empirical_report, {|"fanout":2|}, {|"fanout":0|});
    ]

(* ------------------------- Parallel engine -------------------------- *)

(* The tentpole determinism contract: the campaign aggregate is
   bit-identical no matter how many domains execute it. Register faults
   exercise every outcome class, failure notes included. *)
let test_campaign_parallel_deterministic () =
  let cfg = run_cfg ~fault:Inject.Fault.Register () in
  let _, par =
    jobs_invariant campaign_snapshot (fun ~jobs ~oversubscribe ->
        Inject.Campaign.run ~base_seed:500L ~jobs ~oversubscribe ~n:100 cfg)
  in
  checki "parallel result records jobs" 4 par.Inject.Campaign.jobs;
  checkb "wall clock recorded" true (par.Inject.Campaign.wall_seconds >= 0.0)

let test_campaign_odd_chunking_deterministic () =
  (* A chunk size that does not divide n, with more workers than
     chunks' worth of tail, still yields the same aggregate. *)
  let cfg = run_cfg ~fault:Inject.Fault.Failstop () in
  ignore
    (jobs_invariant ~label:"chunk=5: " ~jobs:3 campaign_snapshot
       (fun ~jobs ~oversubscribe ->
         let chunk = if jobs > 1 then Some 5 else None in
         Inject.Campaign.run ~base_seed:900L ~jobs ~oversubscribe ?chunk ~n:23 cfg))

(* Seal boundaries: each run's metrics fold in place into the worker's
   registry, which is snapshotted once per chunk, so the chunk size must
   not show in the aggregate. Chunks of one run, the default chunk and
   one chunk of all runs, each at jobs 1 and 2, give the snapshot and
   the checkpoint payload bytes of a direct loop that merges every run's
   own snapshot; fan-out campaigns agree with each other over the same
   settings. *)
let test_seal_boundaries () =
  let cfg = run_cfg ~fault:Inject.Fault.Register () in
  let n = 30 and base_seed = 700L in
  let reference =
    let w =
      Inject.Run.prepare
        ~recorder:
          (Inject.Campaign.make_worker_recorder ~alloc_profile:false
             ~postmortems:false ())
        cfg
    in
    let t = Inject.Campaign.make_totals () in
    for i = 0 to n - 1 do
      let seed = Int64.add base_seed (Int64.of_int i) in
      Inject.Campaign.add_outcome t
        (Inject.Run.execute_into w { cfg with Inject.Run.seed });
      t.Inject.Campaign.metrics <-
        Obs.Metrics.merge_snapshots t.Inject.Campaign.metrics
          (Obs.Recorder.metrics_snapshot (Inject.Run.worker_recorder w))
    done;
    t
  in
  let check ~fanout reference =
    seal_invisible
      ~label:(Printf.sprintf "fanout %d, " fanout)
      ~n ~reference
      (both
         campaign_totals
         (digest ~what:"payload bytes" Alcotest.string
            (Inject.Campaign.payload_of_totals ~fanout)))
      (fun ~chunk ~jobs ~oversubscribe ->
        (Inject.Campaign.run ~base_seed ~jobs ~oversubscribe ?chunk ~fanout ~n cfg)
          .Inject.Campaign.totals)
  in
  check ~fanout:1 reference;
  check ~fanout:4
    (Inject.Campaign.run ~base_seed ~jobs:1 ~fanout:4 ~n cfg).Inject.Campaign.totals

let test_merge_empty () =
  let a = Inject.Campaign.make_totals () in
  let b = Inject.Campaign.make_totals () in
  let m = Inject.Campaign.merge a b in
  campaign_totals "empty merge is empty" (Inject.Campaign.make_totals ()) m

let test_merge_singleton () =
  let a = Inject.Campaign.make_totals () in
  Inject.Campaign.add_outcome a (Inject.Run.run (run_cfg ~seed:77L ()));
  let m = Inject.Campaign.merge a (Inject.Campaign.make_totals ()) in
  campaign_totals "merge with empty is identity" a m;
  let m' = Inject.Campaign.merge (Inject.Campaign.make_totals ()) a in
  campaign_totals "merge is commutative" a m'

let test_merge_overlapping_notes () =
  let a = Inject.Campaign.make_totals () in
  let b = Inject.Campaign.make_totals () in
  Inject.Campaign.note a "x";
  Inject.Campaign.note a "x";
  Inject.Campaign.note a "y";
  Inject.Campaign.note b "x";
  Inject.Campaign.note b "z";
  Inject.Campaign.note b "z";
  let m = Inject.Campaign.merge a b in
  Alcotest.check
    Alcotest.(list (pair string int))
    "overlapping keys summed, sorted"
    [ ("x", 3); ("y", 1); ("z", 2) ]
    (Inject.Campaign.failure_notes m)

let test_notes_sorted_regardless_of_order () =
  let a = Inject.Campaign.make_totals () in
  Inject.Campaign.note a "zebra";
  Inject.Campaign.note a "alpha";
  Inject.Campaign.note a "zebra";
  Alcotest.check
    Alcotest.(list (pair string int))
    "sorted view" [ ("alpha", 1); ("zebra", 2) ]
    (Inject.Campaign.failure_notes a)

let test_mean_latency_not_floored () =
  let t = Inject.Campaign.make_totals () in
  t.Inject.Campaign.latency_sum <- 5;
  t.Inject.Campaign.latency_samples <- 2;
  let r =
    {
      Inject.Campaign.config_label = "";
      totals = t;
      jobs = 1;
      wall_seconds = 0.0;
      minor_words = 0.0;
    }
  in
  match Inject.Campaign.mean_latency r with
  | Some m ->
    Alcotest.check (Alcotest.float 1e-9) "5/2 = 2.5, not 2" 2.5 m
  | None -> Alcotest.fail "expected a mean"

(* ------------------------- Worker reuse ----------------------------- *)

let small_recorder () =
  Obs.Recorder.create ~capacity:1 ~min_level:Obs.Event.Error ()

(* A run's outcome and metrics, on a freshly booted machine or on the
   reused worker [w]. *)
let fresh_run cfg () =
  let recorder = small_recorder () in
  let outcome = Inject.Run.run_obs ~recorder cfg in
  (outcome, Obs.Recorder.metrics_snapshot recorder)

let reused_run w cfg () =
  let outcome = Inject.Run.execute_into w cfg in
  (outcome, Obs.Recorder.metrics_snapshot (Inject.Run.worker_recorder w))

let run_digest =
  both
    (digest ~what:"outcome"
       (Alcotest.testable (Fmt.of_to_string Inject.Run.outcome_name) ( = ))
       fst)
    (digest ~what:"metrics" metrics_t snd)

(* The worker-reuse determinism contract: a run on a worker machine
   that has already executed other runs (and been rewound between them) is
   indistinguishable from a run on a freshly booted machine -- same
   outcome, same stats, same metric snapshot. Matrix over fault types,
   targets (setups x mechanisms) and seeds. *)
let test_reset_equivalence_matrix () =
  let faults =
    [ Inject.Fault.Failstop; Inject.Fault.Register; Inject.Fault.Code ]
  in
  let targets =
    [
      (Inject.Run.Three_appvm, Recovery.Engine.Nilihype);
      (Inject.Run.Three_appvm, Recovery.Engine.Rehype);
      (Inject.Run.One_appvm Workloads.Workload.Blkbench, Recovery.Engine.Nilihype);
    ]
  in
  let seeds = [ 7L; 43L; 1001L ] in
  List.iter
    (fun fault ->
      List.iter
        (fun (setup, mechanism) ->
          let mech = Inject.Run.Mech (mechanism, Recovery.Enhancement.full_set) in
          (* One long-lived worker per target; dirty it first with a run
             on an unrelated seed so every matrix run below goes through
             the rewind path of a genuinely used machine. *)
          let wcfg =
            { (run_cfg ~fault ~seed:999_999L ~mech ()) with
              Inject.Run.setup;
            }
          in
          let w = Inject.Run.prepare ~recorder:(small_recorder ()) wcfg in
          ignore (Inject.Run.execute_into w wcfg);
          fresh_equals_restore run_digest
            (List.map
               (fun seed ->
                 let cfg = { (run_cfg ~fault ~seed ~mech ()) with Inject.Run.setup } in
                 ( Printf.sprintf "%s/%s/seed=%Ld" (Inject.Fault.name fault)
                     (Recovery.Engine.mechanism_name mechanism)
                     seed,
                   fresh_run cfg,
                   reused_run w cfg ))
               seeds))
        targets)
    faults

(* Recorded GC budget: minor words allocated per reused-worker run,
   after warmup, on the register-fault campaign configuration. Measured
   at ~330k words/run when the reuse path landed, ~82k after the
   allocation-profiler pass flattened the hot loop (closure-free stepper,
   limb RNG, cumulative-weight sampling), ~75.5k before the activity
   stream went allocation-lean, and ~30k after it (asserts that format
   only on failure, option-free switch/tick/lock/APIC paths, unboxed
   coin flips, O(1) frame release), and ~8.7k once hypercalls stopped
   allocating (a per-vCPU in-flight record, a flat typed undo journal).
   The budget carries headroom over the measurement and the test fails
   at >1.2x drift (12.6k, below the ~30k of per-call hypercall records
   and closure journals), so regressions that re-grow the hot path get
   caught early without being flaky across compiler versions. *)
let gc_minor_words_budget_per_run = 10_500.0

let test_gc_budget_per_run () =
  let cfg = run_cfg ~fault:Inject.Fault.Register () in
  let w = Inject.Run.prepare ~recorder:(small_recorder ()) cfg in
  for i = 0 to 4 do
    ignore
      (Inject.Run.execute_into w
         { cfg with Inject.Run.seed = Int64.of_int (3_000 + i) })
  done;
  let before = Gc.minor_words () in
  let n = 20 in
  for i = 0 to n - 1 do
    ignore
      (Inject.Run.execute_into w
         { cfg with Inject.Run.seed = Int64.of_int (4_000 + i) })
  done;
  let per_run = (Gc.minor_words () -. before) /. float_of_int n in
  checkb "allocates something" true (per_run > 0.0);
  if per_run > 1.2 *. gc_minor_words_budget_per_run then
    Alcotest.failf "minor words/run %.0f exceeds 1.2x budget %.0f" per_run
      gc_minor_words_budget_per_run

(* The same register runs through [Campaign.run ~jobs:1] on a warm
   pre-booted pool: per-run metrics fold in place and are snapshotted
   once per chunk, and no activity allocates, so a campaign run costs
   little more than its [execute_into] (measured ~615 words a run; ~3.54k
   while context switches, interrupts and timer inserts allocated, ~3.9k
   when every run rebuilt its benchmarks and system mix, ~7.0k when
   every sampled activity was a fresh value, ~10.3k when every run also
   built a snapshot and merged it into the chunk's). The ceiling is 750
   words a run, counted in the calling domain, which the one worker runs
   in. *)
let campaign_words_per_run_ceiling = 750.0

let test_campaign_words_per_run () =
  let cfg = run_cfg ~fault:Inject.Fault.Register () in
  let pool = Inject.Campaign.prepare_pool ~jobs:1 cfg in
  let n = 200 in
  let run () = ignore (Inject.Campaign.run ~base_seed:6_000L ~jobs:1 ~pool ~n cfg) in
  run ();
  let per_run = minor_words run /. float_of_int n in
  if per_run > campaign_words_per_run_ceiling then
    Alcotest.failf "Campaign.run: %.0f minor words a run, ceiling %.0f" per_run
      campaign_words_per_run_ceiling

(* Booting a worker costs O(frames in use), not O(frames): [Run.prepare]
   on the default configuration allocates at most 50k minor words
   (~24.5k measured; ~476k while the page-frame table built a record for
   each of its 64 Ki frames at create). *)
let prepare_words_ceiling = 50_000.0

let test_prepare_words () =
  let cfg = Inject.Run.default_config in
  ignore (Inject.Run.prepare cfg);
  let words = minor_words (fun () -> Inject.Run.prepare cfg) in
  if words > prepare_words_ceiling then
    Alcotest.failf "Run.prepare: %.0f minor words, ceiling %.0f" words
      prepare_words_ceiling

(* Its major words: the arrays [Pfn.create] and [Cow.create] make
   straight in the major heap, the O(frames) frame table and golden
   store, plus whatever a minor collection promotes. Measured at ~233k
   words (~214k of them allocated directly); ~360k while the table of
   materialized frames and the dirty stack were also one int per
   frame. *)
let prepare_major_words_ceiling = 280_000.0

let test_prepare_major_words () =
  let cfg = Inject.Run.default_config in
  ignore (Inject.Run.prepare cfg);
  let s0 = Gc.quick_stat () in
  ignore (Sys.opaque_identity (Inject.Run.prepare cfg));
  let words = (Gc.quick_stat ()).Gc.major_words -. s0.Gc.major_words in
  if words > prepare_major_words_ceiling then
    Alcotest.failf "Run.prepare: %.0f major words, ceiling %.0f" words
      prepare_major_words_ceiling

(* Activity-kind word ceilings: mean minor words per call, from the
   recorder's activity-kind ledger, over 100 register runs on a restored
   worker (the campaign-register configuration). No activity allocates
   once the worker is warm: measured at 0.010 (context switch), 0.003
   (timer tick), 0.0 (sampling), 0.008 (hypercall), 0.009 (device
   interrupt), 0.002 (idle poll) and 0.007 (all activities) words per
   call; what is left is the rare call that applies the injected fault.
   Before the run queues, the APIC in-service sets and the timer inserts
   stopped allocating: 5.0, 3.0, 0.0, 1.2, 3.0, 1.0 and 2.7; before
   passing assertions stopped formatting, the switch, tick and draw
   paths stopped allocating and hypercalls stopped building a record
   and a closure journal per call: 44, 42, 14, 60 and 24 (all). *)
let test_activity_word_ceilings () =
  let cfg = run_cfg ~fault:Inject.Fault.Register () in
  let r = small_recorder () in
  Obs.Recorder.set_alloc_profiling r true;
  let w = Inject.Run.prepare ~recorder:r cfg in
  let run i =
    ignore
      (Inject.Run.execute_into w
         { cfg with Inject.Run.seed = Int64.of_int (5_000 + i) })
  in
  for i = 0 to 4 do
    run i
  done;
  Obs.Recorder.clear_activity_ledger r;
  for i = 5 to 104 do
    run i
  done;
  let mean kind =
    float_of_int (Obs.Recorder.activity_words r kind)
    /. float_of_int (max 1 (Obs.Recorder.activity_calls r kind))
  in
  let activities = Obs.Recorder.activity_calls r Obs.Recorder.Sampling in
  checkb "100 runs of activities" true (activities >= 100 * 1000);
  let all =
    float_of_int
      (List.fold_left
         (fun acc k -> acc + Obs.Recorder.activity_words r k)
         0 Obs.Recorder.activity_kinds)
    /. float_of_int activities
  in
  let figures =
    [
      ("context switch", mean Obs.Recorder.Context_switch, 0.1);
      ("timer tick", mean Obs.Recorder.Timer_tick, 0.1);
      ("sampling", mean Obs.Recorder.Sampling, 0.5);
      ("hypercall", mean Obs.Recorder.Hypercall, 0.1);
      ("device interrupt", mean Obs.Recorder.Device_interrupt, 0.1);
      ("idle poll", mean Obs.Recorder.Idle_poll, 0.1);
      ("all activities", all, 0.1);
    ]
  in
  if List.exists (fun (_, words, ceiling) -> words > ceiling) figures then
    Alcotest.failf "words per call over a ceiling: %s"
      (String.concat ", "
         (List.map
            (fun (label, words, ceiling) ->
              Printf.sprintf "%s %.1f (<= %.1f)" label words ceiling)
            figures))

(* The ledger lives outside the metrics registry: a run records the same
   metric snapshot with allocation profiling on or off. *)
let test_activity_ledger_outside_metrics () =
  let cfg = run_cfg ~fault:Inject.Fault.Register ~seed:77L () in
  let snapshot profiling =
    let r = small_recorder () in
    Obs.Recorder.set_alloc_profiling r profiling;
    let w = Inject.Run.prepare ~recorder:r cfg in
    ignore (Inject.Run.execute_into w cfg);
    checkb "ledger fed only when profiling" profiling
      (Obs.Recorder.activity_calls r Obs.Recorder.Sampling > 0);
    Obs.Recorder.metrics_snapshot r
  in
  let off = snapshot false and on = snapshot true in
  let without_alloc (snap : Obs.Metrics.snapshot) =
    {
      snap with
      Obs.Metrics.counters =
        List.filter
          (fun (name, _) -> not (String.starts_with ~prefix:"alloc." name))
          snap.Obs.Metrics.counters;
    }
  in
  checkb "same metrics apart from alloc.*" true
    (without_alloc off = without_alloc on)

(* The phase-attributed allocation counters are part of the campaign
   aggregate, so they must not depend on which worker ran which run: a
   worker's long-lived structures may not allocate in a later run what
   they skipped (or skip what they allocated) in an earlier one. *)
let test_alloc_counters_jobs_invariant () =
  let cfg = run_cfg ~fault:Inject.Fault.Register () in
  ignore
    (jobs_invariant ~jobs:3 campaign_snapshot (fun ~jobs ~oversubscribe ->
         Inject.Campaign.run ~base_seed:6_000L ~jobs ~oversubscribe ~alloc_profile:true
           ~n:12 cfg))

(* Phase attribution accounts for the whole run: on the failstop
   campaign configuration, the [alloc.*] phase words of a direct
   single-worker loop sum to within 5% of its [Gc.minor_words] delta,
   and a campaign over the same seeds records exactly the loop's
   per-phase sums. An endurance scenario runs the same fault cycle, so a
   loop of 3-cycle scenarios agrees too, with words in the detection and
   recovery phases. The loop reads the counters back as plain ints after
   each item (the next rewind zeroes them), so it adds almost nothing
   outside the attributed window. *)
let alloc_phase_sums ~what ~base_seed ~n item =
  let r = small_recorder () in
  Obs.Recorder.set_alloc_profiling r true;
  let w = Inject.Run.prepare ~recorder:r (run_cfg ()) in
  let phases = Obs.Recorder.alloc_phases in
  let sums = Array.make (List.length phases) 0 in
  let run_one i = item w (Int64.add base_seed (Int64.of_int i)) in
  (* Warm items: first-touch growth of long-lived structures must not
     pollute the steady-state attribution. *)
  for i = 0 to 2 do
    run_one i
  done;
  let gc_start = Gc.minor_words () in
  for i = 0 to n - 1 do
    run_one i;
    List.iteri
      (fun pi p -> sums.(pi) <- sums.(pi) + Obs.Recorder.alloc_words r p)
      phases
  done;
  let gc_delta = Gc.minor_words () -. gc_start in
  let agreement = float_of_int (Array.fold_left ( + ) 0 sums) /. gc_delta in
  if agreement < 0.95 || agreement > 1.05 then
    Alcotest.failf "%s: phase words are %.3f of the Gc.minor_words delta" what
      agreement;
  sums

let test_alloc_attribution_agrees () =
  let cfg = run_cfg () in
  let base_seed = 90_000L and n = 40 in
  let phases = Obs.Recorder.alloc_phases in
  let sums =
    alloc_phase_sums ~what:"runs" ~base_seed ~n (fun w seed ->
        ignore (Inject.Run.execute_into w { cfg with Inject.Run.seed }))
  in
  let campaign =
    Inject.Campaign.run ~base_seed ~jobs:1 ~alloc_profile:true ~n cfg
  in
  let counters =
    campaign.Inject.Campaign.totals.Inject.Campaign.metrics.Obs.Metrics.counters
  in
  List.iteri
    (fun pi p ->
      let name = "alloc." ^ Obs.Recorder.alloc_phase_name p in
      checki (name ^ " campaign = direct loop") sums.(pi)
        (Option.value ~default:0 (List.assoc_opt name counters)))
    phases;
  let endure = { Endure.default_config with Endure.run_cfg = cfg; cycles = 3 } in
  let sums =
    alloc_phase_sums ~what:"scenarios" ~base_seed ~n:10 (fun w seed ->
        ignore (Endure.scenario_on_worker w endure ~seed))
  in
  List.iteri
    (fun pi p ->
      match p with
      | Obs.Recorder.Detection | Obs.Recorder.Recovery ->
        checkb
          ("scenario alloc." ^ Obs.Recorder.alloc_phase_name p ^ " words")
          true (sums.(pi) > 0)
      | Obs.Recorder.Boot | Obs.Recorder.Workload | Obs.Recorder.Injection
      | Obs.Recorder.Audit -> ())
    phases

(* Frame release on a long-lived machine: one machine runs 200k
   activities with no restore while its domains' owned-frame sets grow.
   Releasing a frame (memory_op decrease) must cost the same late in the
   run as early on: 49 words a call throughout, where rebuilding the
   owned-frame list on every release cost ~2.4k words a call in the
   first tenth of the run and ~39k in the last. *)
let test_long_lived_frame_release () =
  let cfg = run_cfg ~fault:Inject.Fault.Register ~seed:11L () in
  let st = Inject.Run.boot_state cfg in
  let n = 200_000 in
  let tenth = n / 10 in
  let words = [| 0; 0 |] and calls = [| 0; 0 |] in
  for i = 0 to n - 1 do
    let a = Inject.Run.sample_activity st in
    let bucket = if i < tenth then 0 else if i >= n - tenth then 1 else -1 in
    match a with
    | Hyper.Hypervisor.Hypercall
        { kind = Hyper.Hypercalls.Memory_op_decrease; _ }
      when bucket >= 0 ->
      let w0 = Gc.minor_words () in
      Inject.Run.execute_activity st a;
      words.(bucket) <- words.(bucket) + int_of_float (Gc.minor_words () -. w0);
      calls.(bucket) <- calls.(bucket) + 1
    | _ -> Inject.Run.execute_activity st a
  done;
  checkb "decreases in both tenths" true (calls.(0) > 0 && calls.(1) > 0);
  let mean b = float_of_int words.(b) /. float_of_int calls.(b) in
  let first = mean 0 and last = mean 1 in
  if last > 2.0 *. first || last > 100.0 then
    Alcotest.failf
      "words per decrease: %.0f in the first tenth, %.0f in the last" first
      last

(* Hypercall pools on a long-lived machine: one machine runs 10^5
   activities with no restore, and every 50th is a multicall abandoned
   inside its second component, then retried after its journal is
   undone. Every vCPU's in-flight record keeps the size it was given at
   boot, and a hypercall costs the same late in the run as early on:
   the path reuses the boot-time pools and allocates nothing that grows
   with the machine's age. *)
let test_long_lived_hypercall_pools () =
  let cfg = run_cfg ~fault:Inject.Fault.Register ~seed:13L () in
  let st = Inject.Run.boot_state cfg in
  let hv = st.Inject.Run.hv in
  let footprint () =
    List.map
      (fun (v : Hyper.Domain.vcpu) ->
        let r = v.Hyper.Domain.record in
        ( Array.length r.Hyper.Hypercalls.targets,
          Hyper.Journal.capacity r.Hyper.Hypercalls.journal ))
      (Doms.vcpus hv)
  in
  let boot_footprint = footprint () in
  let v = Hyper.Domain.vcpu (Option.get (Hyper.Hypervisor.domain hv 1)) 0 in
  let multicall =
    Hyper.Hypervisor.Hypercall
      {
        domid = 1;
        vid = 0;
        kind =
          Hyper.Hypercalls.Multicall
            [
              Hyper.Hypercalls.Mmu_update 1; Hyper.Hypercalls.Update_va_mapping;
              Hyper.Hypercalls.Mmu_update 1;
            ];
      }
  in
  let abandon_in_second_component =
    Some
      (fun _ _ _ name _ ->
        if name = "write_pte" then raise Hyper.Hypervisor.Abandoned)
  in
  let n = 100_000 in
  let tenth = n / 10 in
  let words = [| 0; 0 |] and calls = [| 0; 0 |] and retries = ref 0 in
  for i = 0 to n - 1 do
    let bucket = if i < tenth then 0 else if i >= n - tenth then 1 else -1 in
    let a = if i mod 50 = 0 then multicall else Inject.Run.sample_activity st in
    let w0 = Gc.minor_words () in
    if i mod 50 = 0 then begin
      hv.Hyper.Hypervisor.step_hook <- abandon_in_second_component;
      (try Hyper.Hypervisor.execute hv st.Inject.Run.rng a
       with Hyper.Hypervisor.Abandoned -> ());
      hv.Hyper.Hypervisor.step_hook <- None;
      if v.Hyper.Domain.in_hypercall <> None then begin
        Hyper.Hypervisor.retry_hypercall hv st.Inject.Run.rng v;
        incr retries
      end
    end
    else Inject.Run.execute_activity st a;
    match a with
    | Hyper.Hypervisor.Hypercall _ when bucket >= 0 ->
      words.(bucket) <- words.(bucket) + int_of_float (Gc.minor_words () -. w0);
      calls.(bucket) <- calls.(bucket) + 1
    | _ -> ()
  done;
  checki "every abandoned multicall retried" (n / 50) !retries;
  checkb "no vCPU record grew" true (footprint () = boot_footprint);
  let mean b = float_of_int words.(b) /. float_of_int calls.(b) in
  let first = mean 0 and last = mean 1 in
  if last > 1.5 *. first || last > 15.0 then
    Alcotest.failf
      "words per hypercall: %.1f in the first tenth, %.1f in the last" first
      last

let test_campaign_minor_words_recorded () =
  let seq = Inject.Campaign.run ~jobs:1 ~n:4 (run_cfg ()) in
  checkb "sequential minor words measured" true
    (seq.Inject.Campaign.minor_words > 0.0);
  let par =
    Inject.Campaign.run ~jobs:2 ~oversubscribe:true ~n:4 (run_cfg ())
  in
  checkb "parallel minor words measured" true
    (par.Inject.Campaign.minor_words > 0.0)

(* ------------------------- Snapshots & clone fan-out ----------------- *)

let test_rng_save_roundtrip () =
  let rng = Sim.Rng.create 77L in
  for _ = 1 to 5 do
    ignore (Sim.Rng.int64 rng)
  done;
  let pos = Sim.Rng.save rng in
  let draw () =
    let a = Array.make 8 0L in
    for i = 0 to 7 do
      a.(i) <- Sim.Rng.int64 rng
    done;
    a
  in
  let a = draw () in
  Sim.Rng.reseed rng pos;
  checkb "save/reseed replays the stream" true (a = draw ())

(* Snapshot-after-snapshot and restore repeatability at the hypervisor
   level: retaking a snapshot moves the golden baseline; restoring the
   latest image is exact (resource ledger and clock match) and
   repeatable, and replaying the same RNG stream from the image
   reproduces the diverged state bit for bit. *)
let test_snapshot_after_snapshot () =
  let hv = boot () in
  let rng = Sim.Rng.create 11L in
  let step () =
    Hyper.Hypervisor.execute hv rng
      (Hyper.Hypervisor.Hypercall
         { domid = 1; vid = 0; kind = Hyper.Hypercalls.Update_va_mapping })
  in
  let fingerprint () =
    (Hyper.Ledger.capture hv, Sim.Clock.now hv.Hyper.Hypervisor.clock)
  in
  ignore (Hyper.Hypervisor.snapshot hv);
  for _ = 1 to 40 do
    step ()
  done;
  let im2 = Hyper.Hypervisor.snapshot hv in
  checki "snapshot drains the dirty set" 0
    (Hyper.Pfn.dirty_count hv.Hyper.Hypervisor.pfn);
  let f2 = fingerprint () in
  let pos = Sim.Rng.save rng in
  for _ = 1 to 40 do
    step ()
  done;
  let f3 = fingerprint () in
  checkb "workload moved the state" true (f3 <> f2);
  Hyper.Hypervisor.restore hv im2;
  checkb "restore returns to the snapshot point" true (fingerprint () = f2);
  checki "restore drains the dirty set" 0
    (Hyper.Pfn.dirty_count hv.Hyper.Hypervisor.pfn);
  Sim.Rng.reseed rng pos;
  for _ = 1 to 40 do
    step ()
  done;
  checkb "replay from the image reproduces the state" true (fingerprint () = f3);
  Hyper.Hypervisor.restore hv im2;
  checkb "second restore of the same image" true (fingerprint () = f2)

(* A run that died unrecovered used to force a fresh boot; now it goes
   through the same O(changed) restore, and the next run must still be
   indistinguishable from one on a freshly booted machine. *)
let test_restore_after_died () =
  let died_cfg = run_cfg ~seed:4242L ~mech:Inject.Run.No_recovery () in
  let w = Inject.Run.prepare ~recorder:(small_recorder ()) died_cfg in
  (match Inject.Run.execute_into w died_cfg with
  | Inject.Run.Detected d ->
    checkb "died unrecovered" false d.Inject.Run.recovered
  | Inject.Run.Non_manifested | Inject.Run.Silent_corruption ->
    Alcotest.fail "failstop without recovery must be detected");
  let clean_cfg = run_cfg ~fault:Inject.Fault.Register ~seed:314L () in
  fresh_equals_restore run_digest
    [ ("after died", fresh_run clean_cfg, reused_run w clean_cfg) ]

(* The opt-in ledger audit: every snapshot restore must come back with a
   clean orphan view (no orphaned frames, held locks, missing recurring
   timers), whatever the previous run did -- fault-free, recovered or
   died. [rewind] raises on any leak when the audit is armed. *)
let test_restore_zero_leak_audit () =
  let cfg = run_cfg ~fault:Inject.Fault.Register ~seed:21L () in
  let w = Inject.Run.prepare ~recorder:(small_recorder ()) cfg in
  Inject.Run.set_restore_audit w true;
  List.iter
    (fun cfg -> ignore (Inject.Run.execute_into w cfg))
    [
      cfg (* mostly non-manifested: fault-free machine *);
      run_cfg ~seed:22L () (* failstop, recovered *);
      run_cfg ~seed:23L ~mech:Inject.Run.No_recovery () (* died *);
    ];
  (* One explicit final rewind so the audit also covers the last run. *)
  Inject.Run.rewind w cfg;
  checkb "no leaks across restores" true true

(* Restore is O(changed state): a rewind costs at most 15% of a fresh
   boot's minor words, averaged over rewinds after register runs
   (non-manifested, SDC and recovered) and after failstop runs with no
   recovery (died, the class that used to force a fresh boot). *)
let test_restore_words_vs_fresh_boot () =
  let cfg = run_cfg ~fault:Inject.Fault.Register () in
  let boots = 3 in
  let w0 = Gc.minor_words () in
  for i = 0 to boots - 1 do
    let seed = Int64.of_int (100_000 + i) in
    ignore (Sys.opaque_identity (Inject.Run.boot_state { cfg with Inject.Run.seed }))
  done;
  let fresh_words = (Gc.minor_words () -. w0) /. float_of_int boots in
  let restores = ref 0 and restore_words = ref 0.0 in
  let measure (cfg : Inject.Run.config) n =
    let w = Inject.Run.prepare ~recorder:(small_recorder ()) cfg in
    for i = 0 to n - 1 do
      let cfg = { cfg with Inject.Run.seed = Int64.of_int (100_000 + i) } in
      ignore (Inject.Run.execute_into w cfg);
      let w0 = Gc.minor_words () in
      Inject.Run.rewind w cfg;
      restore_words := !restore_words +. (Gc.minor_words () -. w0);
      incr restores
    done
  in
  measure cfg 60;
  measure
    {
      cfg with
      Inject.Run.fault = Inject.Fault.Failstop;
      mech = Inject.Run.No_recovery;
      hv_config = Hyper.Config.stock;
    }
    20;
  let fraction = !restore_words /. float_of_int !restores /. fresh_words in
  if fraction > 0.15 then
    Alcotest.failf "a restore costs %.1f%% of a fresh boot's minor words"
      (100.0 *. fraction)

let test_clone_deterministic () =
  let cfg = run_cfg ~fault:Inject.Fault.Register ~seed:5L () in
  let w = Inject.Run.prepare ~recorder:(small_recorder ()) cfg in
  let src = Inject.Run.prepare_clone w cfg in
  let out1 = Inject.Run.clone_into ~reseed:900L src in
  let m1 = Obs.Recorder.metrics_snapshot (Inject.Run.worker_recorder w) in
  (* An interleaved different variant must not disturb the replay. *)
  ignore (Inject.Run.clone_into ~reseed:901L src);
  let out3 = Inject.Run.clone_into ~reseed:900L src in
  let m3 = Obs.Recorder.metrics_snapshot (Inject.Run.worker_recorder w) in
  checkb "same variant seed, same outcome" true (out1 = out3);
  Alcotest.check metrics_t "same variant seed, same metrics" m1 m3

(* Only the latest base image (and a layer over it) may be restored: an
   image superseded by a later snapshot is refused, not half-restored. *)
let test_superseded_image_rejected () =
  let hv = boot () in
  let im1 = Hyper.Hypervisor.snapshot hv in
  let im2 = Hyper.Hypervisor.snapshot hv in
  checkb "a superseded image is refused" true
    (refuses (fun () -> Hyper.Hypervisor.restore hv im1));
  Hyper.Hypervisor.restore hv im2

(* Boot image -> warmup -> layer snapshot -> damage -> restore the boot
   image: the machine is exactly a freshly booted one (ledger, clock,
   dirty sets, and every frame, heap object and queued timer element by
   element), behaves like one under the same stream, comes back there
   on a second restore, and the unwound layer is refused. *)
let test_layered_restore_matches_fresh_boot () =
  let fingerprint hv =
    ( ( Hyper.Ledger.capture hv,
        Sim.Clock.now hv.Hyper.Hypervisor.clock,
        Hyper.Pfn.dirty_count hv.Hyper.Hypervisor.pfn,
        Hyper.Heap.dirty_count hv.Hyper.Hypervisor.heap,
        Hyper.Timer_heap.dirty_count hv.Hyper.Hypervisor.timers ),
      Stores.dump hv )
  in
  let same msg (counts, stores) (counts', stores') =
    Stores.check msg ~expected:stores stores';
    checkb msg true (counts = counts')
  in
  let cfg = run_cfg ~fault:Inject.Fault.Register () in
  let drive hv seed n =
    let st = Inject.Run.make_state cfg (Sim.Rng.create seed) hv in
    for _ = 1 to n do
      try Inject.Run.run_one_activity st with Hyper.Crash.Hypervisor_crash _ -> ()
    done;
    st
  in
  let fresh = boot () in
  ignore (Hyper.Hypervisor.snapshot fresh);
  let booted = fingerprint fresh in
  let hv = boot () in
  let boot_image = Hyper.Hypervisor.snapshot hv in
  ignore (drive hv 3L 150);
  (* A domain created under the layer puts heap objects, frames and
     timers in it that the boot image must not have. *)
  Hyper.Hypervisor.execute hv (Sim.Rng.create 7L)
    (Hyper.Hypervisor.Hypercall
       { domid = 0; vid = 0; kind = Hyper.Hypercalls.Domctl_create_domain });
  let layer = Hyper.Hypervisor.snapshot ~layer:true hv in
  let wreck () =
    let st = drive hv 4L 50 in
    Array.iter
      (fun target ->
        (try Inject.Corrupt.apply hv st.Inject.Run.rng target
         with Hyper.Crash.Hypervisor_crash _ -> ());
        ignore (drive hv 5L 5))
      Inject.Corrupt.all
  in
  fresh_equals_restore same
    [
      ( "layered restore",
        (fun () -> booted),
        fun () ->
          wreck ();
          Hyper.Hypervisor.restore hv layer;
          wreck ();
          Hyper.Hypervisor.restore hv boot_image;
          fingerprint hv );
      ( "and runs like one",
        (fun () ->
          ignore (drive fresh 6L 200);
          fingerprint fresh),
        fun () ->
          ignore (drive hv 6L 200);
          fingerprint hv );
      ( "second restore",
        (fun () -> booted),
        fun () ->
          Hyper.Hypervisor.restore hv boot_image;
          fingerprint hv );
    ];
  checkb "an unwound layer is refused" true
    (refuses (fun () -> Hyper.Hypervisor.restore hv layer))

(* Handlers abandoned mid-flight leave vectors in service (a timer tick
   and a device interrupt stopped before their EOI) and a context switch
   half done: restoring the boot image rewinds the in-service sets and
   run queues with everything else, to a machine that is a freshly
   booted one and runs like one. *)
let test_restore_rewinds_abandoned_handlers () =
  let cfg = run_cfg ~fault:Inject.Fault.Register () in
  let drive hv seed n =
    let st = Inject.Run.make_state cfg (Sim.Rng.create seed) hv in
    for _ = 1 to n do
      try Inject.Run.run_one_activity st with Hyper.Crash.Hypervisor_crash _ -> ()
    done
  in
  let fresh = boot () in
  ignore (Hyper.Hypervisor.snapshot fresh);
  let booted = Stores.dump fresh in
  let hv = boot () in
  let image = Hyper.Hypervisor.snapshot hv in
  let rng = Sim.Rng.create 9L in
  let abandon activity ~stop_at =
    try Hyper.Hypervisor.execute_partial hv rng activity ~stop_at
    with Hyper.Crash.Hypervisor_crash _ -> ()
  in
  let apic0 = (Hw.Machine.cpu hv.Hyper.Hypervisor.machine 0).Hw.Cpu.apic in
  let same msg expected got = Stores.check msg ~expected got in
  fresh_equals_restore same
    [
      ( "vectors left in service",
        (fun () -> booted),
        fun () ->
          drive hv 3L 100;
          abandon (Hyper.Hypervisor.Timer_tick 0) ~stop_at:1;
          abandon
            (Hyper.Hypervisor.Device_interrupt { line = 1; target_dom = 1 })
            ~stop_at:1;
          abandon (Hyper.Hypervisor.Context_switch 1) ~stop_at:6;
          checkb "timer vector left in service" true (Hw.Apic.in_service apic0 0xf0);
          checkb "device vector left in service" true (Hw.Apic.in_service apic0 0x31);
          Hyper.Hypervisor.restore hv image;
          Stores.dump hv );
      ( "and runs like one",
        (fun () ->
          drive fresh 6L 200;
          Stores.dump fresh),
        fun () ->
          drive hv 6L 200;
          Stores.dump hv );
    ]

(* Fan-outs leave trigger-point layers over the worker's boot image;
   plain runs interleaved with them must still match a fresh machine
   (each rewind restores the boot image, unwinding the layer), with the
   zero-leak restore audit armed throughout. *)
let test_execute_after_fanout_matches_fresh () =
  let cfg = run_cfg ~fault:Inject.Fault.Register ~seed:88L () in
  let w = Inject.Run.prepare ~recorder:(small_recorder ()) cfg in
  Inject.Run.set_restore_audit w true;
  let fan_out seed variants =
    let src = Inject.Run.prepare_clone w { cfg with Inject.Run.seed } in
    for v = 1 to variants do
      ignore (Inject.Run.clone_into ~reseed:(Int64.of_int v) src)
    done
  in
  let plain (cfg : Inject.Run.config) =
    fresh_equals_restore run_digest
      [
        ( Printf.sprintf "seed=%Ld after fan-out" cfg.Inject.Run.seed,
          fresh_run cfg,
          reused_run w cfg );
      ]
  in
  fan_out 88L 1;
  plain cfg;
  fan_out 90L 3;
  plain (run_cfg ~seed:91L () (* failstop, recovered *));
  fan_out 92L 2;
  fan_out 93L 4;
  plain (run_cfg ~fault:Inject.Fault.Code ~seed:94L ());
  fan_out 95L 2;
  plain (run_cfg ~seed:96L ~mech:Inject.Run.No_recovery () (* died *));
  plain (run_cfg ~fault:Inject.Fault.Register ~seed:97L ())

let test_fanout_jobs_invariant () =
  let cfg = run_cfg ~fault:Inject.Fault.Register () in
  (* 22 runs at fanout 4: five full batches plus a two-run tail. *)
  let seq, _ =
    jobs_invariant ~label:"fanout 4: " ~jobs:3 campaign_snapshot
      (fun ~jobs ~oversubscribe ->
        Inject.Campaign.run ~base_seed:600L ~jobs ~oversubscribe ~fanout:4 ~n:22 cfg)
  in
  checki "all runs executed" 22 seq.Inject.Campaign.totals.Inject.Campaign.runs

(* ------------------------- Pool chunking ---------------------------- *)

(* Every index in [0, n) visited exactly once, for adversarial
   n/jobs/chunk combinations: chunk > n, chunk = 1, prime n, tails that
   do not divide, n = 1, n = 0 and the default chunk. *)
let test_pool_coverage_exact () =
  let combos =
    [
      (0, 1, None);
      (0, 4, Some 3);
      (1, 4, Some 3);
      (23, 3, Some 5);
      (97, 4, Some 1);
      (100, 7, Some 13);
      (16, 5, Some 16);
      (5, 8, Some 100);
      (241, 3, None);
      (1024, 4, None);
    ]
  in
  List.iter
    (fun (n, jobs, chunk) ->
      let acc =
        Inject.Pool.map_reduce ~jobs ?chunk ~oversubscribe:true ~n
          ~init:(fun _ -> ref [])
          ~body:(fun acc i -> acc := i :: !acc)
          ~merge:(fun a b ->
            a := !a @ !b;
            a)
          ()
      in
      let label =
        Printf.sprintf "n=%d jobs=%d chunk=%s" n jobs
          (match chunk with Some c -> string_of_int c | None -> "default")
      in
      Alcotest.(check (list int))
        label
        (List.init n Fun.id)
        (List.sort compare !acc))
    combos

let test_pool_default_chunk_capped () =
  (* ~4 chunks per worker for moderate n, capped at [default_chunk_cap]
     so huge soaks get many checkpoint-sized chunks instead of a few
     enormous ones. *)
  checki "n=64 jobs=1" 16 (Inject.Pool.default_chunk ~n:64 ~jobs:1);
  checki "n=4000 jobs=4" 250 (Inject.Pool.default_chunk ~n:4000 ~jobs:4);
  checki "n=100000 jobs=4 capped" Inject.Pool.default_chunk_cap
    (Inject.Pool.default_chunk ~n:100_000 ~jobs:4);
  checki "n=1000000 jobs=1 capped" Inject.Pool.default_chunk_cap
    (Inject.Pool.default_chunk ~n:1_000_000 ~jobs:1);
  checki "cap value" 4096 Inject.Pool.default_chunk_cap;
  checki "floor of 1" 1 (Inject.Pool.default_chunk ~n:3 ~jobs:8)

(* ------------------------- Overhead --------------------------------- *)

let test_overhead_logging_costs_cycles () =
  let m =
    Inject.Overhead.measure ~activities:2000
      { Inject.Overhead.label = "BlkBench"; setup = Inject.Run.One_appvm Workloads.Workload.Blkbench }
  in
  checkb "nilihype > stock" true (m.Inject.Overhead.nilihype_cycles > m.Inject.Overhead.stock_cycles);
  checkb "logging dominates overhead" true
    (m.Inject.Overhead.overhead_pct > m.Inject.Overhead.overhead_nolog_pct);
  checkb "overhead positive" true (m.Inject.Overhead.overhead_pct > 0.0);
  checkb "overhead sane (<25%)" true (m.Inject.Overhead.overhead_pct < 25.0)

let test_overhead_blkbench_worst_case () =
  (* Paper: "even in the worst case (BlkBench)" -- grant-heavy I/O logs
     the most. *)
  let measure setup label =
    (Inject.Overhead.measure ~activities:4000 { Inject.Overhead.label; setup })
      .Inject.Overhead.overhead_pct
  in
  let blk = measure (Inject.Run.One_appvm Workloads.Workload.Blkbench) "Blk" in
  let unix = measure (Inject.Run.One_appvm Workloads.Workload.Unixbench) "Unix" in
  checkb "blkbench >= unixbench overhead" true (blk >= unix)

let () =
  Alcotest.run "inject"
    [
      ( "profile",
        [
          Alcotest.test_case "weights normalised" `Quick test_profile_weights_normalised;
          Alcotest.test_case "failstop crashes" `Quick test_failstop_always_crashes;
          Alcotest.test_case "register mostly benign" `Quick test_register_mostly_benign;
          Alcotest.test_case "code more aggressive" `Quick
            test_code_more_aggressive_than_register;
          Alcotest.test_case "paper campaign sizes" `Quick test_campaign_sizes_match_paper;
        ] );
      ( "corrupt",
        [
          Alcotest.test_case "pfn validated" `Quick test_corrupt_pfn_validated;
          Alcotest.test_case "sched metadata" `Quick test_corrupt_sched_breaks_audit;
          Alcotest.test_case "heap freelist" `Quick test_corrupt_heap_freelist;
          Alcotest.test_case "recovery handler" `Quick test_corrupt_recovery_handler;
          Alcotest.test_case "privvm" `Quick test_corrupt_privvm;
          Alcotest.test_case "guest frame app-only" `Quick
            test_corrupt_guest_frame_hits_app_only;
        ] );
      ( "run",
        [
          Alcotest.test_case "failstop detected" `Quick test_run_failstop_detected;
          Alcotest.test_case "deterministic" `Quick test_run_deterministic;
          Alcotest.test_case "no recovery fails" `Quick test_run_no_recovery_always_fails;
          Alcotest.test_case "register spectrum" `Slow test_run_register_spectrum;
          Alcotest.test_case "faulting-only scope worse" `Slow
            test_run_faulting_only_scope_worse;
          Alcotest.test_case "fsgs loss affects its AppVM" `Quick
            test_run_fsgs_loss_affects_app_vm;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "aggregation" `Quick test_campaign_aggregation;
          Alcotest.test_case "distinct seeds" `Quick test_campaign_distinct_seeds;
          Alcotest.test_case "noVMF <= Success" `Quick test_campaign_novmf_le_success;
        ] );
      ( "latency report",
        [
          Alcotest.test_case "round trip" `Quick test_latency_round_trip;
          Alcotest.test_case "inconsistent reports rejected" `Quick
            test_latency_rejects_inconsistent;
        ]
        @ damage ~label:"nlh-latency/2"
            [
              file "analytic" analytic_report Inject.Latency_report.of_string;
              file "empirical" empirical_report Inject.Latency_report.of_string;
            ] );
      ( "parallel",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 identical" `Slow
            test_campaign_parallel_deterministic;
          Alcotest.test_case "odd chunking identical" `Quick
            test_campaign_odd_chunking_deterministic;
          Alcotest.test_case "seal boundaries invisible" `Quick test_seal_boundaries;
          Alcotest.test_case "merge empty" `Quick test_merge_empty;
          Alcotest.test_case "merge singleton" `Quick test_merge_singleton;
          Alcotest.test_case "merge overlapping notes" `Quick
            test_merge_overlapping_notes;
          Alcotest.test_case "notes sorted" `Quick test_notes_sorted_regardless_of_order;
          Alcotest.test_case "mean latency in float" `Quick test_mean_latency_not_floored;
          Alcotest.test_case "pool coverage exact" `Quick test_pool_coverage_exact;
          Alcotest.test_case "default chunk capped" `Quick
            test_pool_default_chunk_capped;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "reset equivalence matrix" `Slow
            test_reset_equivalence_matrix;
          Alcotest.test_case "gc budget per run" `Quick test_gc_budget_per_run;
          Alcotest.test_case "campaign words per run" `Quick
            test_campaign_words_per_run;
          Alcotest.test_case "activity word ceilings" `Quick
            test_activity_word_ceilings;
          Alcotest.test_case "activity ledger outside metrics" `Quick
            test_activity_ledger_outside_metrics;
          Alcotest.test_case "long-lived hypercall pools" `Quick
            test_long_lived_hypercall_pools;
          Alcotest.test_case "long-lived frame release" `Quick
            test_long_lived_frame_release;
          Alcotest.test_case "alloc counters jobs-invariant" `Quick
            test_alloc_counters_jobs_invariant;
          Alcotest.test_case "alloc attribution agrees with Gc" `Quick
            test_alloc_attribution_agrees;
          Alcotest.test_case "campaign minor words" `Quick
            test_campaign_minor_words_recorded;
          Alcotest.test_case "boot word ceiling" `Quick test_prepare_words;
          Alcotest.test_case "boot major word ceiling" `Quick test_prepare_major_words;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "rng save/reseed roundtrip" `Quick
            test_rng_save_roundtrip;
          Alcotest.test_case "snapshot after snapshot" `Quick
            test_snapshot_after_snapshot;
          Alcotest.test_case "restore after died" `Quick test_restore_after_died;
          Alcotest.test_case "restore words vs fresh boot" `Quick
            test_restore_words_vs_fresh_boot;
          Alcotest.test_case "zero-leak restore audit" `Quick
            test_restore_zero_leak_audit;
          Alcotest.test_case "superseded image rejected" `Quick
            test_superseded_image_rejected;
          Alcotest.test_case "layered restore matches fresh boot" `Quick
            test_layered_restore_matches_fresh_boot;
          Alcotest.test_case "restore rewinds abandoned handlers" `Quick
            test_restore_rewinds_abandoned_handlers;
          Alcotest.test_case "clone deterministic" `Quick test_clone_deterministic;
          Alcotest.test_case "plain run after fan-out" `Quick
            test_execute_after_fanout_matches_fresh;
          Alcotest.test_case "fanout jobs invariant" `Slow
            test_fanout_jobs_invariant;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "logging costs cycles" `Quick test_overhead_logging_costs_cycles;
          Alcotest.test_case "blkbench worst case" `Quick test_overhead_blkbench_worst_case;
        ] );
    ]
