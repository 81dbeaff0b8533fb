(* Tests for the endurance subsystem: the resource-leak ledger, the
   successive-failure scenario driver, campaign aggregation and the
   satellite changes riding along (configurable watchdog period, audit
   violations as metrics). *)

open Contract

let run_cfg ?fault ?(config = Hyper.Config.nilihype) ?(mech = Recovery.Engine.Nilihype) () =
  {
    (Contract.run_cfg ?fault ~mech:(Inject.Run.Mech (mech, Recovery.Enhancement.full_set)) ())
    with
    Inject.Run.hv_config = config;
  }

let endure_cfg ?fault ?config ?mech ?(cycles = 3) ?(budget = Some 8) () =
  {
    Endure.run_cfg = run_cfg ?fault ?config ?mech ();
    cycles;
    settle_activities = 100;
    leak_budget_pages = budget;
  }

(* ------------------------- Ledger ----------------------------------- *)

(* Satellite: fault-free activity between two quiesce points leaves the
   orphan view untouched -- the ledger's leak fields are workload-
   invariant, so any per-cycle growth is a genuine leak. *)
let test_zero_leak_workload config () =
  let st = Inject.Run.boot_state (run_cfg ~config ()) in
  for _ = 1 to 200 do
    Inject.Run.run_one_activity st
  done;
  let l1 = Hyper.Ledger.capture st.Inject.Run.hv in
  for _ = 1 to 400 do
    Inject.Run.run_one_activity st
  done;
  let l2 = Hyper.Ledger.capture st.Inject.Run.hv in
  let d = Hyper.Ledger.diff ~before:l1 ~after:l2 in
  checkb "no leak across fault-free workload" true (Hyper.Ledger.no_leak d);
  checki "no pages leaked" 0 (Hyper.Ledger.leaked_pages d)

(* A recovery on a perfectly healthy instance must not leak either, for
   both mechanisms and with continued workload afterwards. *)
let test_zero_leak_recovery (mech, config) () =
  let st = Inject.Run.boot_state (run_cfg ~config ~mech ()) in
  for _ = 1 to 200 do
    Inject.Run.run_one_activity st
  done;
  let l1 = Hyper.Ledger.capture st.Inject.Run.hv in
  let outcome =
    Recovery.Engine.recover mech st.Inject.Run.hv
      ~enh:Recovery.Enhancement.full_set ~detected_on:0
  in
  checkb "recovery reports latency" true (outcome.Recovery.Plan.latency > 0);
  for _ = 1 to 200 do
    Inject.Run.run_one_activity st
  done;
  let l2 = Hyper.Ledger.capture st.Inject.Run.hv in
  checkb "no leak across fault-free recovery" true
    (Hyper.Ledger.no_leak (Hyper.Ledger.diff ~before:l1 ~after:l2))

(* Worker reuse: the ledger of a rewound worker machine is structurally
   identical to a fresh boot's. *)
let test_reset_in_place_ledger () =
  let cfg = run_cfg () in
  let fresh = Hyper.Ledger.capture (Inject.Run.boot_state cfg).Inject.Run.hv in
  let w = Inject.Run.prepare cfg in
  ignore (Inject.Run.execute_into w cfg);
  Inject.Run.rewind w cfg;
  let reused = Hyper.Ledger.capture w.Inject.Run.w_hv in
  checkb "fresh and reset-in-place ledgers identical" true (fresh = reused)

let test_leaked_pages_clamp () =
  let st = Inject.Run.boot_state (run_cfg ()) in
  let l = Hyper.Ledger.capture st.Inject.Run.hv in
  let zero = Hyper.Ledger.diff ~before:l ~after:l in
  checkb "self-diff is leak-free" true (Hyper.Ledger.no_leak zero);
  let leaky =
    { zero with Hyper.Ledger.orphan_frames = 5; stale_frame_refs = 2 }
  in
  checki "pages sum orphans and stale refs" 7 (Hyper.Ledger.leaked_pages leaky);
  checkb "leak fields non-empty" true (not (Hyper.Ledger.no_leak leaky));
  (* A repair (negative delta) must not offset the page budget. *)
  let repair = { zero with Hyper.Ledger.orphan_frames = -3 } in
  checki "negative deltas clamp to zero" 0 (Hyper.Ledger.leaked_pages repair)

(* ------------------------- Scenario driver -------------------------- *)

(* One scenario of [cfg] on a freshly booted machine. *)
let fresh_scenario (cfg : Endure.config) ~seed =
  Endure.drive (Inject.Run.boot_state { cfg.Endure.run_cfg with Inject.Run.seed }) cfg

let classes sc = List.map (fun cy -> cy.Endure.cy_class) sc.Endure.sc_cycles

(* Failstop with the full enhancement set: every cycle detects, recovers
   cleanly, and (with undo journal + retries) leaks nothing. *)
let test_scenario_failstop_survives () =
  let cfg = endure_cfg ~cycles:4 () in
  let sc = fresh_scenario cfg ~seed:5L in
  checki "all cycles ran" 4 (List.length sc.Endure.sc_cycles);
  List.iter
    (fun cy ->
      checkb "cycle detected and recovered" true
        (cy.Endure.cy_class = Endure.Cycle_recovered);
      checkb "recovery latency recorded" true (cy.Endure.cy_latency > 0);
      checkb "repairs reported" true (cy.Endure.cy_repairs <> None);
      checkb "cycle leak-free" true (Hyper.Ledger.no_leak cy.Endure.cy_leak))
    sc.Endure.sc_cycles

let test_scenario_rehype_survives () =
  let cfg =
    endure_cfg ~cycles:3 ~config:Hyper.Config.rehype
      ~mech:Recovery.Engine.Rehype ()
  in
  let sc = fresh_scenario cfg ~seed:7L in
  checkb "no cycle died" false
    (List.exists (function Endure.Cycle_died _ -> true | _ -> false) (classes sc));
  checki "all cycles ran" 3 (List.length sc.Endure.sc_cycles)

let test_scenario_requires_mechanism () =
  let cfg =
    {
      (endure_cfg ()) with
      Endure.run_cfg =
        { (run_cfg ()) with Inject.Run.mech = Inject.Run.No_recovery };
    }
  in
  Alcotest.check_raises "no mechanism rejected"
    (Invalid_argument "Endure.drive: endurance needs a recovery mechanism")
    (fun () -> ignore (fresh_scenario cfg ~seed:1L))

(* ------------------------- Aggregation ------------------------------ *)

let zero_diff () =
  let st = Inject.Run.boot_state (run_cfg ()) in
  let l = Hyper.Ledger.capture st.Inject.Run.hv in
  Hyper.Ledger.diff ~before:l ~after:l

let make_cycle ?(cls = Endure.Cycle_recovered) ~index leak =
  {
    Endure.cy_index = index;
    cy_class = cls;
    cy_detection = None;
    cy_latent_trigger = false;
    cy_latency = 1_000;
    cy_leak = leak;
    cy_leaked_pages = Hyper.Ledger.leaked_pages leak;
    cy_repairs = None;
  }

let make_scenario ?(seed = 1L) cycles =
  { Endure.sc_seed = seed; sc_cycles = cycles; sc_postmortem = None }

let test_budget_accounting () =
  let zero = zero_diff () in
  let leaky =
    { zero with Hyper.Ledger.orphan_frames = 5; stale_frame_refs = 2 }
  in
  let cfg = endure_cfg ~cycles:2 ~budget:(Some 4) () in
  let t = Endure.make_totals ~cycles:2 () in
  Endure.add_scenario t cfg
    (make_scenario [ make_cycle ~index:0 zero; make_cycle ~index:1 leaky ]);
  checki "one budget violation (7 > 4)" 1 t.Endure.budget_violations;
  checki "worst recovery recorded" 7 t.Endure.max_leaked_pages;
  let leaks = Sim.Stats.Counts.sorted t.Endure.leaks in
  checki "orphan frames attributed" 5 (List.assoc "orphan_frames" leaks);
  checki "stale refs attributed" 2 (List.assoc "stale_frame_refs" leaks);
  let t' = Endure.make_totals ~cycles:2 () in
  Endure.add_scenario t' (endure_cfg ~cycles:2 ~budget:(Some 7) ())
    (make_scenario [ make_cycle ~index:0 zero; make_cycle ~index:1 leaky ]);
  checki "no violation when within budget" 0 t'.Endure.budget_violations

let test_merge_commutative () =
  let zero = zero_diff () in
  let leaky = { zero with Hyper.Ledger.orphan_frames = 3 } in
  let cfg = endure_cfg ~cycles:2 ~budget:(Some 1) () in
  let sc_a =
    make_scenario ~seed:1L
      [ make_cycle ~index:0 zero; make_cycle ~index:1 leaky ]
  in
  let sc_b =
    make_scenario ~seed:2L
      [
        make_cycle ~index:0 leaky;
        make_cycle ~cls:(Endure.Cycle_died "recovery_failed") ~index:1 zero;
      ]
  in
  let build scs =
    let t = Endure.make_totals ~cycles:2 () in
    List.iter (Endure.add_scenario t cfg) scs;
    t
  in
  let ab = build [ sc_a ] and ba = build [ sc_b ] in
  Endure.merge_into ab ba;
  let ba' = build [ sc_b ] and ab' = build [ sc_a ] in
  Endure.merge_into ba' ab';
  endure_totals "merge is commutative" ab ba';
  let direct = build [ sc_a; sc_b ] in
  endure_totals "merge equals sequential accumulation" ab direct;
  checki "death cause tallied" 1
    (List.assoc "recovery_failed" (Sim.Stats.Counts.sorted direct.Endure.death_notes))

(* The endurance campaign analogue of the parallel-campaign determinism
   contract: survival curve, leak totals and metric snapshots are
   bit-identical for any worker count. *)
let test_campaign_parallel_deterministic () =
  let cfg = endure_cfg ~fault:Inject.Fault.Register ~cycles:4 () in
  let seq, _ =
    jobs_invariant endure_snapshot (fun ~jobs ~oversubscribe ->
        Endure.run ~base_seed:300L ~jobs ~oversubscribe ~scenarios:8 cfg)
  in
  checki "scenarios counted" 8 seq.Endure.totals.Endure.scenarios;
  checkb "survival curve well-formed" true
    (Array.for_all
       (fun (_, s, c) -> s >= 0.0 && s <= 1.0 && c >= 0.0 && c <= 1.0)
       (Endure.survival_curve seq))

(* Seal boundaries, as for campaigns: each scenario's metrics fold in
   place into the worker's registry, snapshotted once per chunk. Chunks
   of one scenario, the default chunk and one chunk of all scenarios,
   each at jobs 1 and 2, give the checkpoint payload bytes of a direct
   loop that merges every scenario's own snapshot. *)
let test_seal_boundaries () =
  let cfg = endure_cfg ~fault:Inject.Fault.Register ~cycles:3 () in
  let scenarios = 10 and base_seed = 310L in
  let reference =
    let recorder = Obs.Recorder.create ~capacity:1 ~min_level:Obs.Event.Error () in
    ignore (Endure.instruments recorder);
    let w = Inject.Run.prepare ~recorder cfg.Endure.run_cfg in
    let t = Endure.make_totals ~cycles:cfg.Endure.cycles () in
    for i = 0 to scenarios - 1 do
      let seed = Int64.add base_seed (Int64.of_int i) in
      Endure.add_scenario t cfg (Endure.scenario_on_worker w cfg ~seed);
      t.Endure.metrics <-
        Obs.Metrics.merge_snapshots t.Endure.metrics
          (Obs.Recorder.metrics_snapshot recorder)
    done;
    t
  in
  seal_invisible ~n:scenarios ~reference endure_totals
    (fun ~chunk ~jobs ~oversubscribe ->
      (Endure.run ~base_seed ~jobs ~oversubscribe ?chunk ~scenarios cfg).Endure.totals)

(* The paper's "few pages per recovery" claim as a ceiling: six
   failstop NiLiHype scenarios of twelve successive recoveries each on
   one instance, and no recovery leaks more than 8 pages. *)
let test_campaign_within_leak_budget () =
  let cfg = { (endure_cfg ~cycles:12 ()) with Endure.settle_activities = 120 } in
  let r = Endure.run ~base_seed:96_000L ~jobs:1 ~scenarios:6 cfg in
  checki "scenarios counted" 6 r.Endure.totals.Endure.scenarios;
  checki "no recovery over the 8-page budget" 0
    r.Endure.totals.Endure.budget_violations

(* ------------------------- One fault cycle -------------------------- *)

(* A scenario runs the single-shot fault cycle ({!Inject.Run.fault_cycle}),
   so cycle 0 of a 1-cycle scenario is the single-shot run of the same
   config through recovery: the same detection and the same recovery
   latency (0 when the recovery aborted, the plan's latency when it
   completed, died cycles included). Both
   run on one worker machine, restored between runs: test_inject's
   worker-reuse contract makes that a fresh boot's run. *)
let test_cycle_zero_is_single_shot fault () =
  let cfg = endure_cfg ~fault ~cycles:1 () in
  let w = Inject.Run.prepare cfg.Endure.run_cfg in
  for i = 0 to 199 do
    let seed = Int64.of_int (30_000 + i) in
    let detection, latency =
      match Inject.Run.execute_into w { cfg.Endure.run_cfg with Inject.Run.seed } with
      | Inject.Run.Detected d ->
        ( Some (Hyper.Crash.describe d.Inject.Run.detection),
          d.Inject.Run.recovery_latency )
      | Inject.Run.Non_manifested | Inject.Run.Silent_corruption -> (None, 0)
    in
    let cy = List.hd (Endure.scenario_on_worker w cfg ~seed).Endure.sc_cycles in
    let what = Printf.sprintf "seed %Ld: %s" seed in
    Alcotest.(check (option string)) (what "detection") detection
      cy.Endure.cy_detection;
    checki (what "recovery latency") latency cy.Endure.cy_latency
  done

(* The discard scope reaches endurance: under [Scope_faulting_only], on
   every seed whose single-shot recovery a surviving thread aborts, the
   1-cycle scenario of the same seed dies at cycle 0 with
   "recovery_failed". *)
let test_scope_faulting_only_dies () =
  let run_cfg =
    { (run_cfg ()) with Inject.Run.discard_scope = Inject.Run.Scope_faulting_only }
  in
  let cfg = { (endure_cfg ~cycles:1 ()) with Endure.run_cfg } in
  let w = Inject.Run.prepare run_cfg in
  let aborted = ref 0 in
  for i = 1000 to 1059 do
    let seed = Int64.of_int i in
    match Inject.Run.execute_into w { run_cfg with Inject.Run.seed } with
    | Inject.Run.Detected
        { Inject.Run.recovered = false; failure_reason = Some why; _ }
      when String.starts_with ~prefix:"recovery aborted: surviving thread" why ->
      incr aborted;
      let sc = Endure.scenario_on_worker w cfg ~seed in
      checkb
        (Printf.sprintf "seed %d died at cycle 0 of recovery_failed" i)
        true
        (classes sc = [ Endure.Cycle_died "recovery_failed" ])
    | Inject.Run.Detected _ | Inject.Run.Non_manifested
    | Inject.Run.Silent_corruption -> ()
  done;
  checkb "some single-shot recoveries aborted" true (!aborted > 0)

(* Every death counts in [endure.deaths], PrivVM failures included: the
   ReHype code-fault campaign of nlh_endurance's defaults at seed 77000
   has all three death causes. *)
let test_deaths_counter () =
  let mech = Recovery.Engine.Rehype in
  let cfg =
    {
      Endure.default_config with
      Endure.run_cfg =
        run_cfg ~fault:Inject.Fault.Code ~mech
          ~config:(Recovery.Engine.config mech) ();
    }
  in
  let t = (Endure.run ~base_seed:77_000L ~scenarios:8 cfg).Endure.totals in
  checkb "a PrivVM death" true
    (List.mem_assoc "privvm_failed" (Sim.Stats.Counts.sorted t.Endure.death_notes));
  checki "endure.deaths counts every death" t.Endure.deaths
    (List.assoc "endure.deaths" t.Endure.metrics.Obs.Metrics.counters)

(* ------------------------- Report ----------------------------------- *)

(* The endurance pin's run (nlh_endurance --fault register --seed 4242
   --scenarios 8 --cycles 20), with its checkpoint file's contents. *)
let pin_run =
  lazy
    (with_temp (fun ck_path ->
         let cfg =
           { Endure.default_config with Endure.run_cfg = run_cfg ~fault:Inject.Fault.Register () }
         in
         let checkpoint =
           { Inject.Drive.ck_path; ck_every = 16; ck_resume = false; ck_stop_after = None }
         in
         let r = Endure.run ~base_seed:4242L ~checkpoint ~scenarios:8 cfg in
         (r, read_file ck_path)))

let report_file =
  lazy
    (Endure.report_json
       ~meta:[ ("tool", `String "test_endure"); ("label", `String "a \"quoted\" label") ]
       (fst (Lazy.force pin_run)))

let test_report_round_trip () =
  match Endure.report_of_string (Lazy.force report_file) with
  | Ok t -> endure_totals "decoded report" (fst (Lazy.force pin_run)).Endure.totals t
  | Error e -> Alcotest.failf "report rejected: %s" e

(* The report's "totals" member is the checkpoint payload's, byte for
   byte: the report restates no field of the aggregate. *)
let test_report_totals_are_payload () =
  let totals what contents =
    match Obs.Json.parse_document contents with
    | Ok root ->
      let root = Option.value ~default:root (Obs.Json.member "payload" root) in
      Obs.Json.render (Option.get (Obs.Json.member "totals" root))
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  checks "report totals = checkpoint payload totals"
    (totals "checkpoint" (snd (Lazy.force pin_run)))
    (totals "report" (Lazy.force report_file))

let test_report_rejects_inconsistent () =
  let report = Lazy.force report_file in
  List.iter
    (fun (what, from, into) ->
      checkb what true
        (Result.is_error (Endure.report_of_string (replace_first report (from, into)))))
    [
      ("the /1 schema", {|"nlh-endurance/2"|}, {|"nlh-endurance/1"|});
      ("negative host figure", {|"jobs":1|}, {|"jobs":-1|});
      ("no host object", {|"host":|}, {|"hosts":|});
      ("scenarios <> survived + deaths", {|"scenarios":8|}, {|"scenarios":9|});
      ("short per-cycle row", "[8,6,2,0,0,0,0,3310720,2]", "[8,6,2,0,0,0,0,3310720]");
    ]

(* ------------------------- Satellites ------------------------------- *)

(* Satellite: the NMI-watchdog hang-detection period is a config field
   threaded into detection-latency accounting. *)
let test_watchdog_period_configurable () =
  let base = Hyper.Config.nilihype in
  checki "default: three 100 ms periods" (Sim.Time.ms 300)
    (Hyper.Crash.detection_latency ~config:base (Hyper.Crash.Hang "wedged"));
  let slow = { base with Hyper.Config.watchdog_period_ms = 250 } in
  checki "250 ms period: three periods" (Sim.Time.ms 750)
    (Hyper.Crash.detection_latency ~config:slow (Hyper.Crash.Hang "wedged"));
  checki "panic latency unaffected" (Sim.Time.us 10)
    (Hyper.Crash.detection_latency ~config:slow (Hyper.Crash.Panic "boom"))

(* Satellite: audit violations land as per-kind counters, all registered
   eagerly so metric snapshots are structurally stable. *)
let test_audit_violation_counters () =
  let hv = boot () in
  let snap0 = Obs.Recorder.metrics_snapshot hv.Hyper.Hypervisor.obs in
  List.iter
    (fun kind ->
      checkb (Printf.sprintf "audit.%s registered at boot" kind) true
        (List.mem_assoc ("audit." ^ kind) snap0.Obs.Metrics.counters))
    Hyper.Hypervisor.audit_violation_kinds;
  (* Leave a static lock held: the audit must flag it and the counter
     must move. *)
  Hyper.Spinlock.Segment.iter hv.Hyper.Hypervisor.static_segment (fun l ->
      if l.Hyper.Spinlock.name = "console" then Hyper.Spinlock.acquire l ~cpu:0);
  let report = Hyper.Hypervisor.audit hv in
  checkb "audit not clean" false (Hyper.Hypervisor.audit_clean report);
  Hyper.Hypervisor.record_audit_violations hv report;
  let snap = Obs.Recorder.metrics_snapshot hv.Hyper.Hypervisor.obs in
  checkb "static-locks counter incremented" true
    (List.assoc "audit.static_locks_held" snap.Obs.Metrics.counters >= 1)

let () =
  Alcotest.run "endure"
    [
      ( "ledger",
        [
          Alcotest.test_case "zero leak: fault-free workload (nilihype)" `Quick
            (test_zero_leak_workload Hyper.Config.nilihype);
          Alcotest.test_case "zero leak: fault-free workload (rehype)" `Quick
            (test_zero_leak_workload Hyper.Config.rehype);
          Alcotest.test_case "zero leak: healthy microreset" `Quick
            (test_zero_leak_recovery
               (Recovery.Engine.Nilihype, Hyper.Config.nilihype));
          Alcotest.test_case "zero leak: healthy microreboot" `Quick
            (test_zero_leak_recovery
               (Recovery.Engine.Rehype, Hyper.Config.rehype));
          Alcotest.test_case "reset-in-place ledger identical" `Quick
            test_reset_in_place_ledger;
          Alcotest.test_case "leaked pages clamp" `Quick test_leaked_pages_clamp;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "failstop scenario survives leak-free" `Slow
            test_scenario_failstop_survives;
          Alcotest.test_case "rehype scenario survives" `Slow
            test_scenario_rehype_survives;
          Alcotest.test_case "mechanism required" `Quick
            test_scenario_requires_mechanism;
        ] );
      ( "cycle",
        [
          Alcotest.test_case "cycle 0 is single-shot (failstop)" `Quick
            (test_cycle_zero_is_single_shot Inject.Fault.Failstop);
          Alcotest.test_case "cycle 0 is single-shot (register)" `Quick
            (test_cycle_zero_is_single_shot Inject.Fault.Register);
          Alcotest.test_case "cycle 0 is single-shot (code)" `Quick
            (test_cycle_zero_is_single_shot Inject.Fault.Code);
          Alcotest.test_case "faulting-only scope dies" `Quick
            test_scope_faulting_only_dies;
          Alcotest.test_case "deaths counter" `Quick test_deaths_counter;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "budget accounting" `Quick test_budget_accounting;
          Alcotest.test_case "merge commutative" `Quick test_merge_commutative;
          Alcotest.test_case "jobs=1 vs jobs=4 identical" `Slow
            test_campaign_parallel_deterministic;
          Alcotest.test_case "failstop within leak budget" `Quick
            test_campaign_within_leak_budget;
          Alcotest.test_case "seal boundaries invisible" `Quick
            test_seal_boundaries;
        ] );
      ( "report",
        [
          Alcotest.test_case "round trip" `Quick test_report_round_trip;
          Alcotest.test_case "totals are the checkpoint payload" `Quick
            test_report_totals_are_payload;
          Alcotest.test_case "inconsistent reports rejected" `Quick
            test_report_rejects_inconsistent;
        ]
        @ damage ~label:"nlh-endurance/2"
            [ file "report" report_file Endure.report_of_string ] );
      ( "satellites",
        [
          Alcotest.test_case "watchdog period configurable" `Quick
            test_watchdog_period_configurable;
          Alcotest.test_case "audit violation counters" `Quick
            test_audit_violation_counters;
        ] );
    ]
