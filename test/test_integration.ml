(* End-to-end integration tests: whole fault-injection runs through
   Inject.Run and Inject.Campaign, checking the paper's headline claims
   at small scale. *)

open Contract

(* A 3AppVM campaign with [mechanism]'s full enhancement set. *)
let campaign ~fault ~mechanism ~runs =
  let cfg =
    {
      Inject.Run.default_config with
      Inject.Run.fault;
      mech = Inject.Run.Mech (mechanism, Recovery.Enhancement.full_set);
      hv_config = Recovery.Engine.config mechanism;
    }
  in
  Inject.Campaign.run ~n:runs cfg

let test_quickstart_flow () =
  (* The README quickstart: boot, damage, recover, verify. *)
  let hv =
    Hyper.Hypervisor.boot ~mconfig:Hw.Machine.campaign_config
      ~config:Hyper.Config.nilihype ~setup:Hyper.Hypervisor.Three_appvm
      (Sim.Clock.create ())
  in
  let healthy () = Hyper.Hypervisor.audit_clean (Hyper.Hypervisor.audit hv) in
  checkb "healthy at boot" true (healthy ());
  (try
     Hyper.Hypervisor.execute_partial hv (Sim.Rng.create 42L)
       (Hyper.Hypervisor.Timer_tick 1) ~stop_at:4
   with Hyper.Crash.Hypervisor_crash _ -> ());
  Array.iter Hyper.Percpu.irq_enter hv.Hyper.Hypervisor.percpu;
  checkb "dirty after damage" false (healthy ());
  let o =
    Recovery.Engine.recover Recovery.Engine.Nilihype hv
      ~enh:Recovery.Enhancement.full_set ~detected_on:0
  in
  checkb "recovered quickly" true (o.Recovery.Plan.latency < Sim.Time.ms 5);
  checkb "healthy after recovery" true (healthy ())

let test_failstop_campaign_headline () =
  (* Both mechanisms recover the overwhelming majority of failstop
     faults, at essentially the same rate (Figure 2, failstop bars). *)
  let rate mechanism =
    let r = campaign ~fault:Inject.Fault.Failstop ~mechanism ~runs:120 in
    Sim.Stats.rate (Inject.Campaign.success_rate r)
  in
  let nl = rate Recovery.Engine.Nilihype in
  let re = rate Recovery.Engine.Rehype in
  checkb "NiLiHype high" true (nl > 0.88);
  checkb "ReHype high" true (re > 0.88);
  checkb "essentially identical" true (abs_float (nl -. re) < 0.06)

let test_latency_headline () =
  (* NiLiHype recovers >30x faster than ReHype (the paper's headline). *)
  let total m =
    Hyper.Latency_model.total (Recovery.Engine.measure m).Recovery.Plan.breakdown
  in
  let nl = total Recovery.Engine.Nilihype and re = total Recovery.Engine.Rehype in
  checkb "NiLiHype ~22ms" true (nl >= Sim.Time.ms 21 && nl <= Sim.Time.ms 23);
  checkb "ReHype ~713ms" true (re >= Sim.Time.ms 700 && re <= Sim.Time.ms 725);
  checkb ">30x" true (re > 30 * nl)

let test_enhancement_ladder_monotone () =
  (* Table I: every enhancement (weakly) improves the recovery rate. *)
  let rates =
    List.map
      (fun (_, hv_config, enh) ->
        let cfg =
          {
            Inject.Run.default_config with
            Inject.Run.fault = Inject.Fault.Failstop;
            setup = Inject.Run.One_appvm Workloads.Workload.Unixbench;
            mech = Inject.Run.Mech (Recovery.Engine.Nilihype, enh);
            hv_config;
          }
        in
        let r = Inject.Campaign.run ~base_seed:400L ~n:80 cfg in
        Sim.Stats.rate (Inject.Campaign.success_rate r))
      Recovery.Enhancement.table1_ladder
  in
  (match rates with
  | basic :: _ -> checkb "basic never succeeds" true (basic = 0.0)
  | [] -> Alcotest.fail "no ladder");
  let rec weakly_monotone tolerance = function
    | a :: (b :: _ as rest) -> b >= a -. tolerance && weakly_monotone tolerance rest
    | _ -> true
  in
  checkb "ladder (weakly) monotone" true (weakly_monotone 0.05 rates);
  checkb "full set above 90%" true (List.nth rates 6 > 0.90)

let test_outcome_one_call () =
  match
    Inject.Run.run
      {
        Inject.Run.default_config with
        Inject.Run.seed = 5L;
        fault = Inject.Fault.Failstop;
      }
  with
  | Inject.Run.Detected d ->
    checkb "recovered" true d.Inject.Run.recovered;
    checkb "latency present" true (d.Inject.Run.recovery_latency > 0)
  | _ -> Alcotest.fail "failstop must be detected"

let test_sdc_rarer_than_detected_for_code () =
  let r =
    campaign ~fault:Inject.Fault.Code ~mechanism:Recovery.Engine.Nilihype
      ~runs:150
  in
  let _, sdc, det = Inject.Campaign.breakdown r in
  checkb "SDC < detected (Code faults)" true (sdc < det)

let test_full_geometry_run () =
  (* One complete failstop run at the paper's real 8 GB geometry: the
     page-frame scan walks 2 Mi descriptors. *)
  let cfg =
    {
      Inject.Run.default_config with
      Inject.Run.seed = 77L;
      mconfig = Hw.Machine.default_config;
      fault = Inject.Fault.Failstop;
    }
  in
  match Inject.Run.run cfg with
  | Inject.Run.Detected d ->
    checkb "latency about 22ms" true
      (d.Inject.Run.recovery_latency > Sim.Time.ms 21
       && d.Inject.Run.recovery_latency < Sim.Time.ms 24)
  | _ -> Alcotest.fail "failstop must be detected"

let () =
  Alcotest.run "integration"
    [
      ( "end_to_end",
        [
          Alcotest.test_case "quickstart flow" `Quick test_quickstart_flow;
          Alcotest.test_case "failstop campaign headline" `Slow
            test_failstop_campaign_headline;
          Alcotest.test_case "latency headline >30x" `Quick test_latency_headline;
          Alcotest.test_case "enhancement ladder monotone" `Slow
            test_enhancement_ladder_monotone;
          Alcotest.test_case "one-call experiment" `Quick test_outcome_one_call;
          Alcotest.test_case "code SDC < detected" `Slow
            test_sdc_rarer_than_detected_for_code;
          Alcotest.test_case "full 8GB geometry run" `Quick test_full_geometry_run;
        ] );
    ]
