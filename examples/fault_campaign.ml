(* Fault-injection campaign: inject register bit-flips into the
   hypervisor under the 3AppVM workload and compare NiLiHype's
   microreset against ReHype's microreboot (a small-scale Figure 2).

     dune exec examples/fault_campaign.exe *)

let () =
  let runs = 200 in
  Format.printf "Injecting %d register faults per mechanism (3AppVM)...@." runs;
  List.iter
    (fun mechanism ->
      let cfg =
        {
          Inject.Run.default_config with
          Inject.Run.fault = Inject.Fault.Register;
          mech = Inject.Run.Mech (mechanism, Recovery.Enhancement.full_set);
          hv_config = Recovery.Engine.config mechanism;
        }
      in
      let r = Inject.Campaign.run ~n:runs cfg in
      let name = Recovery.Engine.mechanism_name mechanism in
      let nm, sdc, det = Inject.Campaign.breakdown r in
      Format.printf
        "%-9s outcomes: %.1f%% non-manifested / %.1f%% SDC / %.1f%% detected@."
        name nm sdc det;
      Format.printf "%-9s recovery success among detected: %a@." name
        Sim.Stats.pp_proportion
        (Inject.Campaign.success_rate r);
      match Inject.Campaign.mean_latency r with
      | Some l ->
        Format.printf "%-9s mean recovery latency: %a@." name Sim.Time.pp_float l
      | None -> ())
    [ Recovery.Engine.Nilihype; Recovery.Engine.Rehype ]
