(* Quickstart: boot a virtualized system, crash the hypervisor, recover
   it with NiLiHype's microreset, and show that the VMs survive.

     dune exec examples/quickstart.exe *)

let () =
  (* Boot: Xen-like hypervisor, PrivVM on CPU 0, two AppVMs. *)
  let hv =
    Hyper.Hypervisor.boot ~mconfig:Hw.Machine.campaign_config
      ~config:Hyper.Config.nilihype ~setup:Hyper.Hypervisor.Three_appvm
      (Sim.Clock.create ())
  in
  let rng = Sim.Rng.create 42L in
  let healthy () = Hyper.Hypervisor.audit_clean (Hyper.Hypervisor.audit hv) in
  Format.printf "booted: %d domains, %d CPUs, %d page frames@."
    (Hyper.Domain_table.count (fun _ -> true) hv.Hyper.Hypervisor.domains)
    (Hyper.Hypervisor.cpu_count hv)
    (Hyper.Hypervisor.frames hv);

  (* Run some guest work through the hypervisor. *)
  let unixbench = Workloads.Workload.create Workloads.Workload.Unixbench ~domid:1 in
  for _ = 1 to 200 do
    Hyper.Hypervisor.execute hv rng
      (Workloads.Workload.sample_activity rng unixbench)
  done;
  Format.printf "healthy after 200 activities: %b@." (healthy ());

  (* Simulate a hypervisor failure: an execution thread dies mid-
     hypercall, leaving partial state (a held lock, a half-updated
     scheduler) behind. *)
  (try
     Hyper.Hypervisor.execute_partial hv rng
       (Hyper.Hypervisor.Hypercall
          { domid = 1; vid = 0; kind = Hyper.Hypercalls.Mmu_update 2 })
       ~stop_at:5
   with Hyper.Crash.Hypervisor_crash _ -> ());
  Array.iter Hyper.Percpu.irq_enter hv.Hyper.Hypervisor.percpu;
  let report = Hyper.Hypervisor.audit hv in
  Format.printf "after failure, audit: %a@." Hyper.Hypervisor.pp_audit report;

  (* Microreset recovery: discard all execution threads, repair state,
     resume -- no reboot. *)
  let outcome =
    Recovery.Engine.recover Recovery.Engine.Nilihype hv
      ~enh:Recovery.Enhancement.full_set ~detected_on:0
  in
  Format.printf "NiLiHype recovery completed in %a (simulated)@." Sim.Time.pp
    outcome.Recovery.Plan.latency;

  (* Retry the abandoned hypercall and confirm the system is healthy. *)
  Hyper.Domain_table.iter_vcpus
    (fun (v : Hyper.Domain.vcpu) ->
      if v.Hyper.Domain.retry_pending then
        Hyper.Hypervisor.retry_hypercall hv rng v)
    hv.Hyper.Hypervisor.domains;
  for _ = 1 to 200 do
    Hyper.Hypervisor.execute hv rng
      (Workloads.Workload.sample_activity rng unixbench)
  done;
  Format.printf "healthy after recovery + 200 more activities: %b@."
    (healthy ());
  Format.printf "all VMs alive: %b@."
    (Hyper.Domain_table.find_first
       (fun (d : Hyper.Domain.t) -> not d.Hyper.Domain.alive)
       hv.Hyper.Hypervisor.domains
    = None)
