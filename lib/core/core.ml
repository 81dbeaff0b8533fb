(** NiLiHype: fast hypervisor recovery without reboot -- public API.

    This library reproduces the system of Zhou & Tamir, "Fast Hypervisor
    Recovery Without Reboot" (DSN 2018): microreset-based component-level
    recovery of a (simulated) Xen-like hypervisor, the microreboot-based
    ReHype baseline, the Gigan-style fault injector used to evaluate
    them, and the three synthetic benchmarks of the paper's evaluation.

    Quick start:
    {[
      let outcome =
        Core.Experiment.inject_one ~fault:Core.Experiment.Register
          ~mechanism:Core.Experiment.Nilihype ~seed:42L ()
      in
      Format.printf "%a@." Core.Experiment.pp_outcome outcome
    ]}

    Sub-module map (each re-exported from its implementation library):
    - {!Sim}: deterministic discrete-event substrate
    - {!Hw}: machine model (CPUs, APICs, IO-APIC)
    - {!Hyper}: the simulated hypervisor
    - {!Recovery}: microreset (NiLiHype) and microreboot (ReHype)
    - {!Workloads}: BlkBench / UnixBench / NetBench
    - {!Inject}: fault injection and campaigns *)

module Sim = Sim
module Hw = Hw
module Obs = Obs
module Hyper = Hyper
module Guest = Guest
module Recovery = Recovery
module Workloads = Workloads
module Inject = Inject

(** High-level system construction. *)
module System = struct
  type setup = One_appvm | Three_appvm

  type t = {
    hypervisor : Hyper.Hypervisor.t;
    clock : Sim.Clock.t;
    rng : Sim.Rng.t;
  }

  (* Boot a virtualized system: Xen-like hypervisor, PrivVM on CPU 0,
     AppVMs pinned to their own CPUs, idle domain. *)
  let boot ?(seed = 42L) ?(config = Hyper.Config.nilihype)
      ?(machine = Hw.Machine.campaign_config) ~setup () =
    let clock = Sim.Clock.create () in
    let hv_setup =
      match setup with
      | One_appvm -> Hyper.Hypervisor.One_appvm
      | Three_appvm -> Hyper.Hypervisor.Three_appvm
    in
    let hypervisor =
      Hyper.Hypervisor.boot ~mconfig:machine ~config ~setup:hv_setup clock
    in
    { hypervisor; clock; rng = Sim.Rng.create seed }

  let execute t activity = Hyper.Hypervisor.execute t.hypervisor t.rng activity
  let audit t = Hyper.Hypervisor.audit t.hypervisor
  let healthy t = Hyper.Hypervisor.audit_clean (audit t)

  (* Recover the hypervisor with the given mechanism; returns the
     recovery latency in simulated nanoseconds. *)
  let recover ?(enh = Recovery.Enhancement.full_set)
      ?(mechanism = Recovery.Engine.Nilihype) ?(detected_on = 0) t =
    let outcome =
      Recovery.Engine.recover mechanism t.hypervisor ~enh ~detected_on
    in
    outcome.Recovery.Plan.latency
end

(** One-call fault-injection experiments. *)
module Experiment = struct
  type fault = Failstop | Register | Code | Data
  type mechanism = Nilihype | Rehype

  let to_inject_fault = function
    | Failstop -> Inject.Fault.Failstop
    | Register -> Inject.Fault.Register
    | Code -> Inject.Fault.Code
    | Data -> Inject.Fault.Data

  let to_engine = function
    | Nilihype -> Recovery.Engine.Nilihype
    | Rehype -> Recovery.Engine.Rehype

  type outcome = Inject.Run.outcome

  let inject_one ?(setup = Inject.Run.Three_appvm) ~fault ~mechanism ~seed () =
    let cfg =
      {
        Inject.Run.default_config with
        Inject.Run.seed;
        fault = to_inject_fault fault;
        setup;
        mech = Inject.Run.Mech (to_engine mechanism, Recovery.Enhancement.full_set);
        hv_config =
          (match mechanism with
          | Nilihype -> Hyper.Config.nilihype
          | Rehype -> Hyper.Config.rehype);
      }
    in
    Inject.Run.run cfg

  let campaign ?(setup = Inject.Run.Three_appvm) ?(base_seed = 10_000L)
      ?(jobs = 1) ~fault ~mechanism ~runs () =
    let cfg =
      {
        Inject.Run.default_config with
        Inject.Run.fault = to_inject_fault fault;
        setup;
        mech = Inject.Run.Mech (to_engine mechanism, Recovery.Enhancement.full_set);
        hv_config =
          (match mechanism with
          | Nilihype -> Hyper.Config.nilihype
          | Rehype -> Hyper.Config.rehype);
      }
    in
    Inject.Campaign.run ~base_seed ~jobs ~n:runs cfg

  let pp_outcome fmt (o : outcome) =
    match o with
    | Inject.Run.Non_manifested | Inject.Run.Silent_corruption ->
      Format.pp_print_string fmt (Inject.Run.outcome_label o)
    | Inject.Run.Detected d ->
      Format.fprintf fmt "detected (%a); %s; recovery latency %a"
        Hyper.Crash.pp d.Inject.Run.detection
        (if d.Inject.Run.success then "successful recovery" else "recovery FAILED")
        Sim.Time.pp d.Inject.Run.recovery_latency
end

(** Recovery-latency measurement at full machine geometry (Tables II and
    III of the paper). *)
module Latency = struct
  (* Measure a clean-recovery latency breakdown on the reference 8 GB /
     8 CPU machine (no fault: the latency is dominated by machine
     geometry, not damage). *)
  let measure mechanism =
    let clock = Sim.Clock.create () in
    let config = Recovery.Engine.config mechanism in
    let hv =
      Hyper.Hypervisor.boot ~mconfig:Hw.Machine.default_config ~config
        ~setup:Hyper.Hypervisor.One_appvm clock
    in
    (* Enter detection context as a real recovery would. *)
    Array.iter Hyper.Percpu.irq_enter hv.Hyper.Hypervisor.percpu;
    Recovery.Engine.recover mechanism hv ~enh:Recovery.Enhancement.full_set
      ~detected_on:0

  let nilihype_breakdown () =
    let o = measure Recovery.Engine.Nilihype in
    o.Recovery.Plan.breakdown

  let rehype_breakdown () =
    let o = measure Recovery.Engine.Rehype in
    o.Recovery.Plan.breakdown
end
