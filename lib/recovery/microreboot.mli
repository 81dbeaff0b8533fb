(** ReHype: microreboot-based component-level recovery (Section III-B).

    Boots a new hypervisor instance — hardware re-initialisation, fresh
    memory state — then re-integrates preserved state from the failed
    instance (non-free heap pages, page tables, domain structures). The
    reboot gives "free" repairs microreset needs explicit enhancements
    for, at a ~713 ms recovery latency (Table II) and extra
    normal-operation logging (IO-APIC writes, boot-line options). *)

val plan :
  Hyper.Hypervisor.t ->
  enh:Enhancement.set ->
  detected_on:int ->
  Plan.repairs ->
  Plan.t
(** The twelve Table II steps, all global. Raises
    [Hyper.Crash.Hypervisor_crash] if the boot-line options were not
    logged or are corrupted. *)

val recover :
  Hyper.Hypervisor.t -> enh:Enhancement.set -> detected_on:int -> Plan.outcome
(** Raises [Hyper.Crash.Hypervisor_crash] if the reboot cannot complete
    (recovery handler corrupted, boot-line options not logged...). *)
