(** NiLiHype: microreset-based component-level recovery (Section V).

    Resets the hypervisor to a quiescent state by discarding all
    execution threads (stack-pointer reset on every CPU), then applies
    the enabled state-consistency enhancements in place. No reboot: the
    entire global state is reused, which bounds recovery latency at
    ~22 ms (dominated by the page-frame consistency scan). *)

val plan :
  Hyper.Hypervisor.t ->
  enh:Enhancement.set ->
  detected_on:int ->
  Plan.repairs ->
  Plan.t
(** The serial plan, all four steps global (Table III): stop the world,
    apply the enhancements, scan the page-frame table -- the full walk,
    or the dirty list when [Hyper.Config.incremental_scan] is set and
    the tracking is intact -- and resume. *)

val recover :
  Hyper.Hypervisor.t -> enh:Enhancement.set -> detected_on:int -> Plan.outcome
(** [recover hv ~enh ~detected_on] runs the serial plan on the CPU that
    detected the error. Raises [Hyper.Crash.Hypervisor_crash] if the
    recovery process itself fails (e.g. the recovery routine was
    corrupted by the fault). *)
