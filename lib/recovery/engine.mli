(** Unified interface over the two component-level recovery mechanisms. *)

type mechanism =
  | Nilihype (* microreset: reset to a quiescent state, no reboot *)
  | Rehype (* microreboot: boot a new instance, re-integrate state *)

val mechanism_name : mechanism -> string

val config : mechanism -> Hyper.Config.t
(** The normal-operation configuration each mechanism requires (ReHype
    additionally needs IO-APIC write logging and boot-line logging). *)

val recover :
  mechanism ->
  Hyper.Hypervisor.t ->
  enh:Enhancement.set ->
  detected_on:int ->
  Plan.outcome
(** Runs the mechanism's serial plan through {!Plan.run}. Raises
    [Hyper.Crash.Hypervisor_crash] when recovery itself fails; a
    recovery attempt that dies invalidates the pfn dirty tracking before
    the exception propagates, so a later attempt on the same instance
    automatically falls back to the full consistency scan. *)

val measure :
  ?mconfig:Hw.Machine.config ->
  ?obs:Obs.Recorder.t ->
  mechanism ->
  Plan.outcome
(** A clean-recovery latency breakdown (Tables II and III): boots the
    1AppVM platform on [mconfig] (default: the paper's 8 GB / 8 CPU
    machine) with the mechanism's {!config}, recording into [obs] when
    given, enters detection context on every CPU and recovers with the
    full enhancement set. No fault is injected. *)
