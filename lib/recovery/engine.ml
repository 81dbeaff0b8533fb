(** Unified interface over the two component-level recovery mechanisms. *)

type mechanism =
  | Nilihype (* microreset: reset to a quiescent state, no reboot *)
  | Rehype (* microreboot: boot a new instance, re-integrate state *)

let mechanism_name = function Nilihype -> "NiLiHype" | Rehype -> "ReHype"

(* The normal-operation configuration each mechanism requires. *)
let config = function
  | Nilihype -> Hyper.Config.nilihype
  | Rehype -> Hyper.Config.rehype

let recover = function
  | Nilihype -> Microreset.recover
  | Rehype -> Microreboot.recover

(* No fault is injected: a clean recovery's latency is set by the
   machine geometry, not by damage. *)
let measure ?(mconfig = Hw.Machine.default_config) ?obs mechanism =
  let clock = Sim.Clock.create () in
  let hv =
    Hyper.Hypervisor.boot ~mconfig ?obs ~config:(config mechanism)
      ~setup:Hyper.Hypervisor.One_appvm clock
  in
  (* Enter detection context as a real recovery would. *)
  Array.iter Hyper.Percpu.irq_enter hv.Hyper.Hypervisor.percpu;
  recover mechanism hv ~enh:Enhancement.full_set ~detected_on:0
