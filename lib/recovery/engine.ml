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
