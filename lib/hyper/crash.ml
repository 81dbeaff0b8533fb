(** Hypervisor failure signalling.

    A [Panic] models a fatal hardware exception or failed software
    assertion (detected immediately by Xen's built-in panic path). A
    [Hang] models a CPU stuck in the hypervisor (spinning on a dead lock,
    broken data structure loop); it is detected by the NMI watchdog after
    roughly three 100 ms periods. *)

type detection =
  | Panic of string
  | Hang of string

exception Hypervisor_crash of detection

let panic fmt = Format.kasprintf (fun s -> raise (Hypervisor_crash (Panic s))) fmt
let hang fmt = Format.kasprintf (fun s -> raise (Hypervisor_crash (Hang s))) fmt

(* Xen asserts liberally; failed assertions are panics. Call sites test
   the condition themselves, [if not cond then assert_failed fmt ...],
   so a passing assertion builds no format closures: these checks sit on
   the context-switch, tick and page-reference hot paths. *)
let assert_failed fmt =
  Format.kasprintf (fun s -> raise (Hypervisor_crash (Panic ("ASSERT: " ^ s)))) fmt

(* Panics trap immediately; hangs wait for the NMI watchdog, i.e.
   [Config.watchdog_hang_periods] ticks of the configured period
   (three 100 ms periods by default, as in the paper). *)
let detection_latency ?(config = Config.nilihype) = function
  | Panic _ -> Sim.Time.us 10
  | Hang _ -> Config.hang_detection_latency config

let describe = function
  | Panic s -> "panic: " ^ s
  | Hang s -> "hang: " ^ s

let pp fmt d = Format.pp_print_string fmt (describe d)
