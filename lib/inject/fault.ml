(** Fault types injected by the Gigan-equivalent injector (Section VI-C).

    - [Failstop]: the program counter is set to 0; execution stops
      immediately at the injection point (always detected).
    - [Register]: a random bit flip in a random register among the 16
      GPRs, stack pointer, flags and program counter; models transient
      datapath faults.
    - [Code]: a random bit flip in the instruction bytes at the current
      program counter; models instruction fetch/decode faults. The
      injector repairs the corrupted code once an error is detected, so
      the effect is transient -- but detection latency is longer, so
      errors propagate further before detection.
    - [Data]: a bit flip directly in hypervisor *data* structures --
      heap block headers and pfn descriptors -- rather than in the
      datapath. This is the first slice of the wider production fault
      taxonomy (torn writes, ECC corruption): the flip lands in state
      that persists across the injection point, so whether it manifests
      depends on whether anything ever reads the damaged word. *)

type t = Failstop | Register | Code | Data

let name = function
  | Failstop -> "Failstop"
  | Register -> "Register"
  | Code -> "Code"
  | Data -> "Data"

let all = [ Failstop; Register; Code; Data ]

(* Campaign sizes chosen for +/-2% CIs: the first three from
   Section VII-A; [Data] is not in the paper, sized like [Code] (its
   outcome distribution has comparable spread). *)
let paper_campaign_size = function
  | Failstop -> 1000
  | Register -> 5000
  | Code -> 2000
  | Data -> 2000

(* ------------------------------------------------------------------ *)
(* Directed faults: the fuzzer's mutation hook                         *)
(* ------------------------------------------------------------------ *)

(* The second-level trigger's range, in steps: an armed fault fires
   this many steps or fewer after the first-level trigger. *)
let trigger_window_steps = 2000

(* How a directed fault crashes at the injection point (the sampled
   [Profile.manifestation]'s [crash_now] axis, made explicit). *)
type crash_mode = Crash_none | Crash_panic | Crash_hang

(* A fully-determined fault point. When {!Run.config.directive} carries
   one, [Run.arm_fault] applies exactly this fault instead of sampling a
   manifestation from {!Profile}: the corruption target is selected by
   index into {!Corrupt.all} ([-1] = pure crash, no corruption), the
   corruption's internal choices (which frame, which delta...) are drawn
   from a splitmix stream seeded by [d_payload], and the second-level
   trigger fires [d_window mod trigger_window_steps] steps into the
   window. Everything is a pure function of the directive, which is what
   makes a fuzzer corpus entry [(base seed, mutation trace)] replay to
   the identical run. *)
type directive = {
  d_target : int; (* index into {!Corrupt.all}; -1 = crash only *)
  d_payload : int64; (* steers the corruption's internal choices *)
  d_crash : crash_mode;
  d_window : int; (* trigger offset within the window, >= 0 *)
}
