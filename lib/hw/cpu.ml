(** Physical CPU model: a register file, interrupt-enable state, the
    hypervisor stack cursor and the local APIC. *)

type exec_state =
  | Running (* executing guest or hypervisor code *)
  | Halted (* parked (ReHype parks all but one CPU during recovery) *)
  | Spinning of string (* stuck on a named resource; watchdog-visible *)
  | Busy_wait (* NiLiHype recovery rendezvous *)

type t = {
  id : int;
  regs : Regs.t;
  apic : Apic.t;
  mutable irq_enabled : bool;
  mutable state : exec_state;
  mutable in_hypervisor : bool;
  mutable hv_stack_depth : int;
      (* nesting of hypervisor frames; "discarding the stack" resets it *)
  mutable unhalted_cycles : int;
  mutable fsgs_saved : (int64 * int64) option;
      (* set on hypervisor entry when the Save-FS/GS fix is enabled *)
}

let create id =
  {
    id;
    regs = Regs.create ();
    apic = Apic.create id;
    irq_enabled = true;
    state = Running;
    in_hypervisor = false;
    hv_stack_depth = 0;
    unhalted_cycles = 0;
    fsgs_saved = None;
  }

let disable_interrupts t = t.irq_enabled <- false
let enable_interrupts t = t.irq_enabled <- true

let charge_cycles t n = t.unhalted_cycles <- t.unhalted_cycles + n

(* Microreset: discard this CPU's hypervisor execution thread by resetting
   the stack pointer to the top of the per-CPU hypervisor stack. *)
let discard_hypervisor_stack t =
  t.hv_stack_depth <- 0;
  t.in_hypervisor <- false;
  Regs.set t.regs Regs.RSP 0x8000L
