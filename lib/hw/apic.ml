(** Per-CPU local APIC model.

    Only the parts NiLiHype's recovery interacts with are modelled: the
    one-shot timer (which Xen reprograms from the software timer heap on
    every fire -- the window the "reprogram hardware timer" enhancement
    closes) and the vectors in service, which a handler abandoned by the
    failure never EOIs and the shared "acknowledge interrupts" mechanism
    clears. *)

type t = {
  cpu : int;
  mutable timer_deadline : Sim.Time.ns;
      (* [disarmed] means the one-shot timer is not armed: without
         recovery intervention it will never fire again. A plain int
         rather than an option, so the per-tick reprogram allocates
         nothing. *)
  isr : int array;
      (* The in-service register: the set of vectors being serviced, not
         yet EOI'd. 256 bits as [isr_words] ints of 32 bits, vector [v]
         at bit [v land 31] of word [v lsr 5], like the hardware's eight
         32-bit ISR registers. Starting and ending service flip a bit,
         so neither allocates. *)
}

let isr_words = 8
let disarmed = -1

let create cpu = { cpu; timer_deadline = disarmed; isr = Array.make isr_words 0 }

(* Deadlines are simulated times, never negative. *)
let program_timer t ~deadline = t.timer_deadline <- deadline

let disarm_timer t = t.timer_deadline <- disarmed

let timer_armed t = t.timer_deadline <> disarmed

(* Vectors are 0..255: anything else fails the word's bounds check. *)
let begin_service t v =
  let w = v lsr 5 in
  t.isr.(w) <- t.isr.(w) lor (1 lsl (v land 31))

let eoi t v =
  let w = v lsr 5 in
  t.isr.(w) <- t.isr.(w) land lnot (1 lsl (v land 31))

let in_service t v = (t.isr.(v lsr 5) lsr (v land 31)) land 1 = 1

(* Copy the in-service set into [into] / back from [from], each an
   [isr_words]-int array: the machine image's storage. Loops over int
   arrays, so no store goes through the write barrier. *)
let save_isr t (into : int array) =
  for w = 0 to isr_words - 1 do
    into.(w) <- t.isr.(w)
  done

let load_isr t (from : int array) =
  for w = 0 to isr_words - 1 do
    t.isr.(w) <- from.(w)
  done

(* Recovery: acknowledge everything in service so stale interrupt state
   cannot block future delivery. *)
let ack_all t =
  for w = 0 to isr_words - 1 do
    t.isr.(w) <- 0
  done
