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
  mutable in_service : int list; (* vectors being serviced, not EOI'd *)
}

let disarmed = -1

let create cpu = { cpu; timer_deadline = disarmed; in_service = [] }

(* Deadlines are simulated times, never negative. *)
let program_timer t ~deadline = t.timer_deadline <- deadline

let disarm_timer t = t.timer_deadline <- disarmed

let timer_armed t = t.timer_deadline <> disarmed

(* [v] dropped from a vector list, order kept. Callers test [List.mem]
   first, so acknowledging a vector allocates nothing when there is
   nothing to drop -- and nothing at all to drop the last one. *)
let rec without v = function
  | [] -> []
  | x :: rest -> if x = v then without v rest else x :: without v rest

let begin_service t v =
  if not (List.mem v t.in_service) then t.in_service <- v :: t.in_service

let eoi t v = if List.mem v t.in_service then t.in_service <- without v t.in_service

(* Recovery: acknowledge everything in service so stale interrupt state
   cannot block future delivery. *)
let ack_all t = t.in_service <- []
