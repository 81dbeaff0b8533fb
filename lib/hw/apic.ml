(** Per-CPU local APIC model.

    Only the parts NiLiHype's recovery interacts with are modelled: the
    one-shot timer (which Xen reprograms from the software timer heap on
    every fire -- the window the "reprogram hardware timer" enhancement
    closes) and the interrupt state (pending / in-service vectors that
    the shared "acknowledge interrupts" mechanism clears). *)

type t = {
  cpu : int;
  mutable timer_deadline : Sim.Time.ns;
      (* [disarmed] means the one-shot timer is not armed: without
         recovery intervention it will never fire again. A plain int
         rather than an option, so the per-tick reprogram allocates
         nothing. *)
  mutable pending : int list; (* vectors raised but not yet serviced *)
  mutable in_service : int list; (* vectors being serviced, not EOI'd *)
  mutable ipi_pending : bool;
  mutable nmi_pending : bool;
}

let disarmed = -1

let create cpu =
  {
    cpu;
    timer_deadline = disarmed;
    pending = [];
    in_service = [];
    ipi_pending = false;
    nmi_pending = false;
  }

(* Deadlines are simulated times, never negative. *)
let program_timer t ~deadline = t.timer_deadline <- deadline

let disarm_timer t = t.timer_deadline <- disarmed

let timer_armed t = t.timer_deadline <> disarmed

(* Returns [true] when the deadline has passed; the timer is one-shot so
   firing disarms it -- exactly the hazard the paper describes. *)
let timer_fire_check t ~now =
  if timer_armed t && t.timer_deadline <= now then begin
    t.timer_deadline <- disarmed;
    true
  end
  else false

let raise_vector t v = if not (List.mem v t.pending) then t.pending <- v :: t.pending

(* [v] dropped from a vector list, order kept. Callers test [List.mem]
   first, so servicing or acknowledging a vector allocates nothing when
   there is nothing to drop -- and nothing at all to drop the last one. *)
let rec without v = function
  | [] -> []
  | x :: rest -> if x = v then without v rest else x :: without v rest

let begin_service t v =
  if List.mem v t.pending then t.pending <- without v t.pending;
  if not (List.mem v t.in_service) then t.in_service <- v :: t.in_service

let eoi t v = if List.mem v t.in_service then t.in_service <- without v t.in_service

(* Recovery: acknowledge everything pending and in service so stale
   interrupt state cannot block future delivery. *)
let ack_all t =
  t.pending <- [];
  t.in_service <- [];
  t.ipi_pending <- false;
  t.nmi_pending <- false

let send_ipi t = t.ipi_pending <- true
let consume_ipi t =
  let was = t.ipi_pending in
  t.ipi_pending <- false;
  was

let quiescent t =
  t.pending = [] && t.in_service = [] && (not t.ipi_pending)
  && not t.nmi_pending
