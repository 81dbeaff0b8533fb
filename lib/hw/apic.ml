(** Per-CPU local APIC model.

    Only the parts NiLiHype's recovery interacts with are modelled: the
    one-shot timer (which Xen reprograms from the software timer heap on
    every fire -- the window the "reprogram hardware timer" enhancement
    closes) and the interrupt state (pending / in-service vectors that
    the shared "acknowledge interrupts" mechanism clears). *)

type t = {
  cpu : int;
  mutable timer_deadline : Sim.Time.ns option;
      (* [None] means the one-shot timer is not armed: without recovery
         intervention it will never fire again. *)
  mutable pending : int list; (* vectors raised but not yet serviced *)
  mutable in_service : int list; (* vectors being serviced, not EOI'd *)
  mutable ipi_pending : bool;
  mutable nmi_pending : bool;
}

let create cpu =
  {
    cpu;
    timer_deadline = None;
    pending = [];
    in_service = [];
    ipi_pending = false;
    nmi_pending = false;
  }

let program_timer t ~deadline = t.timer_deadline <- Some deadline

let disarm_timer t = t.timer_deadline <- None

let timer_armed t = t.timer_deadline <> None

(* Returns [true] when the deadline has passed; the timer is one-shot so
   firing disarms it -- exactly the hazard the paper describes. *)
let timer_fire_check t ~now =
  match t.timer_deadline with
  | Some d when d <= now ->
    t.timer_deadline <- None;
    true
  | Some _ | None -> false

let raise_vector t v = if not (List.mem v t.pending) then t.pending <- v :: t.pending

let begin_service t v =
  t.pending <- List.filter (fun x -> x <> v) t.pending;
  if not (List.mem v t.in_service) then t.in_service <- v :: t.in_service

let eoi t v = t.in_service <- List.filter (fun x -> x <> v) t.in_service

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
