(** UDP echo stack for NetBench (Section VI-A).

    The sender (on a separate physical host) emits one UDP packet per
    millisecond; the receiver (in an AppVM) echoes each packet. NetBench
    fails if the sender's reception rate drops by more than 10% in any
    one-second window relative to normal execution. The receive path in
    the simulated system is: NIC interrupt -> PrivVM backend -> event
    channel -> frontend, so lost/blocked interrupts show up as missing
    echoes. *)

type t = {
  interval : Sim.Time.ns; (* 1 ms *)
  mutable sent : int;
  mutable echoed : int;
  mutable last_echo_at : Sim.Time.ns;
  mutable max_gap : Sim.Time.ns; (* longest silence seen by the sender *)
  mutable window_losses : (Sim.Time.ns * int) list; (* (window start, lost) *)
}

let create ?(interval = Sim.Time.ms 1) () =
  {
    interval;
    sent = 0;
    echoed = 0;
    last_echo_at = 0;
    max_gap = 0;
    window_losses = [];
  }

(* Back to the state [create] builds, with the sender starting at [now]:
   the first echo's gap counts from there, not from time 0. One stack
   can serve a tenant trial after trial without allocating a new one. *)
let reset t ~now =
  t.sent <- 0;
  t.echoed <- 0;
  t.last_echo_at <- now;
  t.max_gap <- 0;
  t.window_losses <- []

(* The sender ticks once per interval; [delivered] says whether the echo
   came back (the receive path was up). *)
let sender_tick t ~now ~delivered =
  t.sent <- t.sent + 1;
  if delivered then begin
    let gap = now - t.last_echo_at in
    if gap > t.max_gap then t.max_gap <- gap;
    t.last_echo_at <- now;
    t.echoed <- t.echoed + 1
  end

(* [count] delivered ticks, one interval apart from [first]: the same
   state as that many [sender_tick ~delivered:true] calls, in O(1). *)
let delivered_run t ~first ~count =
  if count > 0 then begin
    let gap =
      max (first - t.last_echo_at) (if count > 1 then t.interval else 0)
    in
    if gap > t.max_gap then t.max_gap <- gap;
    t.last_echo_at <- first + ((count - 1) * t.interval);
    t.sent <- t.sent + count;
    t.echoed <- t.echoed + count
  end

(* Simulate a service interruption of [duration]: pings go unanswered. *)
let interruption t ~now ~duration =
  let lost = duration / t.interval in
  t.sent <- t.sent + lost;
  if duration > t.max_gap then t.max_gap <- duration;
  let window = Sim.Time.s 1 in
  let rec record start remaining =
    if remaining > 0 then begin
      let in_this_window = min remaining (window / t.interval) in
      t.window_losses <- (start, in_this_window) :: t.window_losses;
      record (start + window) (remaining - in_this_window)
    end
  in
  record now lost;
  t.last_echo_at <- now + duration

(* The paper's criterion: >10% reception drop in any 1 s window. *)
let failed t =
  let per_window = Sim.Time.s 1 / t.interval in
  List.exists
    (fun (_, lost) -> float_of_int lost > 0.10 *. float_of_int per_window)
    t.window_losses

let loss_rate t =
  if t.sent = 0 then 0.0
  else float_of_int (t.sent - t.echoed) /. float_of_int t.sent
