(** Recovery-phase spans.

    A span is a named interval of simulated time with a category and a
    track (Chrome-trace "tid"). The recovery engines open one span per
    {!Hyper.Latency_model} step, so a run's spans are a per-phase
    timeline of where recovery latency went: summing span durations per
    name reproduces the breakdown exactly (asserted by the test suite).

    Spans are kept in an unbounded collector: a run performs at most one
    recovery of ~a dozen phases, so the collection stays tiny. *)

type span = {
  name : string;
  cat : string; (* e.g. "recovery:NiLiHype" *)
  track : int; (* CPU or logical track the span belongs to *)
  start : int; (* simulated ns *)
  duration : int; (* simulated ns *)
}

type t = { mutable spans : span list (* newest first *) }

let create () = { spans = [] }
let clear t = t.spans <- []

let add t ~name ~cat ~track ~start ~duration =
  t.spans <- { name; cat; track; start; duration } :: t.spans

(* Chronological (start-time ascending; insertion order on ties). *)
let to_list t = List.rev t.spans
let count t = List.length t.spans
