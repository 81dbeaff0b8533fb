(** Virtual clock driven by the event engine. *)

type t = { mutable now : Time.ns }

let create () = { now = 0 }
let now t = t.now

let advance_to t target =
  if target < t.now then
    invalid_arg
      (Printf.sprintf "Clock.advance_to: time goes backwards (%d < %d)" target
         t.now);
  t.now <- target

let advance_by t delta =
  if delta < 0 then invalid_arg "Clock.advance_by: negative delta";
  t.now <- t.now + delta
