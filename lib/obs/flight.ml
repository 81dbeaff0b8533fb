(** Crash-surviving flight ring: bounded last-N log of (name, time)
    pairs that deliberately survives hypervisor snapshot restore, like
    the paper's persistent journal.

    This is the black box a postmortem reads its "last N hypercalls" and
    "journal tail" from: the trace ring ({!Trace}) is reset at run
    boundaries and filtered by level, but the flight ring always records
    and is never cleared -- recovery wiping hypervisor state must not
    wipe the evidence of what led up to the failure.

    Because the ring is never cleared, entries from *previous* runs are
    still present when a run fails early. Each entry therefore carries an
    epoch number; the harness bumps the epoch at every run boundary
    ([new_epoch]) and [tail] only reads back entries from the current
    epoch, keeping postmortem bundles a deterministic function of the
    failing seed regardless of which worker (with whatever history)
    happened to execute it.

    The record path ([note]) is four array/field stores and zero
    allocation: names must be pre-interned constant strings. *)

type t = {
  names : string array;
  times : int array;
  epochs : int array;
  capacity : int;
  mutable head : int; (* next write position *)
  mutable size : int;
  mutable epoch : int;
  mutable total : int; (* lifetime appends, across all epochs *)
}

let create ?(capacity = 64) () =
  let capacity = max 1 capacity in
  {
    names = Array.make capacity "";
    times = Array.make capacity 0;
    epochs = Array.make capacity (-1);
    capacity;
    head = 0;
    size = 0;
    epoch = 0;
    total = 0;
  }

let capacity t = t.capacity
let epoch t = t.epoch
let total t = t.total
let new_epoch t = t.epoch <- t.epoch + 1

(* Hot path: no allocation, no branch beyond the ring wrap. *)
let note t ~name ~time =
  t.names.(t.head) <- name;
  t.times.(t.head) <- time;
  t.epochs.(t.head) <- t.epoch;
  t.head <- (t.head + 1) mod t.capacity;
  if t.size < t.capacity then t.size <- t.size + 1;
  t.total <- t.total + 1

(* Oldest-first readback of the current epoch's entries (cold path). *)
let tail ?epoch t =
  let want = match epoch with Some e -> e | None -> t.epoch in
  let result = ref [] in
  for i = 0 to t.size - 1 do
    let idx = (t.head - 1 - i + (2 * t.capacity)) mod t.capacity in
    if t.epochs.(idx) = want then
      result := (t.names.(idx), t.times.(idx)) :: !result
  done;
  !result
