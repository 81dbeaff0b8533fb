(** Bounded ring of typed trace events ({!Event.t}), the simulator's one
    event log.

    Fixed capacity, newest events overwrite oldest, and a min-level
    filter decides at record time whether an event is kept at all. The
    storage is allocated eagerly at [create] so the first recorded event
    pays no allocation, and [clear] resets the ring for per-run reuse
    without leaking the previous run's entries. Reading back supports
    filtering by level and subsystem. *)

type t = {
  entries : Event.t array;
  mutable size : int;
  mutable head : int; (* next write position *)
  capacity : int;
  mutable min_level : Event.level;
  mutable dropped : int; (* events overwritten by wraparound *)
}

let dummy : Event.t =
  {
    Event.time = 0;
    level = Event.Debug;
    cpu = -1;
    domid = -1;
    payload = Event.Message "";
  }

let create ?(capacity = 4096) ?(min_level = Event.Info) () =
  let capacity = max 1 capacity in
  {
    entries = Array.make capacity dummy;
    size = 0;
    head = 0;
    capacity;
    min_level;
    dropped = 0;
  }

let set_min_level t level = t.min_level <- level
let min_level t = t.min_level
let capacity t = t.capacity
let size t = t.size
let dropped t = t.dropped

let clear t =
  t.size <- 0;
  t.head <- 0;
  t.dropped <- 0;
  Array.fill t.entries 0 t.capacity dummy

(* Pre-check for call sites whose event payload itself allocates: lets
   them skip building the record entirely when it would be filtered. *)
let enabled t level = Event.level_rank level >= Event.level_rank t.min_level

(* Hot path: one integer compare when the event is filtered out. *)
let record t (e : Event.t) =
  if Event.level_rank e.Event.level >= Event.level_rank t.min_level then begin
    if t.size = t.capacity then t.dropped <- t.dropped + 1;
    t.entries.(t.head) <- e;
    t.head <- (t.head + 1) mod t.capacity;
    if t.size < t.capacity then t.size <- t.size + 1
  end

(* Oldest-first chronological view, optionally narrowed to a subsystem
   and/or a stricter level. *)
let to_list ?subsystem ?min_level t =
  let keep (e : Event.t) =
    (match min_level with
    | Some l -> Event.level_rank e.Event.level >= Event.level_rank l
    | None -> true)
    && match subsystem with
       | Some s -> Event.subsystem e.Event.payload = s
       | None -> true
  in
  let result = ref [] in
  for i = 0 to t.size - 1 do
    let idx = (t.head - 1 - i + (2 * t.capacity)) mod t.capacity in
    let e = t.entries.(idx) in
    if keep e then result := e :: !result
  done;
  !result

let pp fmt t =
  List.iter (fun e -> Format.fprintf fmt "%a@." Event.pp e) (to_list t)
