(** Software timer heap.

    Xen keeps pending timer events in a binary heap examined from the
    APIC timer interrupt; the handler reprograms the APIC to fire at the
    deadline of the top node. Recurring events (system-time
    synchronisation, scheduler ticks, the watchdog's soft tick) are
    re-inserted by their handlers -- so a failure between pop and
    re-insert silently loses them, the damage the "Reactivate recurring
    timer events" enhancement repairs.

    Like {!Pfn} and {!Heap}, the timer heap rewinds copy-on-write
    through {!Cow}: each event's golden deadline and queued bit sit in
    the heap's store, slotted by event id, and the store's golden
    scalars hold the occupied prefix (event refs in heap order), its
    size, [next_id], [structure_ok] and how many recurring events exist.
    External writers (the fault injector's deadline scribbles) must call
    {!touch} first.

    Event records are recycled like {!Pfn}'s descriptors: {!add} takes
    one from a spare set filled at each base image, and {!restore} gives
    back the records of the events added since the image. So a warm
    run's timer inserts allocate nothing, and every run from an image
    allocates the same words, whatever ran before it. *)

type action =
  | Time_sync (* system time calibration, global *)
  | Sched_tick of int (* credit scheduler accounting on a CPU *)
  | Watchdog_tick (* software counter the NMI handler checks *)
  | Vcpu_timer of int * int (* (domid, vcpuid) singleshot timer *)
  | Generic_oneshot

let action_name = function
  | Time_sync -> "time_sync"
  | Sched_tick cpu -> Printf.sprintf "sched_tick(cpu%d)" cpu
  | Watchdog_tick -> "watchdog_tick"
  | Vcpu_timer (domid, vid) -> Printf.sprintf "vcpu_timer(d%dv%d)" domid vid
  | Generic_oneshot -> "oneshot"

type event = {
  mutable id : int; (* a recycled record takes the next id *)
  mutable deadline : Sim.Time.ns;
  mutable period : Sim.Time.ns option; (* [Some p] for recurring events *)
  mutable action : action;
  mutable queued : bool; (* an unqueued recurring event is "lost" *)
  cow : event Cow.t; (* the heap's store: mutators see only the event *)
}

type t = {
  mutable arr : event array;
  mutable size : int;
  mutable next_id : int;
  mutable structure_ok : bool; (* heap-order integrity *)
  mutable recurring : event list;
      (* registry of all recurring events, newest first *)
  mutable events : event array; (* by id; [0, next_id) were added *)
  cow : event Cow.t;
      (* golden ints: size, next_id, structure_ok, recurring count;
         golden references: the occupied prefix *)
  spares : event array; (* records for [add], the first [nspare] usable *)
  mutable nspare : int;
  (* [nspare] at the latest image, and at the base image while a layer
     is taken over it: a restore refills the spares up to it. *)
  mutable mark_spares : int;
  mutable base_spares : int;
}

(* The backing arrays are sized eagerly: campaign workers reuse one heap
   across thousands of runs (restores keep the arrays), and growing them
   lazily would make the first run on each worker allocate more than the
   rest -- breaking the jobs-invariance of the allocation profiler's
   phase counters. 64 slots cover every configuration the campaigns use
   (a few recurring events per CPU plus singleshot vCPU timers). *)
let dummy_event =
  {
    id = -1;
    deadline = 0;
    period = None;
    action = Generic_oneshot;
    queued = false;
    cow = Cow.create ~width:0 ~slots:0 ~scalars:[||] [||];
  }

(* Records in the spare set, refilled at each base image: about twice
   the most events one campaign run was seen to add (60 vCPU singleshot
   timers, over 3,000 campaign runs of each fault kind). A run that adds
   more allocates the extra records, and its restore drops them. *)
let spare_events = 128

let create () =
  {
    arr = Array.make 64 dummy_event;
    size = 0;
    next_id = 0;
    structure_ok = true;
    recurring = [];
    events = [||];
    cow =
      Cow.create ~width:2 ~slots:0 ~scalars:[| 0; 0; 1; 0 |]
        (Array.make 64 dummy_event);
    spares = Array.make spare_events dummy_event;
    nspare = 0;
    mark_spares = 0;
    base_spares = 0;
  }

let size t = t.size

(* Mark an event as modified since the last snapshot. Exported: the
   fault injector scribbles on deadlines directly and must call this
   first, like {!Pfn.touch}. *)
let touch (e : event) = Cow.touch e.cow e.id

let dirty_count t = Cow.dirty_count t.cow

(* Refresh the golden image: per-event fields for everything touched
   since the previous snapshot, plus the occupied prefix and the
   scalars. O(changed events + queue length). An event's golden values
   are 0 while it does not exist. *)
let snapshot ?(layer = false) t =
  let c = t.cow in
  Cow.begin_snapshot ~layer c;
  for i = 0 to Cow.dirty_count c - 1 do
    let e = t.events.(Cow.dirty c i) in
    Cow.set_golden c e.id 0 e.deadline;
    Cow.set_golden c e.id 1 (if e.queued then 1 else 0)
  done;
  for i = 0 to t.size - 1 do
    Cow.set_ref c i t.arr.(i)
  done;
  Cow.set_scalar c 0 t.size;
  Cow.set_scalar c 1 t.next_id;
  Cow.set_scalar c 2 (if t.structure_ok then 1 else 0);
  Cow.set_scalar c 3 (List.length t.recurring);
  Cow.drain c;
  if layer then t.base_spares <- t.mark_spares
  else
    while t.nspare < spare_events do
      t.spares.(t.nspare) <- { dummy_event with cow = c };
      t.nspare <- t.nspare + 1
    done;
  t.mark_spares <- t.nspare

(* [recurring] only ever grows at its head, so the golden registry is
   the live one minus the events registered since. *)
let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l)

(* Rewind to the last snapshot: per-event fields for everything touched
   since, then the queue prefix and scalars, and the records of the
   events added since go back to the spares. Repeatable (later writes
   re-dirty). *)
let restore t =
  let c = t.cow in
  for i = 0 to Cow.dirty_count c - 1 do
    let e = t.events.(Cow.dirty c i) in
    e.deadline <- Cow.golden c e.id 0;
    e.queued <- Cow.golden c e.id 1 = 1
  done;
  Cow.drain c;
  (* [arr] never shrinks, so its capacity covers any historical size. *)
  t.size <- Cow.scalar c 0;
  for i = 0 to t.size - 1 do
    t.arr.(i) <- Cow.get_ref c i
  done;
  let next_id = Cow.scalar c 1 in
  for id = t.next_id - 1 downto next_id do
    if t.nspare < t.mark_spares then begin
      t.spares.(t.nspare) <- t.events.(id);
      t.nspare <- t.nspare + 1
    end
  done;
  t.next_id <- next_id;
  t.structure_ok <- Cow.scalar c 2 = 1;
  t.recurring <- drop (List.length t.recurring - Cow.scalar c 3) t.recurring

(* The next restore lands on the base image again. *)
let drop_layer t =
  if t.cow.Cow.layered then t.mark_spares <- t.base_spares;
  Cow.drop_layer t.cow

let swap t i j =
  let tmp = t.arr.(i) in
  t.arr.(i) <- t.arr.(j);
  t.arr.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.arr.(i).deadline < t.arr.(parent).deadline then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = ref i in
  if l < t.size && t.arr.(l).deadline < t.arr.(!m).deadline then m := l;
  if r < t.size && t.arr.(r).deadline < t.arr.(!m).deadline then m := r;
  if !m <> i then begin
    swap t i !m;
    sift_down t !m
  end

let push_event t event =
  if not t.structure_ok then
    Crash.panic "timer heap: structure corrupted (insert walks bad links)";
  let cap = Array.length t.arr in
  if t.size = cap then begin
    let narr = Array.make (max 16 (cap * 2)) event in
    Array.blit t.arr 0 narr 0 t.size;
    t.arr <- narr
  end;
  touch event;
  t.arr.(t.size) <- event;
  event.queued <- true;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(* A record for event [id]: a spare if one is left, else a fresh one. *)
let event_record t id ~deadline period action =
  if t.nspare = 0 then { id; deadline; period; action; queued = false; cow = t.cow }
  else begin
    t.nspare <- t.nspare - 1;
    let e = t.spares.(t.nspare) in
    e.id <- id;
    e.deadline <- deadline;
    e.period <- period;
    e.action <- action;
    e.queued <- false;
    e
  end

let add t ~deadline ?period action =
  let id = t.next_id in
  let event = event_record t id ~deadline period action in
  t.events <- Cow.place t.cow t.events id event;
  touch event;
  t.next_id <- id + 1;
  if period <> None then t.recurring <- event :: t.recurring;
  push_event t event;
  event

let peek t = if t.size = 0 then None else Some t.arr.(0)

(* Deadline of the top event of a non-empty heap. *)
let top_deadline t = t.arr.(0).deadline

let check_structure t =
  if not t.structure_ok then
    Crash.panic "timer heap: structure corrupted (pop finds bad ordering)"

let remove_top t =
  let top = t.arr.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.arr.(0) <- t.arr.(t.size);
    sift_down t 0
  end;
  touch top;
  top.queued <- false;
  top

let pop t =
  check_structure t;
  if t.size = 0 then None else Some (remove_top t)

(* The timer-tick path pops due events with these two, option-free:
   [due] says whether the top event's deadline has passed, and [pop_top]
   pops that event after the same structure check as [pop] -- so a
   corrupted heap panics only once an event is due. The caller runs the
   handler and (for recurring events) must re-insert via [requeue] --
   the re-insert gap is the vulnerability window. *)
let due t ~now = t.size > 0 && t.arr.(0).deadline <= now

let pop_top t =
  check_structure t;
  remove_top t

let requeue t event ~now =
  match event.period with
  | None -> ()
  | Some p ->
    touch event;
    event.deadline <- now + p;
    push_event t event

let next_deadline t = match peek t with Some e -> Some e.deadline | None -> None

(* Recovery: find recurring events that are neither queued nor about to
   be re-inserted (their handler was abandoned mid-flight) and re-insert
   them. Returns the number reactivated. *)
let reactivate_recurring t ~now =
  let reactivated = ref 0 in
  List.iter
    (fun e ->
      if not e.queued then begin
        touch e;
        (match e.period with
        | Some p -> e.deadline <- now + p
        | None -> ());
        push_event t e;
        incr reactivated
      end)
    t.recurring;
  !reactivated

(* Recurring events lost from the heap: an abandoned handler popped
   them and never requeued them. *)
let missing_recurring_count t =
  List.fold_left (fun n e -> if e.queued then n else n + 1) 0 t.recurring

let corrupt_structure t = t.structure_ok <- false
let structure_ok t = t.structure_ok

(* ReHype: the reboot constructs a fresh heap and re-registers the
   standard recurring events; domain singleshot timers are re-created
   from the preserved domain state. *)
let rebuild_for_reboot t ~now =
  t.structure_ok <- true;
  t.size <- 0;
  List.iter
    (fun e ->
      touch e;
      e.queued <- false;
      (match e.period with Some p -> e.deadline <- now + p | None -> ());
      push_event t e)
    t.recurring

let heap_property_holds t =
  if not t.structure_ok then false
  else begin
    let ok = ref true in
    for i = 1 to t.size - 1 do
      let parent = (i - 1) / 2 in
      if t.arr.(parent).deadline > t.arr.(i).deadline then ok := false
    done;
    !ok
  end
