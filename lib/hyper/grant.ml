(** Grant tables: page-sharing between domains, the mechanism behind
    paravirtual block and network I/O. Grant map/unmap operations take
    and drop page references -- non-idempotent, hence covered by the undo
    journal.

    A table is three ints per slot: in use (0 or 1), the granted frame
    (-1 if none) and the mapper's domid (-1 if unmapped). It owns its
    images like {!Evtchn}: [synced] is the last image taken or restored,
    every mutator sets [dirty], and an unchanged table captures as
    [synced] and is skipped on restore. The slot scans live here too, so
    callers in other modules pay one call per scan, not one per slot. *)

type image = int array (* the slot triples; never mutated *)

type table = {
  slots : int array; (* slot [s] at [3s]: in use, frame, mapped_by *)
  lock : Spinlock.t; (* heap-resident per-domain lock *)
  mutable synced : image; (* equal to [slots] while not [dirty] *)
  mutable dirty : bool;
}

let free_slots n = Array.init (3 * n) (fun i -> if i mod 3 = 0 then 0 else -1)

let create heap ~slots domid =
  let lock =
    Spinlock.create ~name:(Printf.sprintf "d%d_grant" domid) ~location:Spinlock.Heap
  in
  ignore (Heap.alloc heap (Heap.Lock lock));
  { slots = free_slots slots; lock; synced = free_slots slots; dirty = false }

let lock t = t.lock
let length t = Array.length t.slots / 3
let in_use t ~slot = t.slots.(3 * slot) = 1
let frame t ~slot = t.slots.((3 * slot) + 1)
let mapped_by t ~slot = t.slots.((3 * slot) + 2)

let grant t ~slot ~frame =
  let s = t.slots and i = 3 * slot in
  s.(i) <- 1;
  s.(i + 1) <- frame;
  s.(i + 2) <- -1;
  t.dirty <- true

let set_mapped_by t ~slot by =
  t.slots.((3 * slot) + 2) <- by;
  t.dirty <- true

let map t ~slot ~by =
  if not (in_use t ~slot) then Crash.assert_failed "grant map of unused slot %d" slot;
  if mapped_by t ~slot <> -1 then Crash.assert_failed "grant slot %d already mapped" slot;
  set_mapped_by t ~slot by

let unmap t ~slot =
  if mapped_by t ~slot = -1 then Crash.panic "grant slot %d: unmap when not mapped" slot;
  set_mapped_by t ~slot (-1)

(* The scans recurse at toplevel: a local recursive function would
   capture its environment in a closure allocated on every call. *)
let rec granted_from (s : int array) f i =
  i < Array.length s && ((s.(i) = 1 && s.(i + 1) = f) || granted_from s f (i + 3))

(* Whether [f] backs an in-use slot. *)
let frame_granted t f = granted_from t.slots f 0

(* Slots in use and unmapped: the ones a grant op may map. *)
let is_free s i = s.(i) = 1 && s.(i + 2) = -1

let count_free t =
  let s = t.slots and n = ref 0 in
  for slot = 0 to length t - 1 do
    if is_free s (3 * slot) then incr n
  done;
  !n

(* The [k]-th (from 0) such slot, lowest first; [k] must be below
   [count_free]. *)
let rec nth_free_from s k slot =
  if is_free s (3 * slot) then if k = 0 then slot else nth_free_from s (k - 1) (slot + 1)
  else nth_free_from s k (slot + 1)

let nth_free t k = nth_free_from t.slots k 0

let count_in_use t =
  let n = ref 0 in
  for slot = 0 to length t - 1 do
    if in_use t ~slot then incr n
  done;
  !n

let count_mapped t =
  let n = ref 0 in
  for slot = 0 to length t - 1 do
    if mapped_by t ~slot <> -1 then incr n
  done;
  !n

let rec same_below (a : int array) (b : int array) i =
  i < 0 || (a.(i) = b.(i) && same_below a b (i - 1))

(* [Array.make] then a typed loop: a table's image is past
   [Max_young_wosize], so it is born in the major heap, where
   [Array.copy] would initialise it through [caml_initialize] per int. *)
let capture t =
  if t.dirty then begin
    if not (same_below t.slots t.synced (Array.length t.slots - 1)) then begin
      let s = t.slots in
      let img = Array.make (Array.length s) 0 in
      for i = 0 to Array.length s - 1 do
        img.(i) <- s.(i)
      done;
      t.synced <- img
    end;
    t.dirty <- false
  end;
  t.synced

(* A typed int loop: no [caml_modify] per int, and nothing allocated. *)
let restore t (img : image) =
  if t.dirty || t.synced != img then begin
    let s = t.slots in
    for i = 0 to Array.length s - 1 do
      s.(i) <- img.(i)
    done;
    t.synced <- img;
    t.dirty <- false
  end
