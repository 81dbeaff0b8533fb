(** Xen heap model.

    Tracks live heap objects by kind (so the recovery mechanisms can walk
    "all the locks stored in the heap") plus the integrity of the
    allocator's free lists. Free-list corruption is the class of damage
    that ReHype's "recreate the new heap" reboot step repairs but
    NiLiHype cannot -- one source of ReHype's small recovery-rate edge.

    Like the page-frame table ({!Pfn}), the heap rewinds copy-on-write
    through {!Cow}: each object's golden [live] and [header_ok] bits are
    one int in the heap's store, slotted by oid, and its scalars are the
    store's golden scalars. Mutators inside this module mark objects
    dirty themselves; external writers (the fault injector) must go
    through {!corrupt_header}. *)

type kind =
  | Lock of Spinlock.t
  | Timer_data
  | Domain_data of int (* domid *)
  | Percpu_area of int (* cpu *)
  | Generic

type obj = {
  oid : int;
  kind : kind;
  mutable live : bool;
  mutable header_ok : bool; (* object header canary *)
  size : int;
  cow : string Cow.t; (* the heap's store: mutators see only the object *)
}

type t = {
  mutable objs : obj array; (* by oid; [0, next_oid) were allocated *)
  mutable next_oid : int;
  mutable freelist_ok : bool;
  mutable freelist_note : string;
  mutable bytes_live : int;
  mutable allocs : int;
  cow : string Cow.t;
      (* golden ints: next_oid, freelist_ok, bytes_live, allocs; golden
         reference: freelist_note *)
}

let create () =
  {
    objs = [||];
    next_oid = 0;
    freelist_ok = true;
    freelist_note = "";
    bytes_live = 0;
    allocs = 0;
    cow = Cow.create ~width:1 ~slots:0 ~scalars:[| 0; 1; 0; 0 |] [| "" |];
  }

let touch (obj : obj) = Cow.touch obj.cow obj.oid
let dirty_count t = Cow.dirty_count t.cow

(* Refresh the golden image of every object allocated, freed or written
   since the previous snapshot. O(changed objects). An object's golden
   int is 0 while it does not exist. *)
let snapshot ?(layer = false) t =
  let c = t.cow in
  Cow.begin_snapshot ~layer c;
  for i = 0 to Cow.dirty_count c - 1 do
    let o = t.objs.(Cow.dirty c i) in
    Cow.set_golden c o.oid 0
      ((if o.live then 1 else 0) lor if o.header_ok then 0 else 2)
  done;
  Cow.set_scalar c 0 t.next_oid;
  Cow.set_scalar c 1 (if t.freelist_ok then 1 else 0);
  Cow.set_scalar c 2 t.bytes_live;
  Cow.set_scalar c 3 t.allocs;
  Cow.set_ref c 0 t.freelist_note;
  Cow.drain c

(* Rewind every object changed since the last snapshot: objects freed
   since are live again, objects allocated since are gone. O(changed
   objects); repeatable like {!Pfn.restore}. *)
let restore t =
  let c = t.cow in
  for i = 0 to Cow.dirty_count c - 1 do
    let o = t.objs.(Cow.dirty c i) in
    let g = Cow.golden c o.oid 0 in
    o.live <- g land 1 = 1;
    o.header_ok <- g land 2 = 0
  done;
  Cow.drain c;
  t.next_oid <- Cow.scalar c 0;
  t.freelist_ok <- Cow.scalar c 1 = 1;
  t.bytes_live <- Cow.scalar c 2;
  t.allocs <- Cow.scalar c 3;
  t.freelist_note <- Cow.get_ref c 0

let drop_layer t = Cow.drop_layer t.cow

let alloc t ?(size = 64) kind =
  if not t.freelist_ok then
    Crash.hang "heap: free-list walk never terminates (%s)" t.freelist_note;
  let oid = t.next_oid in
  let obj = { oid; kind; live = true; header_ok = true; size; cow = t.cow } in
  t.objs <- Cow.place t.cow t.objs oid obj;
  touch obj;
  t.next_oid <- oid + 1;
  t.bytes_live <- t.bytes_live + size;
  t.allocs <- t.allocs + 1;
  obj

let free t obj =
  if not t.freelist_ok then
    Crash.hang "heap: free-list insert never terminates (%s)" t.freelist_note;
  if not obj.live then Crash.panic "heap: double free of object %d" obj.oid;
  if not obj.header_ok then
    Crash.panic "heap: corrupted object header on free (oid %d)" obj.oid;
  touch obj;
  obj.live <- false;
  t.bytes_live <- t.bytes_live - obj.size

(* Live objects in oid order. *)
let iter_live t f =
  for oid = 0 to t.next_oid - 1 do
    let obj = t.objs.(oid) in
    if obj.live then f obj
  done

(* Does some live object satisfy [p]? No closure is built when [p]
   captures nothing, so the audit's walks allocate nothing. *)
let rec exists_live t p oid =
  oid < t.next_oid
  && ((t.objs.(oid).live && p t.objs.(oid)) || exists_live t p (oid + 1))

let live_count t =
  let n = ref 0 in
  for oid = 0 to t.next_oid - 1 do
    if t.objs.(oid).live then incr n
  done;
  !n
let bytes_live t = t.bytes_live

(* Corruption entry points used by the fault injector. *)
let corrupt_freelist t note =
  t.freelist_ok <- false;
  t.freelist_note <- note

(* A wild write smashing a live object's header canary. Marks the object
   dirty like any other write, so a snapshot restore rewinds the damage
   and the incremental recovery audit visits it. *)
let corrupt_header obj =
  touch obj;
  obj.header_ok <- false

let freelist_ok t = t.freelist_ok

(* Release all heap-resident locks (the ReHype mechanism NiLiHype
   reuses). Returns how many were released. *)
let release_locks t =
  let released = ref 0 in
  iter_live t (fun obj ->
      match obj.kind with
      | Lock l when Spinlock.is_held l ->
        Spinlock.force_unlock l;
        incr released
      | Lock _ | Timer_data | Domain_data _ | Percpu_area _ | Generic -> ());
  !released

let any_heap_lock_held t =
  exists_live t
    (fun obj ->
      match obj.kind with
      | Lock l -> Spinlock.is_held l
      | Timer_data | Domain_data _ | Percpu_area _ | Generic -> false)
    0

(* ReHype's reboot-time heap reconstruction: a brand-new allocator is
   built, then live (preserved) objects are re-integrated. This restores
   free-list integrity and drops corrupted-but-dead metadata; it cannot
   repair corruption inside live object payloads (e.g. a smashed domain
   struct). *)
let rebuild_for_reboot t =
  t.freelist_ok <- true;
  t.freelist_note <- "";
  iter_live t (fun obj ->
      touch obj;
      obj.header_ok <- true)

let audit t = t.freelist_ok && not (exists_live t (fun obj -> not obj.header_ok) 0)
