(** Xen heap model.

    Tracks live heap objects by kind (so the recovery mechanisms can walk
    "all the locks stored in the heap") plus the integrity of the
    allocator's free lists. Free-list corruption is the class of damage
    that ReHype's "recreate the new heap" reboot step repairs but
    NiLiHype cannot -- one source of ReHype's small recovery-rate edge.

    Like the page-frame table ({!Pfn}), the heap carries copy-on-write
    golden state behind {!Hypervisor.snapshot}: each object holds a
    golden copy of its mutable fields plus a dirty bit, and a shared
    dirty list records objects allocated, freed or written since the
    last {!snapshot}. Both {!snapshot} and {!restore} walk only that
    list -- O(changed objects), not O(live heap). Mutators inside this
    module mark objects dirty themselves; external writers (the fault
    injector) must go through {!corrupt_header}. Layer snapshots work as
    in {!Pfn}. *)

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
  (* Golden image of the mutable fields plus table membership,
     refreshed by [snapshot]. *)
  mutable g_live : bool;
  mutable g_header_ok : bool;
  mutable g_in_table : bool;
  mutable in_table : bool;
  mutable dirty : bool; (* on the heap's dirty list? *)
  tracker : tracker; (* back-pointer: mutators see only the object *)
}

and tracker = { mutable dirty_list : obj list }

type t = {
  mutable next_oid : int;
  objs : (int, obj) Hashtbl.t;
  mutable freelist_ok : bool;
  mutable freelist_note : string;
  mutable bytes_live : int;
  mutable allocs : int;
  tracker : tracker;
  (* Golden scalars, refreshed by [snapshot]. *)
  mutable g_next_oid : int;
  mutable g_freelist_ok : bool;
  mutable g_freelist_note : string;
  mutable g_bytes_live : int;
  mutable g_allocs : int;
  mutable unlayer : unit -> unit;
      (* puts back the base golden state a layer snapshot overwrote *)
}

let create () =
  {
    next_oid = 0;
    objs = Hashtbl.create 256;
    freelist_ok = true;
    freelist_note = "";
    bytes_live = 0;
    allocs = 0;
    tracker = { dirty_list = [] };
    g_next_oid = 0;
    g_freelist_ok = true;
    g_freelist_note = "";
    g_bytes_live = 0;
    g_allocs = 0;
    unlayer = ignore;
  }

(* Mark an object as modified since the last snapshot. *)
let touch obj =
  if not obj.dirty then begin
    obj.dirty <- true;
    obj.tracker.dirty_list <- obj :: obj.tracker.dirty_list
  end

let dirty_count t = List.length t.tracker.dirty_list

(* Refresh the golden image: record the live fields and table membership
   of every object changed since the previous snapshot and drain the
   dirty list. O(changed objects). A [layer] snapshot first saves the
   golden state it is about to overwrite. *)
let snapshot ?(layer = false) t =
  t.unlayer <-
    (if not layer then ignore
     else begin
       let base =
         List.map (fun o -> (o, o.g_live, o.g_header_ok, o.g_in_table))
           t.tracker.dirty_list
       and next_oid = t.g_next_oid
       and freelist_ok = t.g_freelist_ok
       and freelist_note = t.g_freelist_note
       and bytes_live = t.g_bytes_live
       and allocs = t.g_allocs in
       fun () ->
         List.iter
           (fun (o, live, header_ok, in_table) ->
             o.g_live <- live;
             o.g_header_ok <- header_ok;
             o.g_in_table <- in_table;
             touch o)
           base;
         t.g_next_oid <- next_oid;
         t.g_freelist_ok <- freelist_ok;
         t.g_freelist_note <- freelist_note;
         t.g_bytes_live <- bytes_live;
         t.g_allocs <- allocs
     end);
  List.iter
    (fun o ->
      o.g_live <- o.live;
      o.g_header_ok <- o.header_ok;
      o.g_in_table <- o.in_table;
      o.dirty <- false)
    t.tracker.dirty_list;
  t.tracker.dirty_list <- [];
  t.g_next_oid <- t.next_oid;
  t.g_freelist_ok <- t.freelist_ok;
  t.g_freelist_note <- t.freelist_note;
  t.g_bytes_live <- t.bytes_live;
  t.g_allocs <- t.allocs

(* Rewind every object changed since the last snapshot: re-insert
   objects freed since, drop objects allocated since, rewind field
   values. O(changed objects); repeatable like {!Pfn.restore}. *)
let restore t =
  List.iter
    (fun o ->
      o.live <- o.g_live;
      o.header_ok <- o.g_header_ok;
      if o.g_in_table && not o.in_table then begin
        Hashtbl.replace t.objs o.oid o;
        o.in_table <- true
      end
      else if o.in_table && not o.g_in_table then begin
        Hashtbl.remove t.objs o.oid;
        o.in_table <- false
      end;
      o.dirty <- false)
    t.tracker.dirty_list;
  t.tracker.dirty_list <- [];
  t.next_oid <- t.g_next_oid;
  t.freelist_ok <- t.g_freelist_ok;
  t.freelist_note <- t.g_freelist_note;
  t.bytes_live <- t.g_bytes_live;
  t.allocs <- t.g_allocs

(* As {!Pfn.drop_layer}. *)
let drop_layer t =
  t.unlayer ();
  t.unlayer <- ignore

let alloc t ?(size = 64) kind =
  if not t.freelist_ok then
    Crash.hang "heap: free-list walk never terminates (%s)" t.freelist_note;
  let obj =
    {
      oid = t.next_oid;
      kind;
      live = true;
      header_ok = true;
      size;
      g_live = false;
      g_header_ok = true;
      g_in_table = false; (* did not exist at the last snapshot *)
      in_table = true;
      dirty = false;
      tracker = t.tracker;
    }
  in
  touch obj;
  t.next_oid <- t.next_oid + 1;
  Hashtbl.replace t.objs obj.oid obj;
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
  obj.in_table <- false;
  t.bytes_live <- t.bytes_live - obj.size;
  Hashtbl.remove t.objs obj.oid

let iter_live t f = Hashtbl.iter (fun _ obj -> if obj.live then f obj) t.objs

let live_count t = Hashtbl.length t.objs
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
  let held = ref false in
  iter_live t (fun obj ->
      match obj.kind with
      | Lock l when Spinlock.is_held l -> held := true
      | Lock _ | Timer_data | Domain_data _ | Percpu_area _ | Generic -> ());
  !held

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

let audit t =
  let ok = ref t.freelist_ok in
  iter_live t (fun obj -> if not obj.header_ok then ok := false);
  !ok
