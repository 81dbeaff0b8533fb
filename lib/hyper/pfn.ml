(** Page-frame descriptor table.

    Each physical frame has a descriptor with a validation bit, a use
    counter and a type -- the two components the paper singles out as
    being left mutually inconsistent by a failure ("the validation bit
    and the page use counter... can cause the hypervisor to hang
    following recovery"). The consistency scan over this table is the
    dominant component of NiLiHype's 22 ms recovery latency (21 ms for
    8 GB).

    The table is also the only O(machine) structure in the simulator
    (64 Ki descriptors on the campaign configuration), so it carries
    the copy-on-write machinery behind {!Hypervisor.snapshot}: every
    descriptor holds a golden copy of its mutable fields plus a dirty
    bit, and a shared per-table dirty list records which descriptors
    have been written since the last {!snapshot}. Both {!snapshot} and
    {!restore} walk only that list -- O(changed frames), not
    O(all frames). Mutators inside this module mark descriptors dirty
    themselves; the few external writers (the journal's undo arms, the
    fault injector's wild writes) call {!touch} explicitly.

    A [layer] snapshot is taken over a base one: it first saves the base
    golden values it overwrites, and {!drop_layer} puts them back, so the
    next {!restore} lands on the base image again. *)

type page_type =
  | Free
  | Writable
  | Page_table
  | Segdesc
  | Shared
  | Xenheap

type desc = {
  index : int;
  mutable validated : bool;
  mutable use_count : int;
  mutable ptype : page_type;
  mutable owner : int; (* domid, -1 = unowned *)
  (* Golden image of the four mutable fields, refreshed by [snapshot]. *)
  mutable g_validated : bool;
  mutable g_use_count : int;
  mutable g_ptype : page_type;
  mutable g_owner : int;
  mutable dirty : bool; (* on the table's dirty list? *)
  tracker : tracker; (* back-pointer: mutators see only the desc *)
}

and tracker = { mutable dirty_list : desc list }

type t = {
  descs : desc array;
  mutable free_head : int; (* cursor for simple free-frame allocation *)
  mutable g_free_head : int; (* free_head at the last snapshot *)
  tracker : tracker;
  mutable tracking_ok : bool;
      (* Is the dirty tracking itself trustworthy? The incremental
         recovery scan walks only the dirty list, which is sound exactly
         when every write since the last consistent baseline went
         through {!touch}. A wild write into the tracking structures
         ({!invalidate_tracking}, e.g. the fault injector's
         [Pfn_tracker] target) or a recovery attempt that itself died
         mid-flight clears this; recovery then falls back to the full
         scan. Re-established by {!snapshot}/{!restore}, which install a
         fresh consistent baseline. *)
  mutable unlayer : unit -> unit;
      (* puts back the base golden values a layer snapshot overwrote *)
}

let page_type_name = function
  | Free -> "free"
  | Writable -> "writable"
  | Page_table -> "page_table"
  | Segdesc -> "segdesc"
  | Shared -> "shared"
  | Xenheap -> "xenheap"

let create ~frames =
  let tracker = { dirty_list = [] } in
  {
    descs =
      Array.init frames (fun index ->
          {
            index;
            validated = false;
            use_count = 0;
            ptype = Free;
            owner = -1;
            g_validated = false;
            g_use_count = 0;
            g_ptype = Free;
            g_owner = -1;
            dirty = false;
            tracker;
          });
    free_head = 0;
    g_free_head = 0;
    tracker;
    tracking_ok = true;
    unlayer = ignore;
  }

let frames t = Array.length t.descs
let get t i = t.descs.(i)

(* Mark a descriptor as modified since the last snapshot. First touch
   costs one list cons; subsequent touches are a load and a branch. *)
let touch d =
  if not d.dirty then begin
    d.dirty <- true;
    d.tracker.dirty_list <- d :: d.tracker.dirty_list
  end

(* Refresh the golden image: copy the live fields of every descriptor
   written since the previous snapshot and drain the dirty list.
   O(changed frames). A [layer] snapshot first saves the golden values it
   is about to overwrite; a base one forgets any saved layer. *)
let snapshot ?(layer = false) t =
  t.unlayer <-
    (if not layer then ignore
     else begin
       let base =
         List.map
           (fun d -> (d, d.g_validated, d.g_use_count, d.g_ptype, d.g_owner))
           t.tracker.dirty_list
       and free_head = t.g_free_head in
       fun () ->
         List.iter
           (fun (d, v, u, p, o) ->
             d.g_validated <- v;
             d.g_use_count <- u;
             d.g_ptype <- p;
             d.g_owner <- o;
             touch d)
           base;
         t.g_free_head <- free_head
     end);
  List.iter
    (fun d ->
      d.g_validated <- d.validated;
      d.g_use_count <- d.use_count;
      d.g_ptype <- d.ptype;
      d.g_owner <- d.owner;
      d.dirty <- false)
    t.tracker.dirty_list;
  t.tracker.dirty_list <- [];
  t.g_free_head <- t.free_head;
  t.tracking_ok <- true

(* Rewind every descriptor written since the last snapshot back to its
   golden image. O(changed frames); repeatable (the dirty list is
   drained, later writes re-dirty). *)
let restore t =
  List.iter
    (fun d ->
      d.validated <- d.g_validated;
      d.use_count <- d.g_use_count;
      d.ptype <- d.g_ptype;
      d.owner <- d.g_owner;
      d.dirty <- false)
    t.tracker.dirty_list;
  t.tracker.dirty_list <- [];
  t.free_head <- t.g_free_head;
  t.tracking_ok <- true

(* Give the golden image back to the base a layer snapshot was taken
   over, marking every descriptor it rewinds dirty so the next {!restore}
   lands there. O(descriptors the layer refreshed). *)
let drop_layer t =
  t.unlayer ();
  t.unlayer <- ignore

let dirty_count t = List.length t.tracker.dirty_list
let dirty_descs t = t.tracker.dirty_list
let tracking_usable t = t.tracking_ok
let invalidate_tracking t = t.tracking_ok <- false

(* The first free frame from [i] on, wrapping; a toplevel function, so
   an allocation builds no closure. *)
let rec find_free t n tries i =
  if tries > n then Crash.panic "pfn: out of physical frames"
  else begin
    let d = t.descs.(i mod n) in
    if d.ptype = Free && d.use_count = 0 && not d.validated then d
    else find_free t n (tries + 1) (i + 1)
  end

(* Allocate a free frame for a domain. Raises if the table is exhausted
   (campaign configurations are sized so this cannot happen in a healthy
   run). *)
let alloc_frame t ~owner ~ptype =
  let n = frames t in
  let d = find_free t n 0 t.free_head in
  t.free_head <- (d.index + 1) mod n;
  touch d;
  d.ptype <- ptype;
  d.owner <- owner;
  d.use_count <- 1;
  d

(* get_page / put_page: the non-idempotent reference-count pair the paper
   discusses. Both assert like Xen does. *)
let get_page d =
  if d.ptype = Free then Crash.assert_failed "get_page on free frame %d" d.index;
  touch d;
  d.use_count <- d.use_count + 1

let put_page d =
  if d.use_count <= 0 then
    Crash.panic "pfn %d: use_count underflow (double put)" d.index;
  touch d;
  d.use_count <- d.use_count - 1;
  if d.use_count = 0 then begin
    d.validated <- false;
    d.ptype <- Free;
    d.owner <- -1
  end

(* validate / invalidate: setting the validation bit twice is a BUG() in
   Xen -- exactly the hazard a retried non-idempotent hypercall hits. *)
let validate d =
  if d.validated then
    Crash.panic "pfn %d: validating an already-validated frame" d.index;
  if d.use_count <= 0 then
    Crash.assert_failed "validate with zero use_count on %d" d.index;
  touch d;
  d.validated <- true

let invalidate d =
  if not d.validated then
    Crash.panic "pfn %d: invalidating a non-validated frame" d.index;
  touch d;
  d.validated <- false

let consistent d =
  match d.ptype with
  | Free -> d.use_count = 0 && not d.validated && d.owner = -1
  | Writable | Page_table | Segdesc | Shared | Xenheap ->
    d.use_count > 0 && (d.use_count <= 1_000_000) && ((not d.validated) || d.use_count > 0)

(* Detect validation-bit / use-counter disagreement on one descriptor
   and repair it. The repair is a pure function of the descriptor's own
   fields, so the scans below may visit descriptors in any order (full
   array sweep, dirty-list walk, per-domain shard) and converge on the
   same table. Returns whether a repair was made. *)
let fix_desc d =
  if consistent d then false
  else begin
    touch d;
    if d.ptype = Free then begin
      (* A frame marked free must carry no references. *)
      d.use_count <- 0;
      d.validated <- false;
      d.owner <- -1
    end
    else if d.use_count <= 0 then begin
      (* Typed page with no references: return it to the allocator. *)
      d.use_count <- 0;
      d.validated <- false;
      d.ptype <- Free;
      d.owner <- -1
    end
    else if d.use_count > 1_000_000 then begin
      (* Wild counter value: clamp and drop validation. *)
      d.use_count <- 1;
      d.validated <- false
    end;
    true
  end

(* The recovery-time scan: walk every descriptor, detect validation-bit /
   use-counter disagreement and repair it. Returns the number of
   descriptors repaired. Latency is charged by the caller (proportional
   to [frames t]). *)
let scan_and_fix t =
  let fixed = ref 0 in
  Array.iter (fun d -> if fix_desc d then incr fixed) t.descs;
  !fixed

(* The incremental scan: repair only descriptors written since the last
   golden refresh. Equivalent to [scan_and_fix] whenever the tracking is
   intact ([tracking_usable]): the baseline was a consistent quiesce
   point, mutators and wild writes alike mark descriptors dirty, so any
   descriptor not on the list still holds a consistent value. The dirty
   list is deliberately NOT drained -- it still backs {!restore}, and
   every repaired descriptor is already on it ([touch] inside [fix_desc]
   is a no-op here). Latency is charged by the caller, proportional to
   [dirty_count t]. *)
let scan_and_fix_dirty t =
  let fixed = ref 0 in
  List.iter (fun d -> if fix_desc d then incr fixed) t.tracker.dirty_list;
  !fixed

let count_inconsistent t =
  Array.fold_left (fun acc d -> if consistent d then acc else acc + 1) 0 t.descs

let free_frames t =
  Array.fold_left (fun acc d -> if d.ptype = Free then acc + 1 else acc) 0 t.descs
