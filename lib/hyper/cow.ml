(** Copy-on-write golden state behind {!Hypervisor.snapshot}, shared by
    {!Pfn}, {!Heap} and {!Timer_heap}.

    A store follows one owner's elements by slot number (a frame index,
    a heap oid, a timer event id). For each slot it keeps [width] golden
    ints: the owner's encoding of that element's mutable fields at the
    latest image. It also keeps the owner's golden scalars, as ints plus
    ['r] references (the heap's free-list note, the timer heap's queued
    events). A slot written since the latest image is dirty: marked in
    [marks] and pushed on [stack]. Snapshot and restore walk only the
    dirty slots, so they cost O(changed elements), not O(elements).

    The owner drives both walks:
    - snapshot: {!begin_snapshot}, then write the golden values of every
      dirty slot ({!set_golden}) and the scalars ({!set_scalar},
      {!set_ref}), then {!drain};
    - restore: read them back ({!golden}, {!scalar}, {!get_ref}) into the
      live elements, then {!drain}.

    A [layer] snapshot is taken over a base one, like a linked clone's
    writable overlay over its backing image. {!begin_snapshot} first
    saves the base golden values it is about to lose: those of the dirty
    slots and the scalars. {!drop_layer} puts them back and marks those
    slots dirty, so the next restore lands on the base again.

    The dirty stack holds only the slots dirtied since the latest image,
    so it is sized on demand, not per slot: it has room for [stack_room]
    slots (or every slot, if fewer) from the start and never shrinks. A
    boot that dirties more doubles it as it goes; a run from an image
    dirties a few hundred frames at most, so a run's {!touch} never
    grows it in practice -- only a run that dirtied more than ever
    before would.

    Arrays grow only in {!place} (the owner creating elements), in
    {!set_ref}, in a layer's {!begin_snapshot} and in a {!touch} that
    overflows the stack; {!drain} and restores never allocate. *)

type 'r t = {
  width : int; (* golden ints per slot *)
  mutable golden : int array; (* slot [s] at [s * width] *)
  mutable marks : Bytes.t; (* per slot: dirty since the latest image? *)
  mutable stack : int array;
      (* the dirty slots, in first-touch order; never longer than
         [marks], since a slot is dirty at most once *)
  mutable ndirty : int;
  scalars : int array; (* golden int scalars *)
  mutable refs : 'r array; (* golden reference scalars *)
  (* What the latest layer snapshot overwrote of its base image. *)
  mutable layered : bool;
  mutable saved : int array; (* per saved slot: the slot, then its golden ints *)
  mutable nsaved : int;
  saved_scalars : int array;
  mutable saved_refs : 'r array;
}

(* Dirty-stack room a store starts with: several times the most frames
   one run was seen to dirty past its image (270, over 3,000 campaign
   runs of each fault kind; 18 in a fleet trial). *)
let stack_room = 1024

(* Golden values start at 0 for every slot, so an owner encodes a fresh
   element's state (or an element that did not exist) as zeros. *)
let create ~width ~slots ~scalars refs =
  {
    width;
    golden = Array.make (slots * width) 0;
    marks = Bytes.make slots '\000';
    stack = Array.make (min slots stack_room) 0;
    ndirty = 0;
    scalars = Array.copy scalars;
    refs;
    layered = false;
    saved = [||];
    nsaved = 0;
    saved_scalars = Array.copy scalars;
    saved_refs = Array.copy refs;
  }

(* Room on the dirty stack for [n] slots, at least doubling it, and
   never more than there are slots. *)
let reserve_stack c n =
  let cap = Array.length c.stack and slots = Bytes.length c.marks in
  if min n slots > cap then begin
    let stack = Array.make (min slots (max n (2 * cap))) 0 in
    Array.blit c.stack 0 stack 0 c.ndirty;
    c.stack <- stack
  end

(* Room for slots [0, slots), with the stack room of a store created
   that large. *)
let ensure c slots =
  let cap = Bytes.length c.marks in
  if slots > cap then begin
    let cap' = max slots (2 * cap) in
    let golden = Array.make (cap' * c.width) 0 in
    Array.blit c.golden 0 golden 0 (cap * c.width);
    let marks = Bytes.make cap' '\000' in
    Bytes.blit c.marks 0 marks 0 cap;
    c.golden <- golden;
    c.marks <- marks;
    reserve_stack c (min cap' stack_room)
  end

(* Put element [e] in slot [s] of the owner's slot-indexed [elts],
   growing [elts] and the store together; the owner keeps the returned
   array. The first growth makes room for 256 slots, more heap objects
   than any campaign configuration boots and more timer events than a
   campaign run adds, so a worker's store rarely grows between
   restores: its runs allocate alike whatever ran before them. *)
let place c elts s e =
  let elts =
    if s < Array.length elts then elts
    else begin
      let grown = Array.make (max 256 (2 * s)) e in
      Array.blit elts 0 grown 0 (Array.length elts);
      ensure c (Array.length grown);
      grown
    end
  in
  elts.(s) <- e;
  elts

(* Mark a slot written since the latest image. *)
let touch c s =
  if Bytes.get c.marks s = '\000' then begin
    if c.ndirty = Array.length c.stack then reserve_stack c (c.ndirty + 1);
    Bytes.set c.marks s '\001';
    c.stack.(c.ndirty) <- s;
    c.ndirty <- c.ndirty + 1
  end

let dirty_count c = c.ndirty

(* The [i]th dirty slot, most recently first-touched first. *)
let dirty c i = c.stack.(c.ndirty - 1 - i)

let golden c s k = c.golden.((s * c.width) + k)
let set_golden c s k v = c.golden.((s * c.width) + k) <- v
let scalar c k = c.scalars.(k)
let set_scalar c k v = c.scalars.(k) <- v
let get_ref c k = c.refs.(k)

let set_ref c k v =
  let n = Array.length c.refs in
  if k >= n then begin
    let refs = Array.make (max (k + 1) (2 * n)) v in
    Array.blit c.refs 0 refs 0 n;
    c.refs <- refs
  end;
  c.refs.(k) <- v

(* Start an image. A base image forgets any saved layer; a layer saves
   the golden values the owner is about to overwrite. *)
let begin_snapshot ~layer c =
  c.layered <- layer;
  c.nsaved <- 0;
  if layer then begin
    let stride = c.width + 1 in
    if Array.length c.saved < c.ndirty * stride then
      c.saved <- Array.make (max (c.ndirty * stride) (2 * Array.length c.saved)) 0;
    for i = 0 to c.ndirty - 1 do
      let s = c.stack.(i) in
      c.saved.(i * stride) <- s;
      Array.blit c.golden (s * c.width) c.saved ((i * stride) + 1) c.width
    done;
    c.nsaved <- c.ndirty;
    Array.blit c.scalars 0 c.saved_scalars 0 (Array.length c.scalars);
    if Array.length c.saved_refs < Array.length c.refs then
      c.saved_refs <- Array.copy c.refs
    else Array.blit c.refs 0 c.saved_refs 0 (Array.length c.refs)
  end

(* Clean every dirty slot: the golden values now match the live ones. *)
let drain c =
  for i = 0 to c.ndirty - 1 do
    Bytes.set c.marks c.stack.(i) '\000'
  done;
  c.ndirty <- 0

(* Give the golden values back to the base a layer was taken over,
   marking every slot it rewinds dirty. O(slots the layer refreshed). *)
let drop_layer c =
  if c.layered then begin
    let stride = c.width + 1 in
    for i = 0 to c.nsaved - 1 do
      let s = c.saved.(i * stride) in
      Array.blit c.saved ((i * stride) + 1) c.golden (s * c.width) c.width;
      touch c s
    done;
    Array.blit c.saved_scalars 0 c.scalars 0 (Array.length c.scalars);
    Array.blit c.saved_refs 0 c.refs 0 (Array.length c.saved_refs);
    c.layered <- false;
    c.nsaved <- 0
  end
