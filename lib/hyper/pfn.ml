(** Page-frame descriptor table.

    Each physical frame has a descriptor with a validation bit, a use
    counter and a type -- the two components the paper singles out as
    being left mutually inconsistent by a failure ("the validation bit
    and the page use counter... can cause the hypervisor to hang
    following recovery"). The consistency scan over this table is the
    dominant component of NiLiHype's 22 ms recovery latency (21 ms for
    8 GB).

    The table covers the whole machine (64 Ki frames on the campaign
    configuration), but a descriptor record exists only for a frame in
    use. Every slot starts as the table's one shared sentinel: a free,
    unowned frame, exactly what golden zeros in the store encode. {!get}
    and the allocator materialize a record on a frame's first use, from
    a spare set filled at each base image; {!restore} hands back every
    record materialized since the image and puts the sentinel back. So
    boot costs O(frames in use), and every run from an image allocates
    the same words, whatever ran before it. Read-only walks ({!peek},
    the scans and counts) never materialize; the sentinel is consistent,
    so no scan writes it.

    Rewinds are copy-on-write through {!Cow}: the golden image of each
    descriptor's four mutable fields lives in the table's store, two
    ints per frame. Mutators inside this module mark descriptors dirty
    themselves; the few external writers (the journal's undo arms, the
    fault injector's wild writes) call {!touch} explicitly.

    The store also keeps how many golden descriptors are inconsistent,
    so the post-recovery audit ({!count_inconsistent_dirty}) costs
    O(dirty frames), like the incremental scan, not O(frames). The same
    count lets the recovery path's full scan ({!repair_all}) walk only
    the dirty set when the latest image holds no inconsistent
    descriptor: the modelled scan stays O(frames), the host's work
    becomes O(dirty frames). It falls back to the full fold
    ({!scan_and_fix}) when the tracking is not usable or the image
    itself is damaged. *)

type page_type =
  | Free
  | Writable
  | Page_table
  | Segdesc
  | Shared
  | Xenheap

type desc = {
  mutable index : int; (* a recycled record moves to another frame *)
  mutable validated : bool;
  mutable use_count : int;
  mutable ptype : page_type;
  mutable owner : int; (* domid, -1 = unowned *)
  cow : unit Cow.t; (* the table's store: mutators see only the desc *)
}

type t = {
  descs : desc array; (* per frame: its record, or [sentinel] if untouched *)
  sentinel : desc; (* a free, unowned frame; never written *)
  spares : desc array; (* records to materialize, the first [nspare] usable *)
  mutable nspare : int;
  mutable materialized : int array;
      (* frames given a record, in order: sized on demand, not per
         frame (see [reserve_materialized]) *)
  mutable nmat : int;
  (* [nmat] and [nspare] at the latest image, and at the base image while
     a layer is taken over it: a restore gives back every record
     materialized past the mark and refills the spares to the mark. *)
  mutable mark : int;
  mutable mark_spares : int;
  mutable base_mark : int;
  mutable base_spares : int;
  mutable free_head : int; (* cursor for simple free-frame allocation *)
  cow : unit Cow.t;
  mutable tracking_ok : bool;
      (* Is the dirty tracking itself trustworthy? The incremental
         recovery scan walks only the dirty descriptors, which is sound
         exactly when every write since the last consistent baseline went
         through {!touch}. A wild write into the tracking structures
         ({!invalidate_tracking}, e.g. the fault injector's
         [Pfn_tracker] target) or a recovery attempt that itself died
         mid-flight clears this; recovery then falls back to the full
         scan. Re-established by {!snapshot}/{!restore}, which install a
         fresh consistent baseline. *)
}

let page_type_name = function
  | Free -> "free"
  | Writable -> "writable"
  | Page_table -> "page_table"
  | Segdesc -> "segdesc"
  | Shared -> "shared"
  | Xenheap -> "xenheap"

(* Page types as small ints, for the golden image and the undo journal. *)
let page_types = [| Free; Writable; Page_table; Segdesc; Shared; Xenheap |]

let page_type_code = function
  | Free -> 0
  | Writable -> 1
  | Page_table -> 2
  | Segdesc -> 3
  | Shared -> 4
  | Xenheap -> 5

(* A descriptor's golden image: [use_count], then the owner, type and
   validation bit packed into one int. A free, unowned frame encodes as
   two zeros, the store's initial value. *)
let flags d =
  ((d.owner + 1) lsl 4)
  lor (page_type_code d.ptype lsl 1)
  lor if d.validated then 1 else 0

let flags_owner f = (f asr 4) - 1
let flags_ptype f = page_types.((f lsr 1) land 7)
let flags_validated f = f land 1 = 1

(* The store's golden scalars: the allocation cursor, and how many
   golden descriptors are inconsistent. The count is 0 at create: all
   golden slots decode to free, unowned frames. *)
let free_head_k = 0
let inconsistent_k = 1

(* The largest use counter a sane descriptor carries; the scan clamps
   wilder values. *)
let max_use_count = 1_000_000

(* The consistency rule, over field values, so live descriptors and
   golden images are judged alike: a free frame carries no references,
   validation or owner; a typed frame carries a sane, positive count. *)
let consistent_fields ~ptype ~use_count ~validated ~owner =
  match ptype with
  | Free -> use_count = 0 && (not validated) && owner = -1
  | Writable | Page_table | Segdesc | Shared | Xenheap ->
    use_count > 0 && use_count <= max_use_count

let consistent d =
  consistent_fields ~ptype:d.ptype ~use_count:d.use_count
    ~validated:d.validated ~owner:d.owner

let golden_consistent c i =
  let f = Cow.golden c i 1 in
  consistent_fields ~ptype:(flags_ptype f) ~use_count:(Cow.golden c i 0)
    ~validated:(flags_validated f) ~owner:(flags_owner f)

(* Records in the spare set, refilled at each base image: about twice
   the most frames one run was seen to materialize past its boot image
   (223, over 3,000 campaign runs of each fault kind, fuzz clones and
   fleet trials), so a run does not allocate records. One that needs
   more allocates the extra ones, and its restore drops them. *)
let spare_records = 512

let free_desc cow index =
  { index; validated = false; use_count = 0; ptype = Free; owner = -1; cow }

(* Room in [materialized] for [n] frames, at least doubling it, never
   more than there are frames. It starts with room for [spare_records]
   frames, a base image leaves room for [spare_records] more past the
   image's, and a run materializes fewer than that, so only boot grows
   it in practice. *)
let reserve_materialized t n =
  let cap = Array.length t.materialized and frames = Array.length t.descs in
  if min n frames > cap then begin
    let m = Array.make (min frames (max n (2 * cap))) 0 in
    Array.blit t.materialized 0 m 0 t.nmat;
    t.materialized <- m
  end

let create ~frames =
  let cow = Cow.create ~width:2 ~slots:frames ~scalars:[| 0; 0 |] [||] in
  let sentinel = free_desc cow (-1) in
  (* In this order: a large [descs] promotes the sentinel, so [spares]
     need not force a second minor collection. *)
  let descs = Array.make frames sentinel in
  let spares = Array.make spare_records sentinel in
  {
    descs;
    sentinel;
    spares;
    nspare = 0;
    materialized = Array.make (min frames spare_records) 0;
    nmat = 0;
    mark = 0;
    mark_spares = 0;
    base_mark = 0;
    base_spares = 0;
    free_head = 0;
    cow;
    tracking_ok = true;
  }

let frames t = Array.length t.descs

(* Give frame [i] a record of its own, reset to the free values the
   sentinel stood for: a spare if one is left, else a fresh one. *)
let materialize t i =
  let d =
    if t.nspare = 0 then free_desc t.cow i
    else begin
      t.nspare <- t.nspare - 1;
      let d = t.spares.(t.nspare) in
      d.index <- i;
      d.validated <- false;
      d.use_count <- 0;
      d.ptype <- Free;
      d.owner <- -1;
      d
    end
  in
  t.descs.(i) <- d;
  if t.nmat = Array.length t.materialized then reserve_materialized t (t.nmat + 1);
  t.materialized.(t.nmat) <- i;
  t.nmat <- t.nmat + 1;
  d

(* Frame [i]'s record, materialized if the frame was untouched: callers
   may write it. *)
let get t i =
  let d = t.descs.(i) in
  if d == t.sentinel then materialize t i else d

(* Frame [i]'s descriptor as it stands, without materializing: an
   untouched frame reads as the shared sentinel, which must not be
   written. For read-only walks. *)
let peek t i = t.descs.(i)

(* Mark a descriptor as modified since the last snapshot. *)
let touch (d : desc) = Cow.touch d.cow d.index

(* The number of inconsistent descriptors: the full fold, ground truth
   whatever wrote the table. O(frames). *)
let count_inconsistent t =
  Array.fold_left (fun acc d -> if consistent d then acc else acc + 1) 0 t.descs

(* The same number in O(dirty frames): the latest image's count, minus
   the dirty slots whose golden image is inconsistent, plus the dirty
   descriptors that are inconsistent now. Exact whenever every write
   since the image went through {!touch}; falls back to the full fold
   when the tracking is not usable. *)
let count_inconsistent_dirty t =
  if not t.tracking_ok then count_inconsistent t
  else begin
    let c = t.cow in
    let n = ref (Cow.scalar c inconsistent_k) in
    for i = 0 to Cow.dirty_count c - 1 do
      let s = Cow.dirty c i in
      if not (golden_consistent c s) then decr n;
      if not (consistent t.descs.(s)) then incr n
    done;
    !n
  end

(* Refresh the golden image of every descriptor written since the
   previous snapshot, and the image's inconsistency count. O(changed
   frames), or O(frames) when the tracking is not usable. *)
let snapshot ?(layer = false) t =
  let c = t.cow in
  let inconsistent = count_inconsistent_dirty t in
  Cow.begin_snapshot ~layer c;
  for i = 0 to Cow.dirty_count c - 1 do
    let d = t.descs.(Cow.dirty c i) in
    Cow.set_golden c d.index 0 d.use_count;
    Cow.set_golden c d.index 1 (flags d)
  done;
  Cow.set_scalar c free_head_k t.free_head;
  Cow.set_scalar c inconsistent_k inconsistent;
  Cow.drain c;
  t.tracking_ok <- true;
  if layer then begin
    t.base_mark <- t.mark;
    t.base_spares <- t.mark_spares
  end
  else begin
    reserve_materialized t (t.nmat + spare_records);
    while t.nspare < spare_records do
      t.spares.(t.nspare) <- free_desc c (-1);
      t.nspare <- t.nspare + 1
    done
  end;
  t.mark <- t.nmat;
  t.mark_spares <- t.nspare

(* Rewind every descriptor written since the last snapshot back to its
   golden image, then give back the records of the frames materialized
   since: the sentinel stood for them in the image, so their golden
   image is a free frame. O(changed frames); repeatable (later writes
   re-dirty). The image's inconsistency count holds again as it
   stands. *)
let restore t =
  let c = t.cow in
  for i = 0 to Cow.dirty_count c - 1 do
    let d = t.descs.(Cow.dirty c i) in
    let f = Cow.golden c d.index 1 in
    d.use_count <- Cow.golden c d.index 0;
    d.owner <- flags_owner f;
    d.ptype <- flags_ptype f;
    d.validated <- flags_validated f
  done;
  Cow.drain c;
  for k = t.nmat - 1 downto t.mark do
    let f = t.materialized.(k) in
    if t.nspare < t.mark_spares then begin
      t.spares.(t.nspare) <- t.descs.(f);
      t.nspare <- t.nspare + 1
    end;
    t.descs.(f) <- t.sentinel
  done;
  t.nmat <- t.mark;
  t.free_head <- Cow.scalar c free_head_k;
  t.tracking_ok <- true

(* The next restore lands on the base image again. *)
let drop_layer t =
  if t.cow.Cow.layered then begin
    t.mark <- t.base_mark;
    t.mark_spares <- t.base_spares
  end;
  Cow.drop_layer t.cow

let dirty_count t = Cow.dirty_count t.cow

(* Visit the descriptors written since the last snapshot, most recently
   first-touched first. *)
let iter_dirty t f =
  for i = 0 to Cow.dirty_count t.cow - 1 do
    f t.descs.(Cow.dirty t.cow i)
  done

let tracking_usable t = t.tracking_ok
let invalidate_tracking t = t.tracking_ok <- false

(* The first free frame from [i] on, wrapping; a toplevel function, so
   an allocation builds no closure. *)
let rec find_free t n tries i =
  if tries > n then Crash.panic "pfn: out of physical frames"
  else begin
    let f = i mod n in
    let d = t.descs.(f) in
    if d == t.sentinel then materialize t f
    else if d.ptype = Free && d.use_count = 0 && not d.validated then d
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

(* Detect validation-bit / use-counter disagreement on one descriptor
   and repair it. The repair is a pure function of the descriptor's own
   fields, so the scans below may visit descriptors in any order (full
   array sweep, dirty-set walk, per-domain shard) and converge on the
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
    else if d.use_count > max_use_count then begin
      (* Wild counter value: clamp and drop validation. *)
      d.use_count <- 1;
      d.validated <- false
    end;
    true
  end

(* The full scan: walk every descriptor, detect validation-bit /
   use-counter disagreement and repair it. Returns the number of
   descriptors repaired. The ground truth, whatever wrote the table;
   recovery calls {!repair_all}, which takes this walk only when it must.
   Latency is charged by the caller (proportional to [frames t]). *)
let scan_and_fix t =
  let fixed = ref 0 in
  Array.iter (fun d -> if fix_desc d then incr fixed) t.descs;
  !fixed

(* The incremental scan: repair only descriptors written since the last
   golden refresh. Equivalent to [scan_and_fix] whenever the tracking is
   intact ([tracking_usable]): the baseline was a consistent quiesce
   point, mutators and wild writes alike mark descriptors dirty, so any
   descriptor not dirty still holds a consistent value. The dirty set is
   deliberately NOT drained -- it still backs {!restore}, and every
   repaired descriptor is already in it ([touch] inside [fix_desc] is a
   no-op here). Latency is charged by the caller, proportional to
   [dirty_count t]. *)
let scan_and_fix_dirty t =
  let fixed = ref 0 in
  for i = 0 to Cow.dirty_count t.cow - 1 do
    if fix_desc t.descs.(Cow.dirty t.cow i) then incr fixed
  done;
  !fixed

(* The recovery path's full scan: the same repairs, count and dirty
   stack as [scan_and_fix], at O(dirty frames) host cost when the latest
   image is provably clean. With the tracking intact, every descriptor
   not dirty still holds its golden value, and with no inconsistent
   golden descriptor those are all consistent: every repair lies in the
   dirty set, where [touch] is a no-op. Otherwise (an untrusted dirty
   set, or damage already in the image) it is the full fold. Modelled
   latency is the caller's, unchanged: [frames t] either way. *)
let repair_all t =
  if t.tracking_ok && Cow.scalar t.cow inconsistent_k = 0 then
    scan_and_fix_dirty t
  else scan_and_fix t

let free_frames t =
  Array.fold_left (fun acc d -> if d.ptype = Free then acc + 1 else acc) 0 t.descs
