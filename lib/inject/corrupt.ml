(** Applying error propagation: a manifested fault that does not trap
    immediately writes a wrong value somewhere. Each target below
    mutates the *real* simulated structure; whether the damage is later
    detected, silently tolerated, repaired by a recovery enhancement or
    fatal emerges from the hypervisor's own assertions and the recovery
    mechanics. *)

open Hyper

type target =
  | Pfn_validated_flip (* validation bit of a random frame *)
  | Pfn_use_count_skew (* reference counter off by a small delta *)
  | Sched_metadata (* per-vCPU redundant current-records scrambled *)
  | Timer_deadline (* a queued timer event fires at the wrong time *)
  | Timer_structure (* heap-order links smashed: NiLiHype-fatal *)
  | Heap_freelist (* allocator free list smashed: NiLiHype-fatal *)
  | Static_scalar (* non-lock static segment data: reboot-repairable *)
  | Domain_struct (* live domain struct payload: fatal for both *)
  | Privvm_critical (* the PrivVM itself is taken out *)
  | Recovery_handler (* the recovery routine's own state/code *)
  | Guest_frame (* guest-owned memory: at most one VM affected *)
  | Heap_header (* live heap object's header canary smashed *)
  | Pfn_type_scramble (* pfn descriptor type field bit-flipped *)
  | Pfn_tracker (* dirty-tracking metadata smashed: incremental scan unusable *)

let name = function
  | Pfn_validated_flip -> "pfn_validated_flip"
  | Pfn_use_count_skew -> "pfn_use_count_skew"
  | Sched_metadata -> "sched_metadata"
  | Timer_deadline -> "timer_deadline"
  | Timer_structure -> "timer_structure"
  | Heap_freelist -> "heap_freelist"
  | Static_scalar -> "static_scalar"
  | Domain_struct -> "domain_struct"
  | Privvm_critical -> "privvm_critical"
  | Recovery_handler -> "recovery_handler"
  | Guest_frame -> "guest_frame"
  | Heap_header -> "heap_header"
  | Pfn_type_scramble -> "pfn_type_scramble"
  | Pfn_tracker -> "pfn_tracker"

(* The full target space in a fixed order, indexable by the fuzzer's
   directed faults ({!Fault.directive.d_target}). Append-only: corpus
   entries persist indices, so reordering would silently change what an
   old repro does. *)
let all =
  [|
    Pfn_validated_flip;
    Pfn_use_count_skew;
    Sched_metadata;
    Timer_deadline;
    Timer_structure;
    Heap_freelist;
    Static_scalar;
    Domain_struct;
    Privvm_critical;
    Recovery_handler;
    Guest_frame;
    Heap_header;
    Pfn_type_scramble;
    Pfn_tracker;
  |]

let n_targets = Array.length all
let of_index i = all.(((i mod n_targets) + n_targets) mod n_targets)

let random_domain (hv : Hypervisor.t) rng ~app_only =
  let pick = if app_only then Domain.is_app else fun _ -> true in
  match Domain_table.count pick hv.Hypervisor.domains with
  | 0 -> None
  | n -> Some (Domain_table.nth pick hv.Hypervisor.domains (Sim.Rng.int rng n))

(* A frame for a wild write, biased towards frames that are actually in
   use, as wild writes land in hot data structures: up to 17 draws,
   peeked without materializing, then the chosen frame's record. *)
let rec pick_frame pfn rng frames tries =
  let i = Sim.Rng.int rng frames in
  if (Pfn.peek pfn i).Pfn.use_count > 0 || tries > 16 then Pfn.get pfn i
  else pick_frame pfn rng frames (tries + 1)

let apply hv rng target =
  match target with
  | Pfn_validated_flip ->
    let d = pick_frame hv.Hypervisor.pfn rng (Hypervisor.frames hv) 0 in
    Pfn.touch d;
    d.Pfn.validated <- not d.Pfn.validated
  | Pfn_use_count_skew ->
    let d = pick_frame hv.Hypervisor.pfn rng (Hypervisor.frames hv) 0 in
    let delta = [| -2; -1; 1; 2 |].(Sim.Rng.int rng 4) in
    Pfn.touch d;
    d.Pfn.use_count <- d.Pfn.use_count + delta
  | Sched_metadata ->
    let n = Domain_table.vcpu_count hv.Hypervisor.domains in
    if n > 0 then begin
      let v = Domain_table.nth_vcpu hv.Hypervisor.domains (Sim.Rng.int rng n) in
      match Sim.Rng.int rng 3 with
      | 0 -> v.Domain.is_current <- not v.Domain.is_current
      | 1 -> v.Domain.curr_slot <- Sim.Rng.int rng (Hypervisor.cpu_count hv)
      | _ ->
        v.Domain.runstate <-
          (if v.Domain.runstate = Domain.Running then Domain.Runnable
           else Domain.Running)
    end
  | Timer_deadline ->
    (* A deadline register gets a wrong value: the top event fires late.
       Nothing re-sorts the heap: the event keeps the root, so the events
       below it wait for its later deadline unless an insert sifts an
       earlier one above it. *)
    let timers = hv.Hypervisor.timers in
    (match Timer_heap.peek timers with
    | Some e ->
      Timer_heap.touch e;
      e.Timer_heap.deadline <-
        e.Timer_heap.deadline + Sim.Time.us (Sim.Rng.int rng 5000)
    | None -> ())
  | Timer_structure -> Timer_heap.corrupt_structure hv.Hypervisor.timers
  | Heap_freelist -> Heap.corrupt_freelist hv.Hypervisor.heap "wild write to chunk header"
  | Static_scalar ->
    hv.Hypervisor.static_data_ok <- false;
    hv.Hypervisor.static_data_note <- "wild write to static data segment"
  | Domain_struct ->
    (match random_domain hv rng ~app_only:false with
    | Some d -> d.Domain.struct_ok <- false
    | None -> ())
  | Privvm_critical ->
    let d = Hypervisor.privvm hv in
    d.Domain.guest_failed <- true
  | Recovery_handler -> hv.Hypervisor.recovery_handler_ok <- false
  | Guest_frame ->
    (match random_domain hv rng ~app_only:true with
    | Some d ->
      if Sim.Rng.bool rng then d.Domain.guest_sdc <- true
      else d.Domain.guest_failed <- true
    | None -> ())
  | Heap_header ->
    (* Flip the header canary of a live heap object. The object keeps
       working until either its owner frees it (panic on the corrupted
       header) or the end-of-run audit walks the heap -- damage that
       ReHype's reboot-time heap reconstruction repairs but a microreset
       preserves. The pick is by ascending oid, so it depends only on
       the rng stream and the allocation history. *)
    let objs = ref [] in
    Heap.iter_live hv.Hypervisor.heap (fun o -> objs := o :: !objs);
    (match List.rev !objs with
    | [] -> ()
    | l ->
      let o = List.nth l (Sim.Rng.int rng (List.length l)) in
      Heap.corrupt_header o)
  | Pfn_type_scramble ->
    (* Bit-flip in a pfn descriptor's type field: the frame's recorded
       type no longer matches its references. [scan_and_fix] repairs the
       disagreement at recovery time; until then get_page/put_page and
       the allocator can trip over it. *)
    let d = pick_frame hv.Hypervisor.pfn rng (Hypervisor.frames hv) 0 in
    Pfn.touch d;
    d.Pfn.ptype <-
      (match d.Pfn.ptype with
      | Pfn.Free -> Pfn.Writable
      | Pfn.Writable -> Pfn.Page_table
      | Pfn.Page_table -> Pfn.Writable
      | Pfn.Segdesc -> Pfn.Shared
      | Pfn.Shared -> Pfn.Segdesc
      | Pfn.Xenheap -> Pfn.Free)
  | Pfn_tracker ->
    (* A wild write lands in the dirty-tracking metadata itself. No
       descriptor value changes, but the incremental consistency scan can
       no longer trust the dirty set to cover all damage -- recovery
       must fall back to the full scan. Snapshot restores re-establish a
       trusted baseline, so a rewind clears it. *)
    Pfn.invalidate_tracking hv.Hypervisor.pfn
