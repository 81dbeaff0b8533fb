(* Property-based tests (QCheck) on the core data structures and the
   recovery invariants. *)

open Contract

let seeded_rng i = Sim.Rng.create (Int64.of_int i)

(* ------------------------- Timer heap ------------------------------- *)

(* Popping a timer heap built from any deadline list yields the
   deadlines in sorted order. *)
let prop_timer_heap_sorts =
  QCheck.Test.make ~name:"timer_heap pops sorted"
    QCheck.(list (int_bound 1_000_000))
    (fun deadlines ->
      let th = Hyper.Timer_heap.create () in
      List.iter
        (fun d ->
          ignore (Hyper.Timer_heap.add th ~deadline:d Hyper.Timer_heap.Generic_oneshot))
        deadlines;
      let rec drain acc =
        match Hyper.Timer_heap.pop th with
        | Some e -> drain (e.Hyper.Timer_heap.deadline :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare deadlines)

(* The heap property holds after any interleaving of adds and pops. *)
let prop_timer_heap_property =
  QCheck.Test.make ~name:"timer_heap invariant under ops"
    QCheck.(list (pair bool (int_bound 1_000_000)))
    (fun ops ->
      let th = Hyper.Timer_heap.create () in
      List.iter
        (fun (pop, d) ->
          if pop then ignore (Hyper.Timer_heap.pop th)
          else ignore (Hyper.Timer_heap.add th ~deadline:d Hyper.Timer_heap.Generic_oneshot))
        ops;
      Hyper.Timer_heap.heap_property_holds th)

(* Reactivation restores every recurring event, regardless of which were
   lost. *)
let prop_timer_reactivate_complete =
  QCheck.Test.make ~name:"reactivate_recurring leaves none missing"
    QCheck.(pair (int_range 1 20) (list bool))
    (fun (n, losses) ->
      let th = Hyper.Timer_heap.create () in
      let events =
        List.init n (fun i ->
            Hyper.Timer_heap.add th ~deadline:(10 * (i + 1)) ~period:100
              Hyper.Timer_heap.Time_sync)
      in
      (* Lose a subset: pop them without requeueing. *)
      List.iteri
        (fun i lose ->
          if lose && i < n then begin
            let e = List.nth events i in
            if e.Hyper.Timer_heap.queued then begin
              (* pop until we take this one out, then push back others *)
              let popped = ref [] in
              let rec hunt () =
                match Hyper.Timer_heap.pop th with
                | Some e' when e' == e -> ()
                | Some e' ->
                  popped := e' :: !popped;
                  hunt ()
                | None -> ()
              in
              hunt ();
              List.iter
                (fun e' -> Hyper.Timer_heap.requeue th e' ~now:e'.Hyper.Timer_heap.deadline)
                !popped
            end
          end)
        losses;
      ignore (Hyper.Timer_heap.reactivate_recurring th ~now:0);
      Hyper.Timer_heap.missing_recurring_count th = 0)

(* ------------------------- Pfn scan --------------------------------- *)

(* After scan_and_fix, every descriptor is consistent, for any pattern of
   validation-bit / use-counter corruption. *)
let prop_pfn_scan_restores_consistency =
  QCheck.Test.make ~name:"pfn scan_and_fix restores full consistency"
    QCheck.(list (pair (int_bound 31) (int_range (-3) 3)))
    (fun corruptions ->
      let t = Hyper.Pfn.create ~frames:32 in
      (* Allocate some frames to mix free and in-use descriptors. *)
      for i = 0 to 9 do
        ignore
          (Hyper.Pfn.alloc_frame t ~owner:1
             ~ptype:(if i mod 2 = 0 then Hyper.Pfn.Writable else Hyper.Pfn.Page_table))
      done;
      List.iter
        (fun (idx, delta) ->
          let d = Hyper.Pfn.get t idx in
          if delta = 0 then d.Hyper.Pfn.validated <- not d.Hyper.Pfn.validated
          else d.Hyper.Pfn.use_count <- d.Hyper.Pfn.use_count + delta)
        corruptions;
      ignore (Hyper.Pfn.scan_and_fix t);
      Hyper.Pfn.count_inconsistent t = 0)

(* ------------------------- Locks ------------------------------------ *)

(* unlock_all releases exactly the held locks and leaves the segment
   fully released, for any subset held. *)
let prop_static_segment_unlock_all =
  QCheck.Test.make ~name:"segment unlock_all releases exactly the held locks"
    QCheck.(list bool)
    (fun held_pattern ->
      let seg = Hyper.Spinlock.Segment.create () in
      let held = ref 0 in
      List.iteri
        (fun i h ->
          let l =
            Hyper.Spinlock.create ~name:(string_of_int i)
              ~location:Hyper.Spinlock.Static
          in
          Hyper.Spinlock.Segment.register seg l;
          if h then begin
            Hyper.Spinlock.acquire l ~cpu:(i mod 8);
            incr held
          end)
        held_pattern;
      let released = Hyper.Spinlock.Segment.unlock_all seg in
      released = !held && Hyper.Spinlock.Segment.held_count seg = 0)

(* ------------------------- Journal ---------------------------------- *)

let journal_over ~frames =
  let pfn = Hyper.Pfn.create ~frames in
  let grants = Hyper.Grant.create (Hyper.Heap.create ()) ~slots:4 1 in
  let j = Hyper.Journal.create ~pfn ~grants ~capacity:4 in
  Hyper.Journal.set_enabled j true;
  (j, pfn, grants)

(* undo_all exactly inverts any sequence of journaled use-count deltas
   on a frame's descriptor. *)
let prop_journal_undo_inverts =
  QCheck.Test.make ~name:"journal undo_all inverts counter deltas"
    QCheck.(list (int_range (-10) 10))
    (fun deltas ->
      let j, pfn, _ = journal_over ~frames:1 in
      let d = Hyper.Pfn.get pfn 0 in
      d.Hyper.Pfn.use_count <- 100;
      List.iter
        (fun delta ->
          Hyper.Journal.log j Hyper.Journal.Use_count_delta ~target:0 ~operand:delta;
          d.Hyper.Pfn.use_count <- d.Hyper.Pfn.use_count + delta)
        deltas;
      Hyper.Journal.undo_all j;
      d.Hyper.Pfn.use_count = 100)

(* Any mix of typed entries, each logged before the change it records,
   undone newest first, puts every descriptor and grant slot back
   exactly -- including past the journal's initial capacity. Each op is
   applied only where its undo is the exact inverse (a fresh frame for
   [Put_if_used], a mapped slot for [Grant_remap_undo]...). *)
let prop_journal_undo_restores_mix =
  let module J = Hyper.Journal in
  let module P = Hyper.Pfn in
  QCheck.Test.make ~name:"journal undo_all restores a typed-entry mix"
    QCheck.(list (triple (int_bound 7) (int_bound 5) (int_range (-3) 3)))
    (fun steps ->
      let j, pfn, grants = journal_over ~frames:6 in
      (* A starting table: frames 0-3 owned and typed, 4-5 free. *)
      for f = 0 to 3 do
        let d = P.get pfn f in
        d.P.use_count <- 2 + f;
        d.P.ptype <- P.page_types.(1 + (f mod 5));
        d.P.owner <- f;
        d.P.validated <- f mod 2 = 0
      done;
      Hyper.Grant.grant grants ~slot:0 ~frame:0;
      Hyper.Grant.grant grants ~slot:1 ~frame:1;
      Hyper.Grant.map grants ~slot:1 ~by:0;
      let view () =
        ( Array.init 6 (fun f ->
              let d = P.get pfn f in
              (d.P.validated, d.P.use_count, d.P.ptype, d.P.owner)),
          Array.init (Hyper.Grant.length grants) (fun slot ->
              Hyper.Grant.mapped_by grants ~slot) )
      in
      let before = view () in
      List.iter
        (fun (op, f, x) ->
          let d = P.get pfn f and slot = f mod 2 in
          let log op target operand = J.log j op ~target ~operand in
          match J.ops.(op) with
          | J.Use_count_delta ->
            log J.Use_count_delta f x;
            d.P.use_count <- d.P.use_count + x
          | J.Validated_set ->
            if not d.P.validated then begin
              log J.Validated_set f 0;
              d.P.validated <- true
            end
          | J.Validated_cleared ->
            if d.P.validated then begin
              log J.Validated_cleared f 0;
              d.P.validated <- false
            end
          | J.Type_change ->
            log J.Type_change f (P.page_type_code d.P.ptype);
            d.P.ptype <- P.page_types.(abs x)
          | J.Owner_change ->
            log J.Owner_change f d.P.owner;
            d.P.owner <- x
          | J.Put_if_used ->
            if
              d.P.ptype = P.Free && d.P.use_count = 0 && d.P.owner = -1
              && not d.P.validated
            then begin
              log J.Put_if_used f 0;
              d.P.use_count <- 1;
              d.P.ptype <- P.Writable;
              d.P.owner <- 7
            end
          | J.Grant_unmap_undo ->
            if Hyper.Grant.mapped_by grants ~slot = -1 then begin
              log J.Grant_unmap_undo slot 0;
              Hyper.Grant.map grants ~slot ~by:3
            end
          | J.Grant_remap_undo ->
            if Hyper.Grant.mapped_by grants ~slot = 0 then begin
              log J.Grant_remap_undo slot 0;
              Hyper.Grant.unmap grants ~slot
            end)
        steps;
      J.undo_all j;
      J.depth j = 0 && view () = before)

(* ------------------------- Scheduler -------------------------------- *)

(* fix_from_percpu makes the metadata consistent for any scramble of the
   redundant per-vCPU records. *)
let prop_sched_fix_restores_consistency =
  QCheck.Test.make ~name:"sched fix_from_percpu restores consistency"
    QCheck.(list (triple (int_bound 20) (int_bound 2) (int_bound 8)))
    (fun scrambles ->
      let hv = boot () in
      let vcpus = Array.of_list (Doms.vcpus hv) in
      List.iter
        (fun (vi, field, value) ->
          let v = vcpus.(vi mod Array.length vcpus) in
          match field with
          | 0 -> v.Hyper.Domain.is_current <- not v.Hyper.Domain.is_current
          | 1 -> v.Hyper.Domain.curr_slot <- (value mod 8) - 1
          | _ ->
            v.Hyper.Domain.runstate <-
              (if value mod 2 = 0 then Hyper.Domain.Running else Hyper.Domain.Runnable))
        scrambles;
      ignore
        (Hyper.Sched.fix_from_percpu hv.Hyper.Hypervisor.sched
           hv.Hyper.Hypervisor.domains);
      Hyper.Hypervisor.sched_consistent hv)

(* The run queues as lists, head first: the representation the array
   stacks replaced. *)
let queue_list (sched : Hyper.Sched.t) cpu =
  List.init (Hyper.Sched.queue_length sched ~cpu) (Hyper.Sched.nth_queued sched ~cpu)

let runstate_gen = function
  | 0 -> Hyper.Domain.Running
  | 1 -> Hyper.Domain.Runnable
  | _ -> Hyper.Domain.Blocked

(* [fix_from_percpu] as it was over per-CPU lists: clear every per-vCPU
   record, re-mark the per-CPU currents, drop them from their queues,
   re-queue runnable vCPUs found in no queue. Over a copy of [hv]'s
   scheduler state: vCPU fields by walk position, queues as lists of
   positions. *)
let reference_fix hv =
  let sched = hv.Hyper.Hypervisor.sched in
  let vcpus = Array.of_list (Doms.vcpus hv) in
  let pos v =
    let rec go i = if vcpus.(i) == v then i else go (i + 1) in
    go 0
  in
  let module D = Hyper.Domain in
  let fields =
    Array.map (fun (v : D.vcpu) -> (v.D.is_current, v.D.curr_slot, v.D.runstate)) vcpus
  in
  let cpus = Array.length hv.Hyper.Hypervisor.percpu in
  let queues = Array.init cpus (fun cpu -> List.map pos (queue_list sched cpu)) in
  Array.iteri
    (fun i (cur, slot, rs) ->
      let cur, slot = if cur || slot <> -1 then (false, -1) else (cur, slot) in
      fields.(i) <- (cur, slot, if rs = D.Running then D.Runnable else rs))
    fields;
  for cpu = 0 to cpus - 1 do
    match Hyper.Sched.current sched ~cpu with
    | Some v ->
      let i = pos v in
      fields.(i) <- (true, cpu, D.Running);
      queues.(cpu) <- List.filter (fun j -> j <> i) queues.(cpu)
    | None -> ()
  done;
  Array.iteri
    (fun i (_, _, rs) ->
      let cpu = vcpus.(i).D.processor in
      if rs = D.Runnable && not (List.mem i queues.(cpu)) then
        queues.(cpu) <- i :: queues.(cpu))
    fields;
  (fields, queues)

(* The repair [fix_from_percpu] makes is the full rewrite's, whatever
   scrambled the redundant records, the queues and the per-CPU currents;
   it counts only the records it changes, so a second pass over the
   repaired state returns 0 and changes nothing. *)
let prop_sched_fix_matches_full_rewrite =
  QCheck.Test.make ~name:"sched fix_from_percpu = full rewrite, counting changes"
    ~count:300
    QCheck.(list (triple (int_bound 6) (int_bound 40) (int_bound 8)))
    (fun scrambles ->
      let module D = Hyper.Domain in
      let module S = Hyper.Sched in
      let hv = boot () in
      let sched = hv.Hyper.Hypervisor.sched in
      let vcpus = Array.of_list (Doms.vcpus hv) in
      let cpus = Array.length hv.Hyper.Hypervisor.percpu in
      List.iter
        (fun (op, vi, value) ->
          let v = vcpus.(vi mod Array.length vcpus) and cpu = value mod cpus in
          match op with
          | 0 -> v.D.is_current <- not v.D.is_current
          | 1 -> v.D.curr_slot <- value - 1
          | 2 -> v.D.runstate <- runstate_gen value
          | 3 -> S.enqueue sched v
          | 4 -> S.drop_head sched ~cpu
          | 5 -> S.set_current sched ~cpu v
          | _ -> S.clear_current sched ~cpu)
        scrambles;
      (* vCPUs by walk position: records hold themselves ([as_current]),
         so they are compared physically, never structurally. *)
      let pos v =
        let rec go i = if vcpus.(i) == v then i else go (i + 1) in
        go 0
      in
      let state () =
        ( Array.map (fun (v : D.vcpu) -> (v.D.is_current, v.D.curr_slot, v.D.runstate)) vcpus,
          Array.init cpus (fun cpu -> List.map pos (queue_list sched cpu)) )
      in
      let before = state () and expected = reference_fix hv in
      let fixes = S.fix_from_percpu sched hv.Hyper.Hypervisor.domains in
      let after = state () in
      after = expected
      && (fixes = 0) = (before = after)
      && S.fix_from_percpu sched hv.Hyper.Hypervisor.domains = 0
      && state () = after)

(* The run queues are the per-CPU newest-first lists they replaced, and
   the APICs' in-service sets the duplicate-free vector lists: a model
   of both follows random enqueues, head drops, in-place removals,
   domain creation (which grows a queue), vectors entering and leaving
   service, and snapshots and restores of the hypervisor image (a base,
   and a layer over it). *)
let prop_sched_apic_list_model =
  QCheck.Test.make ~name:"run queues and in-service sets = list model" ~count:200
    QCheck.(list_of_size Gen.(0 -- 120) (triple (int_bound 9) (int_bound 60) (int_bound 255)))
    (fun ops ->
      let module D = Hyper.Domain in
      let module S = Hyper.Sched in
      let module H = Hyper.Hypervisor in
      let hv = boot () in
      let sched = hv.H.sched in
      let cpus = Array.length hv.H.percpu in
      let apic cpu = (Hw.Machine.cpu hv.H.machine cpu).Hw.Cpu.apic in
      let queues = Array.init cpus (queue_list sched) in
      let isr = Array.make cpus [] in
      let copy () = (Array.copy queues, Array.copy isr) in
      let load (q, i) =
        Array.blit q 0 queues 0 cpus;
        Array.blit i 0 isr 0 cpus
      in
      let base = ref None and layer = ref None in
      let rng = Sim.Rng.create 5L in
      let vcpu k =
        let vs = Doms.vcpus hv in
        List.nth vs (k mod List.length vs)
      in
      let agrees () =
        let ok = ref true in
        for cpu = 0 to cpus - 1 do
          let a = apic cpu in
          if S.queue_length sched ~cpu <> List.length queues.(cpu) then ok := false
          else
            List.iter2
              (fun v v' -> if v != v' then ok := false)
              (queue_list sched cpu) queues.(cpu);
          for v = 0 to 255 do
            if Hw.Apic.in_service a v <> List.mem v isr.(cpu) then ok := false
          done
        done;
        List.iter
          (fun (v : D.vcpu) ->
            if S.is_queued sched v <> List.memq v queues.(v.D.processor) then ok := false)
          (Doms.vcpus hv);
        !ok
      in
      List.for_all
        (fun (op, k, x) ->
          let cpu = x mod cpus in
          (match op with
          | 0 | 1 ->
            let v = vcpu k in
            S.enqueue sched v;
            let q = queues.(v.D.processor) in
            if not (List.memq v q) then queues.(v.D.processor) <- v :: q
          | 2 ->
            S.drop_head sched ~cpu;
            queues.(cpu) <- (match queues.(cpu) with _ :: rest -> rest | [] -> [])
          | 3 ->
            let v = vcpu k in
            S.remove sched ~cpu v;
            queues.(cpu) <- List.filter (fun v' -> v' != v) queues.(cpu)
          | 4 ->
            let next = hv.H.next_domid in
            H.execute hv rng
              (H.Hypercall { domid = 0; vid = 0; kind = Hyper.Hypercalls.Domctl_create_domain });
            (match H.domain hv next with
            | Some d ->
              Array.iter
                (fun (v : D.vcpu) ->
                  queues.(v.D.processor) <- v :: queues.(v.D.processor))
                d.D.vcpus
            | None -> ())
          | 5 ->
            Hw.Apic.begin_service (apic cpu) x;
            if not (List.mem x isr.(cpu)) then isr.(cpu) <- x :: isr.(cpu)
          | 6 ->
            let v = if k mod 2 = 0 then x else (match isr.(cpu) with v :: _ -> v | [] -> x) in
            Hw.Apic.eoi (apic cpu) v;
            isr.(cpu) <- List.filter (fun v' -> v' <> v) isr.(cpu)
          | 7 ->
            Hw.Apic.ack_all (apic cpu);
            isr.(cpu) <- []
          | 8 ->
            if k mod 2 = 0 || !base = None then begin
              base := Some (H.snapshot hv, copy ());
              layer := None
            end
            else if !layer = None then layer := Some (H.snapshot ~layer:true hv, copy ())
          | _ -> (
            match (!layer, !base) with
            | Some (im, m), _ when k mod 2 = 0 ->
              H.restore hv im;
              load m
            | _, Some (im, m) ->
              H.restore hv im;
              layer := None;
              load m
            | _, None -> ()));
          agrees ())
        ops)

(* The same vector sets through the machine image: [Hw.Machine.capture]
   and [restore] copy each APIC's in-service register into the image's
   own storage, so a restored set is the one captured, however the live
   one moved since. *)
let prop_apic_machine_image_model =
  QCheck.Test.make ~name:"in-service sets through machine images = list model"
    ~count:300
    QCheck.(list_of_size Gen.(0 -- 200) (triple (int_bound 5) (int_bound 7) (int_bound 255)))
    (fun ops ->
      let m = Hw.Machine.create ~config:Hw.Machine.campaign_config () in
      let cpus = Hw.Machine.num_cpus m in
      let apic cpu = (Hw.Machine.cpu m cpu).Hw.Cpu.apic in
      let isr = Array.make cpus [] in
      let im = Hw.Machine.image m and saved = ref (Array.make cpus []) in
      List.for_all
        (fun (op, cpu, v) ->
          let cpu = cpu mod cpus in
          (match op with
          | 0 | 1 ->
            Hw.Apic.begin_service (apic cpu) v;
            if not (List.mem v isr.(cpu)) then isr.(cpu) <- v :: isr.(cpu)
          | 2 ->
            Hw.Apic.eoi (apic cpu) v;
            isr.(cpu) <- List.filter (fun v' -> v' <> v) isr.(cpu)
          | 3 ->
            Hw.Apic.ack_all (apic cpu);
            isr.(cpu) <- []
          | 4 ->
            Hw.Machine.capture m im;
            saved := Array.copy isr
          | _ ->
            Hw.Machine.restore m im;
            Array.blit !saved 0 isr 0 cpus);
          let ok = ref true in
          for c = 0 to cpus - 1 do
            for v = 0 to 255 do
              if Hw.Apic.in_service (apic c) v <> List.mem v isr.(c) then ok := false
            done
          done;
          !ok)
        ops)

(* ------------------------- Rng -------------------------------------- *)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds"
    QCheck.(pair (int_range 1 1_000_000) small_int)
    (fun (bound, seed) ->
      let r = seeded_rng seed in
      let v = Sim.Rng.int r bound in
      v >= 0 && v < bound)

let prop_rng_reproducible =
  QCheck.Test.make ~name:"rng streams reproducible" QCheck.small_int (fun seed ->
      let a = seeded_rng seed and b = seeded_rng seed in
      List.init 20 (fun _ -> Sim.Rng.int64 a)
      = List.init 20 (fun _ -> Sim.Rng.int64 b))

(* [float_below] is [float]'s draw compared in place: same answer, and
   the generator ends at the same position. *)
let prop_rng_float_below =
  QCheck.Test.make ~name:"rng float_below = float <"
    QCheck.(triple small_int (float_bound_inclusive 10.0) (float_bound_inclusive 10.0))
    (fun (seed, x, y) ->
      let a = seeded_rng seed and b = seeded_rng seed in
      let below = Sim.Rng.float_below a x y in
      below = (Sim.Rng.float b x < y) && Sim.Rng.int64 a = Sim.Rng.int64 b)

(* ------------------------- Owned frames ----------------------------- *)

(* An owned-frame set behaves as the newest-first [int list] it replaced
   (push = cons, remove = filter out every copy), through growth,
   compaction and image restores, and its writable picks are the model's
   frames filtered by their type in a small frame table, which the ops
   also retype. Frames are drawn from a small range so duplicates and
   hash collisions are the common case. *)
let prop_owned_frames_list_model =
  QCheck.Test.make ~name:"owned_frames = newest-first list" ~count:300
    QCheck.(list_of_size Gen.(0 -- 400) (pair (int_bound 7) (int_bound 40)))
    (fun ops ->
      let module O = Hyper.Owned_frames in
      let module P = Hyper.Pfn in
      let descs = Array.init 41 (P.get (P.create ~frames:41)) in
      Array.iter (fun d -> if d.P.index mod 2 = 0 then d.P.ptype <- P.Writable) descs;
      let t = O.create () in
      let model = ref [] and images = ref [] in
      List.for_all
        (fun (op, f) ->
          (match op with
          | 0 | 1 | 2 ->
            O.push t f;
            model := f :: !model
          | 3 ->
            O.remove t f;
            model := List.filter (fun f' -> f' <> f) !model
          | 4 -> images := (O.capture t, !model) :: !images
          | 5 -> (
            match !images with
            | [] -> ()
            | imgs ->
              let img, m = List.nth imgs (f mod List.length imgs) in
              O.restore t img;
              model := m)
          | 6 -> descs.(f).P.ptype <- P.Writable
          | _ -> descs.(f).P.ptype <- P.Page_table);
          let writable = List.filter (fun f -> descs.(f).P.ptype = P.Writable) !model in
          O.to_list t = !model
          && O.length t = List.length !model
          && O.count_writable descs t = List.length writable
          && List.for_all2
               (fun k f -> O.nth_writable descs t k = f)
               (List.init (List.length writable) Fun.id)
               writable
          && O.nth_writable descs t (List.length writable) = -1
          && O.find_if (fun lo () f -> f > lo) 20 () t
             = Option.value ~default:(-1) (List.find_opt (fun f -> f > 20) !model))
        ops)

(* ------------------------- Copy-on-write stores --------------------- *)

(* One store under test: a view of its live state, its public mutators
   (each returns the keys of the elements it wrote), its rewind entry
   points, and what else must hold after every step. *)
type 'v store = {
  view : unit -> 'v;
  mutate : int -> int -> int list;
  snapshot : layer:bool -> unit;
  restore : unit -> unit;
  drop_layer : unit -> unit;
  dirty_count : unit -> int;
  invariant : unit -> bool;
}

(* Random mutator sequences interleaved with base and layer snapshots,
   restores, and unlayering restores, checked against a reference that
   deep-copies the live state at each image: a snapshot leaves the live
   state alone, a restore lands exactly on the latest image (the layer
   while there is one, else the base), and after every step
   [dirty_count] is the number of distinct elements written since the
   latest image and the store's [invariant] holds. The initial state is the first base image. Layers are
   taken as [Hypervisor.snapshot] allows them: over a base, one at a
   time. *)
let cow_model_holds (s : _ store) steps =
  let base = ref (s.view ()) and layer = ref None and touched = ref [] in
  let image_taken v =
    touched := [];
    s.view () = v
  in
  List.for_all
    (fun (op, arg) ->
      let live_ok =
        match op with
        | 0 ->
          let v = s.view () in
          s.snapshot ~layer:false;
          base := v;
          layer := None;
          image_taken v
        | 1 when !layer = None ->
          let v = s.view () in
          s.snapshot ~layer:true;
          layer := Some v;
          image_taken v
        | 1 | 2 ->
          s.restore ();
          image_taken (Option.value !layer ~default:!base)
        | 3 ->
          s.drop_layer ();
          s.restore ();
          layer := None;
          image_taken !base
        | _ ->
          List.iter
            (fun k -> if not (List.mem k !touched) then touched := k :: !touched)
            (s.mutate (op - 4) arg);
          true
      in
      live_ok && s.dirty_count () = List.length !touched && s.invariant ())
    steps

let pfn_store () =
  let module P = Hyper.Pfn in
  let frames = 8 in
  let t = P.create ~frames in
  let view () =
    ( Array.init frames (fun i ->
          let d = P.peek t i in
          (d.P.validated, d.P.use_count, d.P.ptype, d.P.owner)),
      t.P.free_head )
  in
  let on i f = if crashes (fun () -> f (P.get t i)) then [] else [ i ] in
  let mutate op arg =
    let i = arg mod frames in
    match op with
    | 0 -> (
      match P.alloc_frame t ~owner:(arg mod 3) ~ptype:P.Writable with
      | d -> [ d.P.index ]
      | exception Hyper.Crash.Hypervisor_crash _ -> [])
    | 1 -> on i P.get_page
    | 2 -> on i P.put_page
    | 3 -> on i P.validate
    | 4 -> on i P.invalidate
    | 5 ->
      (* A wild write, as the journal's undo and the fault injector do. *)
      let d = P.get t i in
      P.touch d;
      (match arg mod 4 with
      | 0 -> d.P.use_count <- arg - 50
      | 1 -> d.P.owner <- arg - 3
      | 2 ->
        d.P.ptype <-
          P.[| Free; Writable; Page_table; Segdesc; Shared; Xenheap |].(arg mod 6)
      | _ -> d.P.validated <- not d.P.validated);
      [ i ]
    | 6 ->
      (* A wild write into the tracking itself: the O(dirty) count falls
         back to the full fold, and so does the next snapshot's. *)
      P.invalidate_tracking t;
      []
    | _ ->
      (* Either full scan -- the fold, or the recovery path's, which
         walks only the dirty set when the image allows it -- repairs
         exactly the descriptors the fold counts, leaves none, and
         writes only what it repairs. *)
      let before = view () and inconsistent = P.count_inconsistent t in
      let fixed = if arg land 1 = 0 then P.scan_and_fix t else P.repair_all t in
      if fixed <> inconsistent || P.count_inconsistent t <> 0 then
        QCheck.Test.fail_reportf "scan %d repaired %d of %d, left %d" (arg land 1)
          fixed inconsistent (P.count_inconsistent t);
      let after = view () in
      List.filter (fun i -> (fst before).(i) <> (fst after).(i)) (List.init frames Fun.id)
  in
  {
    view;
    mutate;
    snapshot = (fun ~layer -> P.snapshot ~layer t);
    restore = (fun () -> P.restore t);
    drop_layer = (fun () -> P.drop_layer t);
    dirty_count = (fun () -> P.dirty_count t);
    (* The audit's O(dirty) count survives every rewind exactly. *)
    invariant = (fun () -> P.count_inconsistent_dirty t = P.count_inconsistent t);
  }

let heap_store () =
  let module H = Hyper.Heap in
  let t = H.create () in
  let live () =
    let l = ref [] in
    H.iter_live t (fun o -> l := o :: !l);
    List.sort (fun (a : H.obj) b -> compare a.H.oid b.H.oid) !l
  in
  let view () =
    ( List.map (fun (o : H.obj) -> (o.H.oid, o.H.live, o.H.header_ok)) (live ()),
      (t.H.next_oid, H.bytes_live t, t.H.allocs, H.live_count t),
      (H.freelist_ok t, t.H.freelist_note) )
  in
  let pick arg f =
    match live () with
    | [] -> []
    | l ->
      let o = List.nth l (arg mod List.length l) in
      if crashes (fun () -> f o) then [] else [ o.H.oid ]
  in
  let mutate op arg =
    match op mod 5 with
    | 0 | 1 -> (
      match H.alloc t ~size:(16 * (1 + (arg mod 4))) H.Generic with
      | o -> [ o.H.oid ]
      | exception Hyper.Crash.Hypervisor_crash _ -> [])
    | 2 -> pick arg (H.free t)
    | 3 -> pick arg H.corrupt_header
    | _ ->
      if arg mod 3 = 0 then begin
        let oids = List.map (fun (o : H.obj) -> o.H.oid) (live ()) in
        H.rebuild_for_reboot t;
        oids
      end
      else begin
        H.corrupt_freelist t (Printf.sprintf "note %d" arg);
        []
      end
  in
  {
    view;
    mutate;
    snapshot = (fun ~layer -> H.snapshot ~layer t);
    restore = (fun () -> H.restore t);
    drop_layer = (fun () -> H.drop_layer t);
    dirty_count = (fun () -> H.dirty_count t);
    invariant = (fun () -> true);
  }

let timer_store () =
  let module T = Hyper.Timer_heap in
  let t = T.create () in
  let ev (e : T.event) = (e.T.id, e.T.deadline, e.T.queued) in
  let missing () = List.filter (fun (e : T.event) -> not e.T.queued) t.T.recurring in
  let view () =
    ( List.init (T.size t) (fun i -> ev t.T.arr.(i)),
      (t.T.next_id, T.structure_ok t),
      List.map ev t.T.recurring )
  in
  let mutate op arg =
    match op mod 6 with
    | 0 | 1 ->
      let id = t.T.next_id in
      let period = if arg mod 2 = 0 then Some 50 else None in
      ignore (crashes (fun () -> T.add t ~deadline:(arg * 7 mod 1000) ?period T.Time_sync));
      [ id ]
    | 2 ->
      if T.size t = 0 then []
      else begin
        let id = t.T.arr.(0).T.id in
        if crashes (fun () -> T.pop_top t) then [] else [ id ]
      end
    | 3 -> (
      (* Only recurring events can be lost, so only they are requeued. *)
      match missing () with
      | [] -> []
      | l ->
        let e = List.nth l (arg mod List.length l) in
        ignore (crashes (fun () -> T.requeue t e ~now:arg));
        [ e.T.id ])
    | 4 -> (
      match T.peek t with
      | Some e when arg mod 3 > 0 ->
        (* The fault injector's deadline scribble. *)
        T.touch e;
        e.T.deadline <- e.T.deadline + arg;
        [ e.T.id ]
      | _ ->
        T.corrupt_structure t;
        [])
    | _ ->
      let missing = List.map (fun (e : T.event) -> e.T.id) (missing ()) in
      if T.structure_ok t then begin
        ignore (T.reactivate_recurring t ~now:arg);
        missing
      end
      else begin
        (* The first re-insert touches its event, then panics. *)
        ignore (crashes (fun () -> T.reactivate_recurring t ~now:arg));
        match missing with [] -> [] | id :: _ -> [ id ]
      end
  in
  {
    view;
    mutate;
    snapshot = (fun ~layer -> T.snapshot ~layer t);
    restore = (fun () -> T.restore t);
    drop_layer = (fun () -> T.drop_layer t);
    dirty_count = (fun () -> T.dirty_count t);
    invariant = (fun () -> true);
  }

let cow_steps = QCheck.(list_of_size Gen.(0 -- 80) (pair (int_bound 11) (int_bound 1000)))

let prop_cow_model name store =
  QCheck.Test.make ~name:("copy-on-write model: " ^ name) ~count:300 cow_steps
    (fun steps -> cow_model_holds (store ()) steps)

(* ------------------------- Lazy page-frame table -------------------- *)

(* The page-frame table gives a frame its own descriptor record on first
   use and takes it back at the next restore. Random sequences of every
   mutator, wild writes, full scans, tracking loss, and base and layer
   snapshots, restores and unlayering restores run on a lazy table and
   on an eager reference whose every frame got its record before the
   first image, so it never gives one back. After every step both agree
   on every frame's four fields, the allocation cursor, the dirty count
   and both inconsistency counts, and none of those read-only walks gave
   a frame a record. After every restore the lazy table holds exactly
   the records and spares of the image it landed on. Bursts of 128
   allocations in a table of twice the spare set run past the spares. *)
let prop_pfn_lazy_table =
  QCheck.Test.make ~name:"lazy pfn table = eager table" ~count:300
    QCheck.(list_of_size Gen.(0 -- 60) (pair (int_bound 11) (int_bound 10_000)))
    (fun steps ->
      let module P = Hyper.Pfn in
      let frames = 2 * P.spare_records in
      let lz = P.create ~frames and eager = P.create ~frames in
      for i = 0 to frames - 1 do
        ignore (P.get eager i)
      done;
      P.snapshot lz;
      P.snapshot eager;
      let layered = ref false in
      let both f = crashes (fun () -> f lz) = crashes (fun () -> f eager) in
      let fields t i =
        let d = P.peek t i in
        (d.P.validated, d.P.use_count, d.P.ptype, d.P.owner)
      in
      let agree () =
        let nmat = lz.P.nmat in
        let same = ref true in
        for i = 0 to frames - 1 do
          if fields lz i <> fields eager i then same := false
        done;
        !same
        && lz.P.free_head = eager.P.free_head
        && P.dirty_count lz = P.dirty_count eager
        && P.count_inconsistent_dirty lz = P.count_inconsistent_dirty eager
        && P.count_inconsistent lz = P.count_inconsistent eager
        && P.free_frames lz = P.free_frames eager
        && lz.P.nmat = nmat
      in
      let rewind f =
        f lz;
        f eager;
        lz.P.nmat = lz.P.mark && lz.P.nspare = lz.P.mark_spares
      in
      List.for_all
        (fun (op, arg) ->
          let i = arg mod frames in
          let ptype = if arg mod 2 = 0 then P.Writable else P.Page_table in
          let step_ok =
            match op with
            | 0 -> both (fun t -> P.alloc_frame t ~owner:(arg mod 3) ~ptype)
            | 1 ->
              both (fun t ->
                  for _ = 1 to 128 do
                    ignore (P.alloc_frame t ~owner:1 ~ptype)
                  done)
            | 2 -> both (fun t -> P.get_page (P.get t i))
            | 3 -> both (fun t -> P.put_page (P.get t i))
            | 4 -> both (fun t -> P.validate (P.get t i))
            | 5 -> both (fun t -> P.invalidate (P.get t i))
            | 6 ->
              (* A wild write, as the journal's undo and the fault
                 injector do: [get], [touch], then a raw field store. *)
              both (fun t ->
                  let d = P.get t i in
                  P.touch d;
                  match arg mod 4 with
                  | 0 -> d.P.use_count <- (arg mod 7) - 2
                  | 1 -> d.P.owner <- (arg mod 5) - 1
                  | 2 -> d.P.ptype <- P.page_types.(arg mod 6)
                  | _ -> d.P.validated <- not d.P.validated)
            | 7 ->
              P.invalidate_tracking lz;
              P.invalidate_tracking eager;
              true
            | 8 ->
              (* A full scan, the fold or the recovery path's: the same
                 repairs, and no record for an untouched frame. *)
              let nmat = lz.P.nmat in
              let scan = if arg mod 2 = 0 then P.scan_and_fix else P.repair_all in
              scan lz = scan eager && lz.P.nmat = nmat
            | 9 when not !layered ->
              P.snapshot ~layer:true lz;
              P.snapshot ~layer:true eager;
              layered := true;
              true
            | 9 | 10 -> rewind P.restore
            | _ when arg mod 3 = 0 ->
              P.snapshot lz;
              P.snapshot eager;
              layered := false;
              true
            | _ ->
              layered := false;
              rewind (fun t ->
                  P.drop_layer t;
                  P.restore t)
          in
          step_ok && agree ())
        steps)

(* The event-channel and grant tables image themselves. Random mutator
   sequences -- every mutator, plus grant maps and unmaps the journal
   undoes -- interleaved with base and layer snapshots and restores, as
   in [cow_model_holds]: after every restore both tables read exactly as
   the restored image did when it was taken, and the restore allocates
   nothing. A capture returns the very image of the table's last capture
   or restore exactly when the contents are unchanged since then. *)
let prop_table_image_model =
  let module E = Hyper.Evtchn in
  let module G = Hyper.Grant in
  let module J = Hyper.Journal in
  QCheck.Test.make ~name:"copy-on-write model: evtchn/grant" ~count:300 cow_steps
    (fun steps ->
      let ports = 6 and slots = 5 in
      let ev = E.create (Hyper.Heap.create ()) ~ports 1 in
      let gr = G.create (Hyper.Heap.create ()) ~slots 1 in
      let j = J.create ~pfn:(Hyper.Pfn.create ~frames:4) ~grants:gr ~capacity:2 in
      J.set_enabled j true;
      let ev_view () = Array.init ports (fun port -> E.flags ev ~port)
      and gr_view () =
        Array.init slots (fun slot ->
            (G.in_use gr ~slot, G.frame gr ~slot, G.mapped_by gr ~slot))
      in
      (* Per table: the image last captured or restored, and its contents. *)
      let ev_synced = ref (E.capture ev, ev_view ())
      and gr_synced = ref (G.capture gr, gr_view ()) in
      let capture () =
        let ev_shared = ev_view () = snd !ev_synced
        and gr_shared = gr_view () = snd !gr_synced in
        let ei = E.capture ev and gi = G.capture gr in
        if (ei == fst !ev_synced) <> ev_shared || (gi == fst !gr_synced) <> gr_shared
        then
          QCheck.Test.fail_reportf "capture shared evtchn %b grant %b, expected %b %b"
            (ei == fst !ev_synced) (gi == fst !gr_synced) ev_shared gr_shared;
        ev_synced := (ei, ev_view ());
        gr_synced := (gi, gr_view ());
        (!ev_synced, !gr_synced)
      in
      let restore ((ei, ev0), (gi, gr0)) =
        let w0 = Gc.minor_words () in
        E.restore ev ei;
        G.restore gr gi;
        let words = Gc.minor_words () -. w0 in
        if words <> 0.0 then QCheck.Test.fail_reportf "restore allocated %.0f words" words;
        ev_synced := (ei, ev0);
        gr_synced := (gi, gr0);
        ev_view () = ev0 && gr_view () = gr0
      in
      let base = ref (capture ()) and layer = ref None in
      let mutate op arg =
        let port = arg mod ports and slot = arg mod slots in
        let guard f = ignore (crashes f) in
        match op with
        | 0 -> guard (fun () -> E.bind ev ~port)
        | 1 -> E.send ev ~port
        | 2 -> G.grant gr ~slot ~frame:(arg / 8)
        | 3 -> guard (fun () -> G.map gr ~slot ~by:(arg mod 3))
        | 4 -> guard (fun () -> G.unmap gr ~slot)
        | _ ->
          (* A retried grant op: the journal logs the map or unmap, and
             undoes it unless the call commits. *)
          if G.in_use gr ~slot && G.mapped_by gr ~slot = -1 then begin
            J.log j J.Grant_unmap_undo ~target:slot ~operand:0;
            G.map gr ~slot ~by:0
          end
          else if G.mapped_by gr ~slot <> -1 then begin
            J.log j J.Grant_remap_undo ~target:slot ~operand:0;
            G.unmap gr ~slot
          end;
          if arg land 1 = 0 then J.undo_all j else J.commit j
      in
      List.for_all
        (fun (op, arg) ->
          match op with
          | 0 ->
            base := capture ();
            layer := None;
            true
          | 1 when !layer = None ->
            layer := Some (capture ());
            true
          | 1 | 2 -> restore (Option.value !layer ~default:!base)
          | 3 ->
            layer := None;
            restore !base
          | _ ->
            mutate (op - 4) arg;
            true)
        steps)

(* ------------------------- Recovery invariant ----------------------- *)

(* Full-enhancement microreset always leaves: zero IRQ counts, no held
   locks, consistent scheduler metadata, armed APICs -- no matter which
   activities were abandoned at which steps. *)
let prop_microreset_postconditions =
  QCheck.Test.make ~name:"microreset postconditions for any abandonment" ~count:60
    QCheck.(pair small_int (list (pair (int_bound 4) (int_bound 12))))
    (fun (seed, abandonments) ->
      let hv = boot () in
      let rng = seeded_rng seed in
      List.iter
        (fun (which, stop_at) ->
          let activity =
            match which with
            | 0 -> Hyper.Hypervisor.Timer_tick (stop_at mod 3)
            | 1 -> Hyper.Hypervisor.Context_switch (stop_at mod 3)
            | 2 ->
              Hyper.Hypervisor.Hypercall
                { domid = 1; vid = 0; kind = Hyper.Hypercalls.Mmu_update 1 }
            | 3 ->
              Hyper.Hypervisor.Hypercall
                { domid = 2; vid = 0; kind = Hyper.Hypercalls.Grant_table_op 2 }
            | _ -> Hyper.Hypervisor.Device_interrupt { line = 1; target_dom = 1 }
          in
          try Hyper.Hypervisor.execute_partial hv rng activity ~stop_at
          with Hyper.Crash.Hypervisor_crash _ -> ())
        abandonments;
      Array.iter Hyper.Percpu.irq_enter hv.Hyper.Hypervisor.percpu;
      ignore
        (Recovery.Microreset.recover hv ~enh:Recovery.Enhancement.full_set
           ~detected_on:0);
      let report = Hyper.Hypervisor.audit hv in
      report.Hyper.Hypervisor.irq_counts_nonzero = 0
      && report.Hyper.Hypervisor.static_locks_held = 0
      && (not report.Hyper.Hypervisor.heap_locks_held)
      && report.Hyper.Hypervisor.sched_consistent
      && report.Hyper.Hypervisor.apics_unarmed = 0
      && report.Hyper.Hypervisor.recurring_missing = 0
      && report.Hyper.Hypervisor.pfn_inconsistent = 0)

(* Run determinism: identical configs and seeds give identical outcomes. *)
let prop_run_deterministic =
  QCheck.Test.make ~name:"fault-injection runs deterministic" ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let cfg =
        {
          Inject.Run.default_config with
          Inject.Run.seed = Int64.of_int seed;
          fault = Inject.Fault.Register;
        }
      in
      let a = Inject.Run.run cfg and b = Inject.Run.run cfg in
      match (a, b) with
      | Inject.Run.Non_manifested, Inject.Run.Non_manifested
      | Inject.Run.Silent_corruption, Inject.Run.Silent_corruption ->
        true
      | Inject.Run.Detected da, Inject.Run.Detected db ->
        da.Inject.Run.success = db.Inject.Run.success
        && da.Inject.Run.no_vmf = db.Inject.Run.no_vmf
        && da.Inject.Run.recovery_latency = db.Inject.Run.recovery_latency
      | _ -> false)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "data_structures",
        List.map to_alcotest
          [
            prop_timer_heap_sorts;
            prop_timer_heap_property;
            prop_timer_reactivate_complete;
            prop_pfn_scan_restores_consistency;
            prop_static_segment_unlock_all;
            prop_journal_undo_inverts;
            prop_journal_undo_restores_mix;
            prop_sched_fix_restores_consistency;
            prop_rng_int_in_bounds;
            prop_rng_reproducible;
            prop_rng_float_below;
            prop_owned_frames_list_model;
            prop_cow_model "pfn" pfn_store;
            prop_cow_model "heap" heap_store;
            prop_cow_model "timer_heap" timer_store;
            prop_table_image_model;
            prop_pfn_lazy_table;
            prop_sched_fix_matches_full_rewrite;
            prop_sched_apic_list_model;
            prop_apic_machine_image_model;
          ] );
      ( "recovery",
        List.map to_alcotest [ prop_microreset_postconditions; prop_run_deterministic ]
      );
    ]
