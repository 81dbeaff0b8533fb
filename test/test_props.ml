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
      let descs = (P.create ~frames:41).P.descs in
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
          let d = P.get t i in
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
          ] );
      ( "recovery",
        List.map to_alcotest [ prop_microreset_postconditions; prop_run_deterministic ]
      );
    ]
