(* A per-element dump of the hypervisor's three copy-on-write stores:
   every page-frame descriptor, every live heap object in oid order and
   the timer heap's occupied prefix in heap order, plus each store's own
   scalars; then per CPU, the APIC's vectors in service and timer
   deadline and the scheduler's current vCPU and run queue, head first. Two machines with equal dumps hold the same frame, heap and
   timer state element by element, so a rewind that swapped two frames'
   use counts or reordered the timer heap shows up here even when every
   aggregate count agrees. *)

let dump (hv : Hyper.Hypervisor.t) =
  let b = Buffer.create (1 lsl 20) in
  let pr fmt = Printf.bprintf b fmt in
  let pfn = hv.Hyper.Hypervisor.pfn in
  for i = 0 to Hyper.Pfn.frames pfn - 1 do
    let d = Hyper.Pfn.peek pfn i in
    pr "p%d %b %d %s %d\n" i d.Hyper.Pfn.validated d.Hyper.Pfn.use_count
      (Hyper.Pfn.page_type_name d.Hyper.Pfn.ptype)
      d.Hyper.Pfn.owner
  done;
  pr "free_head %d\n" pfn.Hyper.Pfn.free_head;
  let h = hv.Hyper.Hypervisor.heap in
  let objs = ref [] in
  Hyper.Heap.iter_live h (fun o -> objs := o :: !objs);
  List.iter
    (fun (o : Hyper.Heap.obj) ->
      pr "o%d %b %b\n" o.Hyper.Heap.oid o.Hyper.Heap.live o.Hyper.Heap.header_ok)
    (List.sort (fun (a : Hyper.Heap.obj) b -> compare a.Hyper.Heap.oid b.Hyper.Heap.oid) !objs);
  pr "heap next_oid %d bytes_live %d allocs %d freelist_ok %b\n"
    h.Hyper.Heap.next_oid (Hyper.Heap.bytes_live h) h.Hyper.Heap.allocs
    (Hyper.Heap.freelist_ok h);
  let tm = hv.Hyper.Hypervisor.timers in
  for i = 0 to Hyper.Timer_heap.size tm - 1 do
    let e = tm.Hyper.Timer_heap.arr.(i) in
    pr "t%d %d %b\n" e.Hyper.Timer_heap.id e.Hyper.Timer_heap.deadline
      e.Hyper.Timer_heap.queued
  done;
  pr "timers next_id %d structure_ok %b recurring [%s]\n"
    tm.Hyper.Timer_heap.next_id
    (Hyper.Timer_heap.structure_ok tm)
    (String.concat ";"
       (List.map
          (fun (e : Hyper.Timer_heap.event) -> string_of_int e.Hyper.Timer_heap.id)
          tm.Hyper.Timer_heap.recurring));
  let sched = hv.Hyper.Hypervisor.sched in
  let name (v : Hyper.Domain.vcpu) =
    Printf.sprintf "d%dv%d" v.Hyper.Domain.domid v.Hyper.Domain.vid
  in
  Hw.Machine.iter_cpus hv.Hyper.Hypervisor.machine (fun c ->
      let cpu = c.Hw.Cpu.id and a = c.Hw.Cpu.apic in
      let vectors = Contract.in_service_vectors a in
      pr "c%d isr [%s] deadline %d curr %s q [%s]\n" cpu
        (String.concat ";" (List.map string_of_int vectors))
        a.Hw.Apic.timer_deadline
        (match Hyper.Sched.current sched ~cpu with Some v -> name v | None -> "-")
        (String.concat ";"
           (List.init (Hyper.Sched.queue_length sched ~cpu) (fun i ->
                name (Hyper.Sched.nth_queued sched ~cpu i)))));
  Buffer.contents b

(* The first line where two dumps differ, for a readable failure. *)
let first_difference a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | x :: xs, y :: ys -> if x = y then go (i + 1) (xs, ys) else Some (i, x, y)
    | [], [] -> None
    | x :: _, [] -> Some (i, x, "<end>")
    | [], y :: _ -> Some (i, "<end>", y)
  in
  go 1 (la, lb)

let check msg ~expected actual =
  match first_difference expected actual with
  | None -> ()
  | Some (line, want, got) ->
    Alcotest.failf "%s: stores differ at line %d: expected %S, got %S" msg line
      want got

(* The post-recovery audit counts inconsistent frames in O(dirty
   frames). It must report exactly what the full fold over the frame
   table does: the whole report is compared against one whose
   page-frame term is [Pfn.count_inconsistent]. *)
let check_audit_exact what (hv : Hyper.Hypervisor.t) =
  let a = Hyper.Hypervisor.audit hv in
  let full =
    {
      a with
      Hyper.Hypervisor.pfn_inconsistent =
        Hyper.Pfn.count_inconsistent hv.Hyper.Hypervisor.pfn;
    }
  in
  if a <> full then
    Alcotest.failf "%s: audit {%a} but full fold {%a}" what
      Hyper.Hypervisor.pp_audit a Hyper.Hypervisor.pp_audit full
