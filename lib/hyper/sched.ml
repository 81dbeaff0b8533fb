(** Credit-scheduler model: per-CPU run queues plus the redundant
    current-vCPU records described in [Domain].

    The context switch that drives them
    ([Hypervisor.do_context_switch]) is assertion-rich, like Xen's
    schedule(): it checks the IRQ-nesting counter and the agreement
    between per-CPU and per-vCPU metadata, so inconsistencies left by an
    abandoned context switch surface as panics -- or as restoring the
    wrong register context, which manifests as guest failure. *)

type t = {
  runq : Domain.vcpu list array;
      (* cpu -> queued vcpus, newest first. A vCPU's [processor] pin is
         set at creation and never moves, so plain per-CPU lists replace
         the multi-binding hashtable the run queue used to be: same LIFO
         order ([Hashtbl.add]/[find_all] were newest-first too), no
         hashing and no [find_all] list allocation on the context-switch
         path. *)
  curr : Domain.vcpu option array; (* authoritative per-CPU current *)
  num_cpus : int;
}

let create ~num_cpus =
  { runq = Array.make num_cpus []; curr = Array.make num_cpus None; num_cpus }

let enqueue t vcpu =
  vcpu.Domain.runstate <- Domain.Runnable;
  let cpu = vcpu.Domain.processor in
  let q = t.runq.(cpu) in
  if not (List.memq vcpu q) then t.runq.(cpu) <- vcpu :: q

(* Drop the run-queue head. The context-switch path reads the head with
   [queued] and commits with this, so taking the next vCPU allocates no
   option. *)
let drop_head t ~cpu =
  match t.runq.(cpu) with
  | _ :: rest -> t.runq.(cpu) <- rest
  | [] -> ()

let dequeue t ~cpu =
  match t.runq.(cpu) with
  | v :: rest ->
    t.runq.(cpu) <- rest;
    Some v
  | [] -> None

let queued t ~cpu = t.runq.(cpu)

let current t ~cpu = t.curr.(cpu)

(* Commit a context switch: updates the authoritative per-CPU record and
   both redundant per-vCPU copies. The fault injector can abandon the
   caller between these steps, leaving them disagreeing. *)
let set_current t ~cpu vcpu_opt =
  t.curr.(cpu) <- vcpu_opt

let vcpu_mark_current (v : Domain.vcpu) ~cpu =
  v.Domain.is_current <- true;
  v.Domain.curr_slot <- cpu;
  v.Domain.runstate <- Domain.Running

let vcpu_clear_current (v : Domain.vcpu) =
  v.Domain.is_current <- false;
  v.Domain.curr_slot <- -1

(* The consistency rules between per-CPU and per-vCPU records. *)
let consistent_on t ~cpu =
  match t.curr.(cpu) with
  | None -> true
  | Some v ->
    v.Domain.is_current && v.Domain.curr_slot = cpu
    && v.Domain.runstate = Domain.Running

(* The rules from every CPU's side. *)
let percpu_consistent t =
  let ok = ref true in
  for cpu = 0 to t.num_cpus - 1 do
    if not (consistent_on t ~cpu) then ok := false
  done;
  !ok

(* The rules from one vCPU's side; the audit applies them to every vCPU,
   in any order. *)
let vcpu_consistent t (v : Domain.vcpu) =
  let slot = v.Domain.curr_slot in
  (* A vCPU that believes it is current must be its slot's current. *)
  ((not v.Domain.is_current)
  || slot >= 0 && slot < t.num_cpus
     && match t.curr.(slot) with Some v' -> v' == v | None -> false)
  (* A runnable vCPU must be somewhere the scheduler can find it:
     either current or in its CPU's run queue. A vCPU dequeued by an
     abandoned context switch silently starves otherwise. *)
  && (v.Domain.runstate <> Domain.Runnable || v.Domain.is_current
     || List.memq v t.runq.(v.Domain.processor))

(* The "Ensure consistency within scheduling metadata" enhancement: the
   per-CPU structures are picked as the most reliable source and every
   per-vCPU record of [domains] is rewritten from them. *)
let fix_from_percpu t domains =
  let fixes = ref 0 in
  Domain_table.iter_vcpus
    (fun (v : Domain.vcpu) ->
      if v.Domain.is_current || v.Domain.curr_slot <> -1 then begin
        v.Domain.is_current <- false;
        v.Domain.curr_slot <- -1;
        incr fixes
      end;
      if v.Domain.runstate = Domain.Running then begin
        v.Domain.runstate <- Domain.Runnable;
        incr fixes
      end)
    domains;
  for cpu = 0 to t.num_cpus - 1 do
    match t.curr.(cpu) with
    | Some v ->
      vcpu_mark_current v ~cpu;
      (* Anything the per-CPU view says is current must not also sit in
         a run queue: remove stale queue entries for it. *)
      if List.memq v t.runq.(cpu) then begin
        t.runq.(cpu) <- List.filter (fun v' -> not (v' == v)) t.runq.(cpu);
        incr fixes
      end
    | None -> ()
  done;
  (* Runnable vCPUs that are in no run queue would starve: re-queue them. *)
  Domain_table.iter_vcpus
    (fun (v : Domain.vcpu) ->
      if v.Domain.runstate = Domain.Runnable
         && not (List.memq v t.runq.(v.Domain.processor))
      then begin
        t.runq.(v.Domain.processor) <- v :: t.runq.(v.Domain.processor);
        incr fixes
      end)
    domains;
  !fixes
