(** Credit-scheduler model: per-CPU run queues plus the redundant
    current-vCPU records described in [Domain].

    The context switch that drives them
    ([Hypervisor.do_context_switch]) is assertion-rich, like Xen's
    schedule(): it checks the IRQ-nesting counter and the agreement
    between per-CPU and per-vCPU metadata, so inconsistencies left by an
    abandoned context switch surface as panics -- or as restoring the
    wrong register context, which manifests as guest failure.

    Nothing on the context-switch path allocates. Each run queue is an
    array stack, sized when a vCPU is pinned to its CPU ({!add_vcpu}),
    and a CPU's current record holds the vCPU's own preallocated
    [as_current] option. *)

type t = {
  runq : Domain.vcpu array array;
      (* cpu -> queued vcpus, oldest first: the head, the newest (LIFO,
         the order every recorded digest was made under), is at
         [qlen.(cpu) - 1]. A vCPU's [processor] pin is set at creation
         and never moves, and no vCPU is queued twice, so a queue never
         holds more vCPUs than were pinned to its CPU. Slots past the
         length are stale and never read. *)
  qlen : int array;
  pinned : int array; (* cpu -> vCPUs created pinned there *)
  curr : Domain.vcpu option array; (* authoritative per-CPU current *)
  num_cpus : int;
}

let create ~num_cpus =
  {
    runq = Array.make num_cpus [||];
    qlen = Array.make num_cpus 0;
    pinned = Array.make num_cpus 0;
    curr = Array.make num_cpus None;
    num_cpus;
  }

(* [q] with room for [n] vCPUs, its first [len] kept; [v] fills the rest. *)
let grown q ~len n v =
  let q' = Array.make (max n (max 8 (2 * Array.length q))) v in
  Array.blit q 0 q' 0 len;
  q'

(* Make room in [v]'s CPU queue for one more pinned vCPU. Called as a
   vCPU is created (boot, domain creation), so the queues grow there and
   never on the switch path. *)
let add_vcpu t (v : Domain.vcpu) =
  let cpu = v.Domain.processor in
  let n = t.pinned.(cpu) + 1 in
  t.pinned.(cpu) <- n;
  if n > Array.length t.runq.(cpu) then
    t.runq.(cpu) <- grown t.runq.(cpu) ~len:t.qlen.(cpu) n v

let queue_length t ~cpu = t.qlen.(cpu)

(* The [i]th queued vCPU of [cpu], the head first. *)
let nth_queued t ~cpu i = t.runq.(cpu).(t.qlen.(cpu) - 1 - i)

(* The vCPU the next context switch takes; the queue must not be empty. *)
let head t ~cpu = nth_queued t ~cpu 0

let rec memq_from (q : Domain.vcpu array) v i =
  i >= 0 && (q.(i) == v || memq_from q v (i - 1))

let queued_on t ~cpu v = memq_from t.runq.(cpu) v (t.qlen.(cpu) - 1)

(* Is [v] in its own CPU's run queue? *)
let is_queued t (v : Domain.vcpu) = queued_on t ~cpu:v.Domain.processor v

(* Push [v] on [cpu]'s queue as its new head. A vCPU whose pin was
   rewritten behind the scheduler's back can overflow the room
   {!add_vcpu} made; then the queue grows here. *)
let push t ~cpu v =
  let n = t.qlen.(cpu) in
  if n = Array.length t.runq.(cpu) then t.runq.(cpu) <- grown t.runq.(cpu) ~len:n (n + 1) v;
  t.runq.(cpu).(n) <- v;
  t.qlen.(cpu) <- n + 1

let enqueue t vcpu =
  vcpu.Domain.runstate <- Domain.Runnable;
  if not (is_queued t vcpu) then push t ~cpu:vcpu.Domain.processor vcpu

(* Drop the run-queue head. The context-switch path reads the head with
   [head] and commits with this. *)
let drop_head t ~cpu = if t.qlen.(cpu) > 0 then t.qlen.(cpu) <- t.qlen.(cpu) - 1

(* Remove [v] from [cpu]'s queue, keeping the others' order. *)
let remove t ~cpu v =
  let q = t.runq.(cpu) and n = t.qlen.(cpu) in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let x = q.(i) in
    if x != v then begin
      q.(!j) <- x;
      incr j
    end
  done;
  t.qlen.(cpu) <- !j

let current t ~cpu = t.curr.(cpu)

(* Commit a context switch: updates the authoritative per-CPU record and
   both redundant per-vCPU copies. The fault injector can abandon the
   caller between these steps, leaving them disagreeing. *)
let set_current t ~cpu (v : Domain.vcpu) = t.curr.(cpu) <- v.Domain.as_current

let clear_current t ~cpu = t.curr.(cpu) <- None

let is_current_on t ~cpu (v : Domain.vcpu) =
  match t.curr.(cpu) with Some v' -> v' == v | None -> false

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
  || slot >= 0 && slot < t.num_cpus && is_current_on t ~cpu:slot v)
  (* A runnable vCPU must be somewhere the scheduler can find it:
     either current or in its CPU's run queue. A vCPU dequeued by an
     abandoned context switch silently starves otherwise. *)
  && (v.Domain.runstate <> Domain.Runnable || v.Domain.is_current || is_queued t v)

(* The highest CPU whose per-CPU record holds [v] as current, from
   [cpu] down; -1 if none. *)
let rec current_cpu t v cpu =
  if cpu < 0 then -1 else if is_current_on t ~cpu v then cpu else current_cpu t v (cpu - 1)

(* Rewrite [v]'s redundant records to "current on [cpu]", counting each
   record that changes. *)
let mark_current fixes (v : Domain.vcpu) ~cpu =
  if not v.Domain.is_current || v.Domain.curr_slot <> cpu then incr fixes;
  if v.Domain.runstate <> Domain.Running then incr fixes;
  vcpu_mark_current v ~cpu

(* The "Ensure consistency within scheduling metadata" enhancement: the
   per-CPU structures are picked as the most reliable source and every
   per-vCPU record of [domains] is rewritten from them. Returns how many
   records it changed: a vCPU's current pair ([is_current] with
   [curr_slot]), its runstate, or a queue entry. On consistent metadata
   it changes nothing and returns 0. *)
let fix_from_percpu t domains =
  let fixes = ref 0 in
  (* A vCPU the per-CPU view holds as current on several CPUs ends up
     current on the highest of them. *)
  for cpu = 0 to t.num_cpus - 1 do
    match t.curr.(cpu) with
    | Some v when current_cpu t v (t.num_cpus - 1) = cpu -> mark_current fixes v ~cpu
    | Some _ | None -> ()
  done;
  Domain_table.iter_vcpus
    (fun (v : Domain.vcpu) ->
      if current_cpu t v (t.num_cpus - 1) < 0 then begin
        if v.Domain.is_current || v.Domain.curr_slot <> -1 then begin
          vcpu_clear_current v;
          incr fixes
        end;
        if v.Domain.runstate = Domain.Running then begin
          v.Domain.runstate <- Domain.Runnable;
          incr fixes
        end
      end)
    domains;
  for cpu = 0 to t.num_cpus - 1 do
    match t.curr.(cpu) with
    | Some v when queued_on t ~cpu v ->
      (* Anything the per-CPU view says is current must not also sit in
         a run queue: remove stale queue entries for it. *)
      remove t ~cpu v;
      incr fixes
    | Some _ | None -> ()
  done;
  (* Runnable vCPUs that are in no run queue would starve: re-queue them. *)
  Domain_table.iter_vcpus
    (fun (v : Domain.vcpu) ->
      if v.Domain.runstate = Domain.Runnable && not (is_queued t v) then begin
        push t ~cpu:v.Domain.processor v;
        incr fixes
      end)
    domains;
  !fixes

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                  *)
(* ------------------------------------------------------------------ *)

(* Storage for one image of the scheduler, overwritten in place by
   [save]: each queue's vCPUs, lengths, pin counts and current
   records. *)
type image = {
  im_runq : Domain.vcpu array array;
  im_qlen : int array;
  im_pinned : int array;
  im_curr : Domain.vcpu option array;
}

let image t =
  {
    im_runq = Array.make t.num_cpus [||];
    im_qlen = Array.make t.num_cpus 0;
    im_pinned = Array.make t.num_cpus 0;
    im_curr = Array.make t.num_cpus None;
  }

(* Give [im] as much room per queue as [t]'s queues have: done as an
   image is saved, and to the layer's image at each base snapshot, so a
   later layer snapshot does not grow its storage unless a domain
   created since grew a queue. *)
let fit t im =
  for cpu = 0 to t.num_cpus - 1 do
    let q = t.runq.(cpu) in
    if Array.length im.im_runq.(cpu) < Array.length q then
      im.im_runq.(cpu) <- Array.make (Array.length q) q.(0)
  done

(* Copy [t] into [im]: O(queued vCPUs). *)
let save t im =
  fit t im;
  for cpu = 0 to t.num_cpus - 1 do
    let q = t.runq.(cpu) and dst = im.im_runq.(cpu) in
    for i = 0 to t.qlen.(cpu) - 1 do
      dst.(i) <- q.(i)
    done;
    im.im_qlen.(cpu) <- t.qlen.(cpu);
    im.im_pinned.(cpu) <- t.pinned.(cpu);
    im.im_curr.(cpu) <- t.curr.(cpu)
  done

(* Copy [im] back into [t]. [t]'s queues never shrink, so they have room
   for every queue the image holds. *)
let load t im =
  for cpu = 0 to t.num_cpus - 1 do
    let q = t.runq.(cpu) and src = im.im_runq.(cpu) in
    for i = 0 to im.im_qlen.(cpu) - 1 do
      q.(i) <- src.(i)
    done;
    t.qlen.(cpu) <- im.im_qlen.(cpu);
    t.pinned.(cpu) <- im.im_pinned.(cpu);
    t.curr.(cpu) <- im.im_curr.(cpu)
  done
