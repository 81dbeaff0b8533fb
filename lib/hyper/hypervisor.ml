(** The composite hypervisor and its request-processing paths.

    Control enters the hypervisor through hypercalls, exceptions and
    interrupts (Section III-A). Each entry is executed as a sequence of
    named micro-steps over the real simulated structures; the fault
    injector observes every step through [step_hook] and can corrupt
    state or abandon the execution mid-flight, leaving exactly the
    partial state a real fault leaves (held locks, half-done context
    switches, disarmed APIC timers, partially executed hypercalls...). *)

type activity =
  | Timer_tick of int (* cpu *)
  | Device_interrupt of { line : int; target_dom : int }
  | Hypercall of { domid : int; vid : int; kind : Hypercalls.kind }
  | Syscall_forward of { domid : int; vid : int }
  | Context_switch of int (* cpu *)
  | Idle_poll of int (* cpu *)

let activity_name = function
  | Timer_tick c -> Printf.sprintf "timer_tick(cpu%d)" c
  | Device_interrupt { line; target_dom } ->
    Printf.sprintf "dev_irq(line%d->d%d)" line target_dom
  | Hypercall { domid; vid; kind } ->
    Printf.sprintf "hypercall(d%dv%d,%s)" domid vid (Hypercalls.name kind)
  | Syscall_forward { domid; vid } -> Printf.sprintf "syscall(d%dv%d)" domid vid
  | Context_switch c -> Printf.sprintf "ctx_switch(cpu%d)" c
  | Idle_poll c -> Printf.sprintf "idle(cpu%d)" c

(* Snapshot storage for the machine-wide state: one per image kind
   (base and layer), allocated with the hypervisor and overwritten in
   place by [snapshot]. Each domain keeps its own ([Domain.slot]). *)
type slot = {
  mutable s_config : Config.t;
  s_machine : Hw.Machine.image;
  mutable s_now : Sim.Time.ns;
  s_static_locks : int array; (* [Spinlock.Segment.save] *)
  s_percpu : Percpu.image array;
  s_runq : Domain.vcpu list array;
  s_curr : Domain.vcpu option array;
  mutable s_domains : Domain_table.image;
  s_cycles : int array; (* total, logging, entries *)
  s_watchdog_soft : int array;
  s_need_resched : bool array;
  mutable s_time_sync_count : int;
  mutable s_next_domid : int;
  mutable s_static_data_ok : bool;
  mutable s_static_data_note : string;
  mutable s_recovery_handler_ok : bool;
  mutable s_bootline_ok : bool;
  mutable s_cur_activity : activity;
  mutable s_cur_cpu : int;
  mutable s_cur_step : int;
}

(* Raised by [execute_partial]'s stepper to abandon an activity at a
   given step, modelling work in flight on other CPUs at detection. *)
exception Abandoned

type t = {
  machine : Hw.Machine.t;
  clock : Sim.Clock.t;
  mutable config : Config.t;
  pfn : Pfn.t;
  heap : Heap.t;
  static_segment : Spinlock.Segment.t;
  console_lock : Spinlock.t;
  domlist_lock : Spinlock.t;
  global_heap_lock : Spinlock.t;
  percpu : Percpu.t array;
  timers : Timer_heap.t;
  sched : Sched.t;
  domains : Domain_table.t;
  cycles : Cycle_account.t;
  obs : Obs.Recorder.t;
  (* Crash-surviving flight rings (the postmortem "black box"): last-N
     hypercall entries and journal appends. Deliberately NOT touched by
     [restore] -- like the paper's persistent journal, the evidence of
     what led up to a failure must outlive the recovery that wipes the
     rest of the hypervisor state. The harness
     bumps their epoch at run boundaries ([new_flight_epoch]) so
     readback never mixes runs. *)
  hc_flight : Obs.Flight.t;
  journal_flight : Obs.Flight.t;
  watchdog_soft : int array; (* per-CPU software tick counters *)
  mutable time_sync_count : int;
  mutable next_domid : int;
  mutable static_data_ok : bool; (* non-lock static segment integrity *)
  mutable static_data_note : string;
  mutable recovery_handler_ok : bool;
  mutable bootline_ok : bool; (* boot options usable for a re-boot *)
  mutable step_hook : (t -> activity -> int -> string -> int -> unit) option;
      (* called per micro-step with (hv, activity, step_index, step_name,
         cpu); plain arguments, so observing a step allocates nothing *)
  need_resched_flags : bool array;
  (* The activity the stepper is currently executing. Mutable fields on
     [t] rather than a per-activity stepper closure: [execute] runs one
     activity at a time, and threading the context this way keeps the
     per-step and per-activity cost allocation-free. *)
  mutable cur_activity : activity;
  mutable cur_cpu : int;
  mutable cur_step : int;
  (* [audit.*] counters in [audit_violation_kinds] order, resolved once
     at [create] so bumping one needs no name concatenation or registry
     lookup. *)
  audit_counters : Obs.Metrics.counter array;
  (* Generations of the restorable images ([snapshot]): the base and the
     layer over it, 0 for none; and their storage. *)
  mutable base_gen : int;
  mutable layer_gen : int;
  base_slot : slot;
  layer_slot : slot;
}

let cpu_count t = Hw.Machine.num_cpus t.machine
let frames t = Pfn.frames t.pfn

(* The geometry all size-proportional recovery costs are charged at: the
   config's pinned geometry when present (reporting latencies for the
   modelled host), else the simulated machine's own tables. Mechanics
   always operate on the real tables; only cost accounting uses this. *)
let geometry t =
  match t.config.Config.geometry with
  | Some g -> g
  | None ->
    { Config.frames = Pfn.frames t.pfn; cpus = Hw.Machine.num_cpus t.machine }

(* Domains are walked through [Domain_table] on [t.domains]. *)
let domain t domid = Domain_table.find t.domains domid

(* The idle domain's reserved domid. Every other domid is handed out by
   [next_domid], in sequence from 0. *)
let idle_domid = Domain_table.idle_domid

let privvm t =
  match Domain_table.find_first (fun d -> d.Domain.privileged) t.domains with
  | Some d -> d
  | None -> Crash.panic "no PrivVM"

(* The idle domain: one always-runnable vCPU per physical CPU, which the
   scheduler switches to whenever a guest vCPU blocks or yields. Its
   presence is what makes context switching -- and hence scheduling-
   metadata vulnerability windows -- pervasive, as in Xen. *)
let idle_domain t =
  match Domain_table.find_first (fun d -> d.Domain.is_idle) t.domains with
  | Some d -> d
  | None -> Crash.panic "no idle domain"

(* ------------------------------------------------------------------ *)
(* Construction and boot                                               *)
(* ------------------------------------------------------------------ *)

(* The fixed vocabulary of audit-violation kinds (one [audit.*] counter
   per kind). Listed here, ahead of [create], so every recorder attached
   to a hypervisor gets all the instruments registered eagerly -- a
   reused recorder must stay structurally identical to a fresh one
   regardless of which violations a particular run exhibits. *)
let audit_violation_kinds =
  [
    "static_locks_held";
    "heap_locks_held";
    "irq_counts_nonzero";
    "sched_inconsistent";
    "pfn_inconsistent";
    "heap_corrupt";
    "timer_structure_bad";
    "recurring_missing";
    "apics_unarmed";
    "static_data_corrupt";
  ]

let audit_counter obs kind =
  Obs.Metrics.counter obs.Obs.Recorder.metrics ("audit." ^ kind)

(* Names for the indexed hot-path steps, up to the ABI sub-op limit,
   formatted once per process: formatting them with sprintf on every
   loop iteration was a measurable share of per-run allocation. Indices
   past the limit fall back to sprintf. *)
let indexed_names prefix =
  Array.init (Hypercalls.max_subops + 1) (fun i -> Printf.sprintf "%s%d" prefix i)

let pte_write_names = indexed_names "pte_write_"
let grant_map_names = indexed_names "grant_map_"
let ring_io_names = indexed_names "ring_io_"
let grant_unmap_names = indexed_names "grant_unmap_"

let slot ~config machine ~cpus static_segment domains =
  {
    s_config = config;
    s_machine = Hw.Machine.image machine;
    s_now = 0;
    s_static_locks = Array.make (2 * Spinlock.Segment.count static_segment) 0;
    s_percpu = Array.init cpus (fun _ -> Percpu.image ());
    s_runq = Array.make cpus [];
    s_curr = Array.make cpus None;
    s_domains = Domain_table.capture domains;
    s_cycles = Array.make 3 0;
    s_watchdog_soft = Array.make cpus 0;
    s_need_resched = Array.make cpus false;
    s_time_sync_count = 0;
    s_next_domid = 0;
    s_static_data_ok = true;
    s_static_data_note = "";
    s_recovery_handler_ok = true;
    s_bootline_ok = true;
    s_cur_activity = Idle_poll 0;
    s_cur_cpu = 0;
    s_cur_step = 0;
  }

let create ?(mconfig = Hw.Machine.default_config) ?obs ~config clock =
  let machine = Hw.Machine.create ~config:mconfig () in
  let obs =
    match obs with
    | Some r -> r
    | None -> Obs.Recorder.create ~capacity:1024 ~min_level:Obs.Event.Warn ()
  in
  let heap = Heap.create () in
  let static_segment = Spinlock.Segment.create () in
  let static_lock name =
    let l = Spinlock.create ~name ~location:Spinlock.Static in
    Spinlock.Segment.register static_segment l;
    l
  in
  let console_lock = static_lock "console" in
  let domlist_lock = static_lock "domlist" in
  let global_heap_lock = static_lock "heap" in
  let num_cpus = Hw.Machine.num_cpus machine in
  let domains = Domain_table.create () in
  let slot () = slot ~config machine ~cpus:num_cpus static_segment domains in
  let t =
    {
      machine;
      clock;
      config;
      pfn = Pfn.create ~frames:(Hw.Machine.num_frames machine);
      heap;
      static_segment;
      console_lock;
      domlist_lock;
      global_heap_lock;
      percpu = Array.init num_cpus (fun c -> Percpu.create heap c);
      timers = Timer_heap.create ();
      sched = Sched.create ~num_cpus;
      domains;
      cycles = Cycle_account.create ();
      obs;
      hc_flight = Obs.Flight.create ~capacity:64 ();
      journal_flight = Obs.Flight.create ~capacity:64 ();
      watchdog_soft = Array.make num_cpus 0;
      time_sync_count = 0;
      next_domid = 0;
      static_data_ok = true;
      static_data_note = "";
      recovery_handler_ok = true;
      bootline_ok = true;
      step_hook = None;
      need_resched_flags = Array.make num_cpus false;
      cur_activity = Idle_poll 0;
      cur_cpu = 0;
      cur_step = 0;
      audit_counters =
        Array.of_list (List.map (audit_counter obs) audit_violation_kinds);
      base_gen = 0;
      layer_gen = 0;
      base_slot = slot ();
      layer_slot = slot ();
    }
  in
  Hw.Ioapic.set_logging machine.Hw.Machine.ioapic config.Config.ioapic_write_logging;
  t

(* Record a typed event against the hypervisor's recorder at the current
   simulated time. *)
let observe ?cpu ?domid t level payload =
  Obs.Recorder.event t.obs ~time:(Sim.Clock.now t.clock) ?cpu ?domid level
    payload

(* Standard recurring timer events plus APIC programming, performed at
   boot and re-performed by ReHype's reboot. *)
let register_recurring_events t =
  let now = Sim.Clock.now t.clock in
  ignore (Timer_heap.add t.timers ~deadline:(now + Sim.Time.ms 30) ~period:(Sim.Time.ms 30) Timer_heap.Time_sync);
  let wd_period = Sim.Time.ms t.config.Config.watchdog_period_ms in
  ignore
    (Timer_heap.add t.timers ~deadline:(now + wd_period) ~period:wd_period
       Timer_heap.Watchdog_tick);
  for cpu = 0 to cpu_count t - 1 do
    ignore
      (Timer_heap.add t.timers
         ~deadline:(now + Sim.Time.ms 10 + (cpu * Sim.Time.ms 1))
         ~period:(Sim.Time.ms 10)
         (Timer_heap.Sched_tick cpu))
  done

let arm_all_apics t =
  let now = Sim.Clock.now t.clock in
  let deadline =
    match Timer_heap.next_deadline t.timers with
    | Some d -> max d (now + Sim.Time.us 10)
    | None -> now + Sim.Time.ms 10
  in
  Hw.Machine.iter_cpus t.machine (fun c ->
      Hw.Apic.program_timer c.Hw.Cpu.apic ~deadline)

let setup_ioapic_routing t =
  (* Line 1: block backend, line 2: network backend; both routed to the
     PrivVM's CPU, which hosts the device drivers. *)
  Hw.Ioapic.write t.machine.Hw.Machine.ioapic ~line:1 ~vector:0x31 ~dest_cpu:0
    ~masked:false;
  Hw.Ioapic.write t.machine.Hw.Machine.ioapic ~line:2 ~vector:0x32 ~dest_cpu:0
    ~masked:false

(* Create a domain: allocate its control structures from the heap, give
   it memory (validated page-table frames plus writable frames), bind
   its event channels and install its vCPUs in the scheduler. Used both
   at boot and by the PrivVM toolstack after recovery. *)
let create_domain_internal ?(is_idle = false) t ~privileged ~vcpu_pins ~mem_frames =
  let domid = t.next_domid in
  t.next_domid <- t.next_domid + 1;
  let dom =
    Domain.create ~is_idle t.heap ~config:t.config ~pfn:t.pfn ~domid ~privileged
      ~vcpus:vcpu_pins
  in
  Domain_table.add t.domains dom;
  for i = 0 to mem_frames - 1 do
    let ptype = if i mod 8 = 0 then Pfn.Page_table else Pfn.Writable in
    let d = Pfn.alloc_frame t.pfn ~owner:domid ~ptype in
    (* Reference convention: every owned frame carries the allocation
       reference; a validated page table additionally carries the pin
       (type) reference, exactly as one pinned by mmu_update does -- so
       unpinning any table drops one reference and never frees it. *)
    if ptype = Pfn.Page_table then begin
      Pfn.validate d;
      Pfn.get_page d
    end;
    Owned_frames.push dom.Domain.owned_frames d.Pfn.index
  done;
  Evtchn.bind dom.Domain.evtchn ~port:1;
  Evtchn.bind dom.Domain.evtchn ~port:2;
  (* Grant a few page-table-typed frames for I/O rings; these pinned
     frames are never handed back by decrease_reservation, so grant maps
     cannot race with frame freeing. *)
  let granted = ref 0 in
  Owned_frames.iter
    (fun f ->
      if !granted < 8 && (Pfn.get t.pfn f).Pfn.ptype = Pfn.Page_table then begin
        Grant.grant dom.Domain.grants ~slot:!granted ~frame:f;
        incr granted
      end)
    dom.Domain.owned_frames;
  Array.iter (fun v -> Sched.enqueue t.sched v) dom.Domain.vcpus;
  dom

let destroy_domain_internal t dom =
  dom.Domain.alive <- false;
  Owned_frames.iter
    (fun f ->
      let d = Pfn.get t.pfn f in
      if d.Pfn.owner = dom.Domain.domid then begin
        if d.Pfn.validated then Pfn.invalidate d;
        (* Drop every reference (pin and allocation) so the frame really
           returns to the allocator. *)
        while d.Pfn.use_count > 0 do
          Pfn.put_page d
        done
      end)
    dom.Domain.owned_frames;
  Owned_frames.clear dom.Domain.owned_frames;
  List.iter (fun obj -> if obj.Heap.live then Heap.free t.heap obj) dom.Domain.heap_objs;
  dom.Domain.heap_objs <- [];
  Domain_table.remove t.domains dom.Domain.domid

(* Make each pinned vCPU current on its CPU, as after boot completes. *)
let start_vcpus t =
  Domain_table.iter_vcpus
    (fun (v : Domain.vcpu) ->
      match Sched.current t.sched ~cpu:v.Domain.processor with
      | None ->
        (match Sched.dequeue t.sched ~cpu:v.Domain.processor with
        | Some v' when v' == v -> ()
        | Some v' -> Sched.enqueue t.sched v'
        | None -> ());
        Sched.set_current t.sched ~cpu:v.Domain.processor (Some v);
        Sched.vcpu_mark_current v ~cpu:v.Domain.processor;
        t.percpu.(v.Domain.processor).Percpu.curr_domid <- v.Domain.domid;
        t.percpu.(v.Domain.processor).Percpu.curr_vcpuid <- v.Domain.vid
      | Some _ -> ())
    t.domains

type setup =
  | One_appvm
  | Three_appvm
  | Tenant_fleet of int
      (* n small tenant VMs, one vCPU each, round-robin pinned across the
         non-PrivVM CPUs: the fleet-scale serving scenario *)

(* Boot a target system: PrivVM on CPU 0 plus AppVMs pinned to their own
   CPUs (each VM has one vCPU pinned to a different physical CPU,
   Section VI-A). [vcpus_per_cpu > 1] gives each AppVM several vCPUs
   sharing its physical CPU -- the "more complex configurations, that
   include multiple vCPUs per CPU" of the paper's future work. *)
let boot_target t ~setup ~vcpus_per_cpu =
  register_recurring_events t;
  arm_all_apics t;
  setup_ioapic_routing t;
  let dom_frames = 96 in
  let app_pins cpu = List.init (max 1 vcpus_per_cpu) (fun _ -> cpu) in
  let _privvm = create_domain_internal t ~privileged:true ~vcpu_pins:[ 0 ] ~mem_frames:dom_frames in
  (match setup with
  | One_appvm ->
    ignore
      (create_domain_internal t ~privileged:false ~vcpu_pins:(app_pins 1)
         ~mem_frames:dom_frames)
  | Three_appvm ->
    (* Initially two AppVMs (UnixBench, NetBench); the third (BlkBench)
       is created after recovery. *)
    ignore
      (create_domain_internal t ~privileged:false ~vcpu_pins:(app_pins 1)
         ~mem_frames:dom_frames);
    ignore
      (create_domain_internal t ~privileged:false ~vcpu_pins:(app_pins 2)
         ~mem_frames:dom_frames)
  | Tenant_fleet tenants ->
    (* Many small single-vCPU tenants sharing the non-PrivVM CPUs. Small
       memory footprint each, so hundreds of tenants fit the campaign
       frame table with room for post-boot allocation. *)
    let num_cpus = Hw.Machine.num_cpus t.machine in
    let tenant_frames = 24 in
    for i = 0 to tenants - 1 do
      let cpu = if num_cpus = 1 then 0 else 1 + (i mod (num_cpus - 1)) in
      ignore
        (create_domain_internal t ~privileged:false ~vcpu_pins:[ cpu ]
           ~mem_frames:tenant_frames)
    done);
  start_vcpus t;
  (* The idle domain, created last (Xen gives it a reserved domid): one
     always-runnable vCPU per CPU that the scheduler alternates with
     guest vCPUs. *)
  let saved_next_domid = t.next_domid in
  t.next_domid <- idle_domid;
  let num_cpus = Hw.Machine.num_cpus t.machine in
  let idle =
    create_domain_internal ~is_idle:true t ~privileged:false
      ~vcpu_pins:(List.init num_cpus (fun c -> c))
      ~mem_frames:0
  in
  (* Idle vCPUs become current on CPUs with no guest vCPU. *)
  Array.iter
    (fun (v : Domain.vcpu) ->
      match Sched.current t.sched ~cpu:v.Domain.processor with
      | None ->
        (match Sched.dequeue t.sched ~cpu:v.Domain.processor with
        | Some v' when v' == v -> ()
        | Some v' -> Sched.enqueue t.sched v'
        | None -> ());
        Sched.set_current t.sched ~cpu:v.Domain.processor (Some v);
        Sched.vcpu_mark_current v ~cpu:v.Domain.processor;
        t.percpu.(v.Domain.processor).Percpu.curr_domid <- v.Domain.domid;
        t.percpu.(v.Domain.processor).Percpu.curr_vcpuid <- v.Domain.vid
      | Some _ -> ())
    idle.Domain.vcpus;
  t.next_domid <- saved_next_domid

let boot ?(mconfig = Hw.Machine.default_config) ?obs ?(vcpus_per_cpu = 1)
    ~config ~setup clock =
  let t = create ~mconfig ?obs ~config clock in
  boot_target t ~setup ~vcpus_per_cpu;
  t

(* ------------------------------------------------------------------ *)
(* Flight-recorder readback                                           *)
(* ------------------------------------------------------------------ *)

(* Run-boundary epoch bump: flight rings are never cleared (they must
   survive restore), so readback is scoped to the entries recorded since
   the last bump. *)
let new_flight_epoch t =
  Obs.Flight.new_epoch t.hc_flight;
  Obs.Flight.new_epoch t.journal_flight

(* Oldest-first (name, simulated ns) tails for the current epoch. *)
let hypercall_tail t = Obs.Flight.tail t.hc_flight
let journal_tail t = Obs.Flight.tail t.journal_flight

(* ------------------------------------------------------------------ *)
(* Copy-on-write golden snapshots                                      *)
(* ------------------------------------------------------------------ *)

(* [snapshot] captures a golden image of the mutable hypervisor state;
   [restore] rewinds the same instance back to it in place. Cost model:
   - The page-frame table, the heap and the timer heap each keep their
     golden state in one copy-on-write store ([Cow]: golden values in
     flat arrays, a preallocated dirty set), so snapshot and restore are
     O(changed state) there.
   - Each domain's event-channel and grant tables, its owned frames and
     the domain table image themselves: one unchanged since its last
     capture or restore captures as that same image and is skipped on
     restore.
   - Everything else (the machine-wide scalars, per-CPU areas, hardware,
     and each domain's flags, vCPUs, locks and register files) is small
     and copied whole, O(domains + cpus), into storage allocated with
     the hypervisor ([slot]) and with each domain ([Domain.slot]): one
     set per image kind, overwritten by every snapshot of that kind. So
     a snapshot allocates only its returned generation stamp and the
     images of tables that changed, and a restore allocates nothing.

   Constraints:
   - One base image plus at most one layer per instance, enforced by
     generation stamps: [restore] of any other image raises
     [Invalid_argument] rather than rewinding to a mixed state (its
     storage has been overwritten). A base [snapshot] supersedes every
     earlier image. A [~layer:true] snapshot (the clone fan-out's
     trigger point) is taken over the base and saves the base golden
     values it overwrites -- O(entries changed since the base) -- so
     restoring the base later unwinds the layer, then rewinds as usual;
     the layer is gone after that. Restoring either live image is
     repeatable (restore, run, restore again): each restore drains the
     dirty sets, later writes re-dirty.
   - Snapshot at quiesce points only: [snapshot] raises
     [Invalid_argument] while any vCPU has a hypercall in flight
     ([vcpu.in_hypercall <> None]). The record is the vCPU's own, reset
     by its next call, so an image could not hold it: its slots and
     undo journal would carry that later call's state into the restore.
     Every image therefore has no call in flight, and [restore] clears
     [in_hypercall]. The harness snapshot points (post-boot,
     post-warmup) are quiesced.
   - The recorder ([t.obs]) and the flight rings are deliberately NOT
     part of the image, and [restore] never resets them: observability
     state survives recovery, like the paper's persistent journal.
     Harness code wanting per-run isolation pairs [restore] with
     [Obs.Recorder.reset] (boot-time images) or [Obs.Metrics.restore]
     (trigger-point clone fan-out), plus [new_flight_epoch].
   - [step_hook] comes back as [None]; the harness reinstalls its CPU
     tracker per run. *)

type image = { im_gen : int }

(* Image generations are unique across instances, so an image restored
   into the wrong hypervisor is refused too. *)
let generations = Atomic.make 1

let refuse_in_flight (v : Domain.vcpu) =
  if v.Domain.in_hypercall <> None then
    invalid_arg "Hypervisor.snapshot: a hypercall is in flight"

let snapshot ?(layer = false) t =
  if layer && (t.base_gen = 0 || t.layer_gen <> 0) then
    invalid_arg "Hypervisor.snapshot: a layer needs a base image and no other layer";
  Domain_table.iter_vcpus refuse_in_flight t.domains;
  Pfn.snapshot ~layer t.pfn;
  Heap.snapshot ~layer t.heap;
  Timer_heap.snapshot ~layer t.timers;
  let gen = Atomic.fetch_and_add generations 1 in
  let s =
    if layer then begin
      t.layer_gen <- gen;
      t.layer_slot
    end
    else begin
      t.base_gen <- gen;
      t.layer_gen <- 0;
      t.base_slot
    end
  in
  s.s_config <- t.config;
  Hw.Machine.capture t.machine s.s_machine;
  s.s_now <- Sim.Clock.now t.clock;
  Spinlock.Segment.save t.static_segment s.s_static_locks;
  for i = 0 to Array.length t.percpu - 1 do
    Percpu.save t.percpu.(i) s.s_percpu.(i)
  done;
  Array.blit t.sched.Sched.runq 0 s.s_runq 0 (Array.length s.s_runq);
  Array.blit t.sched.Sched.curr 0 s.s_curr 0 (Array.length s.s_curr);
  s.s_domains <- Domain_table.capture t.domains;
  if layer then Domain_table.iter (fun d -> Domain.capture d d.Domain.layer) t.domains
  else Domain_table.iter (fun d -> Domain.capture d d.Domain.base) t.domains;
  s.s_cycles.(0) <- t.cycles.Cycle_account.total;
  s.s_cycles.(1) <- t.cycles.Cycle_account.logging;
  s.s_cycles.(2) <- t.cycles.Cycle_account.entries;
  Array.blit t.watchdog_soft 0 s.s_watchdog_soft 0 (Array.length s.s_watchdog_soft);
  Array.blit t.need_resched_flags 0 s.s_need_resched 0 (Array.length s.s_need_resched);
  s.s_time_sync_count <- t.time_sync_count;
  s.s_next_domid <- t.next_domid;
  s.s_static_data_ok <- t.static_data_ok;
  s.s_static_data_note <- t.static_data_note;
  s.s_recovery_handler_ok <- t.recovery_handler_ok;
  s.s_bootline_ok <- t.bootline_ok;
  s.s_cur_activity <- t.cur_activity;
  s.s_cur_cpu <- t.cur_cpu;
  s.s_cur_step <- t.cur_step;
  { im_gen = gen }

let restore t (im : image) =
  if im.im_gen = t.base_gen && t.layer_gen <> 0 then begin
    Pfn.drop_layer t.pfn;
    Heap.drop_layer t.heap;
    Timer_heap.drop_layer t.timers;
    t.layer_gen <- 0
  end
  else if im.im_gen <> t.base_gen && im.im_gen <> t.layer_gen then
    invalid_arg "Hypervisor.restore: the image was superseded by a later snapshot";
  let layer = im.im_gen = t.layer_gen in
  let s = if layer then t.layer_slot else t.base_slot in
  Pfn.restore t.pfn;
  Heap.restore t.heap;
  Timer_heap.restore t.timers;
  t.config <- s.s_config;
  Hw.Machine.restore t.machine s.s_machine;
  t.clock.Sim.Clock.now <- s.s_now;
  Spinlock.Segment.load t.static_segment s.s_static_locks;
  for i = 0 to Array.length t.percpu - 1 do
    Percpu.load t.percpu.(i) s.s_percpu.(i)
  done;
  Array.blit s.s_runq 0 t.sched.Sched.runq 0 (Array.length s.s_runq);
  Array.blit s.s_curr 0 t.sched.Sched.curr 0 (Array.length s.s_curr);
  (* Domains created since the image are dropped and destroyed ones put
     back with the image's table; then each domain loads its storage. *)
  Domain_table.restore t.domains s.s_domains;
  if layer then Domain_table.iter (fun d -> Domain.restore d d.Domain.layer) t.domains
  else Domain_table.iter (fun d -> Domain.restore d d.Domain.base) t.domains;
  t.cycles.Cycle_account.total <- s.s_cycles.(0);
  t.cycles.Cycle_account.logging <- s.s_cycles.(1);
  t.cycles.Cycle_account.entries <- s.s_cycles.(2);
  Array.blit s.s_watchdog_soft 0 t.watchdog_soft 0 (Array.length s.s_watchdog_soft);
  Array.blit s.s_need_resched 0 t.need_resched_flags 0
    (Array.length s.s_need_resched);
  t.time_sync_count <- s.s_time_sync_count;
  t.next_domid <- s.s_next_domid;
  t.static_data_ok <- s.s_static_data_ok;
  t.static_data_note <- s.s_static_data_note;
  t.recovery_handler_ok <- s.s_recovery_handler_ok;
  t.bootline_ok <- s.s_bootline_ok;
  t.step_hook <- None;
  t.cur_activity <- s.s_cur_activity;
  t.cur_cpu <- s.s_cur_cpu;
  t.cur_step <- s.s_cur_step

(* ------------------------------------------------------------------ *)
(* The stepper: instrumented micro-step execution                      *)
(* ------------------------------------------------------------------ *)

let cycles_to_ns cycles = (cycles / 3) + 1 (* ~2.9 GHz *)

(* Enter an activity: every [step] until the next [begin_activity] is
   accounted against it. *)
let begin_activity t activity cpu =
  t.cur_activity <- activity;
  t.cur_cpu <- cpu;
  t.cur_step <- 0

(* One instrumented micro-step: charge the cycles, advance the clock and
   let the step hook observe (and possibly abandon or corrupt) the
   execution, then the caller runs the step's body inline. Accounting
   *precedes* the body, so a hook that raises [Abandoned] stops the
   activity with that step's effects not yet applied -- the same contract
   the previous closure-passing stepper had, minus the per-step closure
   and context-record allocations. *)
let step ?(cycles = 150) t step_name =
  let step_index = t.cur_step in
  t.cur_step <- step_index + 1;
  (* The cycle/clock charges are record-field updates written out inline:
     this runs ~18k times per injection run and, without flambda, each of
     the equivalent cross-module calls (Cycle_account.charge,
     Hw.Cpu.charge_cycles, Sim.Clock.advance_by) costs more than the add
     it performs. [cycles_to_ns] is always positive, so bypassing
     Clock.advance_by's negative-delta check loses nothing. *)
  let cyc = t.cycles in
  cyc.Cycle_account.total <- cyc.Cycle_account.total + cycles;
  let cpu = t.machine.Hw.Machine.cpus.(t.cur_cpu) in
  cpu.Hw.Cpu.unhalted_cycles <- cpu.Hw.Cpu.unhalted_cycles + cycles;
  let clk = t.clock in
  clk.Sim.Clock.now <- clk.Sim.Clock.now + cycles_to_ns cycles;
  match t.step_hook with
  | Some hook -> hook t t.cur_activity step_index step_name t.cur_cpu
  | None -> ()

(* Journal append helper: charges the logging cycles that produce the
   Figure 3 overhead. Same inlined field updates as [step]: the journal
   write path runs a few thousand times per run. [target] is the frame
   index (the grant slot for the grant ops) the entry names. *)
let journal_log t (journal : Journal.t) op ~target ~operand =
  if journal.Journal.enabled then begin
    let cyc = t.cycles in
    cyc.Cycle_account.total <- cyc.Cycle_account.total + Journal.cycles_per_write;
    cyc.Cycle_account.logging <-
      cyc.Cycle_account.logging + Journal.cycles_per_write;
    let clk = t.clock in
    clk.Sim.Clock.now <- clk.Sim.Clock.now + cycles_to_ns Journal.cycles_per_write;
    Obs.Metrics.incr t.obs.Obs.Recorder.journal_writes;
    (* Flight ring: entry kinds are constant strings, so this is pure
       array stores -- always on, no level filter. *)
    Obs.Flight.note t.journal_flight ~name:(Journal.op_kind op)
      ~time:clk.Sim.Clock.now;
    if Obs.Recorder.enabled t.obs Obs.Event.Debug then
      observe t Obs.Event.Debug
        (Obs.Event.Journal_append
           { kind = Journal.op_kind op; depth = Journal.depth journal + 1 })
  end;
  Journal.log journal op ~target ~operand

(* ------------------------------------------------------------------ *)
(* Hypercall handlers                                                  *)
(* ------------------------------------------------------------------ *)

let indexed_name table prefix i =
  if i < Array.length table then table.(i) else Printf.sprintf "%s%d" prefix i

(* A random writable frame of [dom]'s, -1 when it owns none: a count,
   then a walk to the k-th, instead of materialising the filtered list.
   The single [Rng.int] draw is over the same bound, newest first, so the
   stream and the chosen frame are those of a pick over that list. *)
let pick_writable_frame t rng (dom : Domain.t) =
  let owned = dom.Domain.owned_frames and descs = t.pfn.Pfn.descs in
  match Owned_frames.count_writable descs owned with
  | 0 -> -1
  | n -> Owned_frames.nth_writable descs owned (Sim.Rng.int rng n)

(* A table an mmu_update may replace: a currently pinned page-table frame
   that backs no grant entry. *)
let replaceable_table pfn grants f =
  let o = Pfn.get pfn f in
  o.Pfn.ptype = Pfn.Page_table && o.Pfn.validated && not (Grant.frame_granted grants f)

(* The handlers below execute call-tree node [node] of [record] (see
   [Hypercalls.record]): its arguments are [record]'s slots at [node],
   chosen on the first run and replayed as they stand on a retry. *)

(* mmu_update: pin a fresh frame as a page table (get ref, write PTEs,
   validate) and unpin an old one. The validate/commit gap is the
   non-idempotent retry hazard of Section IV; code reordering moves the
   critical updates as late as possible, the undo journal makes them
   reversible. *)
let exec_mmu_update t journal (dom : Domain.t) (record : Hypercalls.record)
    node ~entries =
  step t "lock_page_alloc";
  Spinlock.acquire dom.Domain.page_lock ~cpu:0;
  if record.Hypercalls.targets.(node) < 0 then begin
    step t "alloc_frame";
    let d = Pfn.alloc_frame t.pfn ~owner:dom.Domain.domid ~ptype:Pfn.Page_table in
    (* The table being replaced. Never [d]: a fresh frame is not
       validated. *)
    record.Hypercalls.old_frames.(node) <-
      Owned_frames.find_if replaceable_table t.pfn dom.Domain.grants
        dom.Domain.owned_frames;
    record.Hypercalls.targets.(node) <- d.Pfn.index;
    Owned_frames.push dom.Domain.owned_frames d.Pfn.index
  end;
  let target = Pfn.get t.pfn record.Hypercalls.targets.(node) in
  let o = record.Hypercalls.old_frames.(node) in
  (* Unpin the table being replaced: invalidate + drop the pin
     reference. The frame keeps its allocation reference and returns to
     the guest's writable pool (a later decrease_reservation frees it);
     unpinning must not orphan it. Non-idempotent (retrying invalidates
     an already-invalid frame); reversible only through the undo
     journal -- code reordering cannot move this, because the PTE writes
     below must not race with a still-pinned old table. *)
  if o >= 0 then begin
    let od = Pfn.get t.pfn o in
    step t "unpin_old_table";
    if od.Pfn.validated then begin
      journal_log t journal Journal.Validated_cleared ~target:o ~operand:0;
      Pfn.invalidate od;
      journal_log t journal Journal.Type_change ~target:o
        ~operand:(Pfn.page_type_code od.Pfn.ptype);
      journal_log t journal Journal.Owner_change ~target:o ~operand:od.Pfn.owner;
      journal_log t journal Journal.Use_count_delta ~target:o ~operand:(-1);
      Pfn.put_page od;
      if od.Pfn.use_count > 0 then begin
        Pfn.touch od;
        od.Pfn.ptype <- Pfn.Writable
      end
    end
    else
      (* Retry without undo: double unpin. *)
      Pfn.invalidate od
  end;
  (* Retrying with the same target: if the first execution already
     validated it and nothing undid that, [Pfn.validate] panics -- the
     paper's "re-execution results in an inconsistent state". Code
     reordering (when this handler is among the enhanced ones) moves the
     critical update to the end, shrinking the window. *)
  let f = target.Pfn.index in
  if not (t.config.Config.code_reordering && record.Hypercalls.enhanced) then begin
    step t "validate_early";
    if not target.Pfn.validated then begin
      journal_log t journal Journal.Validated_set ~target:f ~operand:0;
      Pfn.validate target
    end
    else Pfn.validate target (* panics: double validation *)
  end;
  for i = 1 to entries do
    step ~cycles:120 t (indexed_name pte_write_names "pte_write_" i)
  done;
  step t "get_page_ref";
  journal_log t journal Journal.Use_count_delta ~target:f ~operand:1;
  Pfn.get_page target;
  if t.config.Config.code_reordering && record.Hypercalls.enhanced then begin
    step t "validate_late";
    if not target.Pfn.validated then begin
      journal_log t journal Journal.Validated_set ~target:f ~operand:0;
      Pfn.validate target
    end
    else Pfn.validate target
  end;
  step t "unlock_page_alloc";
  Spinlock.release dom.Domain.page_lock ~cpu:0

let exec_update_va_mapping t rng journal (dom : Domain.t)
    (record : Hypercalls.record) node =
  if record.Hypercalls.targets.(node) < 0 then
    record.Hypercalls.targets.(node) <- pick_writable_frame t rng dom;
  let f = record.Hypercalls.targets.(node) in
  if f >= 0 then begin
    let d = Pfn.get t.pfn f in
    step t "get_page";
    journal_log t journal Journal.Use_count_delta ~target:f ~operand:1;
    Pfn.get_page d;
    step ~cycles:100 t "write_pte";
    step ~cycles:200 t "flush_tlb";
    step t "put_page";
    journal_log t journal Journal.Use_count_delta ~target:f ~operand:(-1);
    Pfn.put_page d
  end

let exec_memory_op_populate t journal (dom : Domain.t) =
  for _ = 1 to 2 do
    (* The buddy-allocator critical section under the static heap lock is
       short: acquire and release within the allocation step. *)
    step t "alloc_frame";
    Spinlock.acquire t.global_heap_lock ~cpu:0;
    let d = Pfn.alloc_frame t.pfn ~owner:dom.Domain.domid ~ptype:Pfn.Writable in
    Spinlock.release t.global_heap_lock ~cpu:0;
    journal_log t journal Journal.Put_if_used ~target:d.Pfn.index ~operand:0;
    step t "assign_page";
    Owned_frames.push dom.Domain.owned_frames d.Pfn.index
  done

let exec_memory_op_decrease t rng journal (dom : Domain.t)
    (record : Hypercalls.record) node =
  if record.Hypercalls.targets.(node) < 0 then
    record.Hypercalls.targets.(node) <- pick_writable_frame t rng dom;
  let f = record.Hypercalls.targets.(node) in
  if f >= 0 then begin
    let d = Pfn.get t.pfn f in
    (* Double execution without undo double-puts the frame: underflow. *)
    step t "put_page";
    journal_log t journal Journal.Type_change ~target:f
      ~operand:(Pfn.page_type_code d.Pfn.ptype);
    journal_log t journal Journal.Owner_change ~target:f ~operand:d.Pfn.owner;
    journal_log t journal Journal.Use_count_delta ~target:f ~operand:(-1);
    Spinlock.acquire t.global_heap_lock ~cpu:0;
    Pfn.put_page d;
    Spinlock.release t.global_heap_lock ~cpu:0;
    step t "remove_from_domain";
    Owned_frames.remove dom.Domain.owned_frames f
  end

let exec_grant_table_op t rng journal (dom : Domain.t)
    (record : Hypercalls.record) node ~subops =
  step t "lock_grant";
  let grants = dom.Domain.grants in
  Spinlock.acquire (Grant.lock grants) ~cpu:0;
  if record.Hypercalls.targets.(node) < 0 then begin
    (* Map then unmap a granted frame per sub-op pair. *)
    match Grant.count_free grants with
    | 0 -> ()
    | n -> record.Hypercalls.targets.(node) <- Grant.nth_free grants (Sim.Rng.int rng n)
  end;
  let slot = record.Hypercalls.targets.(node) in
  if slot >= 0 then begin
    for i = 1 to subops do
      (* The granted frame as the sub-op finds it, before its steps. *)
      let frame = Grant.frame grants ~slot in
      step t (indexed_name grant_map_names "grant_map_" i);
      (* Retrying a completed map panics ("already mapped") unless the
         undo log reverted it. *)
      journal_log t journal Journal.Grant_unmap_undo ~target:slot ~operand:0;
      Grant.map grants ~slot ~by:0;
      if frame >= 0 then begin
        journal_log t journal Journal.Use_count_delta ~target:frame ~operand:1;
        Pfn.get_page (Pfn.get t.pfn frame)
      end;
      step ~cycles:400 t (indexed_name ring_io_names "ring_io_" i);
      step t (indexed_name grant_unmap_names "grant_unmap_" i);
      journal_log t journal Journal.Grant_remap_undo ~target:slot ~operand:0;
      Grant.unmap grants ~slot;
      if frame >= 0 then begin
        journal_log t journal Journal.Use_count_delta ~target:frame ~operand:(-1);
        Pfn.put_page (Pfn.get t.pfn frame)
      end
    done
  end;
  step t "unlock_grant";
  Spinlock.release (Grant.lock grants) ~cpu:0

let exec_evtchn_send t (dom : Domain.t) =
  step t "lock_evtchn";
  let evtchn = dom.Domain.evtchn in
  Spinlock.acquire (Evtchn.lock evtchn) ~cpu:0;
  step t "set_pending";
  Evtchn.send evtchn ~port:1;
  step t "unlock_evtchn";
  Spinlock.release (Evtchn.lock evtchn) ~cpu:0

let exec_sched_op_block t cpu (vcpu : Domain.vcpu) =
  let percpu = t.percpu.(cpu) in
  step t "lock_sched";
  Spinlock.acquire percpu.Percpu.heap_lock ~cpu;
  (* A guest can only block the vCPU that is actually executing. *)
  let is_current =
    match Sched.current t.sched ~cpu with
    | Some v -> v == vcpu
    | None -> false
  in
  if is_current then begin
    step t "set_blocked";
    vcpu.Domain.runstate <- Domain.Blocked;
    step t "clear_percpu_curr";
    Sched.set_current t.sched ~cpu None;
    percpu.Percpu.curr_domid <- -1;
    percpu.Percpu.curr_vcpuid <- -1;
    step t "clear_vcpu_current";
    Sched.vcpu_clear_current vcpu;
    (* Pick someone else to run, if anyone is queued. *)
    step t "pick_next";
    (match Sched.dequeue t.sched ~cpu with
    | Some next ->
      step t "set_next_current";
      Sched.set_current t.sched ~cpu (Some next);
      percpu.Percpu.curr_domid <- next.Domain.domid;
      percpu.Percpu.curr_vcpuid <- next.Domain.vid;
      step t "mark_next";
      Sched.vcpu_mark_current next ~cpu
    | None -> ());
    (* The event the guest blocked on arrives shortly (I/O completion):
       requeue the vCPU as runnable. *)
    step t "arrange_wakeup";
    if vcpu.Domain.runstate = Domain.Blocked then Sched.enqueue t.sched vcpu
  end
  else step ~cycles:80 t "poll_pending_events";
  step t "unlock_sched";
  Spinlock.release percpu.Percpu.heap_lock ~cpu

let exec_set_timer_op t cpu (vcpu : Domain.vcpu) =
  let percpu = t.percpu.(cpu) in
  step t "lock_timers";
  Spinlock.acquire percpu.Percpu.heap_lock ~cpu;
  step t "insert_timer";
  let now = Sim.Clock.now t.clock in
  ignore
    (Timer_heap.add t.timers
       ~deadline:(now + Sim.Time.ms 1)
       (Timer_heap.Vcpu_timer (vcpu.Domain.domid, vcpu.Domain.vid)));
  step t "unlock_timers";
  Spinlock.release percpu.Percpu.heap_lock ~cpu

let exec_console_io t cpu =
  step t "lock_console";
  Spinlock.acquire t.console_lock ~cpu;
  step ~cycles:300 t "emit";
  step t "unlock_console";
  Spinlock.release t.console_lock ~cpu

(* Toolstack domain creation: walks the domain list under the static
   domlist lock, allocates control structures from the heap and memory
   from the frame allocator -- the path that must still work after
   recovery for the hypervisor to count as healthy. *)
let exec_domctl_create t cpu ~vcpu_pin ~mem_frames =
  Domain.check_struct (privvm t);
  step t "lock_domlist";
  Spinlock.acquire t.domlist_lock ~cpu;
  if not t.static_data_ok then
    Crash.panic "domctl: static configuration data corrupted (%s)"
      t.static_data_note;
  step t "alloc_domain_struct";
  let dom =
    create_domain_internal t ~privileged:false ~vcpu_pins:[ vcpu_pin ]
      ~mem_frames
  in
  step t "unlock_domlist";
  Spinlock.release t.domlist_lock ~cpu;
  dom

let exec_domctl_destroy t cpu (dom : Domain.t) =
  step t "lock_domlist";
  Spinlock.acquire t.domlist_lock ~cpu;
  step t "teardown";
  destroy_domain_internal t dom;
  step t "unlock_domlist";
  Spinlock.release t.domlist_lock ~cpu

(* Dispatch call-tree node [node] of [record], of kind [kind]. *)
let rec exec_hypercall_body t rng journal cpu (vcpu : Domain.vcpu)
    (record : Hypercalls.record) node (kind : Hypercalls.kind) =
  let dom =
    match Domain_table.find t.domains vcpu.Domain.domid with
    | Some d -> d
    | None -> Crash.panic "hypercall from dead domain %d" vcpu.Domain.domid
  in
  Domain.check_struct dom;
  match kind with
  | Hypercalls.Mmu_update entries ->
    exec_mmu_update t journal dom record node ~entries
  | Hypercalls.Update_va_mapping ->
    exec_update_va_mapping t rng journal dom record node
  | Hypercalls.Memory_op_populate -> exec_memory_op_populate t journal dom
  | Hypercalls.Memory_op_decrease ->
    exec_memory_op_decrease t rng journal dom record node
  | Hypercalls.Grant_table_op subops ->
    exec_grant_table_op t rng journal dom record node ~subops
  | Hypercalls.Event_channel_send -> exec_evtchn_send t dom
  | Hypercalls.Event_channel_bind -> (
    step t "bind_port";
    match Evtchn.first_unbound dom.Domain.evtchn with
    | -1 -> ()
    | port -> Evtchn.bind dom.Domain.evtchn ~port)
  | Hypercalls.Sched_op_yield ->
    step t "yield";
    t.need_resched_flags.(cpu) <- true
  | Hypercalls.Sched_op_block -> exec_sched_op_block t cpu vcpu
  | Hypercalls.Set_timer_op -> exec_set_timer_op t cpu vcpu
  | Hypercalls.Console_io -> exec_console_io t cpu
  | Hypercalls.Vcpu_op_info -> step ~cycles:100 t "read_info"
  | Hypercalls.Domctl_create_domain ->
    ignore (exec_domctl_create t cpu ~vcpu_pin:3 ~mem_frames:32)
  | Hypercalls.Domctl_destroy_domain ->
    (match Domain_table.find_first Domain.is_app t.domains with
    | Some d -> exec_domctl_destroy t cpu d
    | None -> ())
  | Hypercalls.Domctl_pause_domain -> step t "pause"
  | Hypercalls.Multicall kinds ->
    exec_components t rng journal cpu vcpu record node 0 (node + 1) kinds

(* The components of the multicall at [node], from the [i]-th, whose
   node is [child]: each keeps its own argument slots (fixed on first
   run, replayed on retry) and all share the batch's journal. *)
and exec_components t rng journal cpu vcpu record node i child = function
  | [] -> ()
  | kind :: rest ->
    if i >= record.Hypercalls.sub_completed.(node) then begin
      exec_hypercall_body t rng journal cpu vcpu record child kind;
      if t.config.Config.hypercall_progress_tracking then begin
        (* Fine-granularity batched retry: log each component's
           completion so a retry skips it. *)
        Cycle_account.charge_logging t.cycles 40;
        record.Hypercalls.sub_completed.(node) <-
          record.Hypercalls.sub_completed.(node) + 1;
        Journal.commit journal
      end
    end;
    exec_components t rng journal cpu vcpu record node (i + 1)
      (child + Hypercalls.nodes kind) rest

(* ------------------------------------------------------------------ *)
(* Top-level activities                                                *)
(* ------------------------------------------------------------------ *)

let run_timer_action t cpu (e : Timer_heap.event) =
  Obs.Metrics.incr t.obs.Obs.Recorder.timer_fires;
  if Obs.Recorder.enabled t.obs Obs.Event.Debug then
    observe t ~cpu Obs.Event.Debug
      (Obs.Event.Timer_fire { action = Timer_heap.action_name e.Timer_heap.action });
  match e.Timer_heap.action with
  | Timer_heap.Time_sync ->
    step t "time_sync";
    t.time_sync_count <- t.time_sync_count + 1
  | Timer_heap.Sched_tick c ->
    step t "sched_tick";
    t.need_resched_flags.(c) <- true
  | Timer_heap.Watchdog_tick ->
    step t "watchdog_tick";
    for i = 0 to Array.length t.watchdog_soft - 1 do
      t.watchdog_soft.(i) <- t.watchdog_soft.(i) + 1
    done
  | Timer_heap.Vcpu_timer (domid, vid) -> (
    step t "vcpu_timer";
    match domain t domid with
    | Some d when d.Domain.alive ->
      let v = Domain.vcpu d vid in
      if v.Domain.runstate = Domain.Blocked then begin
        v.Domain.runstate <- Domain.Runnable;
        Sched.enqueue t.sched v
      end
    | Some _ | None -> ())
  | Timer_heap.Generic_oneshot -> step t "oneshot"
  [@@warning "-27"]

(* The context-switch path, decomposed so an abandonment between the
   per-CPU update and the per-vCPU updates leaves the redundant records
   disagreeing. Returns [true] if the wrong register context would have
   been restored. *)
let do_context_switch t cpu =
  let percpu = t.percpu.(cpu) in
  step t "lock_sched";
  Spinlock.acquire percpu.Percpu.heap_lock ~cpu;
  step t "assert_not_in_irq";
  Percpu.assert_not_in_irq percpu;
  let wrong_context = ref false in
  step t "pick_next";
  (match Sched.queued t.sched ~cpu with
  | [] -> ()
  | next :: _ ->
    Sched.drop_head t.sched ~cpu;
    (match Sched.current t.sched ~cpu with
    | Some prev when prev == next -> ()
    | Some prev ->
      (* The assertion-rich part of Xen's schedule(): metadata must
         agree before the switch. *)
      step t "assert_consistent";
      if not prev.Domain.is_current then
        Crash.assert_failed "schedule: cpu%d prev d%dv%d lost is_current" cpu
          prev.Domain.domid prev.Domain.vid;
      if prev.Domain.curr_slot <> cpu then
        (* Disagreement that does not trip an assertion restores a
           stale context instead. *)
        wrong_context := true;
      step t "clear_prev";
      Sched.vcpu_clear_current prev;
      if prev.Domain.runstate = Domain.Running then
        prev.Domain.runstate <- Domain.Runnable;
      Sched.enqueue t.sched prev;
      step t "set_percpu_curr";
      Sched.set_current t.sched ~cpu (Some next);
      percpu.Percpu.curr_domid <- next.Domain.domid;
      percpu.Percpu.curr_vcpuid <- next.Domain.vid;
      step t "mark_next_current";
      Sched.vcpu_mark_current next ~cpu;
      step ~cycles:350 t "restore_context";
      (* Disagreeing redundant records make Xen restore a stale
         register context: the guest resumes with wrong registers. *)
      if !wrong_context then begin
        match domain t next.Domain.domid with
        | Some d when not d.Domain.is_idle -> d.Domain.guest_failed <- true
        | Some _ | None -> ()
      end
    | None ->
      step t "set_percpu_curr";
      Sched.set_current t.sched ~cpu (Some next);
      percpu.Percpu.curr_domid <- next.Domain.domid;
      percpu.Percpu.curr_vcpuid <- next.Domain.vid;
      step t "mark_next_current";
      Sched.vcpu_mark_current next ~cpu;
      step ~cycles:350 t "restore_context"));
  step t "unlock_sched";
  Spinlock.release percpu.Percpu.heap_lock ~cpu;
  t.need_resched_flags.(cpu) <- false;
  !wrong_context

let rec drain_due_timers t cpu ~now budget =
  if budget > 0 && Timer_heap.due t.timers ~now then begin
    let e = Timer_heap.pop_top t.timers in
    (* The periodic-timer infrastructure re-arms scheduler/watchdog
       ticks up front; the time-sync handler re-arms itself at the end
       of its (longer) handler, leaving the pop-to-requeue gap that
       "Reactivate recurring timer events" closes. *)
    (match e.Timer_heap.action with
    | Timer_heap.Time_sync ->
      run_timer_action t cpu e;
      Timer_heap.requeue t.timers e ~now:(Sim.Clock.now t.clock)
    | Timer_heap.Sched_tick _ | Timer_heap.Watchdog_tick
    | Timer_heap.Vcpu_timer _ | Timer_heap.Generic_oneshot ->
      Timer_heap.requeue t.timers e ~now:(Sim.Clock.now t.clock);
      run_timer_action t cpu e);
    drain_due_timers t cpu ~now (budget - 1)
  end

let do_timer_tick t cpu =
  let percpu = t.percpu.(cpu) in
  let apic = (Hw.Machine.cpu t.machine cpu).Hw.Cpu.apic in
  step t "irq_enter";
  Percpu.irq_enter percpu;
  (* The APIC one-shot timer fired to get here: it is now disarmed
     and stays so until the reprogram step below. *)
  Hw.Apic.disarm_timer apic;
  Hw.Apic.begin_service apic 0xf0;
  step t "lock_timers";
  Spinlock.acquire percpu.Percpu.heap_lock ~cpu;
  let now = Sim.Clock.now t.clock in
  (* Each due event is popped, its handler runs and (for recurring
     events) it is re-inserted at the end of the handler -- the pop-to-
     requeue gap is the window the "Reactivate recurring timer events"
     enhancement closes. *)
  drain_due_timers t cpu ~now 3;
  step t "unlock_timers";
  Spinlock.release percpu.Percpu.heap_lock ~cpu;
  step t "reprogram_apic";
  let deadline =
    if Timer_heap.size t.timers = 0 then Sim.Clock.now t.clock + Sim.Time.ms 10
    else
      max (Timer_heap.top_deadline t.timers) (Sim.Clock.now t.clock + Sim.Time.us 10)
  in
  Hw.Apic.program_timer apic ~deadline;
  step t "apic_eoi";
  Hw.Apic.eoi apic 0xf0;
  step t "irq_exit";
  Percpu.irq_exit percpu
(* Resched requests raised by the tick are honoured by the softirq path
   on the next idle poll / explicit context switch. *)

let do_device_interrupt t ~line ~target_dom =
  let cpu = 0 (* device interrupts are routed to the PrivVM's CPU *) in
  let percpu = t.percpu.(cpu) in
  let apic = (Hw.Machine.cpu t.machine cpu).Hw.Cpu.apic in
  let route = t.machine.Hw.Machine.ioapic.Hw.Ioapic.entries.(line) in
  let vector = route.Hw.Ioapic.vector in
  if route.Hw.Ioapic.masked || vector = 0 then
    (* Routing lost (e.g. after a reboot without the IO-APIC log):
       the device's interrupts simply never arrive. *)
    ()
  else begin
    step t "irq_enter";
    Percpu.irq_enter percpu;
    Hw.Apic.begin_service apic vector;
    (match Domain_table.find t.domains target_dom with
    | Some dom when dom.Domain.alive ->
      step t "lock_evtchn";
      let evtchn = dom.Domain.evtchn in
      Spinlock.acquire (Evtchn.lock evtchn) ~cpu;
      step t "notify_guest";
      Evtchn.send evtchn ~port:2;
      (* The event wakes the target vCPU if it blocked. *)
      let vcpus = dom.Domain.vcpus in
      for i = 0 to Array.length vcpus - 1 do
        let v = vcpus.(i) in
        if v.Domain.runstate = Domain.Blocked then Sched.enqueue t.sched v
      done;
      step t "unlock_evtchn";
      Spinlock.release (Evtchn.lock evtchn) ~cpu
    | Some _ | None -> ());
    step t "apic_eoi";
    Hw.Apic.eoi apic vector;
    step t "irq_exit";
    Percpu.irq_exit percpu
  end

(* Fraction of the non-idempotent hypercall paths actually covered by the
   logging/reordering mitigation (the paper covered the handlers fault
   injection surfaced, not all of them: 84% -> 96% recovery rate). *)
let mitigation_coverage = 0.80

(* Issue [kind] from [vcpu], or with [~retry:true] re-issue the call in
   its record as it stands (the hypercall retry mechanism). The vCPU's
   own record carries the call: a new call resets it, so neither path
   allocates. *)
let do_hypercall t rng ~cpu (vcpu : Domain.vcpu) kind ~retry =
  let percpu = t.percpu.(cpu) in
  let record = vcpu.Domain.record in
  if retry then record.Hypercalls.retries <- record.Hypercalls.retries + 1
  else begin
    let enhanced =
      (not (Hypercalls.non_idempotent kind))
      || Sim.Rng.float_below rng 1.0 mitigation_coverage
    in
    Hypercalls.reset record ~enhanced
      ~logging:t.config.Config.nonidempotent_logging kind
  end;
  let journal = record.Hypercalls.journal in
  let domid = vcpu.Domain.domid and vid = vcpu.Domain.vid in
  Obs.Metrics.incr t.obs.Obs.Recorder.hypercall_entries;
  (* Flight ring: [static_name] is a pre-interned constant (unlike
     [Hypercalls.name], which formats), so the note allocates nothing. *)
  Obs.Flight.note t.hc_flight
    ~name:(Hypercalls.static_name kind)
    ~time:(Sim.Clock.now t.clock);
  (* [Hypercalls.name] formats, so even computing the payload's fields is
     deferred until the event is known to pass the level filter. *)
  if retry then begin
    Obs.Metrics.incr t.obs.Obs.Recorder.hypercall_retries;
    if Obs.Recorder.enabled t.obs Obs.Event.Info then
      observe t ~cpu ~domid Obs.Event.Info
        (Obs.Event.Hypercall_retry
           {
             domid;
             vid;
             kind = Hypercalls.name kind;
             attempt = record.Hypercalls.retries;
           })
  end
  else if Obs.Recorder.enabled t.obs Obs.Event.Debug then
    observe t ~cpu ~domid Obs.Event.Debug
      (Obs.Event.Hypercall_entry
         { domid; vid; kind = Hypercalls.name kind; retry = false });
  step t "hypercall_entry";
  Cycle_account.note_entry t.cycles;
  percpu.Percpu.in_hypercall_depth <- percpu.Percpu.in_hypercall_depth + 1;
  if t.config.Config.save_fs_gs then begin
    (* The x86-64 port fix: explicitly save the guest's FS/GS. *)
    Cycle_account.charge t.cycles 30;
    Percpu.save_fsgs percpu vcpu.Domain.guest_regs
  end;
  vcpu.Domain.in_hypercall <- vcpu.Domain.in_flight;
  exec_hypercall_body t rng journal cpu vcpu record 0 kind;
  step t "hypercall_commit";
  record.Hypercalls.committed <- true;
  let debug_on = Obs.Recorder.enabled t.obs Obs.Event.Debug in
  let entries = Journal.depth journal in
  if entries > 0 && debug_on then
    observe t ~cpu ~domid Obs.Event.Debug (Obs.Event.Journal_commit { entries });
  Journal.commit journal;
  if debug_on then
    observe t ~cpu ~domid Obs.Event.Debug
      (Obs.Event.Hypercall_commit { domid; vid; kind = Hypercalls.name kind });
  step t "hypercall_exit";
  vcpu.Domain.in_hypercall <- None;
  vcpu.Domain.retry_pending <- false;
  Percpu.drop_fsgs percpu;
  percpu.Percpu.in_hypercall_depth <- max 0 (percpu.Percpu.in_hypercall_depth - 1)

let do_syscall_forward t ~cpu (vcpu : Domain.vcpu) =
  let percpu = t.percpu.(cpu) in
  step t "syscall_entry";
  Cycle_account.note_entry t.cycles;
  if t.config.Config.save_fs_gs then Percpu.save_fsgs percpu vcpu.Domain.guest_regs;
  vcpu.Domain.in_syscall_forward <- true;
  step ~cycles:60 t "decode_target";
  step t "forward_to_kernel";
  step t "syscall_exit";
  vcpu.Domain.in_syscall_forward <- false;
  vcpu.Domain.syscall_retry_pending <- false;
  Percpu.drop_fsgs percpu

let do_idle_poll t cpu =
  step ~cycles:50 t "check_softirq";
  if t.need_resched_flags.(cpu) then ignore (do_context_switch t cpu)

let execute t rng activity =
  match activity with
  | Timer_tick cpu ->
    begin_activity t activity cpu;
    do_timer_tick t cpu
  | Device_interrupt { line; target_dom } ->
    begin_activity t activity 0;
    do_device_interrupt t ~line ~target_dom
  | Hypercall { domid; vid; kind } ->
    (match Domain_table.find t.domains domid with
    | Some dom when dom.Domain.alive ->
      let vcpu = Domain.vcpu dom vid in
      let cpu = vcpu.Domain.processor in
      begin_activity t activity cpu;
      do_hypercall t rng ~cpu vcpu kind ~retry:false
    | Some _ | None -> ())
  | Syscall_forward { domid; vid } ->
    (match Domain_table.find t.domains domid with
    | Some dom when dom.Domain.alive ->
      let vcpu = Domain.vcpu dom vid in
      let cpu = vcpu.Domain.processor in
      begin_activity t activity cpu;
      do_syscall_forward t ~cpu vcpu
    | Some _ | None -> ())
  | Context_switch cpu ->
    begin_activity t activity cpu;
    ignore (do_context_switch t cpu)
  | Idle_poll cpu ->
    begin_activity t activity cpu;
    do_idle_poll t cpu

(* Execute an activity but abandon it (exactly as a discarded execution
   thread would be) at step [stop_at]: partial state stays in place. *)
let execute_partial t rng activity ~stop_at =
  let saved_hook = t.step_hook in
  let counter = ref 0 in
  t.step_hook <-
    Some
      (fun t' act idx name cpu ->
        (match saved_hook with Some h -> h t' act idx name cpu | None -> ());
        if !counter >= stop_at then raise Abandoned;
        incr counter);
  Fun.protect
    ~finally:(fun () -> t.step_hook <- saved_hook)
    (fun () -> try execute t rng activity with Abandoned -> ())

(* Retry a hypercall abandoned by recovery (the "hypercall retry"
   mechanism): optionally undo the journal first (non-idempotent
   mitigation), then re-execute with the same arguments. *)
let retry_hypercall t rng (vcpu : Domain.vcpu) =
  match vcpu.Domain.in_hypercall with
  | None -> ()
  | Some record ->
    let journal = record.Hypercalls.journal in
    if t.config.Config.nonidempotent_logging then begin
      let entries = Journal.depth journal in
      if entries > 0 then begin
        Obs.Metrics.incr ~by:entries t.obs.Obs.Recorder.journal_undone;
        if Obs.Recorder.enabled t.obs Obs.Event.Info then
          observe t ~cpu:vcpu.Domain.processor ~domid:vcpu.Domain.domid
            Obs.Event.Info (Obs.Event.Journal_undo { entries })
      end;
      Journal.undo_all journal
    end;
    let cpu = vcpu.Domain.processor in
    let activity =
      Hypercall
        { domid = vcpu.Domain.domid; vid = vcpu.Domain.vid; kind = record.Hypercalls.kind }
    in
    begin_activity t activity cpu;
    do_hypercall t rng ~cpu vcpu record.Hypercalls.kind ~retry:true

let retry_syscall t (vcpu : Domain.vcpu) =
  let cpu = vcpu.Domain.processor in
  let activity = Syscall_forward { domid = vcpu.Domain.domid; vid = vcpu.Domain.vid } in
  begin_activity t activity cpu;
  do_syscall_forward t ~cpu vcpu

(* ------------------------------------------------------------------ *)
(* Consistency audit                                                   *)
(* ------------------------------------------------------------------ *)

type audit_report = {
  static_locks_held : int;
  heap_locks_held : bool;
  irq_counts_nonzero : int;
  sched_consistent : bool;
  pfn_inconsistent : int;
  heap_ok : bool;
  timer_structure_ok : bool;
  recurring_missing : int;
  apics_unarmed : int;
  static_data_ok : bool;
}

(* Do the vCPUs of domain [domid], if it exists, agree with the
   scheduler's records? *)
let domain_sched_ok t domid =
  match Domain_table.find t.domains domid with
  | None -> true
  | Some d ->
    let ok = ref true in
    for i = 0 to Array.length d.Domain.vcpus - 1 do
      if not (Sched.vcpu_consistent t.sched d.Domain.vcpus.(i)) then ok := false
    done;
    !ok

(* The scheduler's rules over every domain's vCPUs. Walked by domid, so
   no domain or vCPU list is built. *)
let sched_consistent t =
  let ok = ref (Sched.percpu_consistent t.sched) in
  for domid = 0 to t.next_domid - 1 do
    if not (domain_sched_ok t domid) then ok := false
  done;
  !ok && (t.next_domid > idle_domid || domain_sched_ok t idle_domid)

(* The post-recovery audit. It allocates only its report, and its page-
   frame term costs O(frames dirtied since the latest image) while the
   dirty tracking is usable (the full fold otherwise): an audit scales
   with the damage, like the incremental scan. *)
let audit t =
  {
    static_locks_held = Spinlock.Segment.held_count t.static_segment;
    heap_locks_held = Heap.any_heap_lock_held t.heap;
    irq_counts_nonzero =
      Array.fold_left
        (fun acc (p : Percpu.t) ->
          if p.Percpu.local_irq_count <> 0 then acc + 1 else acc)
        0 t.percpu;
    sched_consistent = sched_consistent t;
    pfn_inconsistent = Pfn.count_inconsistent_dirty t.pfn;
    heap_ok = Heap.audit t.heap;
    timer_structure_ok = Timer_heap.structure_ok t.timers;
    recurring_missing = Timer_heap.missing_recurring_count t.timers;
    apics_unarmed =
      Array.fold_left
        (fun acc (c : Hw.Cpu.t) ->
          if Hw.Apic.timer_armed c.Hw.Cpu.apic then acc else acc + 1)
        0 t.machine.Hw.Machine.cpus;
    static_data_ok = t.static_data_ok;
  }

let audit_clean r =
  r.static_locks_held = 0 && (not r.heap_locks_held) && r.irq_counts_nonzero = 0
  && r.sched_consistent && r.pfn_inconsistent = 0 && r.heap_ok
  && r.timer_structure_ok && r.recurring_missing = 0 && r.apics_unarmed = 0
  && r.static_data_ok

(* Visit the audit's violations as (index, kind, magnitude) triples
   without materialising a list; [index] follows [audit_violation_kinds]
   order, so counter lookups against [t.audit_counters] are plain array
   reads (instruments are registered eagerly at [create] so fresh and
   reused recorders stay structurally identical). *)
let iter_violations r f =
  if r.static_locks_held > 0 then f 0 "static_locks_held" r.static_locks_held;
  if r.heap_locks_held then f 1 "heap_locks_held" 1;
  if r.irq_counts_nonzero > 0 then f 2 "irq_counts_nonzero" r.irq_counts_nonzero;
  if not r.sched_consistent then f 3 "sched_inconsistent" 1;
  if r.pfn_inconsistent > 0 then f 4 "pfn_inconsistent" r.pfn_inconsistent;
  if not r.heap_ok then f 5 "heap_corrupt" 1;
  if not r.timer_structure_ok then f 6 "timer_structure_bad" 1;
  if r.recurring_missing > 0 then f 7 "recurring_missing" r.recurring_missing;
  if r.apics_unarmed > 0 then f 8 "apics_unarmed" r.apics_unarmed;
  if not r.static_data_ok then f 9 "static_data_corrupt" 1

(* Bump the per-kind [audit.*] counters and emit one typed
   [Audit_violation] event per violated invariant. Called wherever an
   audit is consulted for pass/fail (post-recovery classification,
   endurance cycles) so violations are queryable instead of living only
   in a formatted failure string. The counter bumps go through the
   cached [audit_counters] array: no name concatenation, no registry
   lookup, no intermediate list. *)
let record_audit_violations t r =
  iter_violations r (fun idx kind count ->
      Obs.Metrics.incr ~by:count t.audit_counters.(idx);
      if Obs.Recorder.enabled t.obs Obs.Event.Warn then
        observe t Obs.Event.Warn (Obs.Event.Audit_violation { kind; count }))

let pp_audit fmt r =
  Format.fprintf fmt
    "static_locks_held=%d heap_locks_held=%b irq_nonzero=%d sched_ok=%b \
     pfn_bad=%d heap_ok=%b timer_ok=%b recurring_missing=%d apics_unarmed=%d \
     static_data_ok=%b"
    r.static_locks_held r.heap_locks_held r.irq_counts_nonzero
    r.sched_consistent r.pfn_inconsistent r.heap_ok r.timer_structure_ok
    r.recurring_missing r.apics_unarmed r.static_data_ok
