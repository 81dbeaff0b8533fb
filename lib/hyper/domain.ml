(** Domains (VMs) and virtual CPUs.

    The scheduling metadata deliberately stores "which vCPU is currently
    running on each CPU" redundantly -- in the per-CPU structures
    (authoritative, see [Percpu]) and in *two* places per vCPU
    ([is_current] and [curr_slot]) -- reproducing the inconsistency
    hazard the "Ensure consistency within scheduling metadata"
    enhancement resolves by rewriting the per-vCPU copies from the
    per-CPU ones. *)

type runstate = Running | Runnable | Blocked | Paused | Offline

type vcpu = {
  vid : int;
  domid : int;
  mutable processor : int; (* physical CPU this vCPU is pinned to *)
  mutable runstate : runstate;
  mutable is_current : bool; (* redundant copy #1 *)
  mutable curr_slot : int; (* redundant copy #2: CPU it believes it runs on, -1 = none *)
  guest_regs : Hw.Regs.t;
  mutable fsgs_valid : bool;
      (* guest FS/GS still intact? lost if recovery resumes the guest
         without having saved them on hypervisor entry *)
  mutable in_hypercall : Hypercalls.record option;
      (* [None], or [in_flight]: the call this vCPU is executing *)
  record : Hypercalls.record; (* reused by every hypercall of this vCPU *)
  in_flight : Hypercalls.record option; (* [Some record], built once *)
  timer_action : Timer_heap.action;
      (* [Vcpu_timer (domid, vid)], built once for its set_timer_op calls *)
  as_current : vcpu option;
      (* [Some] this vCPU, built once: what a CPU's current record holds
         while this vCPU runs there, so a context switch allocates no
         option *)
  mutable in_syscall_forward : bool;
  mutable retry_pending : bool; (* set up to re-issue hypercall on resume *)
  mutable syscall_retry_pending : bool;
  mutable lost_work : bool;
      (* an in-flight request was abandoned with no retry arranged: the
         guest blocks forever waiting for its completion *)
}

(* Snapshot storage: what an image keeps of one domain. Each domain owns
   two (base and layer), allocated with it, and [capture] overwrites one
   in place, so a snapshot allocates nothing per domain. The event-
   channel, grant and owned-frame sets take their own images (shared
   while unchanged); a slot only holds the ones captured. *)
type slot = {
  s_flags : int array;
      (* alive, struct_ok, guest_failed, guest_sdc, then the holder and
         acquisitions of the event-channel, grant and page locks *)
  s_vcpus : int array; (* [vcpu_ints] per vCPU *)
  s_regs : Hw.Regs.t array; (* per vCPU: guest registers *)
  mutable s_heap_objs : Heap.obj list;
  mutable s_owned_frames : Owned_frames.image;
  mutable s_evtchn : Evtchn.image;
  mutable s_grants : Grant.image;
}

type t = {
  domid : int;
  privileged : bool; (* the PrivVM / Dom0 *)
  is_idle : bool; (* Xen's idle domain: one vCPU per physical CPU *)
  vcpus : vcpu array;
  mutable alive : bool;
  mutable struct_ok : bool; (* domain struct payload integrity *)
  mutable guest_failed : bool; (* guest kernel/app observed a failure *)
  mutable guest_sdc : bool; (* guest produced silently corrupt output *)
  owned_frames : Owned_frames.t; (* newest first, duplicates kept *)
  evtchn : Evtchn.table;
  grants : Grant.table;
  page_lock : Spinlock.t; (* heap-resident per-domain page_alloc lock *)
  mutable heap_objs : Heap.obj list;
  base : slot; (* the base image's storage *)
  layer : slot; (* the layer's *)
}

let runstate_name = function
  | Running -> "running"
  | Runnable -> "runnable"
  | Blocked -> "blocked"
  | Paused -> "paused"
  | Offline -> "offline"

let make_vcpu ~domid ~vid ~processor record =
  let guest_regs = Hw.Regs.create () and in_flight = Some record in
  let rec v =
    {
      vid;
      domid;
      processor;
      runstate = Runnable;
      is_current = false;
      curr_slot = -1;
      guest_regs;
      fsgs_valid = true;
      in_hypercall = None;
      record;
      in_flight;
      timer_action = Timer_heap.Vcpu_timer (domid, vid);
      as_current = Some v;
      in_syscall_forward = false;
      retry_pending = false;
      syscall_retry_pending = false;
      lost_work = false;
    }
  in
  v

(* A vCPU's scalars in a slot: processor, runstate, is_current,
   curr_slot, fsgs_valid, in_syscall_forward, retry_pending,
   syscall_retry_pending, lost_work. *)
let vcpu_ints = 9

let runstate_code = function
  | Running -> 0
  | Runnable -> 1
  | Blocked -> 2
  | Paused -> 3
  | Offline -> 4

let runstate_of_code = function
  | 0 -> Running
  | 1 -> Runnable
  | 2 -> Blocked
  | 3 -> Paused
  | _ -> Offline

(* Each vCPU gets its hypercall record here, sized from [config] (see
   [Hypercalls.pooled]), so no hypercall allocates one later. *)
let create ?(is_idle = false) heap ~config ~pfn ~domid ~privileged
    ~vcpus:vcpu_pins =
  let page_lock =
    Spinlock.create
      ~name:(Printf.sprintf "d%d_page_alloc" domid)
      ~location:Spinlock.Heap
  in
  let lock_obj = Heap.alloc heap (Heap.Lock page_lock) in
  let data_obj = Heap.alloc heap ~size:8192 (Heap.Domain_data domid) in
  (* Heap allocation order is replayed by every run: grant table, then
     event channels. *)
  let grants = Grant.create heap ~slots:128 domid in
  let evtchn = Evtchn.create heap ~ports:64 domid in
  let vcpu vid processor =
    make_vcpu ~domid ~vid ~processor
      (Hypercalls.pooled config ~pfn ~grants)
  in
  let vcpus = Array.of_list (List.mapi vcpu vcpu_pins) in
  let owned_frames = Owned_frames.create () in
  (* Fresh sets capture as the images they were created with. *)
  let slot () =
    {
      s_flags = Array.make 10 0;
      s_vcpus = Array.make (vcpu_ints * Array.length vcpus) 0;
      s_regs = Array.map (fun _ -> Hw.Regs.create ()) vcpus;
      s_heap_objs = [];
      s_owned_frames = Owned_frames.capture owned_frames;
      s_evtchn = Evtchn.capture evtchn;
      s_grants = Grant.capture grants;
    }
  in
  {
    domid;
    privileged;
    is_idle;
    vcpus;
    alive = true;
    struct_ok = true;
    guest_failed = false;
    guest_sdc = false;
    owned_frames;
    evtchn;
    grants;
    page_lock;
    heap_objs = [ lock_obj; data_obj ];
    base = slot ();
    layer = slot ();
  }

let vcpu t vid = t.vcpus.(vid)

(* Touching a corrupted domain struct is how corruption there gets
   detected: the next hypercall dereferencing it hits garbage. *)
let check_struct t =
  if not t.struct_ok then
    Crash.panic "domain %d: corrupted domain struct dereferenced" t.domid

let affected t = t.guest_failed || t.guest_sdc || not t.alive

(* Neither the PrivVM nor the idle domain: a guest AppVM or tenant. *)
let is_app t = (not t.privileged) && not t.is_idle

(* Write [t]'s state into [s] / back from it. Neither allocates. A
   restored vCPU has no hypercall in flight: images are taken only
   between calls. *)
let capture t s =
  let f = s.s_flags in
  f.(0) <- Bool.to_int t.alive;
  f.(1) <- Bool.to_int t.struct_ok;
  f.(2) <- Bool.to_int t.guest_failed;
  f.(3) <- Bool.to_int t.guest_sdc;
  Spinlock.save (Evtchn.lock t.evtchn) f 4;
  Spinlock.save (Grant.lock t.grants) f 6;
  Spinlock.save t.page_lock f 8;
  s.s_heap_objs <- t.heap_objs;
  s.s_owned_frames <- Owned_frames.capture t.owned_frames;
  s.s_evtchn <- Evtchn.capture t.evtchn;
  s.s_grants <- Grant.capture t.grants;
  let a = s.s_vcpus in
  for i = 0 to Array.length t.vcpus - 1 do
    let v = t.vcpus.(i) and o = i * vcpu_ints in
    a.(o) <- v.processor;
    a.(o + 1) <- runstate_code v.runstate;
    a.(o + 2) <- Bool.to_int v.is_current;
    a.(o + 3) <- v.curr_slot;
    a.(o + 4) <- Bool.to_int v.fsgs_valid;
    a.(o + 5) <- Bool.to_int v.in_syscall_forward;
    a.(o + 6) <- Bool.to_int v.retry_pending;
    a.(o + 7) <- Bool.to_int v.syscall_retry_pending;
    a.(o + 8) <- Bool.to_int v.lost_work;
    Hw.Regs.restore ~from:v.guest_regs s.s_regs.(i)
  done

let restore t s =
  let f = s.s_flags in
  t.alive <- f.(0) <> 0;
  t.struct_ok <- f.(1) <> 0;
  t.guest_failed <- f.(2) <> 0;
  t.guest_sdc <- f.(3) <> 0;
  Spinlock.load (Evtchn.lock t.evtchn) f 4;
  Spinlock.load (Grant.lock t.grants) f 6;
  Spinlock.load t.page_lock f 8;
  t.heap_objs <- s.s_heap_objs;
  Owned_frames.restore t.owned_frames s.s_owned_frames;
  Evtchn.restore t.evtchn s.s_evtchn;
  Grant.restore t.grants s.s_grants;
  let a = s.s_vcpus in
  for i = 0 to Array.length t.vcpus - 1 do
    let v = t.vcpus.(i) and o = i * vcpu_ints in
    v.processor <- a.(o);
    v.runstate <- runstate_of_code a.(o + 1);
    v.is_current <- a.(o + 2) <> 0;
    v.curr_slot <- a.(o + 3);
    v.fsgs_valid <- a.(o + 4) <> 0;
    v.in_hypercall <- None;
    v.in_syscall_forward <- a.(o + 5) <> 0;
    v.retry_pending <- a.(o + 6) <> 0;
    v.syscall_retry_pending <- a.(o + 7) <> 0;
    v.lost_work <- a.(o + 8) <> 0;
    Hw.Regs.restore ~from:s.s_regs.(i) v.guest_regs
  done
