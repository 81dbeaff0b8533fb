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
  mutable in_syscall_forward : bool;
  mutable retry_pending : bool; (* set up to re-issue hypercall on resume *)
  mutable syscall_retry_pending : bool;
  mutable lost_work : bool;
      (* an in-flight request was abandoned with no retry arranged: the
         guest blocks forever waiting for its completion *)
}

type t = {
  domid : int;
  privileged : bool; (* the PrivVM / Dom0 *)
  is_idle : bool; (* Xen's idle domain: one vCPU per physical CPU *)
  mutable vcpus : vcpu array;
  mutable alive : bool;
  mutable struct_ok : bool; (* domain struct payload integrity *)
  mutable guest_failed : bool; (* guest kernel/app observed a failure *)
  mutable guest_sdc : bool; (* guest produced silently corrupt output *)
  owned_frames : Owned_frames.t; (* newest first, duplicates kept *)
  evtchn : Evtchn.table;
  grants : Grant.table;
  page_lock : Spinlock.t; (* heap-resident per-domain page_alloc lock *)
  mutable heap_objs : Heap.obj list;
}

let runstate_name = function
  | Running -> "running"
  | Runnable -> "runnable"
  | Blocked -> "blocked"
  | Paused -> "paused"
  | Offline -> "offline"

let make_vcpu ~domid ~vid ~processor record =
  {
    vid;
    domid;
    processor;
    runstate = Runnable;
    is_current = false;
    curr_slot = -1;
    guest_regs = Hw.Regs.create ();
    fsgs_valid = true;
    in_hypercall = None;
    record;
    in_flight = Some record;
    in_syscall_forward = false;
    retry_pending = false;
    syscall_retry_pending = false;
    lost_work = false;
  }

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
  {
    domid;
    privileged;
    is_idle;
    vcpus = Array.of_list (List.mapi vcpu vcpu_pins);
    alive = true;
    struct_ok = true;
    guest_failed = false;
    guest_sdc = false;
    owned_frames = Owned_frames.create ();
    evtchn;
    grants;
    page_lock;
    heap_objs = [ lock_obj; data_obj ];
  }

let vcpu t vid = t.vcpus.(vid)

(* Touching a corrupted domain struct is how corruption there gets
   detected: the next hypercall dereferencing it hits garbage. *)
let check_struct t =
  if not t.struct_ok then
    Crash.panic "domain %d: corrupted domain struct dereferenced" t.domid

let affected t = t.guest_failed || t.guest_sdc || not t.alive
