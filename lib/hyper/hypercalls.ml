(** Hypercall vocabulary and in-flight call records.

    The mix mirrors the hypercalls the paper's workloads stress: virtual
    memory management (mmu_update, update_va_mapping, memory_op) for
    UnixBench, grant-table and event-channel operations for BlkBench /
    NetBench I/O, scheduling operations, and the multicall batching whose
    fine-granularity retry Section IV introduces.

    A call in flight is described by its vCPU's one {!record}, reset for
    each new call and replayed as it stands by a retry, so issuing a
    hypercall allocates nothing. *)

type kind =
  | Mmu_update of int (* number of page-table entry updates *)
  | Update_va_mapping
  | Memory_op_populate (* increase reservation: allocates frames *)
  | Memory_op_decrease (* decrease reservation: frees frames *)
  | Grant_table_op of int (* number of grant map/unmap sub-ops *)
  | Event_channel_send
  | Event_channel_bind
  | Sched_op_yield
  | Sched_op_block
  | Set_timer_op
  | Console_io
  | Vcpu_op_info
  | Domctl_create_domain
  | Domctl_destroy_domain
  | Domctl_pause_domain
  | Multicall of kind list

let rec name = function
  | Mmu_update n -> Printf.sprintf "mmu_update(%d)" n
  | Update_va_mapping -> "update_va_mapping"
  | Memory_op_populate -> "memory_op(populate)"
  | Memory_op_decrease -> "memory_op(decrease)"
  | Grant_table_op n -> Printf.sprintf "grant_table_op(%d)" n
  | Event_channel_send -> "evtchn_send"
  | Event_channel_bind -> "evtchn_bind"
  | Sched_op_yield -> "sched_op(yield)"
  | Sched_op_block -> "sched_op(block)"
  | Set_timer_op -> "set_timer_op"
  | Console_io -> "console_io"
  | Vcpu_op_info -> "vcpu_op(info)"
  | Domctl_create_domain -> "domctl(create)"
  | Domctl_destroy_domain -> "domctl(destroy)"
  | Domctl_pause_domain -> "domctl(pause)"
  | Multicall kinds ->
    Printf.sprintf "multicall[%s]" (String.concat "," (List.map name kinds))

(* Constant-string variant of [name] for the flight recorder's hot path:
   drops the per-call detail (sub-op counts, multicall contents) so no
   formatting -- and no allocation -- happens per hypercall. *)
let static_name = function
  | Mmu_update _ -> "mmu_update"
  | Update_va_mapping -> "update_va_mapping"
  | Memory_op_populate -> "memory_op(populate)"
  | Memory_op_decrease -> "memory_op(decrease)"
  | Grant_table_op _ -> "grant_table_op"
  | Event_channel_send -> "evtchn_send"
  | Event_channel_bind -> "evtchn_bind"
  | Sched_op_yield -> "sched_op(yield)"
  | Sched_op_block -> "sched_op(block)"
  | Set_timer_op -> "set_timer_op"
  | Console_io -> "console_io"
  | Vcpu_op_info -> "vcpu_op(info)"
  | Domctl_create_domain -> "domctl(create)"
  | Domctl_destroy_domain -> "domctl(destroy)"
  | Domctl_pause_domain -> "domctl(pause)"
  | Multicall _ -> "multicall"

(* Hypercalls whose naive re-execution corrupts state: they update
   reference counters / validation bits in page-frame descriptors. *)
let rec non_idempotent = function
  | Mmu_update _ | Update_va_mapping | Memory_op_populate | Memory_op_decrease
  | Grant_table_op _ | Domctl_create_domain | Domctl_destroy_domain ->
    true
  | Event_channel_send | Event_channel_bind | Sched_op_yield | Sched_op_block
  | Set_timer_op | Console_io | Vcpu_op_info | Domctl_pause_domain ->
    false
  | Multicall kinds -> List.exists non_idempotent kinds

(* Call-tree nodes of a call: the call itself, plus one per multicall
   component (preorder), so a flat multicall of [n] components has
   [n + 1]. *)
let rec nodes = function
  | Multicall kinds -> 1 + nodes_of kinds
  | Mmu_update _ | Update_va_mapping | Memory_op_populate | Memory_op_decrease
  | Grant_table_op _ | Event_channel_send | Event_channel_bind | Sched_op_yield
  | Sched_op_block | Set_timer_op | Console_io | Vcpu_op_info
  | Domctl_create_domain | Domctl_destroy_domain | Domctl_pause_domain ->
    1

and nodes_of = function [] -> 0 | k :: rest -> nodes k + nodes_of rest

(* The longest multicall batch the guests issue (the workloads' batches
   have three components). *)
let max_multicall_components = 3

(* ABI limit on batched sub-operations per hypercall (PTE writes in an
   mmu_update, map/unmap pairs in a grant_table_op). *)
let max_subops = 8

(* Journal writes the handlers in [Hypervisor] make per call node: an
   mmu_update logs at most 6 (4 to unpin the old table, 2 to validate and
   reference the new one), a grant_table_op 4 per map/unmap pair, every
   other handler fewer than 6. *)
let max_node_journal_writes = max 6 (4 * max_subops)

(* In-flight record of the hypercall a vCPU is executing; recovery uses
   it to set the vCPU up so the hypercall is retried on resume. The
   record carries the call's arguments (a retried hypercall replays the
   *same* arguments, which is what makes non-idempotent re-execution
   dangerous) and its undo journal.

   Each vCPU owns one record for its lifetime ({!pooled}), so issuing a
   hypercall allocates nothing: a new call [reset]s the record, a retry
   reuses it as it stands. Per-node argument state lives in flat slot
   arrays indexed by call-tree node (0 = the call itself, then each
   multicall component in preorder), sized when the vCPU is created from
   the config's bounds; only a call with more nodes grows them. *)
type record = {
  mutable kind : kind;
  mutable retries : int;
  mutable committed : bool;
  mutable enhanced : bool;
      (* [false] models the handlers the retry-failure mitigation did not
         cover ("we have not tested all hypercall handlers... the changes
         do not resolve 100% of the problem", Section IV) *)
  mutable targets : int array;
      (* per node: the frame (or grant slot) argument, fixed on first
         run; -1 = not chosen yet *)
  mutable old_frames : int array;
      (* per node: the page table an mmu_update replaces; -1 = none *)
  mutable sub_completed : int array;
      (* per multicall node: completed components, logged when
         hypercall_progress_tracking is on (fine-granularity retry) *)
  journal : Journal.t; (* shared by every node of the call *)
}

(* An idle record for a vCPU of a domain whose grant table is [grants],
   sized so no call within the bounds ([max_multicall_components],
   [max_subops]) grows it: one node per component of the
   longest multicall plus the batch itself, and the journal writes of
   the longest batch without progress tracking (with it, each component
   commits) -- none at all when logging is off. *)
let pooled (config : Config.t) ~pfn ~grants =
  let components = max_multicall_components in
  let node_writes = max_node_journal_writes in
  let capacity =
    if not config.Config.nonidempotent_logging then 0
    else if config.Config.hypercall_progress_tracking then node_writes
    else node_writes * components
  in
  let slots = components + 1 in
  {
    kind = Multicall [];
    retries = 0;
    committed = false;
    enhanced = true;
    targets = Array.make slots (-1);
    old_frames = Array.make slots (-1);
    sub_completed = Array.make slots 0;
    journal = Journal.create ~pfn ~grants ~capacity;
  }

(* Start a new call on [r]: afterwards [r] reads as a fresh
   [make_record] of [kind] would (with longer slot arrays, if an earlier
   call past the bounds grew them). *)
let reset r ~enhanced ~logging kind =
  let n = nodes kind in
  if n > Array.length r.targets then begin
    r.targets <- Array.make n (-1);
    r.old_frames <- Array.make n (-1);
    r.sub_completed <- Array.make n 0
  end
  else begin
    let slots = Array.length r.targets in
    Array.fill r.targets 0 slots (-1);
    Array.fill r.old_frames 0 slots (-1);
    Array.fill r.sub_completed 0 slots 0
  end;
  r.kind <- kind;
  r.retries <- 0;
  r.committed <- false;
  r.enhanced <- enhanced;
  Journal.commit r.journal;
  Journal.set_enabled r.journal (logging && enhanced)

let make_record ?(enhanced = true) ~logging ~config ~pfn ~grants kind =
  let r = pooled config ~pfn ~grants in
  reset r ~enhanced ~logging kind;
  r
