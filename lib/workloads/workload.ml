(** The three synthetic benchmarks of Section VI-A, expressed as
    distributions over the hypervisor requests they generate.

    - BlkBench exercises the block-device interface: it creates, copies,
      reads, writes and removes 1 MB files with guest caching off, so
      every operation reaches the hypervisor as grant-table and
      event-channel traffic plus backend block interrupts.
    - UnixBench stresses hypercall handling, especially virtual memory
      management (mmu_update, update_va_mapping, memory_op, multicall
      batches) plus process activity (forwarded system calls).
    - NetBench is a user-level UDP ping handled every 1 ms: event
      channels, small grant maps, network backend interrupts. *)

type kind = Blkbench | Unixbench | Netbench

let kind_name = function
  | Blkbench -> "BlkBench"
  | Unixbench -> "UnixBench"
  | Netbench -> "NetBench"

(* Weighted menu of the hypercalls a guest running this benchmark
   issues. Weights are request-frequency calibrated: they determine
   which hypervisor path a random fault lands in, which in turn drives
   the recovery-rate profile. *)
let hypercall_menu = function
  | Unixbench ->
    [
      (0.27, `Mmu);
      (0.18, `Va);
      (0.06, `Mem_pop);
      (0.06, `Mem_dec);
      (0.09, `Multicall);
      (0.12, `Block);
      (0.06, `Yield);
      (0.05, `Set_timer);
      (0.02, `Console);
      (0.03, `Vcpu_info);
      (0.06, `Evt_send);
    ]
  | Blkbench ->
    [
      (0.48, `Grant);
      (0.18, `Evt_send);
      (0.06, `Mmu);
      (0.06, `Va);
      (0.05, `Mem_pop);
      (0.05, `Mem_dec);
      (0.06, `Block);
      (0.03, `Set_timer);
      (0.03, `Multicall);
    ]
  | Netbench ->
    [
      (0.34, `Evt_send);
      (0.28, `Grant);
      (0.10, `Block);
      (0.12, `Set_timer);
      (0.06, `Va);
      (0.05, `Mmu);
      (0.05, `Vcpu_info);
    ]

(* Relative share of forwarded system calls vs hypercalls in the guest's
   hypervisor entries (x86-64: system calls trap into the hypervisor). *)
let syscall_share = function
  | Unixbench -> 0.30
  | Blkbench -> 0.18
  | Netbench -> 0.12

(* Device-interrupt pressure this benchmark puts on the PrivVM backends:
   (block, net) relative weights. *)
let device_share = function
  | Blkbench -> (0.9, 0.1)
  | Unixbench -> (0.2, 0.1)
  | Netbench -> (0.1, 0.9)

(* Every hypercall kind a menu can yield, built once. Slots 0-3 are
   [Mmu_update 1-4], 4-6 [Grant_table_op 1-3], 7-8 the two [Multicall]
   shapes and 9-17 the constant kinds. *)
let kinds : Hyper.Hypercalls.kind array =
  let open Hyper.Hypercalls in
  let mmu = Array.init 4 (fun i -> Mmu_update (i + 1)) in
  Array.concat
    [
      mmu;
      Array.init 3 (fun i -> Grant_table_op (i + 1));
      Array.init 2 (fun i -> Multicall [ mmu.(i); Update_va_mapping; mmu.(0) ]);
      [|
        Update_va_mapping; Memory_op_populate; Memory_op_decrease;
        Event_channel_send; Sched_op_block; Sched_op_yield; Set_timer_op;
        Console_io; Vcpu_op_info;
      |];
    ]

(* A menu tag's first slot in [kinds] and how many slots follow it: a
   tag with more than one draws its offset with [Rng.int]. *)
let slot_of = function
  | `Mmu -> (0, 4)
  | `Grant -> (4, 3)
  | `Multicall -> (7, 2)
  | `Va -> (9, 1)
  | `Mem_pop -> (10, 1)
  | `Mem_dec -> (11, 1)
  | `Evt_send -> (12, 1)
  | `Block -> (13, 1)
  | `Yield -> (14, 1)
  | `Set_timer -> (15, 1)
  | `Console -> (16, 1)
  | `Vcpu_info -> (17, 1)

(* Sampling-time form of a menu, built once per kind: the cumulative
   weights, over which [choose_index_cum] draws exactly as
   [choose_weighted] over the list would (same single float draw, same
   boundaries), and each tag's [slot_of] pair, in list order. *)
let sampler kind =
  let menu = hypercall_menu kind in
  (Sim.Rng.cumulative menu, Array.of_list (List.map (fun (_, tag) -> slot_of tag) menu))

let sampler_unixbench = sampler Unixbench
let sampler_blkbench = sampler Blkbench
let sampler_netbench = sampler Netbench

(* A benchmark bound to a domain, with every activity it can sample
   built at creation: activities are immutable, so a draw returns one of
   these instead of allocating its own. *)
type t = {
  kind : kind;
  domid : int;
  vcpus : int; (* vCPUs the guest spreads its work across *)
  cum : float array; (* the menu's cumulative weights *)
  slots : (int * int) array; (* the menu's tags as [slot_of] pairs *)
  syscalls : Hyper.Hypervisor.activity array; (* per vid *)
  hypercalls : Hyper.Hypervisor.activity array; (* vid * |kinds| + slot *)
}

let create ?(vcpus = 1) kind ~domid =
  let vcpus = max 1 vcpus and nk = Array.length kinds in
  let cum, slots =
    match kind with
    | Unixbench -> sampler_unixbench
    | Blkbench -> sampler_blkbench
    | Netbench -> sampler_netbench
  in
  {
    kind;
    domid;
    vcpus;
    cum;
    slots;
    syscalls =
      Array.init vcpus (fun vid -> Hyper.Hypervisor.Syscall_forward { domid; vid });
    hypercalls =
      Array.init (vcpus * nk) (fun i ->
          Hyper.Hypervisor.Hypercall { domid; vid = i / nk; kind = kinds.(i mod nk) });
  }

(* Sample one hypervisor entry caused by this benchmark's guest: the
   vid, the syscall coin, the menu pick and the pick's own offset, in
   that order. *)
let sample_activity rng t : Hyper.Hypervisor.activity =
  let vid = if t.vcpus = 1 then 0 else Sim.Rng.int rng t.vcpus in
  if Sim.Rng.float_below rng 1.0 (syscall_share t.kind) then t.syscalls.(vid)
  else
    let first, n = t.slots.(Sim.Rng.choose_index_cum rng t.cum) in
    let slot = if n = 1 then first else first + Sim.Rng.int rng n in
    t.hypercalls.((vid * Array.length kinds) + slot)
