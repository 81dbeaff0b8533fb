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

(* Sampling-time form of the menus: cumulative weights plus the tags in
   list order, precomputed once per kind. [choose_index_cum] over these
   draws exactly as [choose_weighted] over the lists above would (same
   single float draw, same boundaries), without traversing a boxed-float
   list per request. *)
let menu_cum_unixbench = Sim.Rng.cumulative (hypercall_menu Unixbench)
let menu_cum_blkbench = Sim.Rng.cumulative (hypercall_menu Blkbench)
let menu_cum_netbench = Sim.Rng.cumulative (hypercall_menu Netbench)
let menu_tags_unixbench = Array.of_list (List.map snd (hypercall_menu Unixbench))
let menu_tags_blkbench = Array.of_list (List.map snd (hypercall_menu Blkbench))
let menu_tags_netbench = Array.of_list (List.map snd (hypercall_menu Netbench))

let menu_cum = function
  | Unixbench -> menu_cum_unixbench
  | Blkbench -> menu_cum_blkbench
  | Netbench -> menu_cum_netbench

let menu_tags = function
  | Unixbench -> menu_tags_unixbench
  | Blkbench -> menu_tags_blkbench
  | Netbench -> menu_tags_netbench

let sample_hypercall rng kind : Hyper.Hypercalls.kind =
  match (menu_tags kind).(Sim.Rng.choose_index_cum rng (menu_cum kind)) with
  | `Mmu -> Hyper.Hypercalls.Mmu_update (1 + Sim.Rng.int rng 4)
  | `Va -> Hyper.Hypercalls.Update_va_mapping
  | `Mem_pop -> Hyper.Hypercalls.Memory_op_populate
  | `Mem_dec -> Hyper.Hypercalls.Memory_op_decrease
  | `Grant -> Hyper.Hypercalls.Grant_table_op (1 + Sim.Rng.int rng 3)
  | `Evt_send -> Hyper.Hypercalls.Event_channel_send
  | `Block -> Hyper.Hypercalls.Sched_op_block
  | `Yield -> Hyper.Hypercalls.Sched_op_yield
  | `Set_timer -> Hyper.Hypercalls.Set_timer_op
  | `Console -> Hyper.Hypercalls.Console_io
  | `Vcpu_info -> Hyper.Hypercalls.Vcpu_op_info
  | `Multicall ->
    Hyper.Hypercalls.Multicall
      [
        Hyper.Hypercalls.Mmu_update (1 + Sim.Rng.int rng 2);
        Hyper.Hypercalls.Update_va_mapping;
        Hyper.Hypercalls.Mmu_update 1;
      ]

(* A benchmark bound to a domain. *)
type t = {
  kind : kind;
  domid : int;
  vcpus : int; (* vCPUs the guest spreads its work across *)
  mutable activities_run : int;
  mutable verified_ok : bool;
}

let create ?(vcpus = 1) kind ~domid =
  { kind; domid; vcpus = max 1 vcpus; activities_run = 0; verified_ok = true }

(* Sample one hypervisor entry caused by this benchmark's guest. *)
let sample_activity rng t : Hyper.Hypervisor.activity =
  let vid = if t.vcpus = 1 then 0 else Sim.Rng.int rng t.vcpus in
  if Sim.Rng.float_below rng 1.0 (syscall_share t.kind) then
    Hyper.Hypervisor.Syscall_forward { domid = t.domid; vid }
  else
    Hyper.Hypervisor.Hypercall
      { domid = t.domid; vid; kind = sample_hypercall rng t.kind }
