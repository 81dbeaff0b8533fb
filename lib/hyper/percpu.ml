(** Per-CPU hypervisor data.

    [local_irq_count] records interrupt-nesting depth and is checked by
    assertions ("is this CPU currently servicing an interrupt?"); because
    microreset discards all execution threads, these counters are left
    non-zero and must be cleared by the "Clear IRQ count" enhancement --
    the very first enhancement in Table I, without which recovery never
    succeeds. *)

type t = {
  cpu : int;
  mutable local_irq_count : int;
  mutable in_hypercall_depth : int;
  mutable curr_domid : int; (* authoritative: domain running on this CPU *)
  mutable curr_vcpuid : int;
  mutable fsgs_saved : bool; (* [saved_fs]/[saved_gs] hold the guest's *)
  mutable saved_fs : int64;
  mutable saved_gs : int64;
  heap_lock : Spinlock.t; (* per-CPU scheduler/timer lock, heap-resident *)
}

let create heap cpu =
  let lock =
    Spinlock.create ~name:(Printf.sprintf "percpu%d_sched" cpu) ~location:Spinlock.Heap
  in
  (* The per-CPU area (and its locks) live in the Xen heap, so the
     heap-lock-release mechanism covers them. *)
  ignore (Heap.alloc heap ~size:4096 (Heap.Lock lock));
  ignore (Heap.alloc heap ~size:4096 (Heap.Percpu_area cpu));
  {
    cpu;
    local_irq_count = 0;
    in_hypercall_depth = 0;
    curr_domid = -1;
    curr_vcpuid = -1;
    fsgs_saved = false;
    saved_fs = 0L;
    saved_gs = 0L;
    heap_lock = lock;
  }

let irq_enter t = t.local_irq_count <- t.local_irq_count + 1

let irq_exit t =
  if t.local_irq_count <= 0 then
    Crash.assert_failed "cpu%d: irq_exit with count %d" t.cpu t.local_irq_count;
  t.local_irq_count <- t.local_irq_count - 1

let assert_not_in_irq t =
  if t.local_irq_count <> 0 then
    Crash.assert_failed "cpu%d: scheduling while local_irq_count = %d" t.cpu
      t.local_irq_count

let clear_irq_count t = t.local_irq_count <- 0

(* The Save-FS/GS entry path: copy the guest's segment bases into the
   per-CPU area. Stores the register file's own boxed values, so saving
   allocates nothing. *)
let save_fsgs t regs =
  t.fsgs_saved <- true;
  t.saved_fs <- Hw.Regs.get regs Hw.Regs.FS;
  t.saved_gs <- Hw.Regs.get regs Hw.Regs.GS

let drop_fsgs t = t.fsgs_saved <- false

(* Snapshot storage for one CPU's area, allocated once and overwritten
   in place by [save]. The segment bases are the area's own boxed
   values, so neither direction allocates. *)
type image = {
  ints : int array; (* irq count, hypercall depth, current domid and vcpuid,
                       FS/GS saved, then the heap lock's two ints *)
  mutable fs : int64;
  mutable gs : int64;
}

let image () = { ints = Array.make 7 0; fs = 0L; gs = 0L }

let save t im =
  let a = im.ints in
  a.(0) <- t.local_irq_count;
  a.(1) <- t.in_hypercall_depth;
  a.(2) <- t.curr_domid;
  a.(3) <- t.curr_vcpuid;
  a.(4) <- Bool.to_int t.fsgs_saved;
  Spinlock.save t.heap_lock a 5;
  im.fs <- t.saved_fs;
  im.gs <- t.saved_gs

let load t im =
  let a = im.ints in
  t.local_irq_count <- a.(0);
  t.in_hypercall_depth <- a.(1);
  t.curr_domid <- a.(2);
  t.curr_vcpuid <- a.(3);
  t.fsgs_saved <- a.(4) <> 0;
  Spinlock.load t.heap_lock a 5;
  t.saved_fs <- im.fs;
  t.saved_gs <- im.gs
