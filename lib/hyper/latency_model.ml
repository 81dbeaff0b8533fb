(** Recovery-latency cost model.

    The paper measures recovery latency on bare hardware with 8 GB RAM
    and 8 CPUs (Tables II and III). Each recovery step charges simulated
    time; steps whose cost scales with machine size (page-frame scans,
    heap reconstruction, per-CPU bring-up) are expressed per-unit so that
    the model extrapolates, as Section VII-B discusses ("the latency ...
    is proportional to the size of the host memory"). Constants are
    calibrated to reproduce the paper's breakdowns at the reference
    geometry (2 Mi frames, 8 CPUs). *)

open Sim

(* Reference geometry: 8 GB / 4 KB pages = 2_097_152 frames; 8 CPUs.
   Centralized in {!Config.reference_geometry}; kept here as an alias
   because every scan cost below is calibrated against it. *)
let reference_frames = Config.reference_geometry.Config.frames

(* --- Steps common to both mechanisms ------------------------------- *)

(* 21 ms / 2 Mi frames. *)
let pfn_scan_ns_per_frame = 10

let pfn_scan ~frames = frames * pfn_scan_ns_per_frame

(* --- Incremental (dirty-set-proportional) passes ------------------- *)

(* Walking the dirty set instead of the whole table: worse locality
   (pointer chasing instead of a sequential array sweep), so a slightly
   higher per-descriptor cost, plus a fixed cost to fetch and validate
   the tracking structures. Cost is proportional to state written since
   the last golden refresh -- O(damaged state + workload drift), not
   O(machine). *)
let pfn_scan_dirty_base = Time.us 5
let pfn_scan_dirty_ns_per_frame = 12

let pfn_scan_dirty ~dirty = pfn_scan_dirty_base + (dirty * pfn_scan_dirty_ns_per_frame)

(* Heap / timer audit passes driven off their dirty sets. The full
   variants are folded into [microreset_enhancements] (they are
   O(cpus + domains + timers), part of the 700 us "Others" budget, not
   of machine size); the dirty variants replace that flat budget when
   incremental recovery is on. *)
let heap_audit_dirty ~dirty = dirty * 40
let timer_audit_dirty ~dirty = dirty * 80

(* --- NiLiHype (Table III) ------------------------------------------ *)

(* "Others: 1ms" -- interrupting the CPUs, discarding stacks, and the
   state-consistency enhancements. *)
let microreset_interrupt_cpus ~cpus = Time.us 20 * cpus
let microreset_enhancements = Time.us 700
let microreset_misc = Time.us 140

(* The enhancement pass under incremental recovery: the lock-release /
   scheduler / retry fixes still visit every lock site, vCPU and
   recurring timer (state that scales with geometry, not memory), but
   the audit walks over heap objects and timer events touch only the
   dirty sets. The base covers the geometry-proportional part. *)
let microreset_enhancements_dirty ~heap_dirty ~timer_dirty =
  Time.us 90 + heap_audit_dirty ~dirty:heap_dirty
  + timer_audit_dirty ~dirty:timer_dirty

(* --- Sharded recovery (per-component/per-domain shards) ------------ *)

(* The stop-the-world window every domain pays: interrupt the CPUs,
   discard execution threads and repair the global singletons (static
   locks, scheduler metadata, IRQ counts, recurring timers). Shorter
   than the serial enhancement pass because the per-domain work
   (hypercall/syscall retry set-up, FS/GS restoration, grant/evtchn
   audit) moves into that domain's own shard. *)
let shard_global_quiesce ~cpus = microreset_interrupt_cpus ~cpus + Time.us 220

(* Per-domain shard: retry/FS-GS/grant bookkeeping for one domain, plus
   its share of the consistency scan (charged separately, by dirty count
   or owned-frame count). *)
let shard_domain_base = Time.us 12

(* --- ReHype (Table II) --------------------------------------------- *)

let reboot_early_boot_cpu = Time.ms 12
let reboot_cpu_online_per_cpu = Time.us 21_430 (* 150ms / 7 secondary CPUs *)
let reboot_apic_ioapic_setup = Time.ms 200
let reboot_tsc_calibrate = Time.ms 50

let reboot_record_old_heap ~frames = frames * 10 (* 21ms @ 2Mi frames *)
let reboot_reinit_unpreserved_pfn ~frames = frames * 6 (* ~13ms *)
let reboot_recreate_heap ~frames = frames * 100 (* ~211ms *)

let reboot_smp_init = Time.ms 20
let reboot_relocate_modules = Time.ms 2
let reboot_others = Time.ms 13

(* A latency breakdown: ordered (step, duration) pairs. *)
type breakdown = { steps : (string * Time.ns) list }

let total b = List.fold_left (fun acc (_, d) -> acc + d) 0 b.steps

let pp fmt b =
  List.iter
    (fun (name, d) -> Format.fprintf fmt "  %-55s %a@." name Time.pp_ms d)
    b.steps;
  Format.fprintf fmt "  %-55s %a@." "Total" Time.pp_ms (total b)
