(** Normal-operation feature flags.

    These are the mechanisms that must already be active *before* a fault
    for recovery to use them (Section IV of the paper). They cost cycles
    during normal operation (Figure 3) and are what distinguishes the
    stock hypervisor from the NiLiHype / ReHype builds. *)

(* Machine geometry as the latency model sees it: the frame count and
   CPU count every size-proportional recovery cost derives from. The
   paper's reference host is 8 GB / 8 CPUs (Tables II and III).

   Simulated machines are usually much smaller than the machine they
   model (campaign tables hold 64 Ki descriptors, not 2 Mi), and the
   recovery-latency accounting is analytic in the counts -- so a config
   can pin an explicit geometry to report latencies for the *modelled*
   host while the simulation walks the scaled-down tables. *)
type geometry = { frames : int; cpus : int }

(* 8 GB / 4 KB pages = 2_097_152 frames; 8 CPUs. *)
let reference_geometry = { frames = 2_097_152; cpus = 8 }

type t = {
  nonidempotent_logging : bool;
      (* undo-journal critical variable changes in non-idempotent
         hypercalls; the dominant source of normal-operation overhead *)
  code_reordering : bool;
      (* move critical-variable updates to the end of hypercall handlers;
         shrinks the retry vulnerability window at zero cycle cost *)
  save_fs_gs : bool;
      (* save FS/GS on hypervisor entry (x86-64 port fix) *)
  hypercall_progress_tracking : bool;
      (* log completion of each hypercall within a multicall batch so a
         retry can skip completed components *)
  ioapic_write_logging : bool;
      (* ReHype only: log IO-APIC redirection writes so the reboot can
         restore routing *)
  bootline_logging : bool;
      (* ReHype only: log boot command-line options for the re-boot *)
  watchdog_period_ms : int;
      (* NMI-watchdog tick period; a hang is detected after
         [watchdog_hang_periods] missed ticks, so this sets the hang
         detection latency (endurance runs sweep it) *)
  geometry : geometry option;
      (* the geometry all scan costs are charged at; [None] derives it
         from the simulated machine itself (honest for that machine),
         [Some g] reports latencies for a modelled host of [g] while the
         simulation runs on its own (usually smaller) tables *)
  incremental_scan : bool;
      (* drive the recovery-time consistency passes off the copy-on-write
         dirty sets (O(damaged state)) instead of walking the whole
         structures (O(machine)); requires the dirty tracking to be
         intact at recovery time, else recovery falls back to the full
         scan *)
}

(* The watchdog declares a hang after this many consecutive missed
   ticks (the paper's "roughly three 100 ms periods"). *)
let watchdog_hang_periods = 3

let hang_detection_latency t = Sim.Time.ms (watchdog_hang_periods * t.watchdog_period_ms)

let stock =
  {
    nonidempotent_logging = false;
    code_reordering = false;
    save_fs_gs = false;
    hypercall_progress_tracking = false;
    ioapic_write_logging = false;
    bootline_logging = false;
    watchdog_period_ms = 100;
    geometry = None;
    incremental_scan = false;
  }

let nilihype =
  {
    nonidempotent_logging = true;
    code_reordering = true;
    save_fs_gs = true;
    hypercall_progress_tracking = true;
    ioapic_write_logging = false;
    bootline_logging = false;
    watchdog_period_ms = 100;
    geometry = None;
    incremental_scan = false;
  }

(* NiLiHype* in Figure 3: the logging turned off. *)
let nilihype_no_logging = { nilihype with nonidempotent_logging = false }

(* NiLiHype with the incremental (dirty-set-driven) recovery passes:
   identical normal-operation cost -- the copy-on-write dirty tracking
   already exists for snapshots -- but recovery walks only state written
   since the last golden refresh, falling back to the full scan when the
   tracking cannot be trusted. *)
let nilihype_incremental = { nilihype with incremental_scan = true }

let rehype = { nilihype with ioapic_write_logging = true; bootline_logging = true }
