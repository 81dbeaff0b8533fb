(** The physical machine: CPUs, IO-APIC, physical memory geometry and the
    TSC. Mirrors the paper's testbed: 8-core Nehalem, 8 GB RAM. *)

type config = {
  num_cpus : int;
  mem_bytes : int;
  ioapic_lines : int;
}

let page_size = 4096

let default_config =
  { num_cpus = 8; mem_bytes = 8 * 1024 * 1024 * 1024; ioapic_lines = 24 }

(* Campaigns use a scaled-down memory so that per-run page-frame scans stay
   cheap; recovery-latency accounting is analytic in the frame count, so the
   reported latencies still correspond to the configured geometry. *)
let campaign_config =
  { default_config with mem_bytes = 256 * 1024 * 1024 }

type t = {
  config : config;
  cpus : Cpu.t array;
  ioapic : Ioapic.t;
  clock : Sim.Clock.t;
  mutable tsc_calibrated : bool;
}

let create ?(config = default_config) clock =
  {
    config;
    cpus = Array.init config.num_cpus Cpu.create;
    ioapic = Ioapic.create ~lines:config.ioapic_lines;
    clock;
    tsc_calibrated = true;
  }

let num_cpus t = t.config.num_cpus
let num_frames t = t.config.mem_bytes / page_size
let cpu t i = t.cpus.(i)
let read_tsc t = Sim.Clock.now t.clock

let iter_cpus t f = Array.iter f t.cpus

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                  *)
(* ------------------------------------------------------------------ *)

(* Golden image of all mutable hardware state, taken once per snapshot
   and written back in place on restore. Hardware state is small and
   constant-size (a few hundred words for 8 CPUs), so unlike the page
   frame table it is captured whole rather than copy-on-write: the
   capture itself is O(cpus), not O(memory). APIC vector lists and the
   IO-APIC write log have immutable spines, so capturing the list heads
   by value is enough. *)
type cpu_image = {
  im_regs : Regs.t;
  im_timer_deadline : Sim.Time.ns;
  im_pending : int list;
  im_in_service : int list;
  im_ipi_pending : bool;
  im_nmi_pending : bool;
  im_irq_enabled : bool;
  im_state : Cpu.exec_state;
  im_in_hypervisor : bool;
  im_hv_stack_depth : int;
  im_unhalted_cycles : int;
  im_fsgs_saved : (int64 * int64) option;
}

type image = {
  im_cpus : cpu_image array;
  im_ioapic : (int * int * bool) array; (* (vector, dest_cpu, masked) *)
  im_ioapic_log : (int * int * int * bool) list;
  im_ioapic_logging : bool;
  im_tsc_calibrated : bool;
}

let snapshot t =
  {
    im_cpus =
      Array.map
        (fun (c : Cpu.t) ->
          let a = c.Cpu.apic in
          {
            im_regs = Regs.copy c.Cpu.regs;
            im_timer_deadline = a.Apic.timer_deadline;
            im_pending = a.Apic.pending;
            im_in_service = a.Apic.in_service;
            im_ipi_pending = a.Apic.ipi_pending;
            im_nmi_pending = a.Apic.nmi_pending;
            im_irq_enabled = c.Cpu.irq_enabled;
            im_state = c.Cpu.state;
            im_in_hypervisor = c.Cpu.in_hypervisor;
            im_hv_stack_depth = c.Cpu.hv_stack_depth;
            im_unhalted_cycles = c.Cpu.unhalted_cycles;
            im_fsgs_saved = c.Cpu.fsgs_saved;
          })
        t.cpus;
    im_ioapic =
      Array.map
        (fun (e : Ioapic.entry) -> (e.Ioapic.vector, e.Ioapic.dest_cpu, e.Ioapic.masked))
        t.ioapic.Ioapic.entries;
    im_ioapic_log = t.ioapic.Ioapic.write_log;
    im_ioapic_logging = t.ioapic.Ioapic.logging;
    im_tsc_calibrated = t.tsc_calibrated;
  }

let restore t (im : image) =
  Array.iteri
    (fun i (c : Cpu.t) ->
      let s = im.im_cpus.(i) in
      let a = c.Cpu.apic in
      Regs.restore ~from:s.im_regs c.Cpu.regs;
      a.Apic.timer_deadline <- s.im_timer_deadline;
      a.Apic.pending <- s.im_pending;
      a.Apic.in_service <- s.im_in_service;
      a.Apic.ipi_pending <- s.im_ipi_pending;
      a.Apic.nmi_pending <- s.im_nmi_pending;
      c.Cpu.irq_enabled <- s.im_irq_enabled;
      c.Cpu.state <- s.im_state;
      c.Cpu.in_hypervisor <- s.im_in_hypervisor;
      c.Cpu.hv_stack_depth <- s.im_hv_stack_depth;
      c.Cpu.unhalted_cycles <- s.im_unhalted_cycles;
      c.Cpu.fsgs_saved <- s.im_fsgs_saved)
    t.cpus;
  Array.iteri
    (fun i (e : Ioapic.entry) ->
      let vector, dest_cpu, masked = im.im_ioapic.(i) in
      e.Ioapic.vector <- vector;
      e.Ioapic.dest_cpu <- dest_cpu;
      e.Ioapic.masked <- masked)
    t.ioapic.Ioapic.entries;
  t.ioapic.Ioapic.write_log <- im.im_ioapic_log;
  t.ioapic.Ioapic.logging <- im.im_ioapic_logging;
  t.tsc_calibrated <- im.im_tsc_calibrated

(* ReHype reboot model: parks the hardware back at power-on-like state. *)
let reset_for_reboot t =
  Array.iter
    (fun (c : Cpu.t) ->
      c.Cpu.state <- Cpu.Halted;
      c.Cpu.irq_enabled <- false;
      Apic.ack_all c.Cpu.apic;
      Apic.disarm_timer c.Cpu.apic)
    t.cpus;
  Ioapic.reset_to_power_on t.ioapic;
  t.tsc_calibrated <- false
