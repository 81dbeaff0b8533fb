(** The physical machine: CPUs, IO-APIC and physical memory geometry.
    Mirrors the paper's testbed: 8-core Nehalem, 8 GB RAM. *)

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
}

let create ?(config = default_config) () =
  {
    config;
    cpus = Array.init config.num_cpus Cpu.create;
    ioapic = Ioapic.create ~lines:config.ioapic_lines;
  }

let num_cpus t = t.config.num_cpus
let num_frames t = t.config.mem_bytes / page_size
let cpu t i = t.cpus.(i)

let iter_cpus t f = Array.iter f t.cpus

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                  *)
(* ------------------------------------------------------------------ *)

(* Golden image of all mutable hardware state. The storage is allocated
   once per image kind ([image]) and overwritten in place by [capture],
   so taking an image allocates nothing; [restore] writes it back in
   place. Hardware state is small and constant-size (a few hundred words
   for 8 CPUs), so unlike the page frame table it is captured whole
   rather than copy-on-write: O(cpus), not O(memory). Each APIC's in-
   service register is copied into the image's own words; the saved
   FS/GS pair and the IO-APIC write log are immutable values,
   so capturing them by reference is enough. *)
type cpu_image = {
  im_regs : Regs.t;
  mutable im_timer_deadline : Sim.Time.ns;
  im_isr : int array; (* [Apic.isr_words] *)
  mutable im_irq_enabled : bool;
  mutable im_state : Cpu.exec_state;
  mutable im_in_hypervisor : bool;
  mutable im_hv_stack_depth : int;
  mutable im_unhalted_cycles : int;
  mutable im_fsgs_saved : (int64 * int64) option;
}

type image = {
  im_cpus : cpu_image array;
  im_ioapic : int array; (* per line: vector, dest_cpu, masked (0/1) *)
  mutable im_ioapic_log : (int * int * int * bool) list;
  mutable im_ioapic_logging : bool;
}

let capture t im =
  for i = 0 to Array.length t.cpus - 1 do
    let c = t.cpus.(i) and s = im.im_cpus.(i) in
    let a = c.Cpu.apic in
    Regs.restore ~from:c.Cpu.regs s.im_regs;
    s.im_timer_deadline <- a.Apic.timer_deadline;
    Apic.save_isr a s.im_isr;
    s.im_irq_enabled <- c.Cpu.irq_enabled;
    s.im_state <- c.Cpu.state;
    s.im_in_hypervisor <- c.Cpu.in_hypervisor;
    s.im_hv_stack_depth <- c.Cpu.hv_stack_depth;
    s.im_unhalted_cycles <- c.Cpu.unhalted_cycles;
    s.im_fsgs_saved <- c.Cpu.fsgs_saved
  done;
  let entries = t.ioapic.Ioapic.entries in
  for i = 0 to Array.length entries - 1 do
    let e = entries.(i) in
    im.im_ioapic.(3 * i) <- e.Ioapic.vector;
    im.im_ioapic.((3 * i) + 1) <- e.Ioapic.dest_cpu;
    im.im_ioapic.((3 * i) + 2) <- Bool.to_int e.Ioapic.masked
  done;
  im.im_ioapic_log <- t.ioapic.Ioapic.write_log;
  im.im_ioapic_logging <- t.ioapic.Ioapic.logging

(* Storage for one image of [t], holding [t]'s current state. *)
let image t =
  let im =
    {
      im_cpus =
        Array.map
          (fun (c : Cpu.t) ->
            {
              im_regs = Regs.copy c.Cpu.regs;
              im_timer_deadline = Apic.disarmed;
              im_isr = Array.make Apic.isr_words 0;
              im_irq_enabled = true;
              im_state = Cpu.Running;
              im_in_hypervisor = false;
              im_hv_stack_depth = 0;
              im_unhalted_cycles = 0;
              im_fsgs_saved = None;
            })
          t.cpus;
      im_ioapic = Array.make (3 * Ioapic.lines t.ioapic) 0;
      im_ioapic_log = [];
      im_ioapic_logging = false;
    }
  in
  capture t im;
  im

let restore t im =
  for i = 0 to Array.length t.cpus - 1 do
    let c = t.cpus.(i) and s = im.im_cpus.(i) in
    let a = c.Cpu.apic in
    Regs.restore ~from:s.im_regs c.Cpu.regs;
    a.Apic.timer_deadline <- s.im_timer_deadline;
    Apic.load_isr a s.im_isr;
    c.Cpu.irq_enabled <- s.im_irq_enabled;
    c.Cpu.state <- s.im_state;
    c.Cpu.in_hypervisor <- s.im_in_hypervisor;
    c.Cpu.hv_stack_depth <- s.im_hv_stack_depth;
    c.Cpu.unhalted_cycles <- s.im_unhalted_cycles;
    c.Cpu.fsgs_saved <- s.im_fsgs_saved
  done;
  let entries = t.ioapic.Ioapic.entries in
  for i = 0 to Array.length entries - 1 do
    let e = entries.(i) in
    e.Ioapic.vector <- im.im_ioapic.(3 * i);
    e.Ioapic.dest_cpu <- im.im_ioapic.((3 * i) + 1);
    e.Ioapic.masked <- im.im_ioapic.((3 * i) + 2) <> 0
  done;
  t.ioapic.Ioapic.write_log <- im.im_ioapic_log;
  t.ioapic.Ioapic.logging <- im.im_ioapic_logging

(* ReHype reboot model: parks the hardware back at power-on-like state. *)
let reset_for_reboot t =
  Array.iter
    (fun (c : Cpu.t) ->
      c.Cpu.state <- Cpu.Halted;
      c.Cpu.irq_enabled <- false;
      Apic.ack_all c.Cpu.apic;
      Apic.disarm_timer c.Cpu.apic)
    t.cpus;
  Ioapic.reset_to_power_on t.ioapic
