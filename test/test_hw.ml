(* Tests for the machine model: registers, APIC, IO-APIC, CPUs. *)

open Contract

(* ------------------------- Regs ------------------------------------- *)

let test_regs_get_set () =
  let r = Hw.Regs.create () in
  Hw.Regs.set r Hw.Regs.RAX 0xdeadL;
  Alcotest.check Alcotest.int64 "rax" 0xdeadL (Hw.Regs.get r Hw.Regs.RAX);
  Alcotest.check Alcotest.int64 "rbx untouched" 0L (Hw.Regs.get r Hw.Regs.RBX)

let test_regs_copy_restore () =
  let r = Hw.Regs.create () in
  Hw.Regs.set r Hw.Regs.FS 42L;
  let saved = Hw.Regs.copy r in
  Hw.Regs.set r Hw.Regs.FS 0L;
  Hw.Regs.restore ~from:saved r;
  Alcotest.check Alcotest.int64 "restored" 42L (Hw.Regs.get r Hw.Regs.FS)

(* ------------------------- Apic ------------------------------------- *)

let test_apic_oneshot () =
  let a = Hw.Apic.create 0 in
  checkb "initially disarmed" false (Hw.Apic.timer_armed a);
  Hw.Apic.program_timer a ~deadline:100;
  checkb "armed" true (Hw.Apic.timer_armed a);
  checki "deadline" 100 a.Hw.Apic.timer_deadline;
  Hw.Apic.disarm_timer a;
  checkb "disarmed" false (Hw.Apic.timer_armed a)

let test_apic_interrupt_lifecycle () =
  let a = Hw.Apic.create 0 in
  Hw.Apic.begin_service a 0x31;
  checkb "in service" true (Hw.Apic.in_service a 0x31);
  Hw.Apic.eoi a 0x31;
  checki "idle after EOI" 0 (List.length (in_service_vectors a))

let test_apic_ack_all () =
  let a = Hw.Apic.create 0 in
  Hw.Apic.begin_service a 0x31;
  Hw.Apic.begin_service a 0x32;
  Hw.Apic.ack_all a;
  checki "idle after ack_all" 0 (List.length (in_service_vectors a))

let test_apic_duplicate_vector () =
  let a = Hw.Apic.create 0 in
  Hw.Apic.begin_service a 0x31;
  Hw.Apic.begin_service a 0x31;
  checki "no duplicates" 1 (List.length (in_service_vectors a))

(* ------------------------- Ioapic ----------------------------------- *)

let test_ioapic_write_read () =
  let io = Hw.Ioapic.create ~lines:4 in
  Hw.Ioapic.write io ~line:1 ~vector:0x31 ~dest_cpu:0 ~masked:false;
  let e = io.Hw.Ioapic.entries.(1) in
  checki "vector" 0x31 e.Hw.Ioapic.vector;
  checki "dest" 0 e.Hw.Ioapic.dest_cpu;
  checkb "unmasked" false e.Hw.Ioapic.masked

let test_ioapic_reset_loses_routing () =
  let io = Hw.Ioapic.create ~lines:4 in
  Hw.Ioapic.write io ~line:1 ~vector:0x31 ~dest_cpu:0 ~masked:false;
  checkb "routed" true (Hw.Ioapic.routing_valid io);
  Hw.Ioapic.reset_to_power_on io;
  checkb "routing lost" false (Hw.Ioapic.routing_valid io)

let test_ioapic_log_replay () =
  (* ReHype's normal-operation IO-APIC write logging allows the reboot to
     restore routing. *)
  let io = Hw.Ioapic.create ~lines:4 in
  Hw.Ioapic.set_logging io true;
  Hw.Ioapic.write io ~line:1 ~vector:0x31 ~dest_cpu:0 ~masked:false;
  Hw.Ioapic.write io ~line:2 ~vector:0x32 ~dest_cpu:1 ~masked:false;
  Hw.Ioapic.reset_to_power_on io;
  Hw.Ioapic.replay_log io;
  let e1 = io.Hw.Ioapic.entries.(1) and e2 = io.Hw.Ioapic.entries.(2) in
  checki "line1 restored" 0x31 e1.Hw.Ioapic.vector;
  checki "line2 restored" 0x32 e2.Hw.Ioapic.vector;
  checki "dest restored" 1 e2.Hw.Ioapic.dest_cpu

let test_ioapic_no_log_no_replay () =
  let io = Hw.Ioapic.create ~lines:4 in
  (* logging off: NiLiHype does not need it, but a reboot without it
     cannot restore routing *)
  Hw.Ioapic.write io ~line:1 ~vector:0x31 ~dest_cpu:0 ~masked:false;
  Hw.Ioapic.reset_to_power_on io;
  Hw.Ioapic.replay_log io;
  checkb "nothing restored" false (Hw.Ioapic.routing_valid io)

let test_ioapic_replay_order () =
  (* Later writes must win on replay. *)
  let io = Hw.Ioapic.create ~lines:4 in
  Hw.Ioapic.set_logging io true;
  Hw.Ioapic.write io ~line:1 ~vector:0x10 ~dest_cpu:0 ~masked:false;
  Hw.Ioapic.write io ~line:1 ~vector:0x20 ~dest_cpu:0 ~masked:false;
  Hw.Ioapic.reset_to_power_on io;
  Hw.Ioapic.replay_log io;
  checki "latest write wins" 0x20 io.Hw.Ioapic.entries.(1).Hw.Ioapic.vector

(* ------------------------- Cpu / Machine ---------------------------- *)

let test_cpu_discard_stack () =
  let c = Hw.Cpu.create 0 in
  c.Hw.Cpu.hv_stack_depth <- 3;
  c.Hw.Cpu.in_hypervisor <- true;
  Hw.Cpu.discard_hypervisor_stack c;
  checki "depth reset" 0 c.Hw.Cpu.hv_stack_depth;
  checkb "out of hypervisor" false c.Hw.Cpu.in_hypervisor

let test_cpu_cycle_accounting () =
  let c = Hw.Cpu.create 0 in
  Hw.Cpu.charge_cycles c 100;
  Hw.Cpu.charge_cycles c 50;
  checki "cycles accumulate" 150 c.Hw.Cpu.unhalted_cycles

let test_machine_geometry () =
  let m = Hw.Machine.create () in
  checki "8 CPUs" 8 (Hw.Machine.num_cpus m);
  checki "2Mi frames for 8GB" 2_097_152 (Hw.Machine.num_frames m)

let test_machine_campaign_geometry () =
  let m = Hw.Machine.create ~config:Hw.Machine.campaign_config () in
  checki "64Ki frames for 256MB" 65_536 (Hw.Machine.num_frames m)

let test_machine_reset_for_reboot () =
  let m = Hw.Machine.create () in
  Hw.Ioapic.write m.Hw.Machine.ioapic ~line:1 ~vector:0x31 ~dest_cpu:0 ~masked:false;
  (Hw.Machine.cpu m 0).Hw.Cpu.apic |> fun a -> Hw.Apic.program_timer a ~deadline:10;
  Hw.Machine.reset_for_reboot m;
  checkb "ioapic routing lost" false (Hw.Ioapic.routing_valid m.Hw.Machine.ioapic);
  checkb "apic disarmed" false
    (Hw.Apic.timer_armed (Hw.Machine.cpu m 0).Hw.Cpu.apic);
  Hw.Machine.iter_cpus m (fun c ->
      checkb "halted" true (c.Hw.Cpu.state = Hw.Cpu.Halted))

let () =
  Alcotest.run "hw"
    [
      ( "regs",
        [
          Alcotest.test_case "get/set" `Quick test_regs_get_set;
          Alcotest.test_case "copy/restore" `Quick test_regs_copy_restore;
        ] );
      ( "apic",
        [
          Alcotest.test_case "one-shot timer" `Quick test_apic_oneshot;
          Alcotest.test_case "interrupt lifecycle" `Quick test_apic_interrupt_lifecycle;
          Alcotest.test_case "ack all" `Quick test_apic_ack_all;
          Alcotest.test_case "no duplicate vectors" `Quick test_apic_duplicate_vector;
        ] );
      ( "ioapic",
        [
          Alcotest.test_case "write/read" `Quick test_ioapic_write_read;
          Alcotest.test_case "reset loses routing" `Quick test_ioapic_reset_loses_routing;
          Alcotest.test_case "log replay" `Quick test_ioapic_log_replay;
          Alcotest.test_case "no log, no replay" `Quick test_ioapic_no_log_no_replay;
          Alcotest.test_case "replay order" `Quick test_ioapic_replay_order;
        ] );
      ( "cpu_machine",
        [
          Alcotest.test_case "discard stack" `Quick test_cpu_discard_stack;
          Alcotest.test_case "cycle accounting" `Quick test_cpu_cycle_accounting;
          Alcotest.test_case "default geometry" `Quick test_machine_geometry;
          Alcotest.test_case "campaign geometry" `Quick test_machine_campaign_geometry;
          Alcotest.test_case "reset for reboot" `Quick test_machine_reset_for_reboot;
        ] );
    ]
