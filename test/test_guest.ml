(* Tests for the guest side of the experiments: the NetBench UDP echo
   stack, and the guest-centric verdict the campaigns read (whether an
   AppVM is affected, and whether the PrivVM can still create a VM). *)

open Contract

(* ------------------------- Netstack --------------------------------- *)

let test_netstack_healthy_traffic () =
  let n = Guest.Netstack.create () in
  for i = 1 to 5000 do
    Guest.Netstack.sender_tick n ~now:(i * Sim.Time.ms 1) ~delivered:true
  done;
  checkb "no failure" false (Guest.Netstack.failed n);
  checkb "zero loss" true (Guest.Netstack.loss_rate n = 0.0)

let test_netstack_nilihype_gap_tolerated () =
  (* A 22 ms pause loses ~22 of 1000 pings in its window: 2.2% < 10%. *)
  let n = Guest.Netstack.create () in
  Guest.Netstack.interruption n ~now:(Sim.Time.s 1) ~duration:(Sim.Time.ms 22);
  checkb "below 10% window criterion" false (Guest.Netstack.failed n)

let test_netstack_rehype_gap_trips_criterion () =
  (* A 713 ms pause loses 71% of a 1 s window: NetBench notices. *)
  let n = Guest.Netstack.create () in
  Guest.Netstack.interruption n ~now:(Sim.Time.s 1) ~duration:(Sim.Time.ms 713);
  checkb "over 10% window criterion" true (Guest.Netstack.failed n)

let test_netstack_max_gap () =
  let n = Guest.Netstack.create () in
  Guest.Netstack.sender_tick n ~now:(Sim.Time.ms 1) ~delivered:true;
  Guest.Netstack.interruption n ~now:(Sim.Time.ms 2) ~duration:(Sim.Time.ms 50);
  checkb "max gap recorded" true (n.Guest.Netstack.max_gap >= Sim.Time.ms 50)

(* ------------------------- Kernel ----------------------------------- *)

(* A guest's health is what [Hyper.Domain.affected] reads from its
   domain: corrupt output, a failed guest or a dead domain. *)

let app_vm hv = Option.get (Hyper.Hypervisor.domain hv 1)

let test_kernel_verify_clean () =
  List.iter
    (fun (d : Hyper.Domain.t) ->
      checkb
        (Printf.sprintf "dom%d clean at boot" d.Hyper.Domain.domid)
        false (Hyper.Domain.affected d))
    (Doms.app_domains (boot ()))

let test_kernel_sdc_corrupts_fs () =
  let d = app_vm (boot ()) in
  d.Hyper.Domain.guest_sdc <- true;
  checkb "corrupt output affects the AppVM" true (Hyper.Domain.affected d)

let test_kernel_failure_kills_processes () =
  let d = app_vm (boot ()) in
  d.Hyper.Domain.guest_failed <- true;
  checkb "failed guest affects the AppVM" true (Hyper.Domain.affected d);
  let d = app_vm (boot ()) in
  d.Hyper.Domain.alive <- false;
  checkb "dead domain affects the AppVM" true (Hyper.Domain.affected d)

(* ------------------------- Toolstack -------------------------------- *)

(* The 3AppVM health check's probe: the PrivVM creates a VM with a
   domctl hypercall. *)

let create_vm hv rng =
  Hyper.Hypervisor.execute hv rng
    (Hyper.Hypervisor.Hypercall
       { domid = 0; vid = 0; kind = Hyper.Hypercalls.Domctl_create_domain })

let check_creates name hv rng =
  let before = Doms.app_domains hv in
  create_vm hv rng;
  let after = Doms.app_domains hv in
  Alcotest.check Alcotest.int (name ^ ": one more app domain")
    (List.length before + 1) (List.length after);
  List.iter
    (fun (d : Hyper.Domain.t) ->
      if not (List.memq d before) then begin
        checkb (name ^ ": app domain") false d.Hyper.Domain.privileged;
        checkb (name ^ ": alive") true d.Hyper.Domain.alive
      end)
    after

let test_toolstack_create_vm () =
  check_creates "fresh" (boot ()) (Sim.Rng.create 7L)

let test_toolstack_create_on_broken_heap () =
  let hv = boot () in
  Hyper.Heap.corrupt_freelist hv.Hyper.Hypervisor.heap "test";
  match create_vm hv (Sim.Rng.create 7L) with
  | () -> Alcotest.fail "create on a corrupt heap free list must fail"
  | exception Hyper.Crash.Hypervisor_crash _ -> ()

let test_toolstack_create_after_recovery () =
  let hv = boot () and rng = Sim.Rng.create 7L in
  (try
     Hyper.Hypervisor.execute_partial hv rng (Hyper.Hypervisor.Timer_tick 0)
       ~stop_at:4
   with Hyper.Crash.Hypervisor_crash _ -> ());
  Array.iter Hyper.Percpu.irq_enter hv.Hyper.Hypervisor.percpu;
  ignore
    (Recovery.Engine.recover Recovery.Engine.Nilihype hv
       ~enh:Recovery.Enhancement.full_set ~detected_on:0);
  check_creates "after recovery" hv rng

let () =
  Alcotest.run "guest"
    [
      ( "netstack",
        [
          Alcotest.test_case "healthy traffic" `Quick test_netstack_healthy_traffic;
          Alcotest.test_case "NiLiHype gap tolerated" `Quick
            test_netstack_nilihype_gap_tolerated;
          Alcotest.test_case "ReHype gap trips criterion" `Quick
            test_netstack_rehype_gap_trips_criterion;
          Alcotest.test_case "max gap" `Quick test_netstack_max_gap;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "verify clean" `Quick test_kernel_verify_clean;
          Alcotest.test_case "sdc corrupts fs" `Quick test_kernel_sdc_corrupts_fs;
          Alcotest.test_case "failure kills processes" `Quick
            test_kernel_failure_kills_processes;
        ] );
      ( "toolstack",
        [
          Alcotest.test_case "create vm" `Quick test_toolstack_create_vm;
          Alcotest.test_case "create on broken heap" `Quick
            test_toolstack_create_on_broken_heap;
          Alcotest.test_case "create after recovery" `Quick
            test_toolstack_create_after_recovery;
        ] );
    ]
