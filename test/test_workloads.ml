(* Tests for the benchmark workload models. *)

open Contract

let test_menus_normalised () =
  List.iter
    (fun kind ->
      let total =
        List.fold_left (fun acc (w, _) -> acc +. w) 0.0 (Workloads.Workload.hypercall_menu kind)
      in
      checkb (Workloads.Workload.kind_name kind) true (abs_float (total -. 1.0) < 1e-9))
    [ Workloads.Workload.Blkbench; Workloads.Workload.Unixbench; Workloads.Workload.Netbench ]

let test_blkbench_grant_heavy () =
  (* BlkBench is dominated by grant-table I/O. *)
  let weight_of tag kind =
    List.fold_left
      (fun acc (w, t) -> if t = tag then acc +. w else acc)
      0.0
      (Workloads.Workload.hypercall_menu kind)
  in
  checkb "blkbench grants > unixbench grants" true
    (weight_of `Grant Workloads.Workload.Blkbench
     > weight_of `Grant Workloads.Workload.Unixbench)

let test_unixbench_vm_heavy () =
  let weight_of tag kind =
    List.fold_left
      (fun acc (w, t) -> if t = tag then acc +. w else acc)
      0.0
      (Workloads.Workload.hypercall_menu kind)
  in
  checkb "unixbench mmu > netbench mmu" true
    (weight_of `Mmu Workloads.Workload.Unixbench
     > weight_of `Mmu Workloads.Workload.Netbench)

let test_sample_activity_targets_own_domain () =
  let rng = Sim.Rng.create 1L in
  let b = Workloads.Workload.create Workloads.Workload.Unixbench ~domid:5 in
  for _ = 1 to 100 do
    match Workloads.Workload.sample_activity rng b with
    | Hyper.Hypervisor.Hypercall { domid; _ } | Hyper.Hypervisor.Syscall_forward { domid; _ }
      ->
      Alcotest.check Alcotest.int "own domain" 5 domid
    | _ -> Alcotest.fail "guest entries only"
  done

let test_syscall_share_respected () =
  let rng = Sim.Rng.create 2L in
  let b = Workloads.Workload.create Workloads.Workload.Unixbench ~domid:1 in
  let syscalls = ref 0 in
  let n = 5000 in
  for _ = 1 to n do
    match Workloads.Workload.sample_activity rng b with
    | Hyper.Hypervisor.Syscall_forward _ -> incr syscalls
    | _ -> ()
  done;
  let p = float_of_int !syscalls /. float_of_int n in
  let expected = Workloads.Workload.syscall_share Workloads.Workload.Unixbench in
  checkb "syscall share matches" true (abs_float (p -. expected) < 0.03)

let test_device_shares () =
  let blk_b, net_b = Workloads.Workload.device_share Workloads.Workload.Blkbench in
  let blk_n, net_n = Workloads.Workload.device_share Workloads.Workload.Netbench in
  checkb "blkbench block-heavy" true (blk_b > net_b);
  checkb "netbench net-heavy" true (net_n > blk_n)

let test_system_mix_samples_valid_activities () =
  let rng = Sim.Rng.create 3L in
  let benchmarks =
    [
      Workloads.Workload.create Workloads.Workload.Unixbench ~domid:1;
      Workloads.Workload.create Workloads.Workload.Netbench ~domid:2;
    ]
  in
  let mix =
    Workloads.System_mix.create ~benchmarks ~active_cpus:[ 0; 1; 2 ]
      ~blk_dom:None ~net_dom:(Some 2)
  in
  let seen_timer = ref false and seen_guest = ref false and seen_ctx = ref false in
  for _ = 1 to 500 do
    match Workloads.System_mix.sample rng mix with
    | Hyper.Hypervisor.Timer_tick c ->
      seen_timer := true;
      checkb "tick on active cpu" true (List.mem c [ 0; 1; 2 ])
    | Hyper.Hypervisor.Hypercall _ | Hyper.Hypervisor.Syscall_forward _ ->
      seen_guest := true
    | Hyper.Hypervisor.Context_switch c ->
      seen_ctx := true;
      checkb "switch on active cpu" true (List.mem c [ 0; 1; 2 ])
    | Hyper.Hypervisor.Device_interrupt { target_dom; _ } ->
      Alcotest.check Alcotest.int "device targets netbench dom" 2 target_dom
    | Hyper.Hypervisor.Idle_poll _ -> ()
  done;
  checkb "timer sampled" true !seen_timer;
  checkb "guest sampled" true !seen_guest;
  checkb "ctx sampled" true !seen_ctx

let test_system_mix_no_devices () =
  let rng = Sim.Rng.create 4L in
  let mix =
    Workloads.System_mix.create ~benchmarks:[] ~active_cpus:[ 0 ] ~blk_dom:None
      ~net_dom:None
  in
  (* With no device targets, sampling must never produce a device
     interrupt (falls back to idle). *)
  for _ = 1 to 300 do
    match Workloads.System_mix.sample rng mix with
    | Hyper.Hypervisor.Device_interrupt _ -> Alcotest.fail "no device targets exist"
    | _ -> ()
  done

let test_mix_weights_normalised () =
  let total =
    List.fold_left (fun acc (w, _) -> acc +. w) 0.0 Workloads.System_mix.category_weights
  in
  checkb "category weights sum to 1" true (abs_float (total -. 1.0) < 1e-9)

let () =
  Alcotest.run "workloads"
    [
      ( "menus",
        [
          Alcotest.test_case "normalised" `Quick test_menus_normalised;
          Alcotest.test_case "blkbench grant-heavy" `Quick test_blkbench_grant_heavy;
          Alcotest.test_case "unixbench vm-heavy" `Quick test_unixbench_vm_heavy;
          Alcotest.test_case "device shares" `Quick test_device_shares;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "targets own domain" `Quick
            test_sample_activity_targets_own_domain;
          Alcotest.test_case "syscall share" `Quick test_syscall_share_respected;
          Alcotest.test_case "system mix validity" `Quick
            test_system_mix_samples_valid_activities;
          Alcotest.test_case "no devices" `Quick test_system_mix_no_devices;
          Alcotest.test_case "mix weights" `Quick test_mix_weights_normalised;
        ] );
    ]
