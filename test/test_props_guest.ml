(* Property-based tests over the guest netstack and remaining
   invariants: heap bookkeeping, netstack window accounting,
   latency-model monotonicity, ladder set inclusion. *)

(* Heap: bytes_live equals the sum of live object sizes under any
   alloc/free interleaving. *)
let prop_heap_bytes_accounting =
  QCheck.Test.make ~name:"heap: bytes_live = sum of live sizes"
    QCheck.(list (pair bool (int_range 1 512)))
    (fun ops ->
      let h = Hyper.Heap.create () in
      let live = ref [] in
      List.iter
        (fun (free, size) ->
          if free then begin
            match !live with
            | o :: rest ->
              Hyper.Heap.free h o;
              live := rest
            | [] -> ()
          end
          else live := Hyper.Heap.alloc h ~size Hyper.Heap.Generic :: !live)
        ops;
      let expected = List.fold_left (fun acc o -> acc + o.Hyper.Heap.size) 0 !live in
      Hyper.Heap.bytes_live h = expected)

(* Netstack: an interruption of duration d loses exactly d/interval
   pings, and trips the 10% criterion iff some 1 s window lost >10%. *)
let prop_netstack_interruption_accounting =
  QCheck.Test.make ~name:"netstack: interruption loss accounting"
    QCheck.(int_range 1 5_000)
    (fun ms ->
      let n = Guest.Netstack.create () in
      Guest.Netstack.interruption n ~now:(Sim.Time.s 1) ~duration:(Sim.Time.ms ms);
      let lost = n.Guest.Netstack.sent - n.Guest.Netstack.echoed in
      lost = ms
      && Guest.Netstack.failed n = (min ms 1000 > 100 || ms mod 1000 > 100))

(* Latency model: recovery latency grows monotonically with frames for
   both mechanisms, and ReHype dominates NiLiHype at every size. *)
let prop_latency_monotone =
  QCheck.Test.make ~name:"latency model: monotone in frames, ReHype > NiLiHype"
    QCheck.(pair (int_range 1_000 5_000_000) (int_range 1_000 5_000_000))
    (fun (f1, f2) ->
      let lo = min f1 f2 and hi = max f1 f2 in
      let nl frames = Hyper.Latency_model.pfn_scan ~frames in
      let re frames =
        Hyper.Latency_model.reboot_record_old_heap ~frames
        + Hyper.Latency_model.pfn_scan ~frames
        + Hyper.Latency_model.reboot_reinit_unpreserved_pfn ~frames
        + Hyper.Latency_model.reboot_recreate_heap ~frames
        + Hyper.Latency_model.reboot_early_boot_cpu
        + Hyper.Latency_model.reboot_apic_ioapic_setup
      in
      nl lo <= nl hi && re lo <= re hi && re lo > nl lo && re hi > nl hi)

(* Table I ladder rows never lose enhancements relative to the previous
   row (set inclusion, not just cardinality). *)
let prop_ladder_set_inclusion =
  QCheck.Test.make ~name:"ladder rows are supersets of their predecessors" ~count:1
    QCheck.unit (fun () ->
      let rec check = function
        | (_, _, a) :: ((_, _, b) :: _ as rest) ->
          List.for_all
            (fun e -> List.mem e b.Recovery.Enhancement.enabled)
            a.Recovery.Enhancement.enabled
          && check rest
        | _ -> true
      in
      check Recovery.Enhancement.table1_ladder)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties_guest"
    [
      ( "guest",
        List.map to_alcotest [ prop_netstack_interruption_accounting ] );
      ( "hyper",
        List.map to_alcotest
          [ prop_heap_bytes_accounting; prop_latency_monotone; prop_ladder_set_inclusion ]
      );
    ]
