(** The whole-system distribution of hypervisor activity: guest-driven
    entries from every benchmark plus the hypervisor's own timer ticks,
    device interrupts, context switches and idle polling. A random
    fault injected "while the CPU is executing target hypervisor code"
    lands in an activity drawn from this mix. *)

type t = {
  benchmarks : Workload.t array;
  active_cpus : int array; (* CPUs with a pinned vCPU (incl. PrivVM's) *)
  blk_dom : int option; (* domain receiving block-device completions *)
  net_dom : int option; (* domain receiving network packets *)
  (* Device-interrupt pressure, folded over the benchmarks once at
     creation (the per-sample fold was pure allocation: every [+.] in a
     fold closure boxes its accumulator). *)
  blk_w : float;
  dev_w : float; (* blk_w +. net_w *)
}

let create ~benchmarks ~active_cpus ~blk_dom ~net_dom =
  (* Line 1 = block backend, line 2 = network backend. Device pressure
     follows the benchmarks that are running. Folded in list order with
     the same 0.01 floor so the partial sums -- and thus every draw --
     match the previous per-sample computation bit for bit. *)
  let blk_w =
    List.fold_left
      (fun acc (b : Workload.t) -> acc +. fst (Workload.device_share b.Workload.kind))
      0.01 benchmarks
  and net_w =
    List.fold_left
      (fun acc (b : Workload.t) -> acc +. snd (Workload.device_share b.Workload.kind))
      0.01 benchmarks
  in
  {
    benchmarks = Array.of_list benchmarks;
    active_cpus = Array.of_list active_cpus;
    blk_dom;
    net_dom;
    blk_w;
    dev_w = blk_w +. net_w;
  }

(* Category weights: guest entries dominate hypervisor execution time,
   followed by timer interrupts, device interrupts and scheduling. *)
let category_weights =
  [
    (0.38, `Guest_entry);
    (0.16, `Timer_tick);
    (0.08, `Device_interrupt);
    (0.31, `Context_switch);
    (0.07, `Idle);
  ]

let category_cum = Sim.Rng.cumulative category_weights
let category_tags = Array.of_list (List.map snd category_weights)

(* Toplevel rather than local to [sample], so a draw allocates no
   closure. *)
let random_cpu rng t =
  match Array.length t.active_cpus with
  | 0 -> 0
  | n -> t.active_cpus.(Sim.Rng.int rng n)

let sample rng t : Hyper.Hypervisor.activity =
  match category_tags.(Sim.Rng.choose_index_cum rng category_cum) with
  | `Guest_entry ->
    (match Array.length t.benchmarks with
    | 0 -> Hyper.Hypervisor.Idle_poll (random_cpu rng t)
    | n -> Workload.sample_activity rng t.benchmarks.(Sim.Rng.int rng n))
  | `Timer_tick -> Hyper.Hypervisor.Timer_tick (random_cpu rng t)
  | `Device_interrupt ->
    let pick_blk = Sim.Rng.float_below rng t.dev_w t.blk_w in
    (match (pick_blk, t.blk_dom, t.net_dom) with
    | true, Some d, _ -> Hyper.Hypervisor.Device_interrupt { line = 1; target_dom = d }
    | false, _, Some d -> Hyper.Hypervisor.Device_interrupt { line = 2; target_dom = d }
    | true, None, Some d -> Hyper.Hypervisor.Device_interrupt { line = 2; target_dom = d }
    | false, Some d, None -> Hyper.Hypervisor.Device_interrupt { line = 1; target_dom = d }
    | _, None, None -> Hyper.Hypervisor.Idle_poll (random_cpu rng t))
  | `Context_switch -> Hyper.Hypervisor.Context_switch (random_cpu rng t)
  | `Idle -> Hyper.Hypervisor.Idle_poll (random_cpu rng t)
