(** The whole-system distribution of hypervisor activity: guest-driven
    entries from every benchmark plus the hypervisor's own timer ticks,
    device interrupts, context switches and idle polling. A random
    fault injected "while the CPU is executing target hypervisor code"
    lands in an activity drawn from this mix. *)

type t = {
  benchmarks : Workload.t array;
  active_cpus : int array; (* CPUs with a pinned vCPU (incl. PrivVM's) *)
  net_dom : int option; (* domain receiving network packets *)
  (* Device-interrupt pressure, folded over the benchmarks once at
     creation (the per-sample fold was pure allocation: every [+.] in a
     fold closure boxes its accumulator). *)
  blk_w : float;
  dev_w : float; (* blk_w +. net_w *)
  (* Every activity [sample] returns outside the benchmarks, built at
     creation: per CPU index (one for cpu 0 when no CPU is active), and
     the block (line 1) and network (line 2) backends' interrupts.
     Activities are immutable and shared. *)
  ticks : Hyper.Hypervisor.activity array;
  switches : Hyper.Hypervisor.activity array;
  idles : Hyper.Hypervisor.activity array;
  blk_irq : Hyper.Hypervisor.activity option;
  net_irq : Hyper.Hypervisor.activity option;
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
  let cpus = Array.of_list (if active_cpus = [] then [ 0 ] else active_cpus) in
  let irq line =
    Option.map (fun d -> Hyper.Hypervisor.Device_interrupt { line; target_dom = d })
  in
  {
    benchmarks = Array.of_list benchmarks;
    active_cpus = Array.of_list active_cpus;
    net_dom;
    blk_w;
    dev_w = blk_w +. net_w;
    ticks = Array.map (fun c -> Hyper.Hypervisor.Timer_tick c) cpus;
    switches = Array.map (fun c -> Hyper.Hypervisor.Context_switch c) cpus;
    idles = Array.map (fun c -> Hyper.Hypervisor.Idle_poll c) cpus;
    blk_irq = irq 1 blk_dom;
    net_irq = irq 2 net_dom;
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

(* The index of a random active CPU in the per-CPU tables; no draw when
   none is active. *)
let cpu_index rng t =
  match Array.length t.active_cpus with
  | 0 -> 0
  | n -> Sim.Rng.int rng n

let sample rng t : Hyper.Hypervisor.activity =
  match category_tags.(Sim.Rng.choose_index_cum rng category_cum) with
  | `Guest_entry ->
    (match Array.length t.benchmarks with
    | 0 -> t.idles.(cpu_index rng t)
    | n -> Workload.sample_activity rng t.benchmarks.(Sim.Rng.int rng n))
  | `Timer_tick -> t.ticks.(cpu_index rng t)
  | `Device_interrupt ->
    let pick_blk = Sim.Rng.float_below rng t.dev_w t.blk_w in
    (* The picked backend's interrupt, else the other's. *)
    (match (pick_blk, t.blk_irq, t.net_irq) with
    | true, Some a, _ | _, _, Some a | _, Some a, None -> a
    | _, None, None -> t.idles.(cpu_index rng t))
  | `Context_switch -> t.switches.(cpu_index rng t)
  | `Idle -> t.idles.(cpu_index rng t)
