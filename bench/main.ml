(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VII).

     dune exec bench/main.exe            -- everything, scaled-down sizes
     dune exec bench/main.exe -- --full  -- paper-sized campaigns
     dune exec bench/main.exe -- table1 figure2 ...  -- selected sections

   Campaign sizes are scaled down by default so the whole harness runs in
   minutes; pass --full for the paper's 1000/5000/2000 injections.

   Host cost (runs/s, minor words, per-layer time) is measured by
   bench/perf/nlh_bench.exe, not here. Two drills that need a long or
   repeated run stay, each run only when named (dune build @bench-soak):
   [soak] (the live heap stays flat over a 10^5-run streaming campaign)
   and [obs_overhead] (postmortem capture costs at most 5% runs/s). *)

let full = ref false
let sections = ref []
let jobs = ref 1 (* 0 = one worker domain per recommended core *)

let resolve_jobs () = if !jobs > 0 then !jobs else Inject.Pool.default_jobs ()

(* The drills are gates, not part of the paper reproduction, so they
   only run when named explicitly. *)
let drill_sections = [ "soak"; "obs_overhead" ]

let section name =
  if List.mem name drill_sections then List.mem name !sections
  else !sections = [] || List.mem name !sections

let hr title = Format.printf "@.==== %s ====@." title

(* ------------------------------------------------------------------ *)
(* Table I: incremental development of NiLiHype enhancements           *)
(* ------------------------------------------------------------------ *)

let table1 () =
  hr "Table I: NiLiHype recovery rate by enhancement (1AppVM, failstop)";
  Format.printf "(paper: 0%% / 16.0%% / 51.8%% / 82.2%% / 95.0%% / 96.1%% / ~96.5%%)@.";
  let n = if !full then 1000 else 600 in
  List.iter
    (fun (label, hv_config, enh) ->
      let cfg =
        {
          Inject.Run.default_config with
          Inject.Run.fault = Inject.Fault.Failstop;
          setup = Inject.Run.One_appvm Workloads.Workload.Unixbench;
          mech = Inject.Run.Mech (Recovery.Engine.Nilihype, enh);
          hv_config;
        }
      in
      let result =
        Inject.Campaign.run ~label ~base_seed:7000L ~jobs:(resolve_jobs ()) ~n cfg
      in
      Format.printf "%-52s %a@." label Sim.Stats.pp_proportion
        (Inject.Campaign.success_rate result))
    Recovery.Enhancement.table1_ladder

(* ------------------------------------------------------------------ *)
(* Figure 2: recovery rate, NiLiHype vs ReHype, 3AppVM                 *)
(* ------------------------------------------------------------------ *)

let figure2 () =
  hr "Figure 2: successful recovery rate (3AppVM)";
  Format.printf
    "(paper: Failstop ~96/~96, Register ~94.5/~96.4, Code ~88/~90; Success \
     and noVMF among detected errors)@.";
  let faults =
    [
      (Inject.Fault.Failstop, if !full then 1000 else 400);
      (Inject.Fault.Register, if !full then 5000 else 1500);
      (Inject.Fault.Code, if !full then 2000 else 800);
    ]
  in
  List.iter
    (fun (fault, n) ->
      List.iter
        (fun mech ->
          let cfg =
            {
              Inject.Run.default_config with
              Inject.Run.fault;
              setup = Inject.Run.Three_appvm;
              mech = Inject.Run.Mech (mech, Recovery.Enhancement.full_set);
              hv_config = Recovery.Engine.config mech;
            }
          in
          let label =
            Printf.sprintf "%s/%s"
              (Recovery.Engine.mechanism_name mech)
              (Inject.Fault.name fault)
          in
          let r =
            Inject.Campaign.run ~label ~base_seed:31000L ~jobs:(resolve_jobs ())
              ~n cfg
          in
          let fmt_prop p = Format.asprintf "%a" Sim.Stats.pp_proportion p in
          Format.printf "%-22s Success %-18s noVMF %s@." label
            (fmt_prop (Inject.Campaign.success_rate r))
            (fmt_prop (Inject.Campaign.no_vmf_rate r)))
        [ Recovery.Engine.Nilihype; Recovery.Engine.Rehype ])
    faults

(* ------------------------------------------------------------------ *)
(* Section VII-A text: breakdown of injection outcomes per fault type  *)
(* ------------------------------------------------------------------ *)

let outcomes () =
  hr "Injection outcome breakdown (Section VII-A text)";
  Format.printf
    "(paper: Register 74.8/5.6/19.6; Code 35.0/12.1/52.9; Failstop 0/0/100)@.";
  List.iter
    (fun (fault, n) ->
      let cfg =
        {
          Inject.Run.default_config with
          Inject.Run.fault;
          setup = Inject.Run.Three_appvm;
          mech =
            Inject.Run.Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
          hv_config = Hyper.Config.nilihype;
        }
      in
      let r = Inject.Campaign.run ~base_seed:52000L ~jobs:(resolve_jobs ()) ~n cfg in
      let nm, sdc, det = Inject.Campaign.breakdown r in
      Format.printf "%-9s non-manifested %5.1f%%  SDC %5.1f%%  detected %5.1f%%@."
        (Inject.Fault.name fault) nm sdc det)
    [
      (Inject.Fault.Failstop, if !full then 500 else 200);
      (Inject.Fault.Register, if !full then 5000 else 1500);
      (Inject.Fault.Code, if !full then 2000 else 800);
    ]

(* ------------------------------------------------------------------ *)
(* Tables II and III: recovery latency breakdowns (8 GB, 8 CPUs)       *)
(* ------------------------------------------------------------------ *)

let breakdown mech = (Recovery.Engine.measure mech).Recovery.Plan.breakdown

let table2 () =
  hr "Table II: ReHype recovery latency breakdown (8 GB, 8 CPUs)";
  Format.printf "(paper total: 713ms; hw init 412ms, memory init 266ms, misc 35ms)@.";
  let b = breakdown Recovery.Engine.Rehype in
  Format.printf "%a" Hyper.Latency_model.pp b

let table3 () =
  hr "Table III: NiLiHype recovery latency breakdown (8 GB, 8 CPUs)";
  Format.printf "(paper total: 22ms; page-frame scan 21ms + others 1ms)@.";
  let b = breakdown Recovery.Engine.Nilihype in
  Format.printf "%a" Hyper.Latency_model.pp b;
  let nl = Hyper.Latency_model.total b in
  let re = Hyper.Latency_model.total (breakdown Recovery.Engine.Rehype) in
  Format.printf "Latency ratio ReHype/NiLiHype: %.1fx (paper: >30x)@."
    (float_of_int re /. float_of_int nl)

(* ------------------------------------------------------------------ *)
(* Figure 3: hypervisor processing overhead in normal operation        *)
(* ------------------------------------------------------------------ *)

let figure3 () =
  hr "Figure 3: hypervisor processing overhead (NiLiHype vs stock Xen)";
  Format.printf
    "(paper: logging dominates; worst case BlkBench; total-CPU impact <1%%)@.";
  let activities = if !full then 30000 else 8000 in
  List.iter
    (fun bench ->
      let m = Inject.Overhead.measure ~activities bench in
      Format.printf "%a@." Inject.Overhead.pp m)
    Inject.Overhead.configurations

(* ------------------------------------------------------------------ *)
(* Table IV: implementation complexity (LOC)                           *)
(* ------------------------------------------------------------------ *)

let count_lines path =
  try
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         let line = String.trim (input_line ic) in
         (* CLOC-style: skip blanks and pure comment lines. *)
         if String.length line > 0
            && not (String.length line >= 2 && String.sub line 0 2 = "(*")
         then incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  with Sys_error _ -> 0

let table4 () =
  hr "Table IV: implementation complexity (lines of code)";
  Format.printf
    "(paper: NiLiHype ~1.9k / ReHype ~2.2k lines added+modified in Xen; the \
     same normal-operation vs recovery-only split applied to this code base)@.";
  let normal_op =
    [
      "lib/hyper/journal.ml"; (* non-idempotent hypercall logging *)
      "lib/hyper/config.ml"; (* feature flags for the added mechanisms *)
      "lib/hyper/cycle_account.ml"; (* measurement instrumentation *)
    ]
  in
  let recovery_shared =
    [
      "lib/recovery/common.ml";
      "lib/recovery/enhancement.ml";
      "lib/recovery/engine.ml";
      "lib/recovery/plan.ml";
    ]
  in
  let nilihype_only = [ "lib/recovery/microreset.ml" ] in
  let rehype_only = [ "lib/recovery/microreboot.ml" ] in
  let sum = List.fold_left (fun acc f -> acc + count_lines f) 0 in
  let norm = sum normal_op and shared = sum recovery_shared in
  let nl = sum nilihype_only and re = sum rehype_only in
  Format.printf "  %-46s %5d@." "normal-operation mechanisms (shared)" norm;
  Format.printf "  %-46s %5d@." "recovery code shared by both mechanisms" shared;
  Format.printf "  %-46s %5d@." "NiLiHype-specific recovery code" nl;
  Format.printf "  %-46s %5d@." "ReHype-specific recovery code" re;
  Format.printf "  NiLiHype total: %d   ReHype total: %d@." (norm + shared + nl)
    (norm + shared + re);
  Format.printf
    "  (shape preserved: ReHype needs more recovery-time code -- state \
     preservation and re-integration -- plus IO-APIC and boot-line logging)@."

(* ------------------------------------------------------------------ *)
(* Section VII-B: service interruption seen by NetBench                *)
(* ------------------------------------------------------------------ *)

let latency_service () =
  hr "Service interruption (NetBench, 1 ms UDP ping, Section VII-B)";
  let nl = Hyper.Latency_model.total (breakdown Recovery.Engine.Nilihype) in
  let re = Hyper.Latency_model.total (breakdown Recovery.Engine.Rehype) in
  List.iter
    (fun (name, latency) ->
      let lost = latency / Sim.Time.ms 1 in
      Format.printf
        "%-9s recovery latency %a -> ~%d pings unanswered (1/ms sender)@." name
        Sim.Time.pp_ms latency lost)
    [ ("NiLiHype", nl); ("ReHype", re) ]

(* ------------------------------------------------------------------ *)
(* Ablation: discard all threads vs only the faulting thread           *)
(* (the design choice argued in Section III-C)                         *)
(* ------------------------------------------------------------------ *)

let ablation () =
  hr "Ablation: microreset discard scope (Section III-C design choice)";
  Format.printf
    "(paper predicts discarding only the faulting thread is worse: surviving \
     threads collide with recovery's global state changes)@.";
  let n = if !full then 1000 else 400 in
  List.iter
    (fun (label, scope) ->
      let cfg =
        {
          Inject.Run.default_config with
          Inject.Run.fault = Inject.Fault.Failstop;
          setup = Inject.Run.Three_appvm;
          mech =
            Inject.Run.Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
          hv_config = Hyper.Config.nilihype;
          discard_scope = scope;
        }
      in
      let r =
        Inject.Campaign.run ~label ~base_seed:64000L ~jobs:(resolve_jobs ()) ~n cfg
      in
      Format.printf "%-36s success %a@." label Sim.Stats.pp_proportion
        (Inject.Campaign.success_rate r))
    [
      ("discard all threads (NiLiHype)", Inject.Run.Scope_all_threads);
      ("discard faulting thread only", Inject.Run.Scope_faulting_only);
    ]

(* ------------------------------------------------------------------ *)
(* Ablation: value of the non-idempotent hypercall mitigation          *)
(* (Section IV: logging off costs ~12% recovery rate)                  *)
(* ------------------------------------------------------------------ *)

let ablation_logging () =
  hr "Ablation: non-idempotent hypercall retry mitigation (Section IV)";
  Format.printf "(paper: mitigation raises failstop recovery 84%% -> 96%%)@.";
  let n = if !full then 1000 else 400 in
  List.iter
    (fun (label, hv_config) ->
      let cfg =
        {
          Inject.Run.default_config with
          Inject.Run.fault = Inject.Fault.Failstop;
          setup = Inject.Run.One_appvm Workloads.Workload.Unixbench;
          mech =
            Inject.Run.Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
          hv_config;
        }
      in
      let r =
        Inject.Campaign.run ~label ~base_seed:71000L ~jobs:(resolve_jobs ()) ~n cfg
      in
      Format.printf "%-44s success %a@." label Sim.Stats.pp_proportion
        (Inject.Campaign.success_rate r))
    [
      ("with logging + code reordering", Hyper.Config.nilihype);
      ( "without logging (NiLiHype*)",
        { Hyper.Config.nilihype with Hyper.Config.nonidempotent_logging = false } );
      ( "without logging or reordering",
        {
          Hyper.Config.nilihype with
          Hyper.Config.nonidempotent_logging = false;
          code_reordering = false;
        } );
    ]

(* ------------------------------------------------------------------ *)
(* Extension: multiple vCPUs per CPU (the paper's future work)         *)
(* ------------------------------------------------------------------ *)

let multivcpu () =
  hr "Extension: recovery rate with multiple vCPUs per CPU (future work)";
  Format.printf
    "(the paper leaves this to future work; richer scheduler state means \
     more metadata to make consistent at recovery)@.";
  let n = if !full then 1000 else 400 in
  List.iter
    (fun vcpus_per_cpu ->
      let cfg =
        {
          Inject.Run.default_config with
          Inject.Run.fault = Inject.Fault.Failstop;
          setup = Inject.Run.Three_appvm;
          mech =
            Inject.Run.Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
          hv_config = Hyper.Config.nilihype;
          vcpus_per_cpu;
        }
      in
      let r = Inject.Campaign.run ~base_seed:83000L ~jobs:(resolve_jobs ()) ~n cfg in
      Format.printf "%d vCPU(s) per CPU: success %a@." vcpus_per_cpu
        Sim.Stats.pp_proportion
        (Inject.Campaign.success_rate r))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Gate drills (dune build @bench-soak)                                *)
(* ------------------------------------------------------------------ *)

(* Drill sizes and gates. The dune rule passes no flags, so they are
   constants. *)
let soak_runs = 100_000
let max_heap_growth_pct = 15.0 (* live-heap growth, 10^3 runs -> soak *)
let obs_overhead_runs = 240
let max_obs_overhead_pct = 5.0 (* postmortems-on runs/s deficit *)

let drill_cfg =
  {
    Inject.Run.default_config with
    Inject.Run.fault = Inject.Fault.Failstop;
    setup = Inject.Run.Three_appvm;
    mech = Inject.Run.Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
    hv_config = Hyper.Config.nilihype;
  }

let fail fmt =
  Format.kasprintf
    (fun msg ->
      Format.printf "FAIL: %s@." msg;
      exit 1)
    fmt

(* Campaigns allocate tens of kwords of minor heap per run; a
   campaign-sized minor heap (4 Mwords per domain, ~32 MB) makes
   collections rarer without changing any result: totals depend only on
   seeds, never on GC scheduling. *)
let tune_gc_for_campaigns () =
  let current = Gc.get () in
  let want = 4_194_304 in
  if current.Gc.minor_heap_size < want then
    Gc.set { current with Gc.minor_heap_size = want }

(* Soak: the constant-memory claim of streaming aggregation, measured
   end to end. The live heap after a [soak_runs]-run checkpointed
   campaign must stay within [max_heap_growth_pct] of the live heap
   after a 10^3-run one on the same pre-booted machine pool. The soak's
   nlh-checkpoint/1 file (SOAK_checkpoint.json) is left for
   nlh_trace_check. *)
let soak () =
  hr "Soak: streaming aggregation on a machine pool";
  tune_gc_for_campaigns ();
  let jobs = resolve_jobs () in
  (* Machines for every worker slot boot once, up front, and serve every
     campaign below. *)
  let pool = Inject.Campaign.prepare_pool ~jobs drill_cfg in
  let ck path =
    {
      Inject.Drive.ck_path = path;
      ck_every = 16;
      ck_resume = false;
      ck_stop_after = None;
    }
  in
  (* The major heap keeps expanding toward its steady-state pacing for
     well past 10^3 runs no matter how small the live set is. Warm the
     collector to steady state first so the comparison below measures
     streaming-aggregation growth, not GC ramp-up. *)
  ignore
    (Inject.Campaign.run ~label:"soak warmup" ~base_seed:110_000L ~jobs ~pool
       ~n:20_000 drill_cfg);
  (* Compare the *live* heap -- what survives a full major collection.
     Twice: the first finishes the in-flight incremental cycle, the
     second collects everything that died during it. *)
  let live_heap () =
    Gc.full_major ();
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let small =
    Inject.Campaign.run ~label:"soak small" ~base_seed:120_000L ~jobs ~pool
      ~checkpoint:(ck "SOAK_small_checkpoint.json") ~n:1_000 drill_cfg
  in
  let live_small = live_heap () in
  Format.printf "10^3 streaming: %7.1f runs/s, live %d words@."
    (Inject.Campaign.runs_per_sec small)
    live_small;
  let big =
    Inject.Campaign.run ~label:"soak" ~base_seed:120_000L ~jobs ~pool
      ~checkpoint:(ck "SOAK_checkpoint.json") ~n:soak_runs drill_cfg
  in
  let live_big = live_heap () in
  (* Keep the pool reachable past the second measurement: its booted
     machines dominate the live set, and letting the optimizer treat it
     as dead after its last campaign would make the two samples measure
     different worlds. *)
  ignore (Sys.opaque_identity pool);
  let growth_pct =
    100.0
    *. float_of_int (live_big - live_small)
    /. float_of_int (max 1 live_small)
  in
  Format.printf
    "%d-run soak: %7.1f runs/s, %.0f minor words/run, live %d words \
     (%+.2f%% vs 10^3)@."
    soak_runs
    (Inject.Campaign.runs_per_sec big)
    (big.Inject.Campaign.minor_words /. float_of_int soak_runs)
    live_big growth_pct;
  if growth_pct > max_heap_growth_pct then
    fail "live heap grew %.2f%% from 10^3 to %d runs (ceiling %.1f%%)"
      growth_pct soak_runs max_heap_growth_pct

(* Observability overhead: the flight recorder is always on and
   postmortem capture is lazy, so a campaign with postmortems enabled
   must not be more than [max_obs_overhead_pct] slower in runs/s than
   one without. Best of 3 each way: results are deterministic, only the
   wall clock varies, so max runs/s is the least-noisy estimate. *)
let obs_overhead () =
  hr "Observability overhead: flight recorder + lazy postmortem capture";
  tune_gc_for_campaigns ();
  let rps ~postmortems label =
    Inject.Campaign.runs_per_sec
      (Inject.Campaign.run ~label ~base_seed:90_000L ~postmortems
         ~n:obs_overhead_runs drill_cfg)
  in
  let best ~postmortems label =
    List.fold_left max 0.0
      (List.init 3 (fun i ->
           rps ~postmortems (Printf.sprintf "%s #%d" label i)))
  in
  ignore (rps ~postmortems:false "warmup");
  let base_rps = best ~postmortems:false "postmortems off" in
  let pm_rps = best ~postmortems:true "postmortems on" in
  let overhead_pct =
    if base_rps > 0.0 then 100.0 *. (base_rps -. pm_rps) /. base_rps else 0.0
  in
  Format.printf
    "postmortems off: %8.1f runs/s   on: %8.1f runs/s   overhead %+.1f%%@."
    base_rps pm_rps overhead_pct;
  if overhead_pct > max_obs_overhead_pct then
    fail "postmortem capture costs %.1f%% runs/s (ceiling %.1f%%)"
      overhead_pct max_obs_overhead_pct

let () =
  Arg.parse
    [
      ("--full", Arg.Set full, " paper-sized campaigns");
      ( "--jobs",
        Arg.Set_int jobs,
        " parallel worker domains for campaigns (0 = one per core; default 1)" );
    ]
    (fun s -> sections := s :: !sections)
    "bench/main.exe [--full] [--jobs N] [sections...]";
  if section "table1" then table1 ();
  if section "figure2" then figure2 ();
  if section "outcomes" then outcomes ();
  if section "table2" then table2 ();
  if section "table3" then table3 ();
  if section "figure3" then figure3 ();
  if section "table4" then table4 ();
  if section "latency" then latency_service ();
  if section "ablation" then ablation ();
  if section "ablation_logging" then ablation_logging ();
  if section "multivcpu" then multivcpu ();
  if section "soak" then soak ();
  if section "obs_overhead" then obs_overhead ();
  Format.printf "@.done.@."
