(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VII).

     dune exec bench/main.exe            -- everything, scaled-down sizes
     dune exec bench/main.exe -- --full  -- paper-sized campaigns
     dune exec bench/main.exe -- table1 figure2 ...  -- selected sections

   Campaign sizes are scaled down by default so the whole harness runs in
   minutes; pass --full for the paper's 1000/5000/2000 injections. *)

let full = ref false
let sections = ref []
let jobs = ref 1 (* 0 = one worker domain per recommended core *)
let json_out = ref "BENCH_campaign.json"
let obs_out = ref "OBS_campaign.json"
let scaling_out = ref "BENCH_scaling.json"
let endurance_out = ref "BENCH_endurance.json"
let alloc_out = ref "BENCH_alloc.json"
let snapshot_out = ref "BENCH_snapshot.json"
let obs_bench_out = ref "BENCH_obs.json"
let triage_out = ref "TRIAGE_campaign.json"
let max_obs_overhead = ref 5.0 (* postmortems-on runs/s deficit ceiling, % *)
let leak_budget = ref 8 (* max leaked pages per recovery in the smoke *)
let min_speedup = ref 0.0 (* jobs>1 throughput floor, x jobs=1; 0 = off *)
let max_words_per_run = ref 0.0 (* minor words/run ceiling in scaling; 0 = off *)
let fuzz_out = ref "BENCH_fuzz.json"
let soak_out = ref "BENCH_soak.json"
let fleet_out = ref "BENCH_fleet.json"
let max_incremental_frac = ref 0.15 (* incremental/full recovery-mean ceiling *)
let soak_runs = ref 100_000
let max_heap_growth = ref 15.0 (* top-heap growth ceiling 1e3 -> soak, % *)

let resolve_jobs () = if !jobs > 0 then !jobs else Inject.Pool.default_jobs ()

(* campaign_smoke and scaling are perf-tracking targets, not part of the
   paper reproduction, so they only run when named explicitly. *)
let perf_sections =
  [
    "campaign_smoke"; "scaling"; "endurance"; "alloc"; "snapshot";
    "obs_overhead"; "fuzz"; "soak"; "fleet";
  ]

let section name =
  if List.mem name perf_sections then List.mem name !sections
  else !sections = [] || List.mem name !sections

let hr title = Format.printf "@.==== %s ====@." title

(* Nanoseconds since [t0], a [Monotonic_clock.now] reading. *)
let elapsed_ns t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)

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
        (fun (mech, mech_name, hv_config) ->
          let cfg =
            {
              Inject.Run.default_config with
              Inject.Run.fault;
              setup = Inject.Run.Three_appvm;
              mech = Inject.Run.Mech (mech, Recovery.Enhancement.full_set);
              hv_config;
            }
          in
          let label = Printf.sprintf "%s/%s" mech_name (Inject.Fault.name fault) in
          let r =
            Inject.Campaign.run ~label ~base_seed:31000L ~jobs:(resolve_jobs ())
              ~n cfg
          in
          let fmt_prop p = Format.asprintf "%a" Sim.Stats.pp_proportion p in
          Format.printf "%-22s Success %-18s noVMF %s@." label
            (fmt_prop (Inject.Campaign.success_rate r))
            (fmt_prop (Inject.Campaign.no_vmf_rate r)))
        [
          (Recovery.Engine.Nilihype, "NiLiHype", Hyper.Config.nilihype);
          (Recovery.Engine.Rehype, "ReHype", Hyper.Config.rehype);
        ])
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

let table2 () =
  hr "Table II: ReHype recovery latency breakdown (8 GB, 8 CPUs)";
  Format.printf "(paper total: 713ms; hw init 412ms, memory init 266ms, misc 35ms)@.";
  let b = Core.Latency.rehype_breakdown () in
  Format.printf "%a" Hyper.Latency_model.pp b

let table3 () =
  hr "Table III: NiLiHype recovery latency breakdown (8 GB, 8 CPUs)";
  Format.printf "(paper total: 22ms; page-frame scan 21ms + others 1ms)@.";
  let b = Core.Latency.nilihype_breakdown () in
  Format.printf "%a" Hyper.Latency_model.pp b;
  let nl = Hyper.Latency_model.total b in
  let re = Hyper.Latency_model.total (Core.Latency.rehype_breakdown ()) in
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
  let nl = Hyper.Latency_model.total (Core.Latency.nilihype_breakdown ()) in
  let re = Hyper.Latency_model.total (Core.Latency.rehype_breakdown ()) in
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
(* Bechamel microbenchmarks of recovery hot paths                      *)
(* ------------------------------------------------------------------ *)

let microbench () =
  hr "Microbenchmarks (wall clock, Bechamel)";
  let open Bechamel in
  let make_hv () =
    let clock = Sim.Clock.create () in
    Hyper.Hypervisor.boot ~mconfig:Hw.Machine.campaign_config
      ~config:Hyper.Config.nilihype ~setup:Hyper.Hypervisor.Three_appvm clock
  in
  let hv = make_hv () in
  let rng = Sim.Rng.create 99L in
  let tests =
    [
      Test.make ~name:"pfn_scan_64k_frames"
        (Staged.stage (fun () ->
             ignore (Hyper.Pfn.scan_and_fix hv.Hyper.Hypervisor.pfn)));
      Test.make ~name:"microreset_recover"
        (Staged.stage (fun () ->
             Array.iter Hyper.Percpu.irq_enter hv.Hyper.Hypervisor.percpu;
             ignore
               (Recovery.Microreset.recover hv ~enh:Recovery.Enhancement.full_set
                  ~detected_on:0)));
      Test.make ~name:"timer_heap_push_pop"
        (Staged.stage (fun () ->
             let th = Hyper.Timer_heap.create () in
             for i = 1 to 64 do
               ignore
                 (Hyper.Timer_heap.add th
                    ~deadline:(i * 17 mod 97)
                    Hyper.Timer_heap.Generic_oneshot)
             done;
             while Hyper.Timer_heap.pop th <> None do
               ()
             done));
      Test.make ~name:"hypercall_update_va_mapping"
        (Staged.stage (fun () ->
             Hyper.Hypervisor.execute hv rng
               (Hyper.Hypervisor.Hypercall
                  {
                    domid = 1;
                    vid = 0;
                    kind = Hyper.Hypercalls.Update_va_mapping;
                  })));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~stabilize:false () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let results = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Format.printf "  %-28s %12.1f ns/run@." name est
          | Some _ | None -> Format.printf "  %-28s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Campaign-engine smoke benchmark: runs the same campaign at jobs=1   *)
(* and jobs=N, asserts the aggregates are bit-identical, and writes a  *)
(* machine-readable BENCH_campaign.json so the perf trajectory is      *)
(* tracked across PRs.                                                 *)
(* ------------------------------------------------------------------ *)

(* Campaigns allocate a few hundred kwords of minor heap per run (see the
   GC-budget test); with the default 256 kword minor heap every worker
   triggers a stop-the-world collection -- a cross-domain rendezvous --
   several times per run, which is what throttles [jobs > cores]
   oversubscription. A campaign-sized minor heap (4 Mwords per domain,
   ~32 MB) makes collections ~16x rarer without changing any result:
   totals depend only on seeds, never on GC scheduling. *)
let tune_gc_for_campaigns () =
  let current = Gc.get () in
  let want = 4_194_304 in
  if current.Gc.minor_heap_size < want then
    Gc.set { current with Gc.minor_heap_size = want }

let campaign_smoke () =
  hr "Campaign engine smoke benchmark (parallel vs sequential)";
  tune_gc_for_campaigns ();
  let n = if !full then 1000 else 240 in
  let cfg =
    {
      Inject.Run.default_config with
      Inject.Run.fault = Inject.Fault.Failstop;
      setup = Inject.Run.Three_appvm;
      mech = Inject.Run.Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
      hv_config = Hyper.Config.nilihype;
    }
  in
  let measure jobs =
    Inject.Campaign.run
      ~label:(Printf.sprintf "jobs=%d" jobs)
      ~base_seed:90_000L ~jobs ~n cfg
  in
  let par_jobs =
    let j = resolve_jobs () in
    if j > 1 then j else 4
  in
  let seq = measure 1 in
  let par = measure par_jobs in
  if
    Inject.Campaign.snapshot seq.Inject.Campaign.totals
    <> Inject.Campaign.snapshot par.Inject.Campaign.totals
  then failwith "campaign_smoke: parallel aggregate differs from sequential";
  Format.printf "%a%a" Inject.Campaign.pp seq Inject.Campaign.pp par;
  let speedup =
    if par.Inject.Campaign.wall_seconds > 0.0 then
      seq.Inject.Campaign.wall_seconds /. par.Inject.Campaign.wall_seconds
    else 1.0
  in
  Format.printf "speedup jobs=%d vs jobs=1: %.2fx (on %d core(s))@." par_jobs
    speedup
    (Domain.recommended_domain_count ());
  let entry requested r =
    Printf.sprintf
      "    { \"jobs\": %d, \"domains_used\": %d, \"runs\": %d, \"seconds\": \
       %.4f, \"runs_per_sec\": %.2f }"
      requested r.Inject.Campaign.jobs
      r.Inject.Campaign.totals.Inject.Campaign.runs
      r.Inject.Campaign.wall_seconds
      (Inject.Campaign.runs_per_sec r)
  in
  let oc = open_out !json_out in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"campaign_smoke\",\n\
    \  \"runs\": %d,\n\
    \  \"seconds\": %.4f,\n\
    \  \"runs_per_sec\": %.2f,\n\
    \  \"jobs\": %d,\n\
    \  \"domains_used\": %d,\n\
    \  \"cores\": %d,\n\
    \  \"speedup_vs_jobs1\": %.2f,\n\
    \  \"identical_totals\": true,\n\
    \  \"series\": [\n%s,\n%s\n  ]\n\
     }\n"
    par.Inject.Campaign.totals.Inject.Campaign.runs
    par.Inject.Campaign.wall_seconds
    (Inject.Campaign.runs_per_sec par)
    par_jobs
    par.Inject.Campaign.jobs (* worker domains that actually ran *)
    (Domain.recommended_domain_count ())
    speedup (entry 1 seq) (entry par_jobs par);
  close_out oc;
  Format.printf "wrote %s@." !json_out;
  (* Campaign-level metrics snapshot (same data for both jobs values --
     asserted identical above). *)
  Obs.Export.write_metrics_json
    ~meta:
      [
        ("benchmark", `String "campaign_smoke");
        ("runs", `Int par.Inject.Campaign.totals.Inject.Campaign.runs);
        ("jobs", `Int par.Inject.Campaign.jobs);
        ("cores", `Int (Domain.recommended_domain_count ()));
      ]
    !obs_out par.Inject.Campaign.totals.Inject.Campaign.metrics;
  Format.printf "wrote %s@." !obs_out

(* ------------------------------------------------------------------ *)
(* Scaling sweep: the same campaign at jobs=1,2,4 with per-jobs         *)
(* throughput and per-run minor-heap allocation, written to             *)
(* BENCH_scaling.json. Aggregates must be bit-identical across the      *)
(* sweep; with --min-speedup S, exits 1 if any jobs>1 point falls       *)
(* below S x the jobs=1 throughput.                                     *)
(* ------------------------------------------------------------------ *)

let scaling () =
  hr "Campaign scaling sweep (jobs=1,2,4)";
  tune_gc_for_campaigns ();
  let n = if !full then 1000 else 240 in
  let cfg =
    {
      Inject.Run.default_config with
      Inject.Run.fault = Inject.Fault.Failstop;
      setup = Inject.Run.Three_appvm;
      mech = Inject.Run.Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
      hv_config = Hyper.Config.nilihype;
    }
  in
  let sweep = [ 1; 2; 4 ] in
  let results =
    (* (requested jobs, result): the result's own [jobs] field is the
       worker count that actually ran (capped at the core count). *)
    List.map
      (fun jobs ->
        ( jobs,
          Inject.Campaign.run
            ~label:(Printf.sprintf "jobs=%d" jobs)
            ~base_seed:90_000L ~jobs ~n cfg ))
      sweep
  in
  let base = snd (List.hd results) in
  let base_snap = Inject.Campaign.snapshot base.Inject.Campaign.totals in
  List.iter
    (fun (requested, r) ->
      if Inject.Campaign.snapshot r.Inject.Campaign.totals <> base_snap then
        failwith
          (Printf.sprintf "scaling: jobs=%d aggregate differs from jobs=1"
             requested))
    results;
  let base_rps = Inject.Campaign.runs_per_sec base in
  let speedup r =
    if base_rps > 0.0 then Inject.Campaign.runs_per_sec r /. base_rps else 1.0
  in
  let minor_per_run r =
    r.Inject.Campaign.minor_words
    /. float_of_int (max 1 r.Inject.Campaign.totals.Inject.Campaign.runs)
  in
  List.iter
    (fun (requested, r) ->
      Format.printf
        "jobs=%d (%d domain(s)): %8.1f runs/s  speedup %5.2fx  minor \
         words/run %10.0f@."
        requested r.Inject.Campaign.jobs
        (Inject.Campaign.runs_per_sec r)
        (speedup r) (minor_per_run r))
    results;
  let entry (requested, r) =
    Printf.sprintf
      "    { \"jobs\": %d, \"domains_used\": %d, \"runs\": %d, \"seconds\": \
       %.4f, \"runs_per_sec\": %.2f, \"speedup_vs_jobs1\": %.2f, \
       \"minor_words_per_run\": %.0f }"
      requested r.Inject.Campaign.jobs
      r.Inject.Campaign.totals.Inject.Campaign.runs
      r.Inject.Campaign.wall_seconds
      (Inject.Campaign.runs_per_sec r)
      (speedup r) (minor_per_run r)
  in
  let oc = open_out !scaling_out in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"scaling\",\n\
    \  \"runs\": %d,\n\
    \  \"cores\": %d,\n\
    \  \"identical_totals\": true,\n\
    \  \"series\": [\n%s\n  ]\n\
     }\n"
    n
    (Domain.recommended_domain_count ())
    (String.concat ",\n" (List.map entry results));
  close_out oc;
  Format.printf "wrote %s@." !scaling_out;
  if !min_speedup > 0.0 then
    List.iter
      (fun (requested, r) ->
        if requested > 1 && speedup r < !min_speedup then begin
          Format.printf
            "FAIL: jobs=%d throughput %.2fx of jobs=1, below floor %.2fx@."
            requested (speedup r) !min_speedup;
          exit 1
        end)
      results;
  if !max_words_per_run > 0.0 then
    List.iter
      (fun (requested, r) ->
        if minor_per_run r > !max_words_per_run then begin
          Format.printf
            "FAIL: jobs=%d allocates %.0f minor words/run, above ceiling %.0f@."
            requested (minor_per_run r) !max_words_per_run;
          exit 1
        end)
      results

(* ------------------------------------------------------------------ *)
(* Allocation attribution: where the minor words of one injection run   *)
(* go, by phase (boot/workload/injection/detection/recovery/audit).     *)
(* Checks that the phase attribution accounts for the whole-run          *)
(* [Gc.minor_words] delta (within 5%) and that the [alloc.*] counters   *)
(* merged into campaign totals are bit-identical for any --jobs value.  *)
(* Written to BENCH_alloc.json.                                          *)
(* ------------------------------------------------------------------ *)

let alloc () =
  hr "Allocation attribution by run phase";
  tune_gc_for_campaigns ();
  let n = if !full then 1000 else 240 in
  let base_seed = 90_000L in
  let cfg =
    {
      Inject.Run.default_config with
      Inject.Run.fault = Inject.Fault.Failstop;
      setup = Inject.Run.Three_appvm;
      mech = Inject.Run.Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
      hv_config = Hyper.Config.nilihype;
    }
  in
  (* Direct single-worker loop for the agreement check: the per-run
     [alloc.*] counters are read back as plain ints after each run (the
     worker reset zeroes them at the next rewind), so the loop adds
     almost nothing outside the attributed window. *)
  let recorder = Obs.Recorder.create ~capacity:1 ~min_level:Obs.Event.Error () in
  Obs.Recorder.set_alloc_profiling recorder true;
  let w = Inject.Run.prepare ~recorder cfg in
  let phases = Obs.Recorder.alloc_phases in
  let nphases = List.length phases in
  let sums = Array.make nphases 0 in
  let run_one i =
    let seed = Int64.add base_seed (Int64.of_int i) in
    ignore (Inject.Run.execute_into w { cfg with Inject.Run.seed })
  in
  (* Warm runs: first-touch growth of long-lived structures must not
     pollute the steady-state attribution. *)
  for i = 0 to 2 do
    run_one i
  done;
  let gc_start = Gc.minor_words () in
  for i = 0 to n - 1 do
    run_one i;
    List.iteri
      (fun pi p -> sums.(pi) <- sums.(pi) + Obs.Recorder.alloc_words recorder p)
      phases
  done;
  let gc_delta = Gc.minor_words () -. gc_start in
  let attributed = float_of_int (Array.fold_left ( + ) 0 sums) in
  let agreement = if gc_delta > 0.0 then attributed /. gc_delta else 0.0 in
  let per_run words = float_of_int words /. float_of_int n in
  List.iteri
    (fun pi p ->
      Format.printf "  %-10s %10.0f words/run@."
        (Obs.Recorder.alloc_phase_name p)
        (per_run sums.(pi)))
    phases;
  Format.printf
    "  attributed %.0f of %.0f words/run (%.1f%% of the Gc.minor_words \
     delta)@."
    (attributed /. float_of_int n)
    (gc_delta /. float_of_int n)
    (100.0 *. agreement);
  if agreement < 0.95 || agreement > 1.05 then
    failwith "alloc: phase attribution disagrees with Gc.minor_words by >5%";
  (* Jobs invariance: the merged [alloc.*] counters (and every other
     metric) must be bit-identical whatever the worker count. The >1
     points oversubscribe so multiple domains really run even on one
     core. *)
  let campaign jobs =
    Inject.Campaign.run
      ~label:(Printf.sprintf "alloc jobs=%d" jobs)
      ~base_seed ~jobs ~oversubscribe:(jobs > 1) ~alloc_profile:true ~n cfg
  in
  let seq = campaign 1 in
  let seq_snap = Inject.Campaign.snapshot seq.Inject.Campaign.totals in
  List.iter
    (fun jobs ->
      let r = campaign jobs in
      if Inject.Campaign.snapshot r.Inject.Campaign.totals <> seq_snap then
        failwith
          (Printf.sprintf "alloc: jobs=%d aggregate differs from jobs=1" jobs))
    [ 2; 4 ];
  (* The campaign path must attribute exactly what the direct loop saw:
     same seeds, same runs, same counters. *)
  let counter name =
    match
      List.assoc_opt name
        seq.Inject.Campaign.totals.Inject.Campaign.metrics.Obs.Metrics.counters
    with
    | Some v -> v
    | None -> 0
  in
  List.iteri
    (fun pi p ->
      let name = "alloc." ^ Obs.Recorder.alloc_phase_name p in
      if counter name <> sums.(pi) then
        failwith
          (Printf.sprintf "alloc: campaign %s=%d differs from direct loop %d"
             name (counter name) sums.(pi)))
    phases;
  Format.printf "alloc.* counters bit-identical for jobs=1,2,4 (n=%d)@." n;
  let oc = open_out !alloc_out in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"alloc\",\n\
    \  \"runs\": %d,\n\
    \  \"words_per_run\": %.1f,\n\
    \  \"gc_delta_words_per_run\": %.1f,\n\
    \  \"agreement\": %.4f,\n\
    \  \"jobs_invariant\": true,\n\
    \  \"phases\": {\n%s\n  }\n\
     }\n"
    n
    (attributed /. float_of_int n)
    (gc_delta /. float_of_int n)
    agreement
    (String.concat ",\n"
       (List.mapi
          (fun pi p ->
            Printf.sprintf "    \"%s\": %.1f"
              (Obs.Recorder.alloc_phase_name p)
              (per_run sums.(pi)))
          phases));
  close_out oc;
  Format.printf "wrote %s@." !alloc_out

(* ------------------------------------------------------------------ *)
(* Endurance smoke: successive recoveries on ONE instance, with the     *)
(* resource-leak ledger enforcing the paper's "few pages per recovery"  *)
(* claim and the jobs=1 vs jobs=N aggregates asserted bit-identical.    *)
(* Written to BENCH_endurance.json.                                     *)
(* ------------------------------------------------------------------ *)

let endurance () =
  hr "Endurance smoke: successive failures on one hypervisor instance";
  tune_gc_for_campaigns ();
  let cycles = if !full then 50 else 12 in
  let scenarios = if !full then 20 else 6 in
  let cfg =
    {
      Endure.run_cfg =
        {
          Inject.Run.default_config with
          Inject.Run.fault = Inject.Fault.Failstop;
          setup = Inject.Run.Three_appvm;
          mech =
            Inject.Run.Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
          hv_config = Hyper.Config.nilihype;
        };
      cycles;
      settle_activities = 120;
      leak_budget_pages = Some !leak_budget;
    }
  in
  let measure jobs =
    Endure.run
      ~label:(Printf.sprintf "jobs=%d" jobs)
      ~base_seed:96_000L ~jobs ~scenarios cfg
  in
  let par_jobs =
    let j = resolve_jobs () in
    if j > 1 then j else 4
  in
  let seq = measure 1 in
  let par = measure par_jobs in
  (* Determinism: the same seeds must yield the same survival curve, leak
     totals and metric snapshot whatever the worker count. *)
  if Endure.snapshot seq.Endure.totals <> Endure.snapshot par.Endure.totals then
    failwith "endurance: parallel aggregate differs from sequential";
  Format.printf "%a" Endure.pp par;
  (* Leak ceiling: no recovery may leak more than the budget. *)
  if par.Endure.totals.Endure.budget_violations > 0 then
    failwith
      (Printf.sprintf
         "endurance: %d recovery cycle(s) exceeded the %d-page leak budget"
         par.Endure.totals.Endure.budget_violations !leak_budget);
  let oc = open_out !endurance_out in
  Endure.write_json oc
    ~meta:
      [
        ("benchmark", `String "endurance");
        ("base_seed", `Int 96_000);
        ("identical_totals", `Bool true);
      ]
    par;
  close_out oc;
  Format.printf "wrote %s@." !endurance_out

(* ------------------------------------------------------------------ *)
(* Snapshot/restore benchmark: golden-image restore cost vs fresh boot  *)
(* (by previous-run outcome class) and clone fan-out throughput vs      *)
(* per-variant re-preparation, with fan-out aggregates asserted         *)
(* bit-identical across --jobs. Written to BENCH_snapshot.json.         *)
(* Gates: restore <= 15% of fresh-boot minor words; fan-out >= 2x the   *)
(* re-prepare baseline at jobs=1.                                       *)
(* ------------------------------------------------------------------ *)

let snapshot_bench () =
  hr "Snapshot/restore: O(changed-state) rewind and clone fan-out";
  tune_gc_for_campaigns ();
  let mech_nili =
    Inject.Run.Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set)
  in
  let base_cfg =
    {
      Inject.Run.default_config with
      Inject.Run.fault = Inject.Fault.Register;
      setup = Inject.Run.Three_appvm;
      mech = mech_nili;
      hv_config = Hyper.Config.nilihype;
    }
  in
  (* --- Fresh boot cost: the baseline a snapshot restore replaces. --- *)
  let boot_iters = if !full then 30 else 10 in
  let w0 = Gc.minor_words () in
  let t0 = Monotonic_clock.now () in
  for i = 0 to boot_iters - 1 do
    let seed = Int64.of_int (100_000 + i) in
    ignore (Sys.opaque_identity (Inject.Run.boot_state { base_cfg with Inject.Run.seed }))
  done;
  let fresh_words = (Gc.minor_words () -. w0) /. float_of_int boot_iters in
  let fresh_ns = elapsed_ns t0 /. float_of_int boot_iters in
  (* --- Restore cost, bucketed by the outcome class of the run that
     dirtied the machine (the dirty set -- and hence the restore cost --
     depends on how far the run got). [died] = detected but unrecovered,
     the class that used to force a fresh boot. --- *)
  let classes = Hashtbl.create 8 in
  let record cls words ns =
    let c, w, t =
      match Hashtbl.find_opt classes cls with
      | Some (c, w, t) -> (c, w, t)
      | None -> (0, 0.0, 0.0)
    in
    Hashtbl.replace classes cls (c + 1, w +. words, t +. ns)
  in
  let total_restores = ref 0 and total_restore_words = ref 0.0 in
  let measure_restores (cfg : Inject.Run.config) n seed0 =
    let w = Inject.Run.prepare cfg in
    for i = 0 to n - 1 do
      let cfg = { cfg with Inject.Run.seed = Int64.of_int (seed0 + i) } in
      let out = Inject.Run.execute_into w cfg in
      let cls =
        match out with
        | Inject.Run.Detected d when not d.Inject.Run.recovered -> "died"
        | o -> Inject.Run.outcome_name o
      in
      let w0 = Gc.minor_words () in
      let t0 = Monotonic_clock.now () in
      Inject.Run.rewind w cfg;
      let dw = Gc.minor_words () -. w0 in
      let dt = elapsed_ns t0 in
      incr total_restores;
      total_restore_words := !total_restore_words +. dw;
      record cls dw dt
    done
  in
  let n_restore = if !full then 150 else 60 in
  (* Register faults under NiLiHype cover non-manifested, SDC and
     detected-recovered; no-recovery failstop runs cover [died]. *)
  measure_restores base_cfg n_restore 100_000;
  measure_restores
    {
      base_cfg with
      Inject.Run.fault = Inject.Fault.Failstop;
      mech = Inject.Run.No_recovery;
      hv_config = Hyper.Config.stock;
    }
    (n_restore / 3) 100_000;
  let restore_words = !total_restore_words /. float_of_int !total_restores in
  let restore_fraction =
    if fresh_words > 0.0 then restore_words /. fresh_words else 1.0
  in
  Format.printf "fresh boot : %10.0f minor words  %10.0f ns@." fresh_words
    fresh_ns;
  let class_rows =
    List.sort compare
      (Hashtbl.fold (fun cls acc l -> (cls, acc) :: l) classes [])
  in
  List.iter
    (fun (cls, (c, w, t)) ->
      Format.printf
        "restore after %-15s %10.0f minor words  %10.0f ns  (n=%d)@." cls
        (w /. float_of_int c)
        (t /. float_of_int c)
        c)
    class_rows;
  Format.printf "restore overall: %.0f words = %.1f%% of a fresh boot@."
    restore_words
    (100.0 *. restore_fraction);
  (* --- Clone fan-out throughput vs per-variant re-preparation. The
     warmup-heavy config makes preparation the dominant per-run cost,
     which is the workload fan-out exists for: drive to the trigger
     point once, replay many variants. The baseline pays that warmup for
     every variant (the pre-fan-out behaviour). --- *)
  let fanout = 8 in
  let n = if !full then 240 else 96 in
  let fan_cfg =
    { base_cfg with Inject.Run.warmup_activities = 3600; post_activities = 150 }
  in
  let campaign ~fanout ~jobs ~oversubscribe =
    Inject.Campaign.run
      ~label:(Printf.sprintf "fanout=%d jobs=%d" fanout jobs)
      ~base_seed:120_000L ~jobs ~oversubscribe ~fanout ~n fan_cfg
  in
  let reprep = campaign ~fanout:1 ~jobs:1 ~oversubscribe:false in
  let fan = campaign ~fanout ~jobs:1 ~oversubscribe:false in
  let reprep_rps = Inject.Campaign.runs_per_sec reprep in
  let fan_rps = Inject.Campaign.runs_per_sec fan in
  let fan_speedup = if reprep_rps > 0.0 then fan_rps /. reprep_rps else 0.0 in
  Format.printf
    "re-prepare baseline: %8.1f runs/s   fan-out x%d: %8.1f runs/s  \
     (%.2fx)@."
    reprep_rps fanout fan_rps fan_speedup;
  (* --- Determinism: fan-out aggregates must be bit-identical for any
     [jobs]. The >1 points oversubscribe so multiple worker domains
     really run even on a single-core host. --- *)
  let fan_snap = Inject.Campaign.snapshot fan.Inject.Campaign.totals in
  List.iter
    (fun jobs ->
      let r = campaign ~fanout ~jobs ~oversubscribe:true in
      if Inject.Campaign.snapshot r.Inject.Campaign.totals <> fan_snap then
        failwith
          (Printf.sprintf "snapshot: fanout jobs=%d aggregate differs from jobs=1"
             jobs))
    [ 2; 4 ];
  Format.printf "fan-out totals bit-identical for jobs=1,2,4 (n=%d)@." n;
  let oc = open_out !snapshot_out in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"snapshot\",\n\
    \  \"fresh_boot_minor_words\": %.0f,\n\
    \  \"fresh_boot_ns\": %.0f,\n\
    \  \"restore_minor_words\": %.0f,\n\
    \  \"restore_fraction_of_fresh_boot\": %.4f,\n\
    \  \"restore_by_outcome\": {\n%s\n  },\n\
    \  \"fanout\": %d,\n\
    \  \"fanout_runs\": %d,\n\
    \  \"reprepare_runs_per_sec\": %.2f,\n\
    \  \"fanout_runs_per_sec\": %.2f,\n\
    \  \"fanout_speedup\": %.2f,\n\
    \  \"identical_totals\": true\n\
     }\n"
    fresh_words fresh_ns restore_words restore_fraction
    (String.concat ",\n"
       (List.map
          (fun (cls, (c, w, t)) ->
            Printf.sprintf
              "    \"%s\": { \"minor_words\": %.0f, \"ns\": %.0f, \"runs\": %d }"
              cls
              (w /. float_of_int c)
              (t /. float_of_int c)
              c)
          class_rows))
    fanout n reprep_rps fan_rps fan_speedup;
  close_out oc;
  Format.printf "wrote %s@." !snapshot_out;
  if restore_fraction > 0.15 then begin
    Format.printf
      "FAIL: restore costs %.1f%% of a fresh boot in minor words (ceiling \
       15%%)@."
      (100.0 *. restore_fraction);
    exit 1
  end;
  if fan_speedup < 2.0 then begin
    Format.printf
      "FAIL: fan-out throughput %.2fx of the re-prepare baseline (floor \
       2.00x)@."
      fan_speedup;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Observability overhead: the flight recorder is always on and          *)
(* postmortem capture is lazy, so a campaign with postmortems enabled    *)
(* must not be measurably slower than one without. Measures runs/s both  *)
(* ways (best of 3 to damp scheduler noise), gates the deficit at        *)
(* --max-obs-overhead (default 5%), asserts triage output is             *)
(* bit-identical across --jobs and --fanout splits, and re-runs an       *)
(* exemplar's one-line repro to confirm it reproduces the failure        *)
(* signature. Written to BENCH_obs.json (+ TRIAGE_campaign.json).        *)
(* ------------------------------------------------------------------ *)

let obs_overhead () =
  hr "Observability overhead: flight recorder + lazy postmortem capture";
  tune_gc_for_campaigns ();
  let n = if !full then 1000 else 240 in
  let cfg =
    {
      Inject.Run.default_config with
      Inject.Run.fault = Inject.Fault.Failstop;
      setup = Inject.Run.Three_appvm;
      mech = Inject.Run.Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
      hv_config = Hyper.Config.nilihype;
    }
  in
  let campaign ?(jobs = 1) ?(oversubscribe = false) ?(fanout = 1)
      ~postmortems label =
    Inject.Campaign.run ~label ~base_seed:90_000L ~jobs ~oversubscribe ~fanout
      ~postmortems ~n cfg
  in
  (* Best of 3: campaigns are deterministic in results, only wall clock
     varies, so max runs/s is the least-noisy throughput estimate. *)
  let best ~postmortems label =
    let reps =
      List.init 3 (fun i ->
          campaign ~postmortems (Printf.sprintf "%s #%d" label i))
    in
    List.fold_left
      (fun (best_rps, keep) r ->
        let rps = Inject.Campaign.runs_per_sec r in
        if rps > best_rps then (rps, r) else (best_rps, keep))
      (Inject.Campaign.runs_per_sec (List.hd reps), List.hd reps)
      (List.tl reps)
  in
  ignore (campaign ~postmortems:false "warmup");
  let base_rps, base = best ~postmortems:false "postmortems off" in
  let pm_rps, pm = best ~postmortems:true "postmortems on" in
  let overhead_pct =
    if base_rps > 0.0 then 100.0 *. (base_rps -. pm_rps) /. base_rps else 0.0
  in
  Format.printf
    "postmortems off: %8.1f runs/s   on: %8.1f runs/s   overhead %+.1f%%@."
    base_rps pm_rps overhead_pct;
  (* Capture must not perturb results: everything except the triage table
     itself is bit-identical with postmortems on. *)
  let strip s = { s with Inject.Campaign.s_triage = [] } in
  if
    strip (Inject.Campaign.snapshot base.Inject.Campaign.totals)
    <> strip (Inject.Campaign.snapshot pm.Inject.Campaign.totals)
  then failwith "obs_overhead: postmortem capture changed campaign results";
  (* Triage determinism: same table for any worker/fan-out split. The
     jobs>1 points oversubscribe so several domains run even on one
     core; the byte-level comparison covers exemplar bundles too. *)
  let triage_json r =
    Obs.Postmortem.Triage.to_json
      r.Inject.Campaign.totals.Inject.Campaign.triage
  in
  let pm_json = triage_json pm in
  List.iter
    (fun jobs ->
      let r =
        campaign ~jobs ~oversubscribe:true ~postmortems:true
          (Printf.sprintf "triage jobs=%d" jobs)
      in
      if triage_json r <> pm_json then
        failwith
          (Printf.sprintf "obs_overhead: triage differs at jobs=%d" jobs))
    [ 2; 4 ];
  let fan1 =
    campaign ~fanout:4 ~postmortems:true "triage fanout=4 jobs=1"
  in
  let fan4 =
    campaign ~fanout:4 ~jobs:4 ~oversubscribe:true ~postmortems:true
      "triage fanout=4 jobs=4"
  in
  if triage_json fan1 <> triage_json fan4 then
    failwith "obs_overhead: fan-out triage differs across jobs";
  Format.printf "triage bit-identical for jobs=1,2,4 and fanout=4 splits@.";
  (* Repro fidelity: a no-recovery campaign must emit bundles, and an
     exemplar's one-line repro (--runs 1 --seed S) must land in the same
     failure signature when re-run. *)
  let dead_cfg =
    {
      cfg with
      Inject.Run.mech = Inject.Run.No_recovery;
      hv_config = Hyper.Config.stock;
    }
  in
  let dead =
    Inject.Campaign.run ~label:"no-recovery" ~base_seed:90_000L
      ~postmortems:true ~n:(min n 24) dead_cfg
  in
  let dead_triage = dead.Inject.Campaign.totals.Inject.Campaign.triage in
  let exemplars =
    List.filter_map
      (fun (key, e) ->
        Option.map
          (fun (seed, _) -> (key, seed))
          e.Obs.Postmortem.Triage.e_exemplar)
      (Obs.Postmortem.Triage.snapshot dead_triage)
  in
  if exemplars = [] then
    failwith "obs_overhead: no postmortem bundle from a died campaign";
  List.iter
    (fun (key, seed) ->
      let rerun =
        Inject.Campaign.run ~label:"repro" ~base_seed:seed ~postmortems:true
          ~n:1 dead_cfg
      in
      let keys =
        List.map fst
          (Obs.Postmortem.Triage.snapshot
             rerun.Inject.Campaign.totals.Inject.Campaign.triage)
      in
      if keys <> [ key ] then
        failwith
          (Printf.sprintf "obs_overhead: repro of seed %Ld gave %s, want %s"
             seed
             (String.concat "," keys)
             key))
    exemplars;
  Format.printf
    "repro fidelity: %d exemplar seed(s) re-ran to their own signature@."
    (List.length exemplars);
  if !triage_out <> "" then begin
    let oc = open_out !triage_out in
    output_string oc
      (Obs.Postmortem.Triage.to_json
         ~meta:
           [
             ("benchmark", `String "obs_overhead");
             ("runs", `Int (min n 24));
             ("base_seed", `Int 90_000);
           ]
         dead_triage);
    close_out oc;
    Format.printf "wrote %s@." !triage_out
  end;
  let oc = open_out !obs_bench_out in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"obs_overhead\",\n\
    \  \"runs\": %d,\n\
    \  \"baseline_runs_per_sec\": %.2f,\n\
    \  \"postmortem_runs_per_sec\": %.2f,\n\
    \  \"overhead_pct\": %.2f,\n\
    \  \"overhead_ceiling_pct\": %.2f,\n\
    \  \"identical_results\": true,\n\
    \  \"triage_jobs_invariant\": true,\n\
    \  \"triage_fanout_invariant\": true,\n\
    \  \"repro_signatures_verified\": %d\n\
     }\n"
    n base_rps pm_rps overhead_pct !max_obs_overhead
    (List.length exemplars);
  close_out oc;
  Format.printf "wrote %s@." !obs_bench_out;
  if overhead_pct > !max_obs_overhead then begin
    Format.printf
      "FAIL: postmortem capture costs %.1f%% runs/s (ceiling %.1f%%)@."
      overhead_pct !max_obs_overhead;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Fuzz: coverage-guided fault-space search vs uniform-grid sampling    *)
(* at an equal run budget. The grid baseline spends the same N runs     *)
(* evenly across the four fault kinds with consecutive seeds (the       *)
(* campaign strategy every prior PR used); the fuzzer spends N mutants  *)
(* steered by Obs.Coverage novelty. Gates: (a) the fuzzer discovers     *)
(* strictly more distinct triage signatures than the grid, and (b)      *)
(* every discovered signature's one-line repro replays to a             *)
(* byte-identical triage entry (run twice, compared as JSON).           *)
(* BENCH_fuzz.json.                                                     *)
(* ------------------------------------------------------------------ *)

let fuzz_bench () =
  hr "Fuzz: coverage-guided search vs uniform-grid sampling";
  tune_gc_for_campaigns ();
  let n = if !full then 1024 else 192 in
  let base =
    {
      Inject.Run.default_config with
      Inject.Run.setup = Inject.Run.Three_appvm;
      mech = Inject.Run.Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
      hv_config = Hyper.Config.nilihype;
    }
  in
  (* Grid baseline: N/4 runs per fault kind, consecutive seeds, same
     mechanism and setup. Signatures = union over the four triages. *)
  let kinds =
    [ Inject.Fault.Failstop; Inject.Fault.Register; Inject.Fault.Code;
      Inject.Fault.Data ]
  in
  let per_kind = n / List.length kinds in
  let grid_t0 = Monotonic_clock.now () in
  let grid_sigs =
    List.concat_map
      (fun fault ->
        let r =
          Inject.Campaign.run
            ~label:(Printf.sprintf "grid %s" (Inject.Fault.name fault))
            ~base_seed:9_000L ~jobs:(resolve_jobs ()) ~oversubscribe:(!jobs = 0)
            ~postmortems:true ~n:per_kind
            { base with Inject.Run.fault }
        in
        List.map fst
          (Obs.Postmortem.Triage.snapshot
             r.Inject.Campaign.totals.Inject.Campaign.triage))
      kinds
    |> List.sort_uniq String.compare
  in
  let grid_secs = elapsed_ns grid_t0 /. 1e9 in
  (* Fuzzer: same budget, same base seed, same mechanism. *)
  let fcfg =
    {
      (Fuzz.Session.default_config ~base_seed:9_000L) with
      Fuzz.Session.f_base = base;
      f_runs = per_kind * List.length kinds;
      f_batch = max 8 (n / 8);
      f_jobs = resolve_jobs ();
      f_oversubscribe = !jobs = 0;
    }
  in
  let fuzz_t0 = Monotonic_clock.now () in
  let t = Fuzz.Session.explore fcfg in
  let fuzz_secs = elapsed_ns fuzz_t0 /. 1e9 in
  let fuzz_sigs = Fuzz.Corpus.signatures t.Fuzz.Session.s_corpus in
  Format.printf
    "grid: %d runs -> %d signatures (%.1fs)   fuzz: %d runs -> %d signatures \
     (%.1fs), %d coverage points, %d corpus entries@."
    (per_kind * List.length kinds)
    (List.length grid_sigs) grid_secs t.Fuzz.Session.s_evaluated
    (List.length fuzz_sigs) fuzz_secs
    (Fuzz.Corpus.n_points t.Fuzz.Session.s_corpus)
    (List.length (Fuzz.Corpus.entries t.Fuzz.Session.s_corpus));
  (* Repro fidelity: every discovered signature's exemplar must replay
     -- twice -- to the byte-identical triage entry recorded for it. *)
  let entry_json (r : Fuzz.Session.replay_result) =
    let tr = Obs.Postmortem.Triage.create () in
    (match Obs.Signature.of_key r.Fuzz.Session.r_signature with
    | Some sg ->
      Obs.Postmortem.Triage.record ?bundle:r.Fuzz.Session.r_bundle tr sg
        ~seed:r.Fuzz.Session.r_point.Fuzz.Input.p_seed
    | None -> ());
    Obs.Postmortem.Triage.to_json tr
  in
  let exemplars = Fuzz.Session.exemplars t in
  List.iter
    (fun (sigkey, (e : Fuzz.Corpus.entry)) ->
      let a = Fuzz.Session.replay fcfg e.Fuzz.Corpus.en_trace in
      let b = Fuzz.Session.replay fcfg e.Fuzz.Corpus.en_trace in
      if a.Fuzz.Session.r_signature <> sigkey then
        failwith
          (Printf.sprintf "fuzz: repro of %s replayed to %s" sigkey
             a.Fuzz.Session.r_signature);
      if a.Fuzz.Session.r_outcome <> e.Fuzz.Corpus.en_outcome then
        failwith (Printf.sprintf "fuzz: repro of %s changed outcome" sigkey);
      if entry_json a <> entry_json b then
        failwith
          (Printf.sprintf "fuzz: repro of %s is not byte-stable" sigkey))
    exemplars;
  Format.printf "repro fidelity: %d signature(s) replayed byte-identically@."
    (List.length exemplars);
  let coverage_wins = List.length fuzz_sigs > List.length grid_sigs in
  let oc = open_out !fuzz_out in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"fuzz\",\n\
    \  \"runs\": %d,\n\
    \  \"grid_signatures\": %d,\n\
    \  \"grid_secs\": %.2f,\n\
    \  \"fuzz_signatures\": %d,\n\
    \  \"fuzz_secs\": %.2f,\n\
    \  \"coverage_points\": %d,\n\
    \  \"corpus_entries\": %d,\n\
    \  \"replayed_signatures\": %d,\n\
    \  \"coverage_beats_grid\": %b\n\
     }\n"
    (per_kind * List.length kinds)
    (List.length grid_sigs) grid_secs (List.length fuzz_sigs) fuzz_secs
    (Fuzz.Corpus.n_points t.Fuzz.Session.s_corpus)
    (List.length (Fuzz.Corpus.entries t.Fuzz.Session.s_corpus))
    (List.length exemplars) coverage_wins;
  close_out oc;
  Format.printf "wrote %s@." !fuzz_out;
  if not coverage_wins then begin
    Format.printf
      "FAIL: fuzzer found %d signature(s), grid found %d at the same budget@."
      (List.length fuzz_sigs) (List.length grid_sigs);
    exit 1
  end;
  if exemplars = [] then begin
    Format.printf "FAIL: fuzzer discovered no signatures to replay@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Soak: million-run-scale streaming campaigns. Gates (a) constant      *)
(* memory -- top-heap growth from a 10^3-run campaign to the 10^5+ soak *)
(* must stay under --max-heap-growth -- and (b) kill -> resume          *)
(* determinism: a campaign stopped mid-flight and resumed with a        *)
(* different --jobs must reproduce the uninterrupted aggregate exactly, *)
(* with a byte-identical final checkpoint file. BENCH_soak.json.        *)
(* ------------------------------------------------------------------ *)

let soak () =
  hr "Soak: streaming aggregation, checkpoint/resume, machine pools";
  tune_gc_for_campaigns ();
  let n = max 1_000 !soak_runs in
  let cfg =
    {
      Inject.Run.default_config with
      Inject.Run.fault = Inject.Fault.Failstop;
      setup = Inject.Run.Three_appvm;
      mech =
        Inject.Run.Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
      hv_config = Hyper.Config.nilihype;
    }
  in
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let jobs = resolve_jobs () in
  (* Machines for every worker slot boot once, up front, and serve the
     small run, the soak, and the resume drills below. *)
  let pool = Inject.Campaign.prepare_pool ~jobs cfg in
  let ck path =
    {
      Inject.Drive.ck_path = path;
      ck_every = 16;
      ck_resume = false;
      ck_stop_after = None;
    }
  in
  (* The top-heap high-water mark only ratchets up, and the major heap
     keeps expanding toward its steady-state pacing for well past 10^3
     runs no matter how small the live set is. Warm the collector to
     steady state first so the small/soak comparison below measures
     streaming-aggregation growth, not GC ramp-up. *)
  let n_warm = min 20_000 (max 2_000 n) in
  ignore
    (Inject.Campaign.run ~label:"soak warmup" ~base_seed:110_000L ~jobs ~pool
       ~n:n_warm cfg);
  (* Small streaming campaign next: establishes the top-heap high-water
     mark (a process-global maximum) that the soak must not materially
     exceed -- THE constant-memory claim, measured end to end. *)
  let small =
    Inject.Campaign.run ~label:"soak small" ~base_seed:120_000L ~jobs ~pool
      ~checkpoint:(ck "SOAK_small_checkpoint.json") ~n:1_000 cfg
  in
  (* The constant-memory gate compares the *live* heap -- what actually
     survives a full major collection -- between the 10^3 campaign and
     the soak. The top-heap high-water mark from [Gc.quick_stat] is
     reported alongside, but only informationally: it ratchets up with
     the collector's pacing for hundreds of thousands of runs even when
     the live set is flat, so gating on it measures GC heuristics, not
     the streaming accumulator. *)
  let live_heap () =
    (* Twice: the first finishes the in-flight incremental cycle, the
       second collects everything that died during it. *)
    Gc.full_major ();
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let live_small = live_heap () in
  let heap_small = (Gc.quick_stat ()).Gc.top_heap_words in
  Format.printf "10^3 streaming: %7.1f runs/s, live %d words, top heap %d@."
    (Inject.Campaign.runs_per_sec small)
    live_small heap_small;
  let big =
    Inject.Campaign.run ~label:"soak" ~base_seed:120_000L ~jobs ~pool
      ~checkpoint:(ck "SOAK_checkpoint.json") ~n cfg
  in
  let live_big = live_heap () in
  let heap_big = (Gc.quick_stat ()).Gc.top_heap_words in
  (* Keep the pool reachable past the second measurement; its booted
     machines dominate the live set, and letting the optimizer treat it
     as dead after its last campaign would make the two live-heap
     samples measure different worlds. *)
  ignore (Sys.opaque_identity pool);
  let rps = Inject.Campaign.runs_per_sec big in
  let words_per_run =
    big.Inject.Campaign.minor_words /. float_of_int (max 1 n)
  in
  let growth_pct =
    100.0
    *. float_of_int (live_big - live_small)
    /. float_of_int (max 1 live_small)
  in
  Format.printf
    "%d-run soak: %7.1f runs/s, %.0f minor words/run, live %d words \
     (%+.2f%% vs 10^3), top heap %d@."
    n rps words_per_run live_big growth_pct heap_big;
  (* Kill -> resume determinism drill, small enough to run thrice. A
     20-chunk prefix simulates the kill; the resume runs with a
     different --jobs (oversubscribed so several domains actually run
     on this host) and must land on the uninterrupted aggregate with a
     byte-identical checkpoint. *)
  let drill_n = 4_000 in
  let drill ~path ~stop_after ~resume ~jobs ~oversubscribe =
    (* No pool here: the resume runs with more jobs than the pool has
       slots, and extra workers booting their own machine is exactly the
       add-workers-on-resume scenario. *)
    Inject.Campaign.run ~label:"resume drill" ~base_seed:130_000L ~jobs
      ~oversubscribe ~chunk:64
      ~checkpoint:
        {
          Inject.Drive.ck_path = path;
          ck_every = 4;
          ck_resume = resume;
          ck_stop_after = stop_after;
        }
      ~n:drill_n cfg
  in
  let killed =
    drill ~path:"SOAK_resume.json" ~stop_after:(Some 20) ~resume:false ~jobs:1
      ~oversubscribe:false
  in
  Format.printf "killed after %d/%d runs; resuming with jobs=2@."
    killed.Inject.Campaign.totals.Inject.Campaign.runs drill_n;
  let resumed =
    drill ~path:"SOAK_resume.json" ~stop_after:None ~resume:true ~jobs:2
      ~oversubscribe:true
  in
  let uninterrupted =
    drill ~path:"SOAK_uninterrupted.json" ~stop_after:None ~resume:false
      ~jobs:1 ~oversubscribe:false
  in
  let resume_identical =
    Inject.Campaign.snapshot resumed.Inject.Campaign.totals
    = Inject.Campaign.snapshot uninterrupted.Inject.Campaign.totals
  in
  let bytes_identical =
    read_file "SOAK_resume.json" = read_file "SOAK_uninterrupted.json"
  in
  Format.printf "resume aggregate identical: %b, checkpoint bytes identical: %b@."
    resume_identical bytes_identical;
  let oc = open_out !soak_out in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"soak\",\n\
    \  \"runs\": %d,\n\
    \  \"jobs\": %d,\n\
    \  \"seconds\": %.3f,\n\
    \  \"runs_per_sec\": %.2f,\n\
    \  \"minor_words_per_run\": %.0f,\n\
    \  \"live_words_small\": %d,\n\
    \  \"live_words_soak\": %d,\n\
    \  \"top_heap_words_small\": %d,\n\
    \  \"top_heap_words_soak\": %d,\n\
    \  \"max_heap_growth_pct\": %.3f,\n\
    \  \"max_heap_growth_ceiling_pct\": %.2f,\n\
    \  \"resume_identical\": %b,\n\
    \  \"checkpoint_bytes_identical\": %b\n\
     }\n"
    n big.Inject.Campaign.jobs big.Inject.Campaign.wall_seconds rps
    words_per_run live_small live_big heap_small heap_big growth_pct
    !max_heap_growth resume_identical bytes_identical;
  close_out oc;
  Format.printf "wrote %s@." !soak_out;
  if growth_pct > !max_heap_growth then begin
    Format.printf
      "FAIL: live heap grew %.2f%% from 10^3 to %d runs (ceiling %.1f%%)@."
      growth_pct n !max_heap_growth;
    exit 1
  end;
  if not (resume_identical && bytes_identical) then begin
    Format.printf "FAIL: kill -> resume did not reproduce the aggregate@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Fleet: hundreds of tenant VMs, request latency through a recovery    *)
(* event, per mechanism. Gates (a) the incremental microreset: its mean *)
(* recovery latency must be at most --max-incremental-frac of the       *)
(* full-scan's at the paper's reference geometry (2 Mi frames); (b) the *)
(* sharded recovery: its request p99 through the event must be strictly *)
(* below serial (full-scan) recovery's; and (c) jobs invariance: every  *)
(* mechanism's merged aggregate must be bit-identical when the trials   *)
(* are re-run on a different, oversubscribed worker count.              *)
(* BENCH_fleet.json.                                                    *)
(* ------------------------------------------------------------------ *)

let fleet_bench () =
  hr "Fleet: tenant request latency through a recovery event";
  tune_gc_for_campaigns ();
  let cfg =
    if !full then Fleet.default_config
    else { Fleet.default_config with Fleet.tenants = 96; trials = 2 }
  in
  let j = resolve_jobs () in
  Format.printf "%d tenants, %d trials/mechanism, %d victims, jobs=%d@.@."
    cfg.Fleet.tenants cfg.Fleet.trials cfg.Fleet.victims j;
  let results =
    List.map
      (fun mech ->
        let r = Fleet.run ~jobs:j cfg mech in
        Format.printf "  %a" Fleet.pp r;
        r)
      Fleet.all_mechanisms
  in
  let find mech =
    List.find (fun (r : Fleet.result) -> r.Fleet.mech = mech) results
  in
  let full_r = find Fleet.Serial_full in
  let incr_r = find Fleet.Serial_incremental in
  let shard_r = find Fleet.Sharded in
  let full_mean = Fleet.recovery_mean_ns full_r in
  let incr_mean = Fleet.recovery_mean_ns incr_r in
  let frac = float_of_int incr_mean /. float_of_int full_mean in
  let p99_full = Fleet.request_quantile full_r 0.99 in
  let p99_shard = Fleet.request_quantile shard_r 0.99 in
  Format.printf
    "@.incremental/full recovery mean: %a / %a = %.3f (ceiling %.2f)@."
    Sim.Time.pp_ms incr_mean Sim.Time.pp_ms full_mean frac
    !max_incremental_frac;
  Format.printf "request p99 through the event: sharded %a vs serial-full %a@."
    Sim.Time.pp_ms p99_shard Sim.Time.pp_ms p99_full;
  (* Jobs invariance, the adversarial way: different worker count,
     oversubscribed scheduling. *)
  let invariant =
    List.for_all
      (fun (r : Fleet.result) ->
        let r' = Fleet.run ~jobs:(j + 1) ~oversubscribe:true cfg r.Fleet.mech in
        r'.Fleet.metrics = r.Fleet.metrics)
      results
  in
  Format.printf "aggregates jobs-invariant (jobs=%d vs %d): %b@." j (j + 1)
    invariant;
  let oc = open_out !fleet_out in
  Fleet.write_json oc cfg results;
  close_out oc;
  Format.printf "wrote %s@." !fleet_out;
  if frac > !max_incremental_frac then begin
    Format.printf
      "FAIL: incremental microreset is %.3f of the full scan (ceiling %.2f)@."
      frac !max_incremental_frac;
    exit 1
  end;
  if p99_shard >= p99_full then begin
    Format.printf
      "FAIL: sharded request p99 (%a) not below serial recovery's (%a)@."
      Sim.Time.pp_ms p99_shard Sim.Time.pp_ms p99_full;
    exit 1
  end;
  if not invariant then begin
    Format.printf "FAIL: fleet aggregates depend on --jobs@.";
    exit 1
  end

let () =
  Arg.parse
    [
      ("--full", Arg.Set full, " paper-sized campaigns");
      ( "--jobs",
        Arg.Set_int jobs,
        " parallel worker domains for campaigns (0 = one per core; default 1)" );
      ( "--json-out",
        Arg.Set_string json_out,
        " output path for the campaign_smoke JSON record" );
      ( "--obs-out",
        Arg.Set_string obs_out,
        " output path for the campaign_smoke metrics snapshot (nlh-obs/1)" );
      ( "--scaling-out",
        Arg.Set_string scaling_out,
        " output path for the scaling sweep JSON record" );
      ( "--min-speedup",
        Arg.Set_float min_speedup,
        " fail the scaling sweep if jobs>1 throughput is below this x jobs=1" );
      ( "--max-words-per-run",
        Arg.Set_float max_words_per_run,
        " fail the scaling sweep if any point allocates more minor words per \
         run" );
      ( "--alloc-out",
        Arg.Set_string alloc_out,
        " output path for the allocation-attribution JSON record" );
      ( "--endurance-out",
        Arg.Set_string endurance_out,
        " output path for the endurance smoke JSON record (nlh-endurance/1)" );
      ( "--leak-budget",
        Arg.Set_int leak_budget,
        " max leaked pages per recovery tolerated by the endurance smoke" );
      ( "--snapshot-out",
        Arg.Set_string snapshot_out,
        " output path for the snapshot/restore benchmark JSON record" );
      ( "--obs-bench-out",
        Arg.Set_string obs_bench_out,
        " output path for the observability-overhead JSON record" );
      ( "--triage-out",
        Arg.Set_string triage_out,
        " output path for the no-recovery campaign triage (nlh-triage/1; \
         empty = skip)" );
      ( "--max-obs-overhead",
        Arg.Set_float max_obs_overhead,
        " fail obs_overhead if postmortems cost more than this % runs/s" );
      ( "--fuzz-out",
        Arg.Set_string fuzz_out,
        " output path for the fuzz coverage-vs-grid JSON record" );
      ( "--soak-out",
        Arg.Set_string soak_out,
        " output path for the soak campaign JSON record" );
      ( "--soak-runs",
        Arg.Set_int soak_runs,
        " soak campaign size (default 100000; floor 1000)" );
      ( "--max-heap-growth",
        Arg.Set_float max_heap_growth,
        " fail the soak if top-heap words grow more than this % from the \
         1000-run campaign" );
      ( "--fleet-out",
        Arg.Set_string fleet_out,
        " output path for the fleet tail-latency JSON record (nlh-fleet/1)" );
      ( "--max-incremental-frac",
        Arg.Set_float max_incremental_frac,
        " fail the fleet section if incremental recovery mean exceeds this \
         fraction of the full scan's" );
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
  if section "micro" then microbench ();
  if section "campaign_smoke" then campaign_smoke ();
  if section "scaling" then scaling ();
  if section "endurance" then endurance ();
  if section "alloc" then alloc ();
  if section "snapshot" then snapshot_bench ();
  if section "obs_overhead" then obs_overhead ();
  if section "fuzz" then fuzz_bench ();
  if section "soak" then soak ();
  if section "fleet" then fleet_bench ();
  Format.printf "@.done.@."
