(* Recovery-latency explorer: print the Table II/III breakdowns for a
   configurable machine geometry, demonstrating the paper's point that
   NiLiHype's latency is proportional to host memory size (and how that
   could be mitigated).

     dune exec bin/nlh_latency.exe -- --mem-gb 32 --cpus 16 *)

let minor_words_per_run (r : Inject.Campaign.result) =
  let n = r.Inject.Campaign.totals.Inject.Campaign.runs in
  if n > 0 then r.Inject.Campaign.minor_words /. float_of_int n else 0.0

(* Empirical cross-check of the analytic model: measure the mean
   recovery latency observed across a failstop campaign (parallelised
   over [jobs] domains), and report the campaign's allocation cost the
   same way the bench sections do. Returns the campaign's fanout and
   result, which the JSON export embeds. *)
let empirical_latency ~runs ~jobs =
  let fanout = 1 in
  let cfg =
    {
      Inject.Run.default_config with
      Inject.Run.fault = Inject.Fault.Failstop;
      setup = Inject.Run.One_appvm Workloads.Workload.Unixbench;
    }
  in
  let r =
    Inject.Campaign.run ~label:"latency" ~base_seed:42_000L ~jobs ~fanout ~n:runs cfg
  in
  Format.printf
    "@.Empirical (campaign of %d failstop injections, jobs=%d, wall %.2fs, \
     %.1f runs/s, %.0f minor words/run):@."
    runs r.Inject.Campaign.jobs r.Inject.Campaign.wall_seconds
    (Inject.Campaign.runs_per_sec r)
    (minor_words_per_run r);
  (match Inject.Campaign.mean_latency r with
  | Some l ->
    Format.printf "  mean NiLiHype recovery latency over %d recoveries: %a@."
      r.Inject.Campaign.totals.Inject.Campaign.latency_samples Sim.Time.pp_float l
  | None -> Format.printf "  no recovery latency samples recorded@.");
  (fanout, r)

let () =
  let mem_gb = ref 8 in
  let cpus = ref 8 in
  let runs = ref 0 in
  let jobs = ref 1 in
  let json_out = ref "" in
  let spec =
    [
      ("--mem-gb", Arg.Set_int mem_gb, " host memory in GiB (default 8)");
      ("--cpus", Arg.Set_int cpus, " physical CPUs (default 8)");
      ( "--runs",
        Arg.Set_int runs,
        " also measure mean latency over a failstop campaign of this size" );
      ( "--jobs",
        Arg.Set_int jobs,
        " parallel worker domains for --runs (0 = one per core; default 1)" );
      ( "--json-out",
        Arg.Set_string json_out,
        " write the latency report (analytic + empirical) as JSON" );
    ]
    @ Obs_cli.arg_specs
  in
  Arg.parse spec (fun _ -> ()) "nlh_latency [options]";
  let require = Obs_cli.require_at_least "nlh_latency" in
  require "--mem-gb" 1 !mem_gb;
  (* The 1AppVM setup pins the PrivVM and the AppVM to distinct CPUs. *)
  require "--cpus" 2 !cpus;
  require "--runs" 0 !runs;
  require "--jobs" 0 !jobs;
  let mconfig =
    {
      Hw.Machine.default_config with
      Hw.Machine.mem_bytes = !mem_gb * 1024 * 1024 * 1024;
      num_cpus = !cpus;
    }
  in
  (* With --trace/--metrics, the NiLiHype measurement runs against a full
     recorder: its recovery spans become the exported timeline. *)
  let meta =
    [ ("tool", `String "nlh_latency"); ("mem_gb", `Int !mem_gb); ("cpus", `Int !cpus) ]
  in
  let recorder =
    if !Obs_cli.trace_file <> "" || !Obs_cli.metrics_file <> "" then
      Some (Obs_cli.make_recorder ())
    else None
  in
  Format.printf "Machine: %d GiB RAM (%d frames), %d CPUs@.@." !mem_gb
    (mconfig.Hw.Machine.mem_bytes / Hw.Machine.page_size)
    mconfig.Hw.Machine.num_cpus;
  let nl =
    Recovery.Engine.measure ~mconfig ?obs:recorder Recovery.Engine.Nilihype
  in
  Format.printf "NiLiHype (microreset):@.%a@." Hyper.Latency_model.pp
    nl.Recovery.Plan.breakdown;
  (match recorder with
  | Some r ->
    if !Obs_cli.trace_file <> "" then begin
      Obs.Export.write_chrome_trace !Obs_cli.trace_file r;
      Format.printf "trace: wrote %s (%d events, %d spans)@." !Obs_cli.trace_file
        (Obs.Trace.size r.Obs.Recorder.trace)
        (Obs.Span.count r.Obs.Recorder.spans)
    end;
    if !Obs_cli.metrics_file <> "" then
      Obs_cli.write_metrics ~meta !Obs_cli.metrics_file
        (Obs.Recorder.metrics_snapshot r);
    Obs_cli.print_notes ()
  | None -> ());
  let re = Recovery.Engine.measure ~mconfig Recovery.Engine.Rehype in
  Format.printf "ReHype (microreboot):@.%a@." Hyper.Latency_model.pp
    re.Recovery.Plan.breakdown;
  Format.printf "ratio: %.1fx@."
    (float_of_int re.Recovery.Plan.latency
    /. float_of_int nl.Recovery.Plan.latency);
  if !mem_gb > 8 then
    Format.printf
      "@.Note (Section VII-B): the page-frame scan grows linearly with \
       memory; the paper suggests parallelising it across cores or skipping \
       it at a ~4%% recovery-rate cost.@.";
  let empirical =
    if !runs > 0 then
      Some
        (empirical_latency ~runs:!runs
           ~jobs:(if !jobs > 0 then !jobs else Inject.Pool.default_jobs ()))
    else None
  in
  if !json_out <> "" then begin
    Obs.Export.write_file !json_out
      (Inject.Latency_report.to_json ~meta ~nilihype_ns:nl.Recovery.Plan.latency
         ~rehype_ns:re.Recovery.Plan.latency ~empirical);
    Format.printf "latency report written to %s@." !json_out
  end
