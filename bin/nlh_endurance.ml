(* Endurance CLI: keep one hypervisor instance alive through successive
   inject -> detect -> recover cycles and account for resource leaks.
   Exits non-zero when any recovery leaks more pages than the budget. *)

let resolve_jobs jobs = if jobs > 0 then jobs else Inject.Pool.default_jobs ()

let () =
  let mech = ref (Some Recovery.Engine.Nilihype) in
  let fault = ref Inject.Fault.Failstop in
  let cycles = ref 50 in
  let scenarios = ref 10 in
  let settle = ref Endure.default_config.Endure.settle_activities in
  let seed = ref 77_000 in
  let jobs = ref 1 in
  let chunk = ref 0 in
  let budget = ref 8 in
  let json_out = ref "BENCH_endurance.json" in
  let spec =
    [
      Obs_cli.mech_spec ~none:false mech;
      ( "--fault",
        Arg.Symbol
          ( [ "failstop"; "register"; "code"; "data" ],
            function
            | "failstop" -> fault := Inject.Fault.Failstop
            | "register" -> fault := Inject.Fault.Register
            | "data" -> fault := Inject.Fault.Data
            | _ -> fault := Inject.Fault.Code ),
        " fault type" );
      ("--cycles", Arg.Set_int cycles, " recovery cycles per scenario");
      ("--scenarios", Arg.Set_int scenarios, " independent scenarios (seeds)");
      ( "--settle",
        Arg.Set_int settle,
        " post-recovery activities before each ledger snapshot" );
      ("--seed", Arg.Set_int seed, " base seed");
      ( "--jobs",
        Arg.Set_int jobs,
        " parallel worker domains (0 = one per core; default 1)" );
      ( "--chunk",
        Arg.Set_int chunk,
        " scenarios per scheduling chunk (0 = auto; ignored on --resume)" );
      ( "--leak-budget",
        Arg.Set_int budget,
        " max leaked pages per recovery (-1 = unlimited; default 8)" );
      ( "--json-out",
        Arg.Set_string json_out,
        " endurance report path (empty = no report; default \
         BENCH_endurance.json)" );
    ]
    @ Obs_cli.arg_specs
  in
  Arg.parse spec (fun _ -> ()) "nlh_endurance [options]";
  let require = Obs_cli.require_at_least "nlh_endurance" in
  require "--cycles" 1 !cycles;
  require "--scenarios" 1 !scenarios;
  require "--jobs" 0 !jobs;
  require "--chunk" 0 !chunk;
  require "--settle" 0 !settle;
  require "--checkpoint-every" 1 !Obs_cli.checkpoint_every;
  let mech_name = Obs_cli.mech_name !mech in
  let run_mech, hv_config = Obs_cli.run_mech !mech in
  let cfg =
    {
      Endure.run_cfg =
        {
          Inject.Run.default_config with
          Inject.Run.fault = !fault;
          mech = run_mech;
          hv_config;
        };
      cycles = !cycles;
      settle_activities = !settle;
      leak_budget_pages = (if !budget < 0 then None else Some !budget);
    }
  in
  let label = Printf.sprintf "%s/%s" mech_name (Inject.Fault.name !fault) in
  let result =
    Obs_cli.or_usage_error "nlh_endurance" @@ fun () ->
    Endure.run ~label ~base_seed:(Int64.of_int !seed)
      ~jobs:(resolve_jobs !jobs)
      ?chunk:(if !chunk > 0 then Some !chunk else None)
      ~postmortems:(Obs_cli.postmortems_on ())
      ?checkpoint:(Obs_cli.checkpoint ())
      ?triage_seed_cap:(Obs_cli.triage_seed_cap ())
      ~scenarios:!scenarios cfg
  in
  (* Every file first, then stdout: a reader that stops early cannot
     cost a file. One meta for every file the run writes. *)
  let meta =
    [
      ("tool", `String "nlh_endurance"); ("label", `String label);
      ("mechanism", `String mech_name); ("fault", `String (Inject.Fault.name !fault));
      ("scenarios", `Int !scenarios); ("cycles", `Int !cycles); ("base_seed", `Int !seed);
    ]
    @ if !budget < 0 then [] else [ ("leak_budget_pages", `Int !budget) ]
  in
  Obs_cli.write_triage ~meta result.Endure.totals.Endure.triage;
  if !json_out <> "" then begin
    Obs.Export.write_file !json_out (Endure.report_json ~meta result);
    Obs_cli.note "endurance report written to %s@." !json_out
  end;
  if !Obs_cli.metrics_file <> "" then
    Obs_cli.write_metrics
      ~meta:(meta @ [ ("jobs", `Int result.Endure.jobs) ])
      !Obs_cli.metrics_file result.Endure.totals.Endure.metrics;
  (match Obs_cli.checkpoint () with
  | Some ck ->
    Format.printf "checkpoint: %s (%d scenarios aggregated)@."
      ck.Inject.Drive.ck_path result.Endure.totals.Endure.scenarios
  | None -> ());
  Format.printf "%a" Endure.pp result;
  Format.printf
    "survival curve (cycle: alive%% quiet recovered latent died over_budget \
     leak_pages clean%%):@.";
  Array.iter
    (fun (idx, survival, clean_rate) ->
      let c col = result.Endure.totals.Endure.per_cycle.(idx).(col) in
      Format.printf
        "  %3d: %5.1f%%  %3d %3d %3d %3d %3d  %3d   clean %5.1f%%@." idx
        (100.0 *. survival) (c Endure.c_quiet) (c Endure.c_recovered)
        (c Endure.c_latent) (c Endure.c_died) (c Endure.c_budget_violations)
        (c Endure.c_leaked_pages) (100.0 *. clean_rate))
    (Endure.survival_curve result);
  List.iter
    (fun (k, v) -> Format.printf "  leak: %s x%d@." k v)
    (Sim.Stats.Counts.sorted result.Endure.totals.Endure.leaks);
  List.iter
    (fun (k, v) -> Format.printf "  death: %s x%d@." k v)
    (Sim.Stats.Counts.sorted result.Endure.totals.Endure.death_notes);
  Obs_cli.print_notes ();
  if result.Endure.totals.Endure.budget_violations > 0 then begin
    Format.printf
      "FAIL: %d recovery cycle(s) exceeded the leak budget of %d page(s)@."
      result.Endure.totals.Endure.budget_violations !budget;
    exit 1
  end
