(* Campaign CLI: run fault-injection campaigns against the simulated
   virtualization platform from the command line. *)

(* [jobs = 0] means "auto": one worker per recommended domain. *)
let resolve_jobs jobs = if jobs > 0 then jobs else Inject.Pool.default_jobs ()

let run_campaign ~mech ~fault ~setup ~n ~seed ~jobs ~chunk ~fanout ~label =
  let mech, hv_config = Obs_cli.run_mech mech in
  let cfg =
    { Inject.Run.default_config with Inject.Run.fault; setup; mech; hv_config }
  in
  let result =
    Inject.Campaign.run ~label ~base_seed:seed ~jobs ?chunk ~fanout
      ~postmortems:(Obs_cli.postmortems_on ())
      ?checkpoint:(Obs_cli.checkpoint ())
      ?triage_seed_cap:(Obs_cli.triage_seed_cap ()) ~n cfg
  in
  (* Every file first, then stdout: a reader that stops early cannot
     cost a file. *)
  if !Obs_cli.metrics_file <> "" then
    Obs_cli.write_metrics
      ~meta:
        [
          ("tool", `String "nlh_campaign");
          ("label", `String label);
          ("runs", `Int n);
          ("base_seed", `Int (Int64.to_int seed));
          ("jobs", `Int result.Inject.Campaign.jobs);
          ("fanout", `Int fanout);
          ("cores", `Int (Domain.recommended_domain_count ()));
        ]
      !Obs_cli.metrics_file
      result.Inject.Campaign.totals.Inject.Campaign.metrics;
  Obs_cli.write_triage
    ~meta:
      [
        ("tool", `String "nlh_campaign");
        ("label", `String label);
        ("runs", `Int n);
        ("base_seed", `Int (Int64.to_int seed));
        ("fanout", `Int fanout);
      ]
    result.Inject.Campaign.totals.Inject.Campaign.triage;
  if !Obs_cli.trace_file <> "" then
    (* One extra instrumented run at the base seed: same config, full
       event/span recording, exported as a Chrome-trace timeline. *)
    ignore (Obs_cli.traced_run !Obs_cli.trace_file { cfg with Inject.Run.seed });
  (match Obs_cli.checkpoint () with
  | Some ck ->
    Format.printf "checkpoint: %s (%d runs aggregated)@."
      ck.Inject.Drive.ck_path
      result.Inject.Campaign.totals.Inject.Campaign.runs
  | None -> ());
  Format.printf "%a" Inject.Campaign.pp result;
  (match Inject.Campaign.mean_latency result with
  | Some l -> Format.printf "mean recovery latency: %a@." Sim.Time.pp_float l
  | None -> ());
  List.iter
    (fun (k, v) -> Format.printf "  note: %s x%d@." k v)
    (Inject.Campaign.failure_notes result.Inject.Campaign.totals);
  Obs_cli.print_notes ()

let () =
  let mech = ref (Some Recovery.Engine.Nilihype) in
  let fault = ref Inject.Fault.Failstop in
  let setup = ref Inject.Run.Three_appvm in
  let n = ref 200 in
  let seed = ref 10_000 in
  let jobs = ref 1 in
  let chunk = ref 0 in
  let fanout = ref 1 in
  let ladder = ref false in
  let spec =
    [
      Obs_cli.mech_spec mech;
      ( "--fault",
        Arg.Symbol
          ( [ "failstop"; "register"; "code"; "data" ],
            function
            | "failstop" -> fault := Inject.Fault.Failstop
            | "register" -> fault := Inject.Fault.Register
            | "data" -> fault := Inject.Fault.Data
            | _ -> fault := Inject.Fault.Code ),
        " fault type" );
      ( "--setup",
        Arg.Symbol
          ( [ "1appvm"; "3appvm" ],
            function
            | "1appvm" -> setup := Inject.Run.One_appvm Workloads.Workload.Unixbench
            | _ -> setup := Inject.Run.Three_appvm ),
        " target system setup" );
      ("--runs", Arg.Set_int n, " number of injection runs");
      ("--seed", Arg.Set_int seed, " base seed");
      ( "--jobs",
        Arg.Set_int jobs,
        " parallel worker domains (0 = one per core; default 1)" );
      ( "--chunk",
        Arg.Set_int chunk,
        " work items per scheduling chunk (0 = auto; ignored on --resume, \
         which pins the checkpoint's chunk size)" );
      ( "--fanout",
        Arg.Set_int fanout,
        " fault variants cloned from each prepared snapshot (default 1)" );
      ("--ladder", Arg.Set ladder, " run the Table I enhancement ladder");
    ]
    @ Obs_cli.arg_specs
  in
  Arg.parse spec (fun _ -> ()) "nlh_campaign [options]";
  let require = Obs_cli.require_at_least "nlh_campaign" in
  require "--runs" 1 !n;
  require "--fanout" 1 !fanout;
  require "--jobs" 0 !jobs;
  require "--chunk" 0 !chunk;
  require "--checkpoint-every" 1 !Obs_cli.checkpoint_every;
  Obs_cli.or_usage_error "nlh_campaign" @@ fun () ->
  if !ladder then
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
          Inject.Campaign.run ~label ~base_seed:(Int64.of_int !seed)
            ~jobs:(resolve_jobs !jobs) ~n:!n cfg
        in
        Format.printf "%-50s success %a@." label Sim.Stats.pp_proportion
          (Inject.Campaign.success_rate result);
        List.iter
          (fun (k, v) ->
            let k = if String.length k > 90 then String.sub k 0 90 else k in
            Format.printf "      %3dx %s@." v k)
          (List.sort
             (fun (_, a) (_, b) -> compare b a)
             (Inject.Campaign.failure_notes result.Inject.Campaign.totals)))
      Recovery.Enhancement.table1_ladder
  else
    run_campaign ~mech:!mech ~fault:!fault ~setup:!setup ~n:!n
      ~seed:(Int64.of_int !seed) ~jobs:(resolve_jobs !jobs)
      ~chunk:(if !chunk > 0 then Some !chunk else None)
      ~fanout:!fanout
      ~label:
        (Printf.sprintf "%s/%s" (Obs_cli.mech_name !mech)
           (Inject.Fault.name !fault))
