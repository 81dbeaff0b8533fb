(* Fleet tail-latency explorer: host hundreds of tenant VMs, inject a
   recovery event under them, and report per-mechanism request latency
   quantiles through the event (p50/p99/p999), SLO violations and
   netstack loss -- the end-user view of hypervisor recovery.

     dune exec bin/nlh_fleet.exe -- --tenants 200 --trials 4 --jobs 4
     dune exec bin/nlh_fleet.exe -- --mech sharded --out fleet.json *)

let () =
  let tenants = ref Fleet.default_config.Fleet.tenants in
  let trials = ref Fleet.default_config.Fleet.trials in
  let victims = ref Fleet.default_config.Fleet.victims in
  let jobs = ref 1 in
  let seed = ref (Int64.to_int Fleet.default_config.Fleet.base_seed) in
  let out = ref "" in
  let mechs = ref [] in
  let selfcheck = ref false in
  let add_mech s =
    match Fleet.mechanism_of_string s with
    | Some m -> mechs := m :: !mechs
    | None ->
      Obs_cli.usage_error "nlh_fleet"
        ("unknown mechanism " ^ s
       ^ " (expected serial-full | serial-incremental | sharded)")
  in
  let spec =
    [
      ("--tenants", Arg.Set_int tenants, "N tenant VMs on the host (200)");
      ("--trials", Arg.Set_int trials, "N independent trials per mechanism (4)");
      ("--victims", Arg.Set_int victims, "N tenants damaged by the fault (3)");
      ("--jobs", Arg.Set_int jobs, "N worker domains for trials (1)");
      ("--seed", Arg.Set_int seed, "N base seed (42000)");
      ( "--mech",
        Arg.String add_mech,
        "M serial-full|serial-incremental|sharded (default: all three)" );
      ("--out", Arg.Set_string out, "FILE write nlh-fleet/1 JSON");
      ( "--selfcheck",
        Arg.Set selfcheck,
        " verify aggregates are jobs-invariant (jobs=1 vs jobs=2) and equal \
         fresh-boot trials" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "nlh_fleet: tenant-fleet request latency through a recovery event";
  let require = Obs_cli.require_at_least "nlh_fleet" in
  require "--tenants" 1 !tenants;
  require "--trials" 1 !trials;
  if !victims < 1 || !victims > !tenants then
    Obs_cli.usage_error "nlh_fleet"
      (Printf.sprintf "--victims must be between 1 and --tenants (%d) (got %d)"
         !tenants !victims);
  require "--jobs" 1 !jobs;
  let cfg =
    {
      Fleet.default_config with
      Fleet.tenants = !tenants;
      trials = !trials;
      victims = !victims;
      base_seed = Int64.of_int !seed;
    }
  in
  let mechs =
    if !mechs = [] then Fleet.all_mechanisms else List.rev !mechs
  in
  if !selfcheck then begin
    (* The fleet contracts: trial aggregation is a commutative merge of
       per-trial snapshots, so results are bit-identical for any --jobs
       (exercised the adversarial way -- serial vs oversubscribed); and
       a trial on a pooled worker, booted once per slot and restored for
       every mechanism, equals one on a machine freshly booted for its
       mechanism. *)
    let fail what mech =
      Format.printf "FAIL: %s aggregates differ between %s@."
        (Fleet.mechanism_name mech) what;
      exit 1
    in
    List.iter
      (fun mech ->
        let a = Fleet.run ~jobs:1 cfg mech in
        let b = Fleet.run ~jobs:2 ~oversubscribe:true cfg mech in
        if a.Fleet.metrics <> b.Fleet.metrics then fail "jobs=1 and jobs=2" mech;
        let fresh =
          List.fold_left
            (fun acc i ->
              Obs.Metrics.merge_snapshots acc
                (Fleet.run_trial cfg mech
                   ~seed:(Int64.add cfg.Fleet.base_seed (Int64.of_int i))))
            Obs.Metrics.empty_snapshot
            (List.init cfg.Fleet.trials Fun.id)
        in
        if a.Fleet.metrics <> fresh then fail "restored and fresh-boot trials" mech)
      mechs;
    Format.printf
      "selfcheck OK: aggregates jobs-invariant and equal to fresh-boot \
       trials for %s@."
      (String.concat ", " (List.map Fleet.mechanism_name mechs))
  end;
  Format.printf
    "Fleet: %d tenants, %d trials/mechanism, %d victims, jobs=%d@.@." !tenants
    !trials !victims !jobs;
  let results =
    List.map
      (fun mech ->
        let r = Fleet.run ~jobs:!jobs cfg mech in
        Format.printf "  %a" Fleet.pp r;
        r)
      mechs
  in
  if !out <> "" then begin
    Obs.Export.write_file !out (Fleet.to_json cfg results);
    Format.printf "@.wrote %s@." !out
  end
