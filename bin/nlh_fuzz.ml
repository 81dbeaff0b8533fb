(* Coverage-guided fault-space fuzzer CLI.

   Three modes:
   - default: run (or resume) a fuzzing session, write the nlh-fuzz/1
     corpus file, print the discovered signatures with one-line repros;
   - --replay TRACE: deterministically re-run one (base seed, trace)
     corpus entry and print its outcome/signature/coverage;
   - --replay-check K: reload the corpus file and replay the exemplar
     entry of up to K discovered signatures twice each, requiring
     byte-identical triage entries that match the corpus record (exit 1
     otherwise) -- the repro-fidelity gate @check runs in CI. *)

let base_config mech setup =
  let mech, hv_config = Obs_cli.run_mech mech in
  { Inject.Run.default_config with Inject.Run.setup; mech; hv_config }

let triage_entry_json (r : Fuzz.Session.replay_result) =
  let tr = Obs.Postmortem.Triage.create () in
  (match Obs.Signature.of_key r.Fuzz.Session.r_signature with
  | Some sg ->
    Obs.Postmortem.Triage.record ?bundle:r.Fuzz.Session.r_bundle tr sg
      ~seed:r.Fuzz.Session.r_point.Fuzz.Input.p_seed
  | None -> ());
  Obs.Postmortem.Triage.to_json tr

let () =
  let mech = ref (Some Recovery.Engine.Nilihype) in
  let setup = ref Inject.Run.Three_appvm in
  let runs = ref 256 in
  let batch = ref 32 in
  let jobs = ref 1 in
  let fanout = ref 8 in
  let oversubscribe = ref false in
  let seed = ref 10_000 in
  let corpus_out = ref "" in
  let resume = ref false in
  let save_every = ref 1 in
  let stop_after = ref 0 in
  let replay = ref "" in
  let replay_check = ref 0 in
  let spec =
    [
      Obs_cli.mech_spec mech;
      ( "--setup",
        Arg.Symbol
          ( [ "1appvm"; "3appvm" ],
            function
            | "1appvm" -> setup := Inject.Run.One_appvm Workloads.Workload.Unixbench
            | _ -> setup := Inject.Run.Three_appvm ),
        " target system setup" );
      ("--runs", Arg.Set_int runs, " total mutant budget for the session");
      ("--batch", Arg.Set_int batch, " mutants generated per round");
      ("--jobs", Arg.Set_int jobs, " parallel worker domains (0 = one per core)");
      ( "--fanout",
        Arg.Set_int fanout,
        " max mutants cloned from one prepared warmup (default 8)" );
      ( "--oversubscribe",
        Arg.Set oversubscribe,
        " allow more worker domains than cores" );
      ("--seed", Arg.Set_int seed, " base seed of the fault space");
      ( "--corpus-out",
        Arg.Set_string corpus_out,
        " nlh-fuzz/1 corpus/state file (written per round, resumable)" );
      ( "--resume",
        Arg.Set resume,
        " continue the session in --corpus-out (not with --triage-out or \
         --postmortem-dir)" );
      ( "--save-every",
        Arg.Set_int save_every,
        " rounds between corpus writes (default 1)" );
      ( "--stop-after-rounds",
        Arg.Set_int stop_after,
        " stop after this many rounds (simulated kill; resume later)" );
      ( "--replay",
        Arg.Set_string replay,
        " replay one mutation trace (comma-separated op codes) and exit" );
      ( "--replay-check",
        Arg.Set_int replay_check,
        " replay up to K discovered signatures' exemplars from --corpus-out, \
         twice each, requiring byte-identical triage entries" );
      ( "--triage-out",
        Arg.Set_string Obs_cli.triage_file,
        " write the session's nlh-triage/1 signature table here" );
      ( "--postmortem-dir",
        Arg.Set_string Obs_cli.postmortem_dir,
        " write one exemplar postmortem bundle per signature here" );
    ]
  in
  Arg.parse spec (fun _ -> ()) "nlh_fuzz [options]";
  let require = Obs_cli.require_at_least "nlh_fuzz" in
  require "--runs" 1 !runs;
  require "--batch" 1 !batch;
  require "--jobs" 0 !jobs;
  require "--fanout" 1 !fanout;
  require "--save-every" 1 !save_every;
  if !resume && !corpus_out = "" then
    Obs_cli.usage_error "nlh_fuzz" "--resume requires --corpus-out FILE";
  (* nlh-fuzz/1 files do not keep the triage table, so a resumed session
     would write one missing every bad run from before the kill. *)
  if !resume && Obs_cli.postmortems_on () then
    Obs_cli.usage_error "nlh_fuzz"
      "--resume does not support --triage-out or --postmortem-dir \
       (nlh-fuzz/1 files do not keep the triage)";
  let cfg =
    {
      Fuzz.Session.f_base = base_config !mech !setup;
      f_base_seed = Int64.of_int !seed;
      f_runs = !runs;
      f_batch = !batch;
      f_jobs = (if !jobs > 0 then !jobs else Inject.Pool.default_jobs ());
      f_oversubscribe = !oversubscribe;
      f_fanout = !fanout;
      f_corpus_path = (if !corpus_out = "" then None else Some !corpus_out);
      f_resume = !resume;
      f_save_every = !save_every;
      f_stop_after = (if !stop_after > 0 then Some !stop_after else None);
    }
  in
  if !replay <> "" then begin
    match Fuzz.Input.trace_of_string !replay with
    | Error msg -> Obs_cli.usage_error "nlh_fuzz" msg
    | Ok trace ->
      let r = Fuzz.Session.replay cfg trace in
      Format.printf "point: %s@."
        (Fuzz.Input.point_key r.Fuzz.Session.r_point);
      Format.printf "outcome: %s@." r.Fuzz.Session.r_outcome;
      Format.printf "signature: %s@."
        (if r.Fuzz.Session.r_signature = "" then "(none)"
         else r.Fuzz.Session.r_signature);
      Format.printf "coverage: %d points@."
        (List.length r.Fuzz.Session.r_points)
  end
  else if !replay_check > 0 then begin
    if !corpus_out = "" then begin
      Obs_cli.usage_error "nlh_fuzz" "--replay-check requires --corpus-out"
    end;
    let t =
      Obs_cli.or_usage_error "nlh_fuzz" (fun () ->
          Fuzz.Session.resume_from cfg !corpus_out)
    in
    let exemplars = Fuzz.Session.exemplars t in
    if exemplars = [] then begin
      Format.eprintf "nlh_fuzz: no discovered signatures to replay in %s@."
        !corpus_out;
      exit 1
    end;
    let failures = ref 0 in
    List.iteri
      (fun i (sigkey, (e : Fuzz.Corpus.entry)) ->
        if i < !replay_check then begin
          let a = Fuzz.Session.replay cfg e.Fuzz.Corpus.en_trace in
          let b = Fuzz.Session.replay cfg e.Fuzz.Corpus.en_trace in
          let ok =
            a.Fuzz.Session.r_signature = sigkey
            && a.Fuzz.Session.r_outcome = e.Fuzz.Corpus.en_outcome
            && triage_entry_json a = triage_entry_json b
          in
          if not ok then incr failures;
          Format.printf "%s %s (trace %s)@."
            (if ok then "OK  " else "FAIL")
            sigkey
            (Fuzz.Input.trace_string e.Fuzz.Corpus.en_trace)
        end)
      exemplars;
    if !failures > 0 then begin
      Format.eprintf "nlh_fuzz: %d repro(s) failed to replay identically@."
        !failures;
      exit 1
    end
  end
  else begin
    let t =
      Obs_cli.or_usage_error "nlh_fuzz" (fun () -> Fuzz.Session.explore cfg)
    in
    Format.printf
      "fuzz: %d evaluated (%d kept, %d duds) over %d rounds | %d coverage \
       points, %d corpus entries, %d signatures@."
      t.Fuzz.Session.s_evaluated t.Fuzz.Session.s_kept t.Fuzz.Session.s_dud
      t.Fuzz.Session.s_rounds
      (Fuzz.Corpus.n_points t.Fuzz.Session.s_corpus)
      (List.length (Fuzz.Corpus.entries t.Fuzz.Session.s_corpus))
      (List.length (Fuzz.Corpus.signatures t.Fuzz.Session.s_corpus));
    List.iter
      (fun (sigkey, (e : Fuzz.Corpus.entry)) ->
        Format.printf "  %s@.    repro: %s@." sigkey
          (Fuzz.Session.repro_line cfg e.Fuzz.Corpus.en_trace))
      (Fuzz.Session.exemplars t);
    Obs_cli.write_triage
      ~meta:
        [
          ("tool", `String "nlh_fuzz");
          ("runs", `Int !runs);
          ("base_seed", `Int !seed);
        ]
      t.Fuzz.Session.s_triage;
    Obs_cli.print_notes ()
  end
