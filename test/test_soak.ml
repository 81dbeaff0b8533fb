(* Soak-scale machinery: checkpoint files, kill -> resume determinism,
   and pre-booted machine pools.

   The contract under test is the one million-run campaigns lean on: a
   checkpointed campaign stopped mid-flight and resumed -- with a
   different --jobs, on different workers -- must land on exactly the
   aggregate an uninterrupted run produces, down to the bytes of the
   final checkpoint file. *)

open Contract

let ck ?(every = 2) ?(resume = false) ?stop_after path =
  {
    Inject.Drive.ck_path = path;
    ck_every = every;
    ck_resume = resume;
    ck_stop_after = stop_after;
  }

(* ----------------------- Checkpoint file format --------------------- *)

let test_checkpoint_roundtrip () =
  with_temp (fun path ->
      let h =
        {
          Obs.Checkpoint.kind = "campaign";
          fingerprint = "campaign;test=roundtrip";
          chunk = 8;
          n_chunks = 5;
          done_chunks = [| true; false; true; true; false |];
        }
      in
      Obs.Checkpoint.write ~path h ~payload:(Obs.Json.Obj [ ("x", Obs.Json.Int 1L) ]);
      match Obs.Checkpoint.read path with
      | Error msg -> Alcotest.fail msg
      | Ok (h', payload) ->
        checks "kind" h.Obs.Checkpoint.kind h'.Obs.Checkpoint.kind;
        checks "fingerprint" h.Obs.Checkpoint.fingerprint
          h'.Obs.Checkpoint.fingerprint;
        checki "chunk" h.Obs.Checkpoint.chunk h'.Obs.Checkpoint.chunk;
        checki "n_chunks" h.Obs.Checkpoint.n_chunks h'.Obs.Checkpoint.n_chunks;
        checkb "done bitmap" true
          (h.Obs.Checkpoint.done_chunks = h'.Obs.Checkpoint.done_chunks);
        checki "done count" 3 (Obs.Checkpoint.done_count h');
        checkb "not complete" true
          (Obs.Checkpoint.done_count h' < h'.Obs.Checkpoint.n_chunks);
        checkb "payload preserved" true
          (Obs.Json.member "x" payload = Some (Obs.Json.Int 1L)))

let test_checkpoint_rejects_garbage () =
  let bad content =
    with_temp (fun path ->
        write_file path content;
        match Obs.Checkpoint.read path with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail ("accepted bad checkpoint: " ^ content))
  in
  bad "";
  bad "not json at all";
  (* Truncated mid-object: a crash during a non-atomic write. *)
  bad {|{"schema":"nlh-checkpoint/1","kind":"campaign","fing|};
  (* Wrong schema tag. *)
  bad {|{"schema":"nlh-checkpoint/9","kind":"campaign","fingerprint":"f","chunk":1,"n_chunks":1,"done":[],"payload":{}}|};
  (* done indices out of range / not ascending. *)
  bad {|{"schema":"nlh-checkpoint/1","kind":"campaign","fingerprint":"f","chunk":1,"n_chunks":2,"done":[2],"payload":{}}|};
  bad {|{"schema":"nlh-checkpoint/1","kind":"campaign","fingerprint":"f","chunk":1,"n_chunks":3,"done":[1,1],"payload":{}}|};
  (* Missing payload. *)
  bad {|{"schema":"nlh-checkpoint/1","kind":"campaign","fingerprint":"f","chunk":1,"n_chunks":1,"done":[]}|}

let test_checkpoint_read_missing_file () =
  match Obs.Checkpoint.read "/nonexistent/nlh_ck.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "read of a missing file succeeded"

let test_payload_roundtrip () =
  (* A real aggregate survives payload serialization bit-exactly. *)
  let r =
    Inject.Campaign.run ~base_seed:640L ~n:40
      (run_cfg ~fault:Inject.Fault.Register ())
  in
  let t = r.Inject.Campaign.totals in
  let payload = Inject.Campaign.payload_of_totals ~fanout:3 t in
  match Obs.Json.parse payload with
  | Error msg -> Alcotest.fail msg
  | Ok json -> (
    match Inject.Campaign.totals_of_payload json with
    | Error msg -> Alcotest.fail msg
    | Ok (fanout, t') ->
      checki "fanout" 3 fanout;
      campaign_totals "totals roundtrip" t t';
      (* And the re-serialization is byte-identical: canonical form. *)
      checks "canonical payload" payload
        (Inject.Campaign.payload_of_totals ~fanout:3 t'))

(* ----------------------- Kill -> resume drills ---------------------- *)

let test_campaign_kill_resume_identical () =
  let cfg = run_cfg ~fault:Inject.Fault.Register () in
  let killed, resumed =
    kill_resume ~after:4 ~jobs:3 campaign_snapshot
      (fun ~path ~stop_after ~resume ~jobs ~oversubscribe ->
        (* The resume's different --fanout flag is pinned back to the
           file's fanout=2 rather than corrupting chunk identity. *)
        Inject.Campaign.run ~label:"soak test" ~base_seed:7_700L ~jobs
          ~oversubscribe ~chunk:8
          ~fanout:(if resume then 5 else 2)
          ~checkpoint:(ck ~every:1 ~resume ?stop_after path)
          ~n:96 cfg)
  in
  (* With fanout, a chunk counts prepared snapshots; each snapshot
     yields [fanout] runs: 4 chunks x 8 snapshots x 2. *)
  checki "killed after 4 chunks" 64 killed.Inject.Campaign.totals.Inject.Campaign.runs;
  checki "full run count" 96 resumed.Inject.Campaign.totals.Inject.Campaign.runs

let test_campaign_resume_complete_noop () =
  (* Resuming a checkpoint whose every chunk is done re-runs nothing
     and reports the merged aggregate as-is. *)
  let cfg = run_cfg () in
  with_temp (fun path ->
      let full =
        Inject.Campaign.run ~base_seed:8_100L ~chunk:8
          ~checkpoint:(ck path) ~n:32 cfg
      in
      let again =
        Inject.Campaign.run ~base_seed:8_100L ~chunk:999 (* pinned to 8 *)
          ~checkpoint:(ck ~resume:true path) ~n:32 cfg
      in
      campaign_snapshot "complete resume is a no-op" full again)

let test_campaign_resume_rejects_mismatch () =
  let cfg = run_cfg ~fault:Inject.Fault.Failstop () in
  with_temp (fun path ->
      ignore
        (Inject.Campaign.run ~base_seed:9_000L ~chunk:8
           ~checkpoint:(ck ~stop_after:1 path) ~n:32 cfg);
      let rejects what f = checkb ("resume refuses " ^ what) true (refuses f) in
      (* Different fault -> different fingerprint. *)
      rejects "a different fault config" (fun () ->
          Inject.Campaign.run ~base_seed:9_000L
            ~checkpoint:(ck ~resume:true path) ~n:32
            (run_cfg ~fault:Inject.Fault.Code ()));
      (* Different base seed. *)
      rejects "a different base seed" (fun () ->
          Inject.Campaign.run ~base_seed:9_001L
            ~checkpoint:(ck ~resume:true path) ~n:32 cfg);
      (* Different n. *)
      rejects "a different run count" (fun () ->
          Inject.Campaign.run ~base_seed:9_000L
            ~checkpoint:(ck ~resume:true path) ~n:64 cfg);
      (* A campaign checkpoint is not an endurance checkpoint. *)
      rejects "a campaign checkpoint (endurance)" (fun () ->
          Endure.run ~base_seed:9_000L
            ~checkpoint:(ck ~resume:true path) ~scenarios:4
            { Endure.default_config with Endure.run_cfg = cfg; cycles = 2 });
      (* Corrupt file. *)
      write_file path "{\"schema\":";
      rejects "a truncated checkpoint" (fun () ->
          Inject.Campaign.run ~base_seed:9_000L
            ~checkpoint:(ck ~resume:true path) ~n:32 cfg))

let test_checkpoint_postmortems_rejected () =
  with_temp (fun path ->
      checkb "checkpoint + postmortems refused" true
        (refuses (fun () ->
             Inject.Campaign.run ~postmortems:true ~checkpoint:(ck path) ~n:4
               (run_cfg ()))))

let test_endure_kill_resume_identical () =
  let cfg =
    {
      Endure.default_config with
      Endure.run_cfg = run_cfg ~fault:Inject.Fault.Register ();
      cycles = 3;
      leak_budget_pages = Some 8;
    }
  in
  let killed, _ =
    kill_resume ~after:2 endure_snapshot
      (fun ~path ~stop_after ~resume ~jobs ~oversubscribe ->
        Endure.run ~label:"endure soak test" ~base_seed:5_500L ~jobs ~oversubscribe
          ~chunk:2
          ~checkpoint:(ck ~every:1 ~resume ?stop_after path)
          ~scenarios:12 cfg)
  in
  checki "killed after 2 chunks of 2 scenarios" 4 killed.Endure.totals.Endure.scenarios

(* ----------------------- Damaged files ------------------------------ *)

(* A complete campaign checkpoint, a complete endurance checkpoint and a
   fuzz corpus. *)
let damage_cfg = run_cfg ~fault:Inject.Fault.Register ()

let damage_endure_cfg =
  { Endure.default_config with Endure.run_cfg = damage_cfg; cycles = 2 }

let damage_fuzz_cfg path =
  {
    (Fuzz.Session.default_config ~base_seed:2_400L) with
    Fuzz.Session.f_runs = 8;
    f_batch = 4;
    f_corpus_path = Some path;
  }

let write_campaign path =
  ignore
    (Inject.Campaign.run ~base_seed:2_200L ~chunk:4 ~checkpoint:(ck path) ~n:8
       damage_cfg)

let write_endure path =
  ignore
    (Endure.run ~base_seed:2_300L ~chunk:2 ~checkpoint:(ck path) ~scenarios:4
       damage_endure_cfg)

let write_fuzz path = ignore (Fuzz.Session.explore (damage_fuzz_cfg path))

(* Whether a resume of the run that wrote [path] accepts it. *)
let accepted f = not (refuses f)

let campaign_resumes path =
  accepted (fun () ->
      Inject.Campaign.run ~base_seed:2_200L
        ~checkpoint:(ck ~resume:true path) ~n:8 damage_cfg)

let endure_resumes path =
  accepted (fun () ->
      Endure.run ~base_seed:2_300L ~checkpoint:(ck ~resume:true path)
        ~scenarios:4 damage_endure_cfg)

let fuzz_resumes path =
  accepted (fun () -> Fuzz.Session.resume_from (damage_fuzz_cfg path) path)

(* Replace the integer that follows the first [anchor] in [s] by [f] of
   it. *)
let edit_int_after ~anchor f s =
  let n = String.length s and k = String.length anchor in
  let rec find i =
    if i + k > n then Alcotest.fail ("no " ^ anchor)
    else if String.sub s i k = anchor then i + k
    else find (i + 1)
  in
  let lo = find 0 in
  let hi = ref lo in
  while !hi < n && (s.[!hi] = '-' || (s.[!hi] >= '0' && s.[!hi] <= '9')) do
    incr hi
  done;
  let v = int_of_string (String.sub s lo (!hi - lo)) in
  String.sub s 0 lo ^ string_of_int (f v) ^ String.sub s !hi (n - !hi)

(* A damaged file gets the same verdict from a resume and from
   nlh_trace_check: both reject it (and both accept the intact file). *)
let same_verdict ~write ~resumes ~damage () =
  with_temp (fun path ->
      write path;
      checkb "checker accepts the intact file" true (trace_check_accepts path);
      checkb "resume accepts the intact file" true (resumes path);
      write_file path (damage (read_file path));
      checkb "checker rejects the damaged file" false (trace_check_accepts path);
      checkb "resume rejects the damaged file" false (resumes path))

let test_fuzz_accounting_rejected =
  same_verdict ~write:write_fuzz ~resumes:fuzz_resumes
    ~damage:(edit_int_after ~anchor:{|"evaluated":|} succ)

let test_campaign_fanout_rejected =
  same_verdict ~write:write_campaign ~resumes:campaign_resumes
    ~damage:(edit_int_after ~anchor:{|"fanout":|} (fun _ -> 0))

let test_endure_negative_cycle_rejected =
  same_verdict ~write:write_endure ~resumes:endure_resumes
    ~damage:(edit_int_after ~anchor:{|"per_cycle":[[|} (fun _ -> -1))

(* Read + decode of a file's contents, as a resume does it minus the
   config match. *)
let decode_campaign s =
  Result.bind (Obs.Checkpoint.of_string s) (fun (_, p) ->
      Inject.Campaign.totals_of_payload p)

let decode_endure s =
  Result.bind (Obs.Checkpoint.of_string s) (fun (_, p) ->
      Endure.totals_of_payload ~cycles:2 p)

let decode_fuzz s =
  Result.bind
    (Obs.Checkpoint.of_string ~schema:Obs.Checkpoint.fuzz_schema s)
    (fun (h, p) -> Fuzz.Session.saved_of_checkpoint h p)

(* Small real files from each resumable driver, written once. *)
let written write = lazy (with_temp (fun path -> write path; read_file path))

(* ----------------------- Machine pools ------------------------------ *)

let test_pool_matches_plain_run () =
  let cfg = run_cfg ~fault:Inject.Fault.Register () in
  let pool = Inject.Campaign.prepare_pool ~jobs:2 cfg in
  let plain = Inject.Campaign.run ~base_seed:3_300L ~jobs:1 ~n:50 cfg in
  let pooled =
    Inject.Campaign.run ~base_seed:3_300L ~jobs:2 ~oversubscribe:true ~pool
      ~n:50 cfg
  in
  campaign_snapshot "pooled = plain" plain pooled;
  (* The pool survives the campaign: a second campaign on the same pool
     (machines restored from their boot images, not rebooted) is still
     deterministic. *)
  let pooled' =
    Inject.Campaign.run ~base_seed:3_300L ~jobs:2 ~oversubscribe:true ~pool
      ~n:50 cfg
  in
  campaign_snapshot "pool reuse deterministic" pooled pooled'

let test_pool_checkpoint_resume () =
  (* Pools compose with checkpointing: kill a pooled campaign, resume
     on the same pool. *)
  let cfg = run_cfg () in
  let pool = Inject.Campaign.prepare_pool ~jobs:1 cfg in
  let killed, resumed =
    kill_resume ~after:2 ~jobs:1 campaign_snapshot
      (fun ~path ~stop_after ~resume ~jobs ~oversubscribe ->
        Inject.Campaign.run ~base_seed:4_400L ~chunk:8 ~pool ~jobs ~oversubscribe
          ~checkpoint:(ck ~every:1 ~resume ?stop_after path)
          ~n:48 cfg)
  in
  checki "killed early" 16 killed.Inject.Campaign.totals.Inject.Campaign.runs;
  campaign_snapshot "pooled resume = plain"
    (Inject.Campaign.run ~base_seed:4_400L ~n:48 cfg)
    resumed

let test_pool_settings_mismatch_rejected () =
  let cfg = run_cfg () in
  let pool = Inject.Campaign.prepare_pool ~jobs:1 ~postmortems:true cfg in
  checkb "pool settings mismatch refused" true
    (refuses (fun () -> Inject.Campaign.run ~pool ~n:4 cfg))

let () =
  Alcotest.run "soak"
    [
      ( "checkpoint-file",
        [
          Alcotest.test_case "header+payload roundtrip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_checkpoint_rejects_garbage;
          Alcotest.test_case "missing file" `Quick
            test_checkpoint_read_missing_file;
          Alcotest.test_case "campaign payload roundtrip" `Quick
            test_payload_roundtrip;
        ] );
      ( "kill-resume",
        [
          Alcotest.test_case "campaign resume identical" `Quick
            test_campaign_kill_resume_identical;
          Alcotest.test_case "complete resume no-op" `Quick
            test_campaign_resume_complete_noop;
          Alcotest.test_case "resume rejects mismatch" `Quick
            test_campaign_resume_rejects_mismatch;
          Alcotest.test_case "postmortems rejected" `Quick
            test_checkpoint_postmortems_rejected;
          Alcotest.test_case "endurance resume identical" `Quick
            test_endure_kill_resume_identical;
        ] );
      ( "damage",
        [
          Alcotest.test_case "fuzz evaluated <> kept + dud" `Quick
            test_fuzz_accounting_rejected;
          Alcotest.test_case "campaign fanout < 1" `Quick
            test_campaign_fanout_rejected;
          Alcotest.test_case "endurance negative per-cycle field" `Quick
            test_endure_negative_cycle_rejected;
        ]
        @ damage
            [
              file "campaign" (written write_campaign) decode_campaign;
              file "endurance" (written write_endure) decode_endure;
              file "fuzz" (written write_fuzz) decode_fuzz;
            ] );
      ( "pool",
        [
          Alcotest.test_case "pool matches plain run" `Quick
            test_pool_matches_plain_run;
          Alcotest.test_case "pool + checkpoint resume" `Quick
            test_pool_checkpoint_resume;
          Alcotest.test_case "pool settings mismatch" `Quick
            test_pool_settings_mismatch_rejected;
        ] );
    ]
