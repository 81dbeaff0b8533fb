(* Soak-scale machinery: checkpoint files, kill -> resume determinism,
   and pre-booted machine pools.

   The contract under test is the one million-run campaigns lean on: a
   checkpointed campaign stopped mid-flight and resumed -- with a
   different --jobs, on different workers -- must land on exactly the
   aggregate an uninterrupted run produces, down to the bytes of the
   final checkpoint file. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let run_cfg ?(fault = Inject.Fault.Failstop) ?(seed = 42L) () =
  {
    Inject.Run.default_config with
    Inject.Run.seed;
    fault;
    mech = Inject.Run.Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
  }

let snapshot_t =
  Alcotest.testable Inject.Campaign.pp_snapshot
    (fun (a : Inject.Campaign.snapshot) b -> a = b)

let endure_snapshot_t =
  Alcotest.testable Endure.pp_snapshot (fun (a : Endure.snapshot) b -> a = b)

let temp_ck () = Filename.temp_file "nlh_ck" ".json"

let with_temp_ck f =
  let path = temp_ck () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ck ?(every = 2) ?(resume = false) ?stop_after path =
  {
    Inject.Drive.ck_path = path;
    ck_every = every;
    ck_resume = resume;
    ck_stop_after = stop_after;
  }

(* ----------------------- Checkpoint file format --------------------- *)

let test_checkpoint_roundtrip () =
  with_temp_ck (fun path ->
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
        checkb "not complete" false (Obs.Checkpoint.complete h');
        checkb "payload preserved" true
          (Obs.Json.member "x" payload = Some (Obs.Json.Int 1L)))

let test_checkpoint_rejects_garbage () =
  let bad content =
    with_temp_ck (fun path ->
        let oc = open_out_bin path in
        output_string oc content;
        close_out oc;
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
      Alcotest.check snapshot_t "totals roundtrip"
        (Inject.Campaign.snapshot t)
        (Inject.Campaign.snapshot t');
      (* And the re-serialization is byte-identical: canonical form. *)
      checks "canonical payload" payload
        (Inject.Campaign.payload_of_totals ~fanout:3 t'))

(* ----------------------- Kill -> resume drills ---------------------- *)

let test_campaign_kill_resume_identical () =
  let cfg = run_cfg ~fault:Inject.Fault.Register () in
  let drill ~path ~stop_after ~resume ~jobs ~oversubscribe =
    Inject.Campaign.run ~label:"soak test" ~base_seed:7_700L ~jobs
      ~oversubscribe ~chunk:8 ~fanout:2
      ~checkpoint:(ck ~every:1 ~resume ?stop_after path)
      ~n:96 cfg
  in
  with_temp_ck (fun path ->
      with_temp_ck (fun path' ->
          let killed =
            drill ~path ~stop_after:(Some 4) ~resume:false ~jobs:1
              ~oversubscribe:false
          in
          (* With fanout, a chunk counts prepared snapshots; each
             snapshot yields [fanout] runs: 4 chunks x 8 snapshots x 2. *)
          checki "killed after 4 chunks" 64
            killed.Inject.Campaign.totals.Inject.Campaign.runs;
          (* Resume with different jobs; the different --fanout flag is
             pinned back to the file's fanout=2 rather than corrupting
             chunk identity. *)
          let resumed =
            Inject.Campaign.run ~label:"soak test" ~base_seed:7_700L ~jobs:3
              ~oversubscribe:true ~chunk:8 ~fanout:5
              ~checkpoint:(ck ~every:1 ~resume:true path)
              ~n:96 cfg
          in
          let uninterrupted =
            drill ~path:path' ~stop_after:None ~resume:false ~jobs:1
              ~oversubscribe:false
          in
          checki "full run count" 96
            uninterrupted.Inject.Campaign.totals.Inject.Campaign.runs;
          Alcotest.check snapshot_t "resumed = uninterrupted"
            (Inject.Campaign.snapshot
               uninterrupted.Inject.Campaign.totals)
            (Inject.Campaign.snapshot resumed.Inject.Campaign.totals);
          checks "final checkpoint files byte-identical" (read_file path')
            (read_file path)))

let test_campaign_resume_complete_noop () =
  (* Resuming a checkpoint whose every chunk is done re-runs nothing
     and reports the merged aggregate as-is. *)
  let cfg = run_cfg () in
  with_temp_ck (fun path ->
      let full =
        Inject.Campaign.run ~base_seed:8_100L ~chunk:8
          ~checkpoint:(ck path) ~n:32 cfg
      in
      let again =
        Inject.Campaign.run ~base_seed:8_100L ~chunk:999 (* pinned to 8 *)
          ~checkpoint:(ck ~resume:true path) ~n:32 cfg
      in
      Alcotest.check snapshot_t "complete resume is a no-op"
        (Inject.Campaign.snapshot full.Inject.Campaign.totals)
        (Inject.Campaign.snapshot again.Inject.Campaign.totals))

let test_campaign_resume_rejects_mismatch () =
  let cfg = run_cfg ~fault:Inject.Fault.Failstop () in
  with_temp_ck (fun path ->
      ignore
        (Inject.Campaign.run ~base_seed:9_000L ~chunk:8
           ~checkpoint:(ck ~stop_after:1 path) ~n:32 cfg);
      let rejects what f =
        match f () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail ("resume accepted " ^ what)
      in
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
      let oc = open_out_bin path in
      output_string oc "{\"schema\":";
      close_out oc;
      rejects "a truncated checkpoint" (fun () ->
          Inject.Campaign.run ~base_seed:9_000L
            ~checkpoint:(ck ~resume:true path) ~n:32 cfg))

let test_checkpoint_postmortems_rejected () =
  with_temp_ck (fun path ->
      match
        Inject.Campaign.run ~postmortems:true ~checkpoint:(ck path) ~n:4
          (run_cfg ())
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "checkpoint + postmortems accepted")

let test_endure_kill_resume_identical () =
  let cfg =
    {
      Endure.default_config with
      Endure.run_cfg = run_cfg ~fault:Inject.Fault.Register ();
      cycles = 3;
      leak_budget_pages = Some 8;
    }
  in
  let drill ~path ~stop_after ~resume ~jobs ~oversubscribe =
    Endure.run ~label:"endure soak test" ~base_seed:5_500L ~jobs ~oversubscribe
      ~chunk:2
      ~checkpoint:(ck ~every:1 ~resume ?stop_after path)
      ~scenarios:12 cfg
  in
  with_temp_ck (fun path ->
      with_temp_ck (fun path' ->
          let killed =
            drill ~path ~stop_after:(Some 2) ~resume:false ~jobs:1
              ~oversubscribe:false
          in
          checki "killed after 2 chunks of 2 scenarios" 4
            killed.Endure.totals.Endure.scenarios;
          let resumed =
            drill ~path ~stop_after:None ~resume:true ~jobs:2
              ~oversubscribe:true
          in
          let uninterrupted =
            drill ~path:path' ~stop_after:None ~resume:false ~jobs:1
              ~oversubscribe:false
          in
          Alcotest.check endure_snapshot_t "resumed = uninterrupted"
            (Endure.snapshot uninterrupted.Endure.totals)
            (Endure.snapshot resumed.Endure.totals);
          checks "final checkpoint files byte-identical" (read_file path')
            (read_file path)))

(* ----------------------- Damaged files ------------------------------ *)

(* Small real files from each resumable driver: a complete campaign
   checkpoint, a complete endurance checkpoint and a fuzz corpus. *)
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
let accepted f = match f () with _ -> true | exception Invalid_argument _ -> false

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

let checker_accepts path =
  Sys.command
    (Printf.sprintf "../bin/nlh_trace_check.exe %s > /dev/null 2>&1"
       (Filename.quote path))
  = 0

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

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
  with_temp_ck (fun path ->
      write path;
      checkb "checker accepts the intact file" true (checker_accepts path);
      checkb "resume accepts the intact file" true (resumes path);
      write_file path (damage (read_file path));
      checkb "checker rejects the damaged file" false (checker_accepts path);
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
      Result.map ignore (Inject.Campaign.totals_of_payload p))

let decode_endure s =
  Result.bind (Obs.Checkpoint.of_string s) (fun (_, p) ->
      Result.map ignore (Endure.totals_of_payload ~cycles:2 p))

let decode_fuzz s =
  Result.bind
    (Obs.Checkpoint.of_string ~schema:Obs.Checkpoint.fuzz_schema s)
    (fun (h, p) -> Result.map ignore (Fuzz.Session.saved_of_checkpoint h p))

let damage_files =
  lazy
    (List.map
       (fun (name, write, decode) ->
         with_temp_ck (fun path ->
             write path;
             (name, read_file path, decode)))
       [
         ("campaign", write_campaign, decode_campaign);
         ("endurance", write_endure, decode_endure);
         ("fuzz", write_fuzz, decode_fuzz);
       ])

(* A torn write: every strict prefix of a real file is rejected. *)
let test_prefixes_rejected () =
  List.iter
    (fun (name, contents, decode) ->
      checkb (name ^ " intact") true (Result.is_ok (decode contents));
      for len = 0 to String.length contents - 1 do
        if Result.is_ok (decode (String.sub contents 0 len)) then
          Alcotest.failf "%s: prefix of %d bytes accepted" name len
      done)
    (Lazy.force damage_files)

(* A bit flip: any single-byte substitution is either rejected or
   decodes to some other valid file, but never raises. *)
let prop_substitution_never_raises (name, contents, decode) =
  QCheck.Test.make ~count:400
    ~name:(name ^ " single-byte substitution never raises")
    QCheck.(pair (int_bound (String.length contents - 1)) char)
    (fun (i, c) ->
      let b = Bytes.of_string contents in
      Bytes.set b i c;
      match decode (Bytes.to_string b) with Ok () | Error _ -> true)

(* ----------------------- Machine pools ------------------------------ *)

let test_pool_matches_plain_run () =
  let cfg = run_cfg ~fault:Inject.Fault.Register () in
  let pool = Inject.Campaign.prepare_pool ~jobs:2 cfg in
  let plain = Inject.Campaign.run ~base_seed:3_300L ~jobs:1 ~n:50 cfg in
  let pooled =
    Inject.Campaign.run ~base_seed:3_300L ~jobs:2 ~oversubscribe:true ~pool
      ~n:50 cfg
  in
  Alcotest.check snapshot_t "pooled = plain"
    (Inject.Campaign.snapshot plain.Inject.Campaign.totals)
    (Inject.Campaign.snapshot pooled.Inject.Campaign.totals);
  (* The pool survives the campaign: a second campaign on the same pool
     (machines restored from their boot images, not rebooted) is still
     deterministic. *)
  let pooled' =
    Inject.Campaign.run ~base_seed:3_300L ~jobs:2 ~oversubscribe:true ~pool
      ~n:50 cfg
  in
  Alcotest.check snapshot_t "pool reuse deterministic"
    (Inject.Campaign.snapshot pooled.Inject.Campaign.totals)
    (Inject.Campaign.snapshot pooled'.Inject.Campaign.totals)

let test_pool_checkpoint_resume () =
  (* Pools compose with checkpointing: kill a pooled campaign, resume
     on the same pool. *)
  let cfg = run_cfg () in
  let pool = Inject.Campaign.prepare_pool ~jobs:1 cfg in
  with_temp_ck (fun path ->
      let killed =
        Inject.Campaign.run ~base_seed:4_400L ~chunk:8 ~pool
          ~checkpoint:(ck ~every:1 ~stop_after:2 path)
          ~n:48 cfg
      in
      checki "killed early" 16
        killed.Inject.Campaign.totals.Inject.Campaign.runs;
      let resumed =
        Inject.Campaign.run ~base_seed:4_400L ~pool
          ~checkpoint:(ck ~resume:true path) ~n:48 cfg
      in
      let plain = Inject.Campaign.run ~base_seed:4_400L ~n:48 cfg in
      Alcotest.check snapshot_t "pooled resume = plain"
        (Inject.Campaign.snapshot plain.Inject.Campaign.totals)
        (Inject.Campaign.snapshot resumed.Inject.Campaign.totals))

let test_pool_settings_mismatch_rejected () =
  let cfg = run_cfg () in
  let pool = Inject.Campaign.prepare_pool ~jobs:1 ~postmortems:true cfg in
  match Inject.Campaign.run ~pool ~n:4 cfg with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pool settings mismatch accepted"

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
          Alcotest.test_case "every strict prefix rejected" `Quick
            test_prefixes_rejected;
        ]
        @ List.map
            (fun f -> QCheck_alcotest.to_alcotest (prop_substitution_never_raises f))
            (Lazy.force damage_files) );
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
