(* Tests for the coverage-guided fault-space fuzzer.

   The contracts under test are the ones the fuzzer's repros and
   resumable sessions lean on:
   - replay is a pure function of (base seed, mutation trace): same
     outcome class, triage signature, coverage points and metrics
     snapshot every time, on a fresh worker;
   - corpus merge is commutative, so per-worker corpora can be folded
     in any order;
   - the session aggregate (stats, corpus, serialized payload, triage)
     is invariant under --jobs and --fanout, and its triage equals a
     reference in which every bad run captures its bundle;
   - skipping the capture for an already-triaged signature changes
     nothing but the bundle;
   - kill -> resume converges to the byte-identical corpus file an
     uninterrupted session writes;
   - at an equal run budget, coverage guidance finds strictly more
     triage signatures than a uniform grid over the fault kinds;
   - every corpus input ends on a machine whose O(dirty) audit equals
     the full fold;
   - the new hypervisor-data fault kind manifests and leaves no
     resource leaks behind recovery (ledger audit armed). *)

open Contract

let base_run_cfg = Inject.Run.default_config

let fuzz_cfg ?(runs = 48) ?(batch = 12) ?(jobs = 1) ?(oversubscribe = false)
    ?(fanout = 4) ?corpus_path ?(resume = false) ?stop_after () =
  {
    (Fuzz.Session.default_config ~base_seed:9_000L) with
    Fuzz.Session.f_base = base_run_cfg;
    f_runs = runs;
    f_batch = batch;
    f_jobs = jobs;
    f_oversubscribe = oversubscribe;
    f_fanout = fanout;
    f_corpus_path = corpus_path;
    f_resume = resume;
    f_stop_after = stop_after;
  }

(* ------------------------- Mutation traces --------------------------- *)

let test_trace_string_roundtrip () =
  let traces = [ []; [ 0 ]; [ 5; Fuzz.Input.op_space - 1; 123_456_789 ] ] in
  List.iter
    (fun t ->
      match Fuzz.Input.trace_of_string (Fuzz.Input.trace_string t) with
      | Ok t' -> checkb "round-trips" true (t = t')
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    traces;
  List.iter
    (fun s ->
      match Fuzz.Input.trace_of_string s with
      | Ok _ -> Alcotest.failf "accepted bad trace %S" s
      | Error _ -> ())
    [ "x"; "1,,2"; "-5"; string_of_int Fuzz.Input.op_space ]

let test_apply_deterministic () =
  let rng = Sim.Rng.create 4L in
  for _ = 1 to 50 do
    let trace = Fuzz.Input.mutate rng [] in
    let a = Fuzz.Input.apply ~base_seed:9_000L trace in
    let b = Fuzz.Input.apply ~base_seed:9_000L trace in
    checkb "pure function of the trace" true (a = b);
    checkb "target in range" true
      (a.Fuzz.Input.p_target >= -1
      && a.Fuzz.Input.p_target < Inject.Corrupt.n_targets)
  done

(* ------------------------- Replay ------------------------------------ *)

(* A small session discovers signatures; every exemplar's trace must
   replay -- twice, on fresh workers -- to the identical outcome class,
   signature, coverage points and metrics snapshot, and match what the
   corpus recorded for it. *)
let test_replay_reproduces_discovery () =
  let t = Fuzz.Session.explore (fuzz_cfg ()) in
  let exemplars = Fuzz.Session.exemplars t in
  checkb "session discovered signatures" true (exemplars <> []);
  List.iteri
    (fun i (sigkey, (e : Fuzz.Corpus.entry)) ->
      if i < 3 then begin
        let a = Fuzz.Session.replay (fuzz_cfg ()) e.Fuzz.Corpus.en_trace in
        let b = Fuzz.Session.replay (fuzz_cfg ()) e.Fuzz.Corpus.en_trace in
        checks "signature matches the corpus" sigkey a.Fuzz.Session.r_signature;
        checks "outcome matches the corpus" e.Fuzz.Corpus.en_outcome
          a.Fuzz.Session.r_outcome;
        checks "outcome stable" a.Fuzz.Session.r_outcome
          b.Fuzz.Session.r_outcome;
        checks "signature stable" a.Fuzz.Session.r_signature
          b.Fuzz.Session.r_signature;
        checkb "coverage points stable" true
          (a.Fuzz.Session.r_points = b.Fuzz.Session.r_points);
        Alcotest.check metrics_t "metrics snapshot stable"
          a.Fuzz.Session.r_metrics b.Fuzz.Session.r_metrics;
        checkb "resolved seed matches the corpus" true
          (a.Fuzz.Session.r_point.Fuzz.Input.p_seed = e.Fuzz.Corpus.en_seed)
      end)
    exemplars

(* Every corpus input, replayed through the session's evaluation path
   (trigger-point clone, directed config), ends on a machine whose
   O(dirty) audit equals the full fold: recovered, died or undetected,
   with either scan path. *)
let test_corpus_audits_exact () =
  let t = Fuzz.Session.explore (fuzz_cfg ()) in
  let entries = Fuzz.Corpus.entries t.Fuzz.Session.s_corpus in
  checkb "session kept inputs" true (entries <> []);
  let w = Inject.Run.prepare base_run_cfg in
  List.iter
    (fun (e : Fuzz.Corpus.entry) ->
      let trace = Fuzz.Input.trace_string e.Fuzz.Corpus.en_trace in
      let point = Fuzz.Input.apply ~base_seed:9_000L e.Fuzz.Corpus.en_trace in
      let src =
        Inject.Run.prepare_clone w
          { base_run_cfg with Inject.Run.seed = point.Fuzz.Input.p_seed }
      in
      let out =
        Inject.Run.clone_into ~cfg:(Fuzz.Input.config_of ~base:base_run_cfg point) src
      in
      checks (trace ^ ": outcome matches the corpus") e.Fuzz.Corpus.en_outcome
        (Inject.Run.outcome_name out);
      Stores.check_audit_exact trace w.Inject.Run.w_hv)
    entries

(* ------------------------- Corpus ------------------------------------ *)

let payload_string c =
  let buf = Buffer.create 256 in
  Fuzz.Corpus.add_payload buf c;
  Buffer.contents buf

let test_corpus_merge_commutative () =
  let entry trace outcome sg =
    {
      Fuzz.Corpus.en_trace = trace;
      en_seed = Int64.of_int (List.length trace);
      en_outcome = outcome;
      en_signature = sg;
    }
  in
  (* Overlapping coverage, different trace lengths: the short trace must
     win point "b" whatever the order of insertion or merge. [absorb]
     itself is deliberately order-sensitive (novelty search); the
     commutative operations are the point-wise preference map ([add])
     and corpus merge, which is what the per-worker fold relies on. *)
  let evals =
    [
      ([ "a"; "b" ], entry [ 7; 9 ] "recovered" "");
      ([ "b"; "c" ], entry [ 3 ] "hv_died" "Failstop|x|y|z");
      ([ "c"; "d" ], entry [ 8 ] "recovered" "");
      ([ "a"; "d" ], entry [ 2; 1 ] "hv_died" "Failstop|x|y|w");
    ]
  in
  let build order =
    let c = Fuzz.Corpus.create () in
    List.iter
      (fun (points, e) -> List.iter (fun p -> Fuzz.Corpus.add c p e) points)
      order;
    c
  in
  let forward = build evals and backward = build (List.rev evals) in
  checks "insertion order invisible" (payload_string forward)
    (payload_string backward);
  (* Split merge, both directions. *)
  let split at =
    let rec go i = function
      | [] -> ([], [])
      | x :: rest ->
        let l, r = go (i + 1) rest in
        if i < at then (x :: l, r) else (l, x :: r)
    in
    go 0 evals
  in
  let l, r = split 2 in
  let a = build l and b = build r in
  let ab = Fuzz.Corpus.create () and ba = Fuzz.Corpus.create () in
  Fuzz.Corpus.merge_into ~into:ab a;
  Fuzz.Corpus.merge_into ~into:ab b;
  Fuzz.Corpus.merge_into ~into:ba b;
  Fuzz.Corpus.merge_into ~into:ba a;
  checks "merge commutative" (payload_string ab) (payload_string ba);
  checks "merge equals sequential insertion" (payload_string forward)
    (payload_string ab);
  (* Duds (no novel point) leave the corpus untouched. *)
  let c = build evals in
  let before = payload_string c in
  checkb "dud rejected" false
    (Fuzz.Corpus.absorb c ~points:[ "a"; "c" ] (entry [ 9; 9; 9 ] "recovered" ""));
  checks "dud left no trace" before (payload_string c)

(* ------------------------- Session invariance ------------------------ *)

(* Exemplar bundles record the session's --fanout in their config. This
   masks that one label, so that the documents of sessions differing
   only in fanout must agree on everything else. *)
let rec mask_fanout = function
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.map
         (function
           | "fanout", Obs.Json.String _ -> ("fanout", Obs.Json.String "*")
           | k, v -> (k, mask_fanout v))
         fields)
  | Obs.Json.List l -> Obs.Json.List (List.map mask_fanout l)
  | v -> v

let triage_of ?(mask = false) (t : Fuzz.Session.t) =
  let doc = Obs.Postmortem.Triage.to_json t.Fuzz.Session.s_triage in
  if mask then Obs.Json.document (mask_fanout (Obs.Json.parse_exn doc)) else doc

(* The full serialized session state -- rng position, stats, corpus --
   must be identical whatever the worker count and fan-out grouping, and
   so must the triage document, exemplar bundles included (byte for byte
   at equal fanout; with the bundles' fanout label masked otherwise). *)
let test_jobs_fanout_invariant () =
  let explore ~fanout ~jobs ~oversubscribe =
    Fuzz.Session.explore (fuzz_cfg ~jobs ~oversubscribe ~fanout ())
  in
  let session ~mask =
    both
      (digest ~what:"payload" Alcotest.string Fuzz.Session.payload_of)
      (digest ~what:"triage" Alcotest.string (triage_of ~mask))
  in
  let base, _ = jobs_invariant ~jobs:3 (session ~mask:false) (explore ~fanout:1) in
  checkb "session evaluated its budget" true (base.Fuzz.Session.s_evaluated >= 48);
  checkb "session triaged bad runs" true
    (Obs.Postmortem.Triage.total base.Fuzz.Session.s_triage > 0);
  List.iter
    (fun (jobs, fanout) ->
      ignore
        (jobs_invariant
           ~label:(Printf.sprintf "fanout 1 vs %d, " fanout)
           ~jobs ~reference:base (session ~mask:true) (explore ~fanout)))
    [ (1, 4); (2, 8) ]

(* A bad candidate evaluated twice from one prepared trigger point: by
   default it captures its bundle; with its signature already bundled it
   skips the capture, and nothing else about the evaluation changes. *)
let test_skip_changes_only_the_bundle () =
  let cfg = fuzz_cfg () in
  let t = Fuzz.Session.explore cfg in
  let e =
    match Fuzz.Session.exemplars t with
    | (_, e) :: _ -> e
    | [] -> Alcotest.fail "session discovered no signature"
  in
  let point = Fuzz.Input.apply ~base_seed:9_000L e.Fuzz.Corpus.en_trace in
  let c =
    { Fuzz.Session.c_index = 0; c_trace = e.Fuzz.Corpus.en_trace; c_point = point }
  in
  let w, ledger = Fuzz.Session.make_worker cfg point.Fuzz.Input.p_seed in
  let src =
    Inject.Run.prepare_clone w
      { base_run_cfg with Inject.Run.seed = point.Fuzz.Input.p_seed }
  in
  let a = Fuzz.Session.eval_candidate cfg w ledger src c in
  let b = Fuzz.Session.eval_candidate ~bundled:(fun _ -> true) cfg w ledger src c in
  checkb "default captures the bundle" true (a.Fuzz.Session.ev_bundle <> None);
  checkb "bundled signature skips the capture" true
    (b.Fuzz.Session.ev_bundle = None);
  checks "outcome unchanged" a.Fuzz.Session.ev_outcome b.Fuzz.Session.ev_outcome;
  checks "signature unchanged" a.Fuzz.Session.ev_signature
    b.Fuzz.Session.ev_signature;
  checks "signature is the exemplar's" e.Fuzz.Corpus.en_signature
    a.Fuzz.Session.ev_signature;
  checkb "coverage points unchanged" true
    (a.Fuzz.Session.ev_points = b.Fuzz.Session.ev_points);
  Alcotest.check metrics_t "metrics snapshot unchanged"
    a.Fuzz.Session.ev_metrics b.Fuzz.Session.ev_metrics

(* The session's triage, exemplar bundles included, equals a reference
   that drives the round steps by hand on one worker: generate, group,
   evaluate every group with the default evaluation (every bad run
   captures its bundle) and absorb, one round at a time. *)
let test_triage_matches_reference () =
  let cfg = fuzz_cfg ~jobs:2 ~oversubscribe:true () in
  let t = Fuzz.Session.explore cfg in
  let r = Fuzz.Session.create cfg in
  let w, ledger = Fuzz.Session.make_worker cfg cfg.Fuzz.Session.f_base_seed in
  while r.Fuzz.Session.s_rounds < Fuzz.Session.n_rounds cfg do
    let count =
      min cfg.Fuzz.Session.f_batch
        (cfg.Fuzz.Session.f_runs
        - (r.Fuzz.Session.s_rounds * cfg.Fuzz.Session.f_batch))
    in
    let groups =
      Fuzz.Session.group_candidates ~fanout:cfg.Fuzz.Session.f_fanout
        (Fuzz.Session.gen_candidates r ~count)
    in
    Fuzz.Session.absorb r
      (List.concat_map (Fuzz.Session.eval_group cfg w ledger) groups);
    r.Fuzz.Session.s_rounds <- r.Fuzz.Session.s_rounds + 1
  done;
  checkb "reference triaged bad runs" true
    (Obs.Postmortem.Triage.total r.Fuzz.Session.s_triage > 0);
  checks "payload equals the reference" (Fuzz.Session.payload_of r)
    (Fuzz.Session.payload_of t);
  checks "triage equals the reference" (triage_of r) (triage_of t)

let test_kill_resume_byte_identical () =
  let killed, resumed =
    kill_resume ~after:2
      (digest ~what:"payload" Alcotest.string Fuzz.Session.payload_of)
      (fun ~path ~stop_after ~resume ~jobs ~oversubscribe ->
        Fuzz.Session.explore
          (fuzz_cfg ~corpus_path:path ?stop_after ~resume ~jobs ~oversubscribe ()))
  in
  checki "killed after two rounds" 2 killed.Fuzz.Session.s_rounds;
  checkb "some rounds ran" true (resumed.Fuzz.Session.s_rounds >= 4)

let test_resume_rejects_other_fingerprint () =
  with_temp (fun path ->
      ignore (Fuzz.Session.explore (fuzz_cfg ~corpus_path:path ()));
      checkb "resume refuses a different session fingerprint" true
        (refuses (fun () ->
             Fuzz.Session.resume_from (fuzz_cfg ~runs:64 ~corpus_path:path ()) path)))

(* ------------------------- Search quality ---------------------------- *)

(* Coverage guidance pays: at an equal budget of 192 runs, the fuzzer
   discovers strictly more distinct triage signatures than a uniform
   grid spending 48 consecutive seeds on each fault kind, with the same
   base seed, mechanism and setup. *)
let test_fuzz_beats_grid () =
  let runs = 192 in
  let kinds =
    [ Inject.Fault.Failstop; Inject.Fault.Register; Inject.Fault.Code;
      Inject.Fault.Data ]
  in
  let grid_sigs =
    List.concat_map
      (fun fault ->
        let r =
          Inject.Campaign.run ~base_seed:9_000L ~postmortems:true
            ~n:(runs / List.length kinds)
            { base_run_cfg with Inject.Run.fault }
        in
        List.map fst
          (Obs.Postmortem.Triage.snapshot
             r.Inject.Campaign.totals.Inject.Campaign.triage))
      kinds
    |> List.sort_uniq String.compare
  in
  let t = Fuzz.Session.explore (fuzz_cfg ~runs ~batch:24 ~fanout:8 ()) in
  let fuzz_sigs = Fuzz.Corpus.signatures t.Fuzz.Session.s_corpus in
  if List.length fuzz_sigs <= List.length grid_sigs then
    Alcotest.failf "fuzzer found %d signature(s), grid found %d"
      (List.length fuzz_sigs) (List.length grid_sigs)

(* ------------------------- Data faults ------------------------------- *)

let test_data_fault_manifests () =
  let outcomes = Hashtbl.create 4 in
  for i = 0 to 39 do
    let cfg =
      {
        base_run_cfg with
        Inject.Run.fault = Inject.Fault.Data;
        seed = Int64.of_int (7_000 + i);
      }
    in
    let name =
      match Inject.Run.run cfg with
      | Inject.Run.Non_manifested -> "non_manifested"
      | Inject.Run.Silent_corruption -> "silent"
      | Inject.Run.Detected d ->
        if d.Inject.Run.recovered then "recovered" else "died"
    in
    Hashtbl.replace outcomes name
      (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes name))
  done;
  checkb "some data faults manifest" true
    (Hashtbl.mem outcomes "recovered" || Hashtbl.mem outcomes "died"
    || Hashtbl.mem outcomes "silent");
  checkb "some data faults stay latent" true
    (Hashtbl.mem outcomes "non_manifested")

(* Heap-header and pfn-descriptor corruption must not leak resources
   through recovery: the opt-in ledger audit raises on any orphaned
   frame, held lock or missing recurring timer left behind a restore. *)
let test_data_fault_ledger_clean () =
  let cfg =
    { base_run_cfg with Inject.Run.fault = Inject.Fault.Data; seed = 7_100L }
  in
  let recorder = Obs.Recorder.create ~capacity:1 ~min_level:Obs.Event.Error () in
  let w = Inject.Run.prepare ~recorder cfg in
  Inject.Run.set_restore_audit w true;
  for i = 0 to 11 do
    ignore
      (Inject.Run.execute_into w
         { cfg with Inject.Run.seed = Int64.of_int (7_100 + i) })
  done;
  (* Directed worst cases: force each new corruption target in turn. *)
  List.iteri
    (fun i target ->
      let d =
        {
          Inject.Fault.d_target = target;
          d_payload = Int64.of_int (31 + i);
          d_crash = Inject.Fault.Crash_none;
          d_window = i;
        }
      in
      ignore
        (Inject.Run.execute_into w
           {
             cfg with
             Inject.Run.seed = Int64.of_int (7_200 + i);
             directive = Some d;
           }))
    (List.filter_map
       (fun i ->
         match Inject.Corrupt.of_index i with
         | Inject.Corrupt.Heap_header | Inject.Corrupt.Pfn_type_scramble ->
           Some i
         | _ -> None)
       (List.init Inject.Corrupt.n_targets (fun i -> i)));
  (* One explicit final rewind so the audit also covers the last run. *)
  Inject.Run.rewind w cfg;
  checkb "no leaks across data-fault restores" true true

let test_directed_corruption_targets_new_structures () =
  let hit_header = ref false and hit_ptype = ref false in
  List.iteri
    (fun i target ->
      (match Inject.Corrupt.of_index i with
      | Inject.Corrupt.Heap_header -> hit_header := true
      | Inject.Corrupt.Pfn_type_scramble -> hit_ptype := true
      | _ -> ());
      ignore target)
    (Array.to_list Inject.Corrupt.all);
  checkb "heap header target registered" true !hit_header;
  checkb "pfn type target registered" true !hit_ptype;
  checki "of_index wraps" 0
    (compare
       (Inject.Corrupt.of_index 0)
       (Inject.Corrupt.of_index Inject.Corrupt.n_targets))

let () =
  Alcotest.run "fuzz"
    [
      ( "input",
        [
          Alcotest.test_case "trace string round-trip" `Quick
            test_trace_string_roundtrip;
          Alcotest.test_case "apply is deterministic" `Quick
            test_apply_deterministic;
        ] );
      ( "replay",
        [
          Alcotest.test_case "replay reproduces discoveries" `Quick
            test_replay_reproduces_discovery;
          Alcotest.test_case "audit exact on corpus inputs" `Quick
            test_corpus_audits_exact;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "merge commutative" `Quick
            test_corpus_merge_commutative;
        ] );
      ( "session",
        [
          Alcotest.test_case "jobs/fanout invariant" `Quick
            test_jobs_fanout_invariant;
          Alcotest.test_case "triage matches the reference" `Quick
            test_triage_matches_reference;
          Alcotest.test_case "skip changes only the bundle" `Quick
            test_skip_changes_only_the_bundle;
          Alcotest.test_case "kill -> resume byte-identical" `Quick
            test_kill_resume_byte_identical;
          Alcotest.test_case "resume rejects other fingerprint" `Quick
            test_resume_rejects_other_fingerprint;
        ] );
      ( "search",
        [ Alcotest.test_case "fuzz beats grid" `Quick test_fuzz_beats_grid ] );
      ( "data-faults",
        [
          Alcotest.test_case "data faults manifest" `Quick
            test_data_fault_manifests;
          Alcotest.test_case "ledger clean across restores" `Quick
            test_data_fault_ledger_clean;
          Alcotest.test_case "new corruption targets registered" `Quick
            test_directed_corruption_targets_new_structures;
        ] );
    ]
