(* Tests for the postmortem subsystem: the crash-surviving flight
   recorder (rings and counters outlive restore, with
   epoch-scoped readback), the failure-signature grammar, the
   commutative triage merge with min-seed exemplars, and end-to-end
   determinism of campaign / endurance triage across --jobs and
   --fanout splits, including repro-line fidelity. *)

open Contract

(* ------------------------- Flight rings ----------------------------- *)

let test_flight_epoch_scoping () =
  let f = Obs.Flight.create ~capacity:4 () in
  Obs.Flight.note f ~name:"a" ~time:1;
  Obs.Flight.note f ~name:"b" ~time:2;
  checkb "tail oldest-first" true (Obs.Flight.tail f = [ ("a", 1); ("b", 2) ]);
  Obs.Flight.new_epoch f;
  checkb "entries of prior epochs invisible" true (Obs.Flight.tail f = []);
  Obs.Flight.note f ~name:"c" ~time:3;
  checkb "current epoch only" true (Obs.Flight.tail f = [ ("c", 3) ]);
  (* Prior-epoch entries remain readable explicitly until overwritten. *)
  checkb "prior epoch readable by number" true
    (Obs.Flight.tail ~epoch:0 f = [ ("a", 1); ("b", 2) ]);
  List.iter (fun i -> Obs.Flight.note f ~name:"x" ~time:i) [ 4; 5; 6; 7; 8 ];
  checki "wraparound keeps ring bounded" 4 (List.length (Obs.Flight.tail f));
  checki "total counts every note ever" 8 (Obs.Flight.total f)

(* The rings on a hypervisor survive snapshot/restore, layered or not --
   the crash-surviving contract postmortem capture rests on. *)
let test_flight_survives_restore () =
  let recorder =
    Obs.Recorder.create ~capacity:64 ~min_level:Obs.Event.Debug ()
  in
  let hv = boot ~mconfig:Hw.Machine.default_config ~obs:recorder () in
  Hyper.Hypervisor.new_flight_epoch hv;
  let rng = Sim.Rng.create 5L in
  Hyper.Hypervisor.execute hv rng
    (Hyper.Hypervisor.Hypercall
       { domid = 1; vid = 0; kind = Hyper.Hypercalls.Update_va_mapping });
  let tail = Hyper.Hypervisor.hypercall_tail hv in
  checkb "hypercall noted in flight ring" true
    (List.exists (fun (n, _) -> n = "update_va_mapping") tail);
  let c = Obs.Metrics.counter recorder.Obs.Recorder.metrics "probe" in
  Obs.Metrics.incr ~by:7 c;
  (* Restore from a snapshot: machine state rewinds, evidence stays. *)
  let image = Hyper.Hypervisor.snapshot hv in
  Hyper.Hypervisor.restore hv image;
  checkb "flight tail survives restore" true
    (Hyper.Hypervisor.hypercall_tail hv = tail);
  checki "metrics survive restore" 7
    (List.assoc "probe"
       (Obs.Metrics.snapshot recorder.Obs.Recorder.metrics).Obs.Metrics.counters);
  (* Layered restore (the clone fan-out's rewind): same contract. *)
  ignore (Hyper.Hypervisor.snapshot ~layer:true hv);
  Hyper.Hypervisor.restore hv image;
  checkb "flight tail survives layered restore" true
    (Hyper.Hypervisor.hypercall_tail hv = tail);
  checki "metrics survive layered restore" 7
    (List.assoc "probe"
       (Obs.Metrics.snapshot recorder.Obs.Recorder.metrics).Obs.Metrics.counters);
  (* The harness-side run boundary is the epoch bump, not a clear. *)
  Hyper.Hypervisor.new_flight_epoch hv;
  checkb "epoch bump scopes the next run" true
    (Hyper.Hypervisor.hypercall_tail hv = [])

(* ------------------------- Signatures ------------------------------- *)

let test_signature_grammar () =
  let sg =
    Obs.Signature.make ~fault:"register" ~target:"pfn entry" ~cause:"hv died"
      ~branch:"NiLiHype/aborted"
  in
  let key = Obs.Signature.key sg in
  checks "separator-safe key" "register|pfn_entry|hv_died|NiLiHype/aborted" key;
  (match Obs.Signature.of_key key with
  | Some sg2 -> checkb "key round-trips" true (Obs.Signature.compare sg sg2 = 0)
  | None -> Alcotest.fail "of_key rejected its own key");
  checkb "malformed keys rejected" true
    (Obs.Signature.of_key "only|three|parts" = None);
  let empty = Obs.Signature.make ~fault:"" ~target:"" ~cause:"" ~branch:"" in
  checks "empty axes normalise" "unknown|unknown|unknown|unknown"
    (Obs.Signature.key empty)

(* ------------------------- Triage merge ----------------------------- *)

let bundle sg seed =
  Obs.Postmortem.make ~signature:sg ~outcome:"detected" ~seed
    ~repro:(Printf.sprintf "repro %Ld" seed)
    ~config:[] ~events:[] ~phases:[] ~hypercalls:[] ~journal_tail:[]
    ~ledger_diff:[]

let test_triage_merge () =
  let sg = Obs.Signature.make ~fault:"f" ~target:"t" ~cause:"c" ~branch:"b" in
  let sg2 = Obs.Signature.make ~fault:"f" ~target:"t2" ~cause:"c" ~branch:"b" in
  (* Worker A sees seeds 5 and 9; worker B sees seed 3 (and another
     signature). Each worker captures a bundle only at its first
     occurrence, like the campaign does. *)
  let a = Obs.Postmortem.Triage.create () in
  Obs.Postmortem.Triage.record ~bundle:(bundle sg 5L) a sg ~seed:5L;
  Obs.Postmortem.Triage.record a sg ~seed:9L;
  let b = Obs.Postmortem.Triage.create () in
  Obs.Postmortem.Triage.record ~bundle:(bundle sg 3L) b sg ~seed:3L;
  Obs.Postmortem.Triage.record ~bundle:(bundle sg2 4L) b sg2 ~seed:4L;
  let merged_ab = Obs.Postmortem.Triage.create () in
  Obs.Postmortem.Triage.merge_into ~into:merged_ab a;
  Obs.Postmortem.Triage.merge_into ~into:merged_ab b;
  let merged_ba = Obs.Postmortem.Triage.create () in
  Obs.Postmortem.Triage.merge_into ~into:merged_ba b;
  Obs.Postmortem.Triage.merge_into ~into:merged_ba a;
  checkb "merge is commutative" true
    (Obs.Postmortem.Triage.snapshot merged_ab
    = Obs.Postmortem.Triage.snapshot merged_ba);
  checki "counts sum" 4 (Obs.Postmortem.Triage.total merged_ab);
  checki "signatures deduped" 2 (Obs.Postmortem.Triage.signatures merged_ab);
  (match
     List.assoc_opt (Obs.Signature.key sg)
       (Obs.Postmortem.Triage.snapshot merged_ab)
   with
  | Some e1 ->
    Alcotest.check
      (Alcotest.list Alcotest.int64)
      "seed sets union ascending" [ 3L; 5L; 9L ]
      e1.Obs.Postmortem.Triage.e_seeds;
    (match e1.Obs.Postmortem.Triage.e_exemplar with
    | Some (seed, b) ->
      checkb "exemplar is the min-seed bundle" true
        (seed = 3L && b.Obs.Postmortem.pm_seed = 3L)
    | None -> Alcotest.fail "merged entry lost its exemplar")
  | None -> Alcotest.fail "merged table lost the shared signature");
  (* Byte-level determinism of the exported document. *)
  checkb "triage JSON identical either merge order" true
    (Obs.Postmortem.Triage.to_json merged_ab
    = Obs.Postmortem.Triage.to_json merged_ba)

let test_triage_seed_cap () =
  let sg = Obs.Signature.make ~fault:"f" ~target:"t" ~cause:"c" ~branch:"b" in
  let entry_of tr =
    match
      List.assoc_opt (Obs.Signature.key sg) (Obs.Postmortem.Triage.snapshot tr)
    with
    | Some e -> e
    | None -> Alcotest.fail "signature missing from triage table"
  in
  (* A narrow table keeps only the [seed_cap] smallest seeds but still
     counts every occurrence. *)
  let tr = Obs.Postmortem.Triage.create ~seed_cap:2 () in
  List.iter
    (fun seed -> Obs.Postmortem.Triage.record tr sg ~seed)
    [ 9L; 3L; 7L; 1L; 5L ];
  let e = entry_of tr in
  checki "count keeps every occurrence" 5 e.Obs.Postmortem.Triage.e_count;
  Alcotest.check
    (Alcotest.list Alcotest.int64)
    "only the cap smallest seeds retained" [ 1L; 3L ]
    e.Obs.Postmortem.Triage.e_seeds;
  (* Merging a wide table into a narrow one truncates to the
     destination's cap; the count is unaffected. *)
  let wide = Obs.Postmortem.Triage.create ~seed_cap:8 () in
  List.iter
    (fun seed -> Obs.Postmortem.Triage.record wide sg ~seed)
    [ 2L; 4L; 6L; 8L ];
  let narrow = Obs.Postmortem.Triage.create ~seed_cap:2 () in
  Obs.Postmortem.Triage.merge_into ~into:narrow wide;
  let e = entry_of narrow in
  checki "merged count" 4 e.Obs.Postmortem.Triage.e_count;
  Alcotest.check
    (Alcotest.list Alcotest.int64)
    "destination cap authoritative" [ 2L; 4L ]
    e.Obs.Postmortem.Triage.e_seeds;
  (* Capped merge stays commutative: either order lands on the same
     snapshot. *)
  let m1 = Obs.Postmortem.Triage.create ~seed_cap:3 () in
  Obs.Postmortem.Triage.merge_into ~into:m1 wide;
  Obs.Postmortem.Triage.merge_into ~into:m1 tr;
  let m2 = Obs.Postmortem.Triage.create ~seed_cap:3 () in
  Obs.Postmortem.Triage.merge_into ~into:m2 tr;
  Obs.Postmortem.Triage.merge_into ~into:m2 wide;
  checkb "capped merge commutative" true
    (Obs.Postmortem.Triage.snapshot m1 = Obs.Postmortem.Triage.snapshot m2);
  Alcotest.check
    (Alcotest.list Alcotest.int64)
    "union then truncate" [ 1L; 2L; 3L ]
    (entry_of m1).Obs.Postmortem.Triage.e_seeds

(* --------------------- Campaign determinism ------------------------- *)

let dead_cfg =
  {
    Inject.Run.default_config with
    Inject.Run.fault = Inject.Fault.Failstop;
    mech = Inject.Run.No_recovery;
    hv_config = Hyper.Config.stock;
  }

let mixed_cfg = { Inject.Run.default_config with Inject.Run.fault = Inject.Fault.Register }

let triage_of (r : Inject.Campaign.result) =
  r.Inject.Campaign.totals.Inject.Campaign.triage

let triage_json =
  digest ~what:"triage JSON" Alcotest.string (fun (r : Inject.Campaign.result) ->
      Obs.Postmortem.Triage.to_json (triage_of r))

let test_campaign_triage_jobs_invariant () =
  ignore
    (jobs_invariant (both campaign_snapshot triage_json)
       (fun ~jobs ~oversubscribe ->
         Inject.Campaign.run ~base_seed:300L ~jobs ~oversubscribe ~postmortems:true
           ~n:60 mixed_cfg))

let test_campaign_triage_fanout_invariant () =
  ignore
    (jobs_invariant ~label:"fanout 3: " triage_json (fun ~jobs ~oversubscribe ->
         Inject.Campaign.run ~base_seed:300L ~jobs ~oversubscribe ~fanout:3
           ~postmortems:true ~n:60 mixed_cfg))

let test_campaign_capture_does_not_perturb () =
  let run postmortems =
    Inject.Campaign.run ~base_seed:300L ~postmortems ~n:40 mixed_cfg
  in
  let off = Inject.Campaign.snapshot (run false).Inject.Campaign.totals in
  let on = Inject.Campaign.snapshot (run true).Inject.Campaign.totals in
  checkb "capture changes nothing but the triage table" true
    ({ on with Inject.Campaign.s_triage = [] } = off)

let test_campaign_bundles_and_repro () =
  let dead =
    Inject.Campaign.run ~base_seed:400L ~postmortems:true ~n:12 dead_cfg
  in
  let entries = Obs.Postmortem.Triage.snapshot (triage_of dead) in
  checkb "died campaign emits at least one bundle" true
    (List.exists
       (fun (_, e) -> e.Obs.Postmortem.Triage.e_exemplar <> None)
       entries);
  List.iter
    (fun (key, e) ->
      match e.Obs.Postmortem.Triage.e_exemplar with
      | None -> ()
      | Some (seed, b) ->
        checkb "bundle has a repro line" true (b.Obs.Postmortem.pm_repro <> "");
        checkb "bundle timeline is non-empty" true
          (b.Obs.Postmortem.pm_timeline <> []);
        (* The repro contract: --runs 1 --seed S lands in the same
           signature. *)
        let rerun =
          Inject.Campaign.run ~base_seed:seed ~postmortems:true ~n:1 dead_cfg
        in
        (match Obs.Postmortem.Triage.snapshot (triage_of rerun) with
        | [ (key', e') ] ->
          checks "repro reproduces the signature" key key';
          (match e'.Obs.Postmortem.Triage.e_exemplar with
          | Some (_, b') ->
            checks "same outcome class" b.Obs.Postmortem.pm_outcome
              b'.Obs.Postmortem.pm_outcome
          | None -> Alcotest.fail "repro run captured no bundle")
        | l ->
          Alcotest.fail
            (Printf.sprintf "repro run produced %d signatures" (List.length l))))
    entries

(* --------------------- Endurance determinism ------------------------ *)

let test_endurance_triage () =
  let cfg =
    {
      Endure.default_config with
      Endure.run_cfg =
        {
          Inject.Run.default_config with
          Inject.Run.fault = Inject.Fault.Failstop;
          mech =
            Inject.Run.Mech
              (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
          hv_config = Hyper.Config.nilihype;
        };
      cycles = 12;
      leak_budget_pages = None;
    }
  in
  let seq, _ =
    jobs_invariant ~jobs:2 endure_snapshot (fun ~jobs ~oversubscribe ->
        Endure.run ~base_seed:500L ~jobs ~oversubscribe ~postmortems:true ~scenarios:6
          cfg)
  in
  (* Every death records exactly one triage occurrence, with a bundle
     captured live at the point of death. *)
  checki "triage total equals death count" seq.Endure.totals.Endure.deaths
    (Obs.Postmortem.Triage.total seq.Endure.totals.Endure.triage);
  List.iter
    (fun (key, e) ->
      match e.Obs.Postmortem.Triage.e_exemplar with
      | None -> Alcotest.fail ("death signature without a bundle: " ^ key)
      | Some (_, b) ->
        checks "death bundles are outcome 'died'" "died"
          b.Obs.Postmortem.pm_outcome;
        checkb "death bundle names the endurance CLI" true
          (String.length b.Obs.Postmortem.pm_repro > 0))
    (Obs.Postmortem.Triage.snapshot seq.Endure.totals.Endure.triage)

(* ------------------------- JSON codec ------------------------------- *)

let checker_accepts contents =
  with_temp (fun path ->
      write_file path contents;
      trace_check_accepts path)

let ok_or_fail = function Ok v -> v | Error msg -> Alcotest.fail msg

(* Seeds past 2^53 are not floats: a --mech none campaign there must
   triage under its exact seeds, and the checker must see them
   ascending. *)
let test_triage_exact_seeds () =
  let base = Int64.shift_left 1L 53 in
  let r = Inject.Campaign.run ~base_seed:base ~postmortems:true ~n:6 dead_cfg in
  let text = Obs.Postmortem.Triage.to_json (triage_of r) in
  checkb "checker accepts the triage" true (checker_accepts text);
  let decoded = ok_or_fail (Obs.Postmortem.Triage.of_string text) in
  Alcotest.check
    (Alcotest.list Alcotest.int64)
    "exact seeds" (List.init 6 (fun i -> Int64.add base (Int64.of_int i)))
    (List.concat_map
       (fun (_, e) -> e.Obs.Postmortem.Triage.e_seeds)
       (Obs.Postmortem.Triage.snapshot decoded))

let fuzz_triage =
  lazy
    (let cfg =
       {
         (Fuzz.Session.default_config ~base_seed:9_000L) with
         Fuzz.Session.f_runs = 24;
         f_batch = 12;
       }
     in
     (Fuzz.Session.explore cfg).Fuzz.Session.s_triage)

let exemplars tr =
  List.filter_map
    (fun (_, e) -> Option.map snd e.Obs.Postmortem.Triage.e_exemplar)
    (Obs.Postmortem.Triage.snapshot tr)

let test_bundle_roundtrip () =
  let campaign =
    triage_of (Inject.Campaign.run ~base_seed:300L ~postmortems:true ~n:40 mixed_cfg)
  in
  List.iter
    (fun (name, tr) ->
      let bundles = exemplars tr in
      checkb (name ^ " has exemplars") true (bundles <> []);
      List.iter
        (fun b ->
          checkb (name ^ " bundle round-trips") true
            (Obs.Postmortem.of_string (Obs.Postmortem.to_json b) = Ok b))
        bundles)
    [ ("campaign", campaign); ("fuzz", Lazy.force fuzz_triage) ]

let test_triage_roundtrip () =
  List.iter
    (fun tr ->
      let decoded =
        ok_or_fail (Obs.Postmortem.Triage.of_string (Obs.Postmortem.Triage.to_json tr))
      in
      checkb "same snapshot" true
        (Obs.Postmortem.Triage.snapshot decoded = Obs.Postmortem.Triage.snapshot tr))
    [
      triage_of (Inject.Campaign.run ~base_seed:400L ~postmortems:true ~n:12 dead_cfg);
      Lazy.force fuzz_triage;
    ]

let () =
  Alcotest.run "postmortem"
    [
      ( "flight",
        [
          Alcotest.test_case "epoch scoping" `Quick test_flight_epoch_scoping;
          Alcotest.test_case "survives restore and reboot" `Quick
            test_flight_survives_restore;
        ] );
      ( "signature",
        [ Alcotest.test_case "grammar" `Quick test_signature_grammar ] );
      ( "triage",
        [
          Alcotest.test_case "commutative merge" `Quick test_triage_merge;
          Alcotest.test_case "bounded seed lists" `Quick test_triage_seed_cap;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "triage jobs-invariant" `Slow
            test_campaign_triage_jobs_invariant;
          Alcotest.test_case "triage fanout-invariant" `Slow
            test_campaign_triage_fanout_invariant;
          Alcotest.test_case "capture does not perturb results" `Quick
            test_campaign_capture_does_not_perturb;
          Alcotest.test_case "bundles and repro fidelity" `Quick
            test_campaign_bundles_and_repro;
        ] );
      ( "endurance",
        [ Alcotest.test_case "death triage" `Slow test_endurance_triage ] );
      ( "codec",
        [
          Alcotest.test_case "exact seeds past 2^53" `Quick
            test_triage_exact_seeds;
          Alcotest.test_case "bundle round trip" `Quick test_bundle_roundtrip;
          Alcotest.test_case "triage round trip" `Quick test_triage_roundtrip;
        ] );
      ( "damage",
        (* A real triage file and a real bundle file, each with the
           decoder that reads it. *)
        damage
          [
            file "triage"
              (lazy (Obs.Postmortem.Triage.to_json (Lazy.force fuzz_triage)))
              Obs.Postmortem.Triage.of_string;
            file "bundle"
              (lazy (Obs.Postmortem.to_json (List.hd (exemplars (Lazy.force fuzz_triage)))))
              Obs.Postmortem.of_string;
          ] );
    ]
