(** A coverage-guided fuzzing session over the fault space.

    One session explores [f_runs] mutants in rounds of [f_batch]. Each
    round the coordinator deterministically generates a batch of
    candidates from the session RNG and the canonical corpus (fresh
    traces or mutations of kept entries), groups them by warmup seed,
    and fans the groups out over {!Inject.Pool} domains: a group drives
    one machine to the trigger point once ({!Inject.Run.prepare_clone})
    and replays the trigger image for every candidate in the group
    ({!Inject.Run.clone_into} with the candidate's directed config).

    Determinism invariants, tested in test/test_fuzz.ml:
    - every candidate's evaluation is a pure function of its
      [(base seed, trace)] -- the variant rng rewinds to the trigger
      point's canonical position, so neither the group composition
      ([--fanout]) nor the worker that ran it ([--jobs]) can leak in;
    - the coordinator absorbs evaluations in candidate order, so the
      corpus, stats and triage evolve identically for every [--jobs];
    - candidate generation happens before distribution, from state that
      is itself jobs-invariant.

    Sessions persist as nlh-fuzz/1 files (the nlh-checkpoint/1 envelope
    under the fuzz schema tag): fingerprint, completed-round prefix,
    and a payload holding the session RNG position, the stats and the
    canonical corpus. Kill -> resume continues the same exploration and
    converges to the byte-identical final file. *)

open Inject

type config = {
  f_base : Run.config; (* seed/fault/directive fields are overridden per candidate *)
  f_base_seed : int64;
  f_runs : int;
  f_batch : int;
  f_jobs : int;
  f_oversubscribe : bool;
  f_fanout : int; (* max candidates cloned from one prepared warmup *)
  f_corpus_path : string option;
  f_resume : bool;
  f_save_every : int; (* write the corpus file every this many rounds *)
  f_stop_after : int option; (* stop after this many rounds this invocation *)
}

let default_config ~base_seed =
  {
    f_base = Run.default_config;
    f_base_seed = base_seed;
    f_runs = 256;
    f_batch = 32;
    f_jobs = 1;
    f_oversubscribe = false;
    f_fanout = 8;
    f_corpus_path = None;
    f_resume = false;
    f_save_every = 1;
    f_stop_after = None;
  }

let n_rounds cfg =
  if cfg.f_runs <= 0 then 0 else (cfg.f_runs + cfg.f_batch - 1) / cfg.f_batch

(* Config/seed identity for resume validation. Excludes [jobs] and
   [fanout]: both are scheduling knobs the aggregate is invariant to,
   so a resume may change them freely. *)
let fingerprint cfg =
  Printf.sprintf "fuzz;mech=%s;setup=%s;base_seed=%Ld;runs=%d;batch=%d"
    (Postmortem.mech_cli cfg.f_base.Run.mech)
    (Postmortem.setup_cli cfg.f_base.Run.setup)
    cfg.f_base_seed cfg.f_runs cfg.f_batch

type t = {
  s_cfg : config;
  s_rng : Sim.Rng.t; (* coordinator-only: candidate generation *)
  s_corpus : Corpus.t;
  s_triage : Obs.Postmortem.Triage.table;
  mutable s_rounds : int; (* completed rounds *)
  mutable s_evaluated : int;
  mutable s_kept : int;
  mutable s_dud : int;
  s_workers : (Run.worker * Hyper.Ledger.t) option array; (* per pool slot *)
}

let max_slots = 128

let create cfg =
  {
    s_cfg = cfg;
    s_rng = Sim.Rng.create (Int64.logxor cfg.f_base_seed 0x66757A7AL (* "fuzz" *));
    s_corpus = Corpus.create ();
    s_triage = Obs.Postmortem.Triage.create ();
    s_rounds = 0;
    s_evaluated = 0;
    s_kept = 0;
    s_dud = 0;
    s_workers = Array.make max_slots None;
  }

(* ------------------------------------------------------------------ *)
(* Persistence (nlh-fuzz/1)                                            *)
(* ------------------------------------------------------------------ *)

(* Seeds and the rng state are int64 strings (see {!Corpus}). *)
let payload_json t =
  Obs.Json.(
    Obj
      ([
         ("base_seed", String (Int64.to_string t.s_cfg.f_base_seed));
         ("rng", String (Int64.to_string (Sim.Rng.save t.s_rng)));
         ("evaluated", int t.s_evaluated);
         ("kept", int t.s_kept);
         ("dud", int t.s_dud);
       ]
      @ Corpus.payload_members t.s_corpus))

let payload_of t = Obs.Json.render (payload_json t)

let header_of t =
  let rounds = n_rounds t.s_cfg in
  {
    Obs.Checkpoint.kind = "fuzz";
    fingerprint = fingerprint t.s_cfg;
    chunk = t.s_cfg.f_batch;
    n_chunks = rounds;
    done_chunks = Array.init rounds (fun i -> i < t.s_rounds);
  }

let save t path =
  Obs.Checkpoint.write ~schema:Obs.Checkpoint.fuzz_schema ~path (header_of t)
    ~payload:(payload_json t)

(* A session state as an nlh-fuzz/1 file holds it. *)
type saved = {
  sv_rounds : int;
  sv_rng : int64;
  sv_evaluated : int;
  sv_kept : int;
  sv_dud : int;
  sv_corpus : Corpus.t;
}

(* Decode a fuzz file's header and payload: the decoder resume and
   [nlh_trace_check] share. *)
let saved_of_checkpoint (h : Obs.Checkpoint.header) payload =
  Obs.Json.decoding (fun () ->
      let open Obs.Json in
      (* Rounds complete strictly in order, so "done" is a prefix. *)
      let rounds = Obs.Checkpoint.done_count h in
      Array.iteri
        (fun i d -> if d <> (i < rounds) then fail "done rounds are not a prefix")
        h.Obs.Checkpoint.done_chunks;
      let int64 key =
        let s = str "payload" key payload in
        match Int64.of_string_opt s with
        | Some v -> v
        | None -> fail "payload.%s %S is not an int64" key s
      in
      ignore (int64 "base_seed");
      let int key = int_exn "payload" key payload in
      let sv =
        {
          sv_rounds = rounds;
          sv_rng = int64 "rng";
          sv_evaluated = int "evaluated";
          sv_kept = int "kept";
          sv_dud = int "dud";
          sv_corpus = Corpus.of_json payload;
        }
      in
      if sv.sv_evaluated <> sv.sv_kept + sv.sv_dud then
        fail "payload: evaluated %d <> kept %d + dud %d" sv.sv_evaluated
          sv.sv_kept sv.sv_dud;
      sv)

(* Restore corpus/stats/RNG from an nlh-fuzz/1 file into a fresh
   session, after the driver's envelope checks: kind, fingerprint, and a
   round count that matches the config. *)
let resume_from cfg path =
  match
    Result.bind
      (Drive.load ~schema:Obs.Checkpoint.fuzz_schema ~kind:"fuzz"
         ~fingerprint:(fingerprint cfg) ~decode:saved_of_checkpoint path)
      (fun (h, sv) ->
        Result.map (fun () -> sv) (Drive.check_geometry ~items:cfg.f_runs h))
  with
  | Error msg -> Drive.resume_error path msg
  | Ok sv ->
    let t = create cfg in
    Sim.Rng.reseed t.s_rng sv.sv_rng;
    t.s_evaluated <- sv.sv_evaluated;
    t.s_kept <- sv.sv_kept;
    t.s_dud <- sv.sv_dud;
    Corpus.merge_into ~into:t.s_corpus sv.sv_corpus;
    t.s_rounds <- sv.sv_rounds;
    t

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

type candidate = { c_index : int; c_trace : int list; c_point : Input.point }

(* What one candidate's run produced -- everything the coordinator needs
   to update corpus and triage, computed at the worker. A pure function
   of the candidate. *)
type eval = {
  ev_index : int;
  ev_trace : int list;
  ev_seed : int64;
  ev_outcome : string;
  ev_signature : string; (* "" for good outcomes *)
  ev_points : string list;
  ev_bundle : Obs.Postmortem.t option;
  ev_metrics : Obs.Metrics.snapshot;
}

let repro_line cfg trace =
  Printf.sprintf "nlh_fuzz --mech %s --setup %s --seed %Ld --replay %s"
    (Postmortem.mech_cli cfg.f_base.Run.mech)
    (Postmortem.setup_cli cfg.f_base.Run.setup)
    cfg.f_base_seed (Input.trace_string trace)

(* The recorder shape is fixed (the postmortem shape, whatever the
   session does with bundles) so metric snapshots -- and hence coverage
   -- are identical between sessions, replays and tests. *)
let make_worker cfg seed =
  let recorder =
    Campaign.make_worker_recorder ~alloc_profile:false ~postmortems:true ()
  in
  let w = Run.prepare ~recorder { cfg.f_base with Run.seed } in
  (* Boot is seed-independent, so this golden ledger is identical on
     every worker: bundle determinism relies on that. *)
  (w, Hyper.Ledger.capture w.Run.w_hv)

(* Evaluate one candidate from a prepared trigger-point source. The
   default (no [reseed]) rewinds the variant rng to the source's
   canonical trigger position, so the result cannot depend on which
   other candidates share the group. A bad run captures its postmortem
   bundle unless [bundled] holds for its signature; by default nothing
   is bundled, so every bad run captures. *)
let eval_candidate ?(bundled = fun _ -> false) cfg (w : Run.worker) ledger src c =
  let varcfg = Input.config_of ~base:cfg.f_base c.c_point in
  let out = Run.clone_into ~cfg:varcfg src in
  let metrics = Obs.Recorder.metrics_snapshot (Run.worker_recorder w) in
  let signature =
    Postmortem.signature_of varcfg ~first_target:w.Run.w_last_target out
  in
  let sigkey = match signature with Some s -> Obs.Signature.key s | None -> "" in
  let bundle =
    (* Workers cannot know which signatures this round finds first, so
       they capture for every bad run whose signature is not [bundled];
       the coordinator keeps only the first-in-order bundle per
       signature. *)
    match signature with
    | Some signature when not (bundled signature) ->
      Some
        (Postmortem.capture ~signature ~hv:w.Run.w_hv
           ~golden_ledger:(Some ledger) ~repro:(repro_line cfg c.c_trace)
           ~config:
             (("trace", Input.trace_string c.c_trace)
             :: Postmortem.config_fields varcfg ~fanout:cfg.f_fanout)
           ~seed:c.c_point.Input.p_seed out)
    | _ -> None
  in
  {
    ev_index = c.c_index;
    ev_trace = c.c_trace;
    ev_seed = c.c_point.Input.p_seed;
    ev_outcome = Run.outcome_name out;
    ev_signature = sigkey;
    ev_points =
      Obs.Coverage.points
        ?signature:(if sigkey = "" then None else Some sigkey)
        ~outcome:(Run.outcome_name out) metrics;
    ev_bundle = bundle;
    ev_metrics = metrics;
  }

(* Evaluate a group of candidates sharing a warmup seed: prepare the
   machine to the trigger point once, clone per candidate. *)
let eval_group ?bundled cfg (w : Run.worker) ledger group =
  match group with
  | [] -> []
  | first :: _ ->
    let src =
      Run.prepare_clone w { cfg.f_base with Run.seed = first.c_point.Input.p_seed }
    in
    List.map (fun c -> eval_candidate ?bundled cfg w ledger src c) group

(* Group a batch by warmup seed (first-occurrence order), splitting any
   seed's run of candidates into chunks of at most [fanout]. Grouping
   only affects how often warmups are re-prepared, never results. *)
let group_candidates ~fanout cands =
  let buckets : (int64, candidate list ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun c ->
      let seed = c.c_point.Input.p_seed in
      match Hashtbl.find_opt buckets seed with
      | Some l -> l := c :: !l
      | None ->
        Hashtbl.add buckets seed (ref [ c ]);
        order := seed :: !order)
    cands;
  let chunks l =
    let rec go acc cur n = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | c :: rest ->
        if n = fanout then go (List.rev cur :: acc) [ c ] 1 rest
        else go acc (c :: cur) (n + 1) rest
    in
    go [] [] 0 l
  in
  List.concat_map
    (fun seed -> chunks (List.rev !(Hashtbl.find buckets seed)))
    (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

(* Generate round candidates from the session RNG and the canonical
   corpus: ~1/4 fresh traces, the rest mutations of kept entries. Runs
   on the coordinator before any distribution, so the batch is a pure
   function of (rng position, corpus). *)
let gen_candidates t ~count =
  let ents = Array.of_list (Corpus.entries t.s_corpus) in
  List.init count (fun i ->
      let parent =
        if Array.length ents = 0 || Sim.Rng.int t.s_rng 4 = 0 then []
        else ents.(Sim.Rng.int t.s_rng (Array.length ents)).Corpus.en_trace
      in
      let trace = Input.mutate t.s_rng parent in
      {
        c_index = i;
        c_trace = trace;
        c_point = Input.apply ~base_seed:t.s_cfg.f_base_seed trace;
      })

(* Absorb one round's evaluations in candidate order: corpus novelty,
   stats, and triage (bundle attached only at the globally-first
   occurrence of each signature). *)
let absorb t evals =
  List.iter
    (fun ev ->
      t.s_evaluated <- t.s_evaluated + 1;
      let entry =
        {
          Corpus.en_trace = ev.ev_trace;
          en_seed = ev.ev_seed;
          en_outcome = ev.ev_outcome;
          en_signature = ev.ev_signature;
        }
      in
      if Corpus.absorb t.s_corpus ~points:ev.ev_points entry then
        t.s_kept <- t.s_kept + 1
      else t.s_dud <- t.s_dud + 1;
      if ev.ev_signature <> "" then
        match Obs.Signature.of_key ev.ev_signature with
        | None -> ()
        | Some sg ->
          let bundle =
            if Obs.Postmortem.Triage.mem t.s_triage sg then None
            else ev.ev_bundle
          in
          Obs.Postmortem.Triage.record ?bundle t.s_triage sg ~seed:ev.ev_seed)
    (List.sort (fun a b -> compare a.ev_index b.ev_index) evals)

type acc = { acc_slot : int; mutable acc_evals : eval list }

let run_round t =
  let cfg = t.s_cfg in
  let count = min cfg.f_batch (cfg.f_runs - (t.s_rounds * cfg.f_batch)) in
  let cands = gen_candidates t ~count in
  let groups =
    Array.of_list (group_candidates ~fanout:(max 1 cfg.f_fanout) cands)
  in
  (* [absorb] drops the bundle of any signature already triaged, so
     workers skip capturing those. The table changes only in [absorb],
     after the pool returns: workers read it with no writer, and what
     they skip depends on completed rounds alone, whatever the jobs or
     fanout. *)
  let bundled = Obs.Postmortem.Triage.mem t.s_triage in
  let evals =
    Pool.map_reduce ~jobs:(min cfg.f_jobs max_slots)
      ~oversubscribe:cfg.f_oversubscribe ~n:(Array.length groups)
      ~init:(fun slot -> { acc_slot = slot; acc_evals = [] })
      ~body:(fun acc gi ->
        let w, ledger =
          match t.s_workers.(acc.acc_slot) with
          | Some wl -> wl
          | None ->
            let wl =
              make_worker cfg (List.hd groups.(gi)).c_point.Input.p_seed
            in
            t.s_workers.(acc.acc_slot) <- Some wl;
            wl
        in
        acc.acc_evals <-
          eval_group ~bundled cfg w ledger groups.(gi) @ acc.acc_evals)
      ~merge:(fun a b ->
        a.acc_evals <- a.acc_evals @ b.acc_evals;
        a)
      ()
  in
  absorb t evals.acc_evals;
  t.s_rounds <- t.s_rounds + 1

(* Run rounds until the budget (or [f_stop_after]) is exhausted, saving
   the corpus file per [f_save_every] and always once at the end. *)
let run t =
  let total = n_rounds t.s_cfg in
  let stop =
    match t.s_cfg.f_stop_after with
    | Some k -> min total (t.s_rounds + max 0 k)
    | None -> total
  in
  while t.s_rounds < stop do
    run_round t;
    match t.s_cfg.f_corpus_path with
    | Some path
      when t.s_cfg.f_save_every > 0 && t.s_rounds mod t.s_cfg.f_save_every = 0
      ->
      save t path
    | _ -> ()
  done;
  match t.s_cfg.f_corpus_path with Some path -> save t path | None -> ()

(* Create-or-resume, then run. *)
let explore cfg =
  let t =
    match cfg.f_corpus_path with
    | Some path when cfg.f_resume -> resume_from cfg path
    | _ -> create cfg
  in
  run t;
  t

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

type replay_result = {
  r_point : Input.point;
  r_outcome : string;
  r_signature : string;
  r_bundle : Obs.Postmortem.t option;
  r_metrics : Obs.Metrics.snapshot;
  r_points : string list;
}

(* Re-run one [(base seed, trace)] on a fresh worker, through exactly
   the session's evaluation path (prepare to trigger, clone with the
   directed config), so the result is byte-identical to the session's
   -- whatever --jobs/--fanout the session used. *)
let replay cfg trace =
  let point = Input.apply ~base_seed:cfg.f_base_seed trace in
  let w, ledger = make_worker cfg point.Input.p_seed in
  let ev =
    List.hd
      (eval_group cfg w ledger [ { c_index = 0; c_trace = trace; c_point = point } ])
  in
  {
    r_point = point;
    r_outcome = ev.ev_outcome;
    r_signature = ev.ev_signature;
    r_bundle = ev.ev_bundle;
    r_metrics = ev.ev_metrics;
    r_points = ev.ev_points;
  }

(* The canonical repro for each discovered signature: the first entry
   (in corpus preference order) carrying it. *)
let exemplars t =
  List.fold_left
    (fun acc (e : Corpus.entry) ->
      if e.Corpus.en_signature <> "" && not (List.mem_assoc e.Corpus.en_signature acc)
      then acc @ [ (e.Corpus.en_signature, e) ]
      else acc)
    []
    (Corpus.entries t.s_corpus)
