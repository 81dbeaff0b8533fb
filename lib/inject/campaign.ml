(** Injection campaigns: many runs of a configuration, aggregated the way
    Section VII-A reports them.

    Campaigns run either sequentially or across OCaml 5 domains (see
    {!Pool}); per-run randomness derives purely from the seed and the
    totals merge is commutative and associative, so the aggregate is
    identical for every [jobs] value. *)

type totals = {
  mutable runs : int;
  mutable non_manifested : int;
  mutable sdc : int;
  mutable detected : int;
  mutable successes : int;
  mutable no_vmf : int;
  mutable recovered : int;
  mutable latency_sum : Sim.Time.ns;
  mutable latency_samples : int;
  notes : Sim.Stats.Counts.t;
  mutable metrics : Obs.Metrics.snapshot; (* merged per-run metrics *)
  triage : Obs.Postmortem.Triage.table;
      (* failure signatures with bounded exemplar bundles; empty unless
         the campaign ran with [postmortems] *)
}

let make_totals ?triage_seed_cap () =
  {
    runs = 0;
    non_manifested = 0;
    sdc = 0;
    detected = 0;
    successes = 0;
    no_vmf = 0;
    recovered = 0;
    latency_sum = 0;
    latency_samples = 0;
    notes = Sim.Stats.Counts.create ();
    metrics = Obs.Metrics.empty_snapshot;
    triage = Obs.Postmortem.Triage.create ?seed_cap:triage_seed_cap ();
  }

let note t key = Sim.Stats.Counts.add t.notes key

(* Failure notes in canonical (key-sorted) order, so output and
   comparisons are stable regardless of accumulation order. *)
let failure_notes t = Sim.Stats.Counts.sorted t.notes

let add_outcome t (o : Run.outcome) =
  t.runs <- t.runs + 1;
  match o with
  | Run.Non_manifested -> t.non_manifested <- t.non_manifested + 1
  | Run.Silent_corruption -> t.sdc <- t.sdc + 1
  | Run.Detected d ->
    t.detected <- t.detected + 1;
    if d.Run.success then t.successes <- t.successes + 1;
    if d.Run.no_vmf then t.no_vmf <- t.no_vmf + 1;
    if d.Run.recovered then t.recovered <- t.recovered + 1;
    (match d.Run.failure_reason with
    | Some why -> note t why
    | None -> ());
    if d.Run.recovery_latency > 0 then begin
      t.latency_sum <- t.latency_sum + d.Run.recovery_latency;
      t.latency_samples <- t.latency_samples + 1
    end

(* Fold [src] into [dst]. Every field is a sum (or a counter table), so
   this merge is commutative and associative -- the property the
   parallel engine relies on for determinism. *)
let merge_into dst src =
  dst.runs <- dst.runs + src.runs;
  dst.non_manifested <- dst.non_manifested + src.non_manifested;
  dst.sdc <- dst.sdc + src.sdc;
  dst.detected <- dst.detected + src.detected;
  dst.successes <- dst.successes + src.successes;
  dst.no_vmf <- dst.no_vmf + src.no_vmf;
  dst.recovered <- dst.recovered + src.recovered;
  dst.latency_sum <- dst.latency_sum + src.latency_sum;
  dst.latency_samples <- dst.latency_samples + src.latency_samples;
  Sim.Stats.Counts.merge_into ~into:dst.notes src.notes;
  dst.metrics <- Obs.Metrics.merge_snapshots dst.metrics src.metrics;
  Obs.Postmortem.Triage.merge_into ~into:dst.triage src.triage

let merge a b =
  let t = make_totals () in
  merge_into t a;
  merge_into t b;
  t

(* An immutable, canonical view of [totals]: plain counters plus the
   sorted note list. Two aggregates are bit-identical iff their
   snapshots are structurally equal, which is what the determinism
   tests compare. *)
type snapshot = {
  s_runs : int;
  s_non_manifested : int;
  s_sdc : int;
  s_detected : int;
  s_successes : int;
  s_no_vmf : int;
  s_recovered : int;
  s_latency_sum : Sim.Time.ns;
  s_latency_samples : int;
  s_notes : (string * int) list;
  s_metrics : Obs.Metrics.snapshot; (* canonical: name-sorted lists *)
  s_triage : (string * Obs.Postmortem.Triage.entry) list;
      (* canonical: signature-key-sorted, exemplar bundles included *)
}

let snapshot t =
  {
    s_runs = t.runs;
    s_non_manifested = t.non_manifested;
    s_sdc = t.sdc;
    s_detected = t.detected;
    s_successes = t.successes;
    s_no_vmf = t.no_vmf;
    s_recovered = t.recovered;
    s_latency_sum = t.latency_sum;
    s_latency_samples = t.latency_samples;
    s_notes = failure_notes t;
    s_metrics = t.metrics;
    s_triage = Obs.Postmortem.Triage.snapshot t.triage;
  }

let pp_snapshot fmt s =
  Format.fprintf fmt
    "runs=%d nm=%d sdc=%d det=%d succ=%d novmf=%d rec=%d lat=(%d/%d) notes=[%a]"
    s.s_runs s.s_non_manifested s.s_sdc s.s_detected s.s_successes s.s_no_vmf
    s.s_recovered s.s_latency_sum s.s_latency_samples
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       (fun fmt (k, v) -> Format.fprintf fmt "%s x%d" k v))
    s.s_notes

type result = {
  config_label : string;
  totals : totals;
  (* host-side accounting, never part of [totals]; see {!Drive.result} *)
  jobs : int;
  wall_seconds : float;
  minor_words : float;
}

let runs_per_sec r =
  if r.wall_seconds > 0.0 then float_of_int r.totals.runs /. r.wall_seconds
  else 0.0

(* ------------------------------------------------------------------ *)
(* Pre-booted machine pools                                            *)
(* ------------------------------------------------------------------ *)

(* A machine pool pre-boots one {!Run.worker} per worker slot before the
   run loop starts, so the hot loop never pays a boot -- and on a large
   [--jobs] host the boots happen up front instead of staggered inside
   the measurement window. The recorder shape is baked in at preparation
   time, so a pool prepared with [alloc_profile]/[postmortems] can only
   serve a campaign run with the same settings ({!run} checks). *)
type pool = {
  p_workers : Run.worker array;
  p_ledgers : Hyper.Ledger.t option array;
  p_alloc_profile : bool;
  p_postmortems : bool;
}

let make_worker_recorder ~alloc_profile ~postmortems () =
  (* A tiny per-worker recorder: the campaign keeps only the metrics,
     so the event ring is minimal; metrics collection is unconditional.
     Reset between runs by [execute_into]. With postmortems on, the
     ring grows to hold one run's Warn+ events (injections, detections,
     audits): the raw material a bundle's causal timeline is cut from.
     Same shape on every worker, so bundles stay jobs-invariant. *)
  let recorder =
    if postmortems then
      Obs.Recorder.create ~capacity:256 ~min_level:Obs.Event.Warn ()
    else Obs.Recorder.create ~capacity:1 ~min_level:Obs.Event.Error ()
  in
  Obs.Recorder.set_alloc_profiling recorder alloc_profile;
  recorder

let pool_size p = Array.length p.p_workers

let prepare_pool ?(alloc_profile = false) ?(postmortems = false) ~jobs
    (cfg : Run.config) =
  if jobs < 1 then invalid_arg "Campaign.prepare_pool: jobs must be >= 1";
  (* Boot is seed-independent, so booting every machine from the main
     domain (before any worker exists) changes nothing about results. *)
  let workers =
    Array.init jobs (fun _ ->
        let recorder = make_worker_recorder ~alloc_profile ~postmortems () in
        Run.prepare ~recorder cfg)
  in
  let ledgers =
    Array.map
      (fun w ->
        if postmortems then Some (Hyper.Ledger.capture w.Run.w_hv) else None)
      workers
  in
  {
    p_workers = workers;
    p_ledgers = ledgers;
    p_alloc_profile = alloc_profile;
    p_postmortems = postmortems;
  }

(* ------------------------------------------------------------------ *)
(* Checkpoint payload                                                  *)
(* ------------------------------------------------------------------ *)

(* Config/seed identity for resume validation. Excludes [fanout] and
   [chunk] on purpose: those are pinned *by* the checkpoint file, so a
   resume with different flags silently inherits the original values
   rather than corrupting chunk identity. *)
let fingerprint ~base_seed ~n (cfg : Run.config) =
  Printf.sprintf "campaign;mech=%s;fault=%s;setup=%s;base_seed=%Ld;n=%d"
    (Postmortem.mech_cli cfg.Run.mech)
    (Postmortem.fault_cli cfg.Run.fault)
    (Postmortem.setup_cli cfg.Run.setup)
    base_seed n

(* The checkpoint payload is the merged aggregate minus triage (the
   checkpointed path refuses [postmortems]; exemplar bundles are far too
   heavy to rewrite on every chunk). All fields are ints, notes are
   key-sorted and metrics name-sorted, so serialization is canonical:
   equal aggregates produce byte-identical payloads. *)
let payload_json ~fanout (t : totals) =
  let open Obs.Json in
  let counts =
    int_members
      [
        ("runs", t.runs); ("non_manifested", t.non_manifested); ("sdc", t.sdc);
        ("detected", t.detected); ("successes", t.successes); ("no_vmf", t.no_vmf);
        ("recovered", t.recovered); ("latency_sum", t.latency_sum);
        ("latency_samples", t.latency_samples);
      ]
  in
  Obj
    [
      ("fanout", int fanout);
      ( "totals",
        Obj
          (counts
          @ [
              ("notes", int_assoc (failure_notes t));
              ("metrics", Obj (Obs.Metrics.json_members t.metrics));
            ]) );
    ]

let payload_of_totals ~fanout t = Obs.Json.render (payload_json ~fanout t)

(* Parse a payload back into [(fanout, totals)]: the decoder resume and
   [nlh_trace_check] share. *)
let totals_of_payload ?triage_seed_cap (payload : Obs.Json.t) =
  Obs.Json.decoding (fun () ->
      let open Obs.Json in
      let fanout = int_exn "payload" "fanout" payload in
      if fanout < 1 then fail "payload: fanout %d < 1" fanout;
      let tv = get "payload" "totals" payload in
      let int k = int_exn "totals" k tv in
      let t = make_totals ?triage_seed_cap () in
      t.runs <- int "runs";
      t.non_manifested <- int "non_manifested";
      t.sdc <- int "sdc";
      t.detected <- int "detected";
      t.successes <- int "successes";
      t.no_vmf <- int "no_vmf";
      t.recovered <- int "recovered";
      t.latency_sum <- int "latency_sum";
      t.latency_samples <- int "latency_samples";
      List.iter
        (fun (k, v) -> Sim.Stats.Counts.add ~by:v t.notes k)
        (int_assoc_of "totals.notes" (get "totals" "notes" tv));
      t.metrics <- Obs.Metrics.of_json_exn (get "totals" "metrics" tv);
      if t.runs <> t.non_manifested + t.sdc + t.detected then
        fail "payload: runs <> non_manifested + sdc + detected";
      (fanout, t))

(* Per-worker state: the worker's long-lived machine (booted lazily in
   the worker's own domain and restored from its boot image between
   runs), its golden
   ledger, the signatures it has already captured a bundle for, and the
   metrics of the current chunk's runs, folded in place. *)
type slot = {
  mutable s_worker : Run.worker option;
  mutable s_ledger : Hyper.Ledger.t option;
      (* golden post-boot resource ledger, the baseline for a bundle's
         ledger diff; captured once per worker when postmortems are on *)
  s_bundled : (string, unit) Hashtbl.t;
  s_chunk_metrics : Obs.Metrics.t;
      (* this chunk's runs so far ({!Obs.Metrics.accumulate}); the
         chunk's seal snapshots it into the chunk's totals and clears it *)
}

(* Run [n] injections of [cfg], varying only the seed, through the
   chunked driver ({!Drive.run}): [jobs > 1] spreads the chunks over that
   many domains, and [checkpoint] makes the run resumable. Each worker
   reuses one machine across its runs ({!Run.prepare} /
   {!Run.execute_into}), which keeps per-run allocation -- and hence
   pressure on the shared stop-the-world minor GC -- low enough for
   parallel runs to actually scale. Each run's metrics fold in place
   into the worker's registry for the chunk, which is snapshotted once
   when the chunk ends ({!Drive.plan}'s [seal]); chunks are fixed by
   [(n, chunk)] and the merge is commutative, so this changes no total.
   Worker domains are capped at the host's core count unless
   [oversubscribe] is set (see {!Pool.map_chunks}). The result totals
   are identical for every [jobs] value either way.

   [alloc_profile] turns on the per-phase allocation profiler on every
   worker recorder: the merged [totals.metrics] then carry the [alloc.*]
   phase counters (still jobs-invariant -- each run's attribution depends
   only on its seed). Off by default: the phase counters stay zero and
   snapshots are unchanged.

   [fanout >= 2] switches to clone fan-out: runs are grouped into
   batches of that size, each batch drives one machine to the fault
   trigger point once ({!Run.prepare_clone}) and replays the trigger
   image for every run in the batch ({!Run.clone_into}), paying the
   boot-and-warmup cost once per batch instead of once per run. Each
   run still injects under its own seed's random stream, so outcomes
   within a batch differ; the batch's warmup comes from its first run's
   seed, so a fan-out campaign is its own (equally valid, equally
   deterministic) sampling design rather than a replay of the
   [fanout = 1] campaign. A batch is one work item, so it never splits
   across workers and the aggregate stays bit-identical for every
   [jobs] value. On resume the checkpoint file pins [fanout]. *)
let run ?(label = "") ?(base_seed = 10_000L) ?(jobs = 1) ?chunk
    ?(oversubscribe = false) ?(alloc_profile = false) ?(fanout = 1)
    ?(postmortems = false) ?pool ?(checkpoint : Drive.checkpoint option)
    ?triage_seed_cap ~n (cfg : Run.config) =
  if fanout < 1 then invalid_arg "Campaign.run: fanout must be >= 1";
  (match pool with
  | Some p
    when p.p_alloc_profile <> alloc_profile
         || p.p_postmortems <> postmortems ->
    invalid_arg
      "Campaign.run: pool was prepared with different \
       alloc_profile/postmortems settings"
  | _ -> ());
  if postmortems && checkpoint <> None then
    (* Exemplar bundles are far too heavy to rewrite every few chunks;
       soaks wanting triage can run the final aggregation un-checkpointed. *)
    invalid_arg "Campaign.run: checkpointing does not support postmortems";
  let jobs = match pool with Some p -> min jobs (pool_size p) | None -> jobs in
  let fresh () = make_totals ?triage_seed_cap () in
  let init slot =
    let worker, ledger =
      match pool with
      | Some p when slot < pool_size p ->
        (Some p.p_workers.(slot), p.p_ledgers.(slot))
      | _ -> (None, None)
    in
    {
      s_worker = worker;
      s_ledger = ledger;
      s_bundled = Hashtbl.create 8;
      s_chunk_metrics = Obs.Metrics.create ();
    }
  in
  let worker_of s (cfg : Run.config) =
    match s.s_worker with
    | Some w -> w
    | None ->
      let recorder = make_worker_recorder ~alloc_profile ~postmortems () in
      let w = Run.prepare ~recorder cfg in
      (* Boot is seed-independent, so this baseline is identical on
         every worker (bundle determinism relies on that). *)
      if postmortems then s.s_ledger <- Some (Hyper.Ledger.capture w.Run.w_hv);
      s.s_worker <- Some w;
      w
  in
  let add_run s t w out =
    add_outcome t out;
    Obs.Metrics.accumulate ~into:s.s_chunk_metrics
      (Run.worker_recorder w).Obs.Recorder.metrics
  in
  let seal s t =
    t.metrics <-
      Obs.Metrics.merge_snapshots t.metrics (Obs.Metrics.snapshot s.s_chunk_metrics);
    Obs.Metrics.clear s.s_chunk_metrics
  in
  let seed_of i = Int64.add base_seed (Int64.of_int i) in
  (* Triage a bad outcome (lazy: good outcomes return [None] from
     [Postmortem.signature_of] and pay nothing). The bundle is only
     assembled the first time this worker sees the signature; workers
     claim chunks in ascending order, so the captured seed is the
     worker-local minimum and the commutative triage merge keeps the
     global-minimum exemplar -- the same one a sequential campaign
     captures. *)
  let record_postmortem s t (w : Run.worker) (cfg : Run.config) out ~fanout
      ~seed ~repro =
    match
      Postmortem.signature_of cfg ~first_target:w.Run.w_last_target out
    with
    | None -> ()
    | Some sg ->
      let key = Obs.Signature.key sg in
      let bundle =
        if Hashtbl.mem s.s_bundled key then None
        else begin
          Hashtbl.add s.s_bundled key ();
          Some
            (Postmortem.capture ~signature:sg ~hv:w.Run.w_hv
               ~golden_ledger:s.s_ledger ~repro
               ~config:(Postmortem.config_fields cfg ~fanout) ~seed out)
        end
      in
      Obs.Postmortem.Triage.record ?bundle t.triage sg ~seed
  in
  let run_one s t i =
    let cfg = { cfg with Run.seed = seed_of i } in
    let w = worker_of s cfg in
    let out = Run.execute_into w cfg in
    add_run s t w out;
    if postmortems then
      record_postmortem s t w cfg out ~fanout:1 ~seed:(seed_of i)
        ~repro:(Postmortem.repro_line cfg ~seed:(seed_of i) ~runs:1 ~fanout:1)
  in
  (* One fan-out batch: runs [g * fanout .. min n ((g+1) * fanout) - 1],
     prepared once and cloned per run; its results depend only on
     (config, base_seed, g, fanout). *)
  let run_batch ~fanout s t g =
    let first = g * fanout in
    let last = min n (first + fanout) - 1 in
    let group_cfg = { cfg with Run.seed = seed_of first } in
    let w = worker_of s group_cfg in
    let src = Run.prepare_clone w group_cfg in
    for i = first to last do
      let out = Run.clone_into ~reseed:(seed_of i) src in
      add_run s t w out;
      if postmortems then
        (* The repro is the batch prefix up to this variant: a fan-out
           variant's warmup comes from the batch's first seed, so the
           seed alone does not reproduce it. *)
        record_postmortem s t w group_cfg out ~fanout ~seed:(seed_of i)
          ~repro:
            (Postmortem.repro_line group_cfg ~seed:(seed_of first)
               ~runs:(i - first + 1) ~fanout)
    done
  in
  let plan resumed =
    let fanout, merged =
      match resumed with Some r -> r | None -> (fanout, fresh ())
    in
    {
      Drive.items = (if fanout > 1 then (n + fanout - 1) / fanout else n);
      merged;
      fresh;
      merge_into;
      encode = payload_json ~fanout;
      init;
      item = (if fanout > 1 then run_batch ~fanout else run_one);
      seal;
    }
  in
  let r =
    Drive.run ?checkpoint ?chunk ~jobs ~oversubscribe ~kind:"campaign"
      ~fingerprint:(fingerprint ~base_seed ~n cfg)
      ~decode:(fun _ payload -> totals_of_payload ?triage_seed_cap payload)
      ~plan ()
  in
  {
    config_label = label;
    totals = r.Drive.totals;
    jobs = r.Drive.jobs;
    wall_seconds = r.Drive.wall_seconds;
    minor_words = r.Drive.minor_words;
  }

let success_rate r =
  Sim.Stats.proportion ~successes:r.totals.successes ~trials:(max 1 r.totals.detected)

let no_vmf_rate r =
  Sim.Stats.proportion ~successes:r.totals.no_vmf ~trials:(max 1 r.totals.detected)

let breakdown r =
  let n = float_of_int (max 1 r.totals.runs) in
  ( 100.0 *. float_of_int r.totals.non_manifested /. n,
    100.0 *. float_of_int r.totals.sdc /. n,
    100.0 *. float_of_int r.totals.detected /. n )

(* Mean recovery latency in float nanoseconds: integer division floored
   sub-ns-granularity averages, so the mean is computed in float. *)
let mean_latency r =
  Sim.Stats.mean_of_sum ~sum:r.totals.latency_sum
    ~samples:r.totals.latency_samples

let pp fmt r =
  let nm, sdc, det = breakdown r in
  Format.fprintf fmt
    "%s: runs=%d outcomes: non-manifested %.1f%%, SDC %.1f%%, detected %.1f%% | \
     success %a, noVMF %a@."
    r.config_label r.totals.runs nm sdc det Sim.Stats.pp_proportion
    (success_rate r) Sim.Stats.pp_proportion (no_vmf_rate r);
  if r.wall_seconds > 0.0 then
    Format.fprintf fmt "%s: wall %.2fs, %.1f runs/s (jobs=%d, cores=%d)@."
      r.config_label r.wall_seconds (runs_per_sec r) r.jobs
      (Domain.recommended_domain_count ())
