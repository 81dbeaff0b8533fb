(** Successive-failure endurance campaigns.

    The single-shot injector answers "does one recovery work?"; this
    subsystem answers the paper's endurance claim: because microreset
    abandons in-flight work, each recovery can leak a few resources, and
    those leaks must stay small enough that {e hundreds of successive
    recoveries} of one long-lived instance are viable (the evaluation
    mode of the original ReHype paper, and the whole point of
    Candea-style microrecovery).

    A {e scenario} keeps one hypervisor instance alive through [cycles]
    inject -> detect -> recover rounds interleaved with workload
    activity. At every quiesce point the {!Hyper.Ledger} is captured and
    diffed, attributing leaked frames/heap blocks/locks/timers to the
    recovery of that cycle. A {e campaign} runs many scenarios (one per
    seed) over {!Inject.Pool}, merging per-cycle tallies with a
    commutative merge -- so the survival curve is bit-identical for
    every [jobs] value, exactly like the single-shot campaigns. *)

open Hyper

type config = {
  run_cfg : Inject.Run.config;
      (* fault/setup/mechanism/machine configuration; [seed] is
         overridden per scenario *)
  cycles : int; (* inject->recover rounds per scenario *)
  settle_activities : int;
      (* post-recovery workload before the quiesce snapshot: lets
         retried requests complete so the ledger sees steady state *)
  leak_budget_pages : int option;
      (* per-recovery orphan-page ceiling (the paper's "few pages per
         recovery"); [None] disables budget accounting *)
}

let default_config =
  {
    run_cfg = Inject.Run.default_config;
    cycles = 20;
    settle_activities = 120;
    leak_budget_pages = Some 8;
  }

(* ------------------------------------------------------------------ *)
(* Per-scenario driver                                                 *)
(* ------------------------------------------------------------------ *)

type cycle_class =
  | Cycle_quiet (* fault did not manifest: no detection, no recovery *)
  | Cycle_recovered (* detected, recovered, post-cycle audit clean *)
  | Cycle_latent (* recovered but the audit found residual damage *)
  | Cycle_died of string
      (* recovery failed, or the instance crashed again before reaching
         the next quiesce point; the string is a stable low-cardinality
         death cause ("recovery_failed", "privvm_failed",
         "post_recovery_crash") for death-cause tallies *)

type cycle = {
  cy_index : int;
  cy_class : cycle_class;
  cy_detection : string option;
  cy_latent_trigger : bool;
      (* the crash arrived before this cycle's fault was applied:
         residue of an earlier cycle, not this cycle's injection *)
  cy_latency : Sim.Time.ns;
      (* recovery latency; 0 when no recovery completed (a died cycle
         whose recovery completed keeps it) *)
  cy_leak : Ledger.t; (* ledger diff across the cycle; zero when it died *)
  cy_leaked_pages : int;
  cy_repairs : Recovery.Plan.repairs option;
}

type scenario = {
  sc_seed : int64;
  sc_cycles : cycle list;
      (* chronological; a died cycle, if any, is the last *)
  sc_postmortem : (Obs.Signature.t * Obs.Postmortem.t) option;
      (* death forensics, captured live right after the died cycle when
         the campaign runs with postmortems *)
}

(* Scenario-level instruments, registered eagerly (all of them, on
   every recorder that drives scenarios) so campaign metric snapshots
   are structurally identical regardless of which outcomes occur. *)
type instruments = {
  i_cycles : Obs.Metrics.counter;
  i_quiet : Obs.Metrics.counter;
  i_recoveries : Obs.Metrics.counter;
  i_clean : Obs.Metrics.counter;
  i_latent : Obs.Metrics.counter;
  i_deaths : Obs.Metrics.counter;
  i_leaked_pages : Obs.Metrics.counter;
  i_leaks : (string * Obs.Metrics.counter) list; (* per ledger resource *)
  i_last_cycle : Obs.Metrics.gauge;
}

let instruments (obs : Obs.Recorder.t) =
  let m = obs.Obs.Recorder.metrics in
  {
    i_cycles = Obs.Metrics.counter m "endure.cycles";
    i_quiet = Obs.Metrics.counter m "endure.cycles_quiet";
    i_recoveries = Obs.Metrics.counter m "endure.recoveries";
    i_clean = Obs.Metrics.counter m "endure.cycles_clean";
    i_latent = Obs.Metrics.counter m "endure.cycles_latent";
    i_deaths = Obs.Metrics.counter m "endure.deaths";
    i_leaked_pages = Obs.Metrics.counter m "endure.leaked_pages";
    i_leaks =
      List.map
        (fun r -> (r, Obs.Metrics.counter m ("endure.leak." ^ r)))
        Ledger.leak_resource_names;
    i_last_cycle = Obs.Metrics.gauge m "endure.last_cycle";
  }

(* One inject -> detect -> recover -> settle round: an
   {!Inject.Run.fault_cycle} with [settle_activities] post-recovery
   activities, read as a class and a ledger diff against [before], the
   quiesce-point ledger entering the cycle. Returns the cycle record and
   the new quiesce-point ledger. A died cycle never reaches one: it
   returns [before], measures no leak and counts only as a death. Unlike
   a single-shot run, no new-VM probe: it would create and leak a domain
   the ledger would then (correctly, uselessly) report every cycle. *)
let run_cycle (st : Inject.Run.state) cfg ins ~index ~before =
  let hv = st.Inject.Run.hv in
  let crash =
    match
      Inject.Run.fault_cycle st ~settle:cfg.settle_activities
        ~new_vm_probe:false
    with
    | Inject.Run.Quiet -> None
    | Inject.Run.Crashed c -> Some c
  in
  let plan, cls =
    match crash with
    | None ->
      (* The sampled manifestation did not crash the hypervisor within
         this cycle's activity budget (frequent for register/code
         faults, impossible for failstop). Any silent corruption it left
         stays for later cycles to trip over. *)
      (None, Cycle_quiet)
    | Some { Inject.Run.recovery = Inject.Run.Aborted _; _ } ->
      (None, Cycle_died "recovery_failed")
    | Some { Inject.Run.recovery = Inject.Run.Recovered (plan, h); _ } ->
      ( Some plan,
        match h.Inject.Run.failure with
        | None -> Cycle_recovered
        | Some (Inject.Run.Residual _) -> Cycle_latent
        | Some (Inject.Run.Crashed_again _) -> Cycle_died "post_recovery_crash"
        | Some (Inject.Run.Privvm_starved | Inject.Run.Privvm_failed) ->
          Cycle_died "privvm_failed" )
  in
  let count c = Obs.Metrics.incr c in
  (match cls with
  | Cycle_died _ -> count ins.i_deaths
  | Cycle_quiet -> count ins.i_quiet
  | Cycle_recovered ->
    count ins.i_recoveries;
    count ins.i_clean
  | Cycle_latent ->
    count ins.i_recoveries;
    count ins.i_latent);
  let reached = match cls with Cycle_died _ -> false | _ -> true in
  let after = if reached then Ledger.capture hv else before in
  let leak = Ledger.diff ~before ~after in
  let leaked_pages = Ledger.leaked_pages leak in
  if reached then begin
    count ins.i_cycles;
    Obs.Metrics.set ins.i_last_cycle index;
    Obs.Metrics.incr ~by:leaked_pages ins.i_leaked_pages;
    List.iter
      (fun (r, c) ->
        match List.assoc_opt r (Ledger.leak_fields leak) with
        | Some v when v > 0 -> Obs.Metrics.incr ~by:v c
        | Some _ | None -> ())
      ins.i_leaks;
    let obs = hv.Hypervisor.obs in
    if Obs.Recorder.enabled obs Obs.Event.Info then begin
      let now = Sim.Clock.now hv.Hypervisor.clock in
      Obs.Recorder.event obs ~time:now Obs.Event.Info
        (Obs.Event.Endure_cycle
           { index; survived = true; clean = cls <> Cycle_latent });
      List.iter
        (fun (resource, delta) ->
          Obs.Recorder.event obs ~time:now Obs.Event.Warn
            (Obs.Event.Leak_delta { resource; delta }))
        (Ledger.leak_fields leak)
    end
  end;
  ( {
      cy_index = index;
      cy_class = cls;
      cy_detection =
        Option.map (fun c -> Crash.describe c.Inject.Run.det) crash;
      cy_latent_trigger =
        (match crash with Some c -> c.Inject.Run.latent_trigger | None -> false);
      cy_latency =
        (match plan with Some p -> p.Recovery.Plan.latency | None -> 0);
      cy_leak = leak;
      cy_leaked_pages = leaked_pages;
      cy_repairs = Option.map (fun p -> p.Recovery.Plan.repairs) plan;
    },
    after )

(* Drive one full scenario over an already-rewound machine state: the
   single-shot warm-up, then one fault cycle per round until the last
   round or a died cycle. *)
let drive ?(postmortems = false) (st : Inject.Run.state) (cfg : config) :
    scenario =
  let run_cfg = st.Inject.Run.cfg in
  let mechanism =
    match run_cfg.Inject.Run.mech with
    | Inject.Run.Mech (m, _) -> m
    | Inject.Run.No_recovery ->
      invalid_arg "Endure.drive: endurance needs a recovery mechanism"
  in
  let hv = st.Inject.Run.hv in
  let ins = instruments hv.Hypervisor.obs in
  ignore (Inject.Run.warmup_prepared st);
  let rec cycles index before acc =
    if index = cfg.cycles then (acc, before)
    else
      let cy, after = run_cycle st cfg ins ~index ~before in
      match cy.cy_class with
      | Cycle_died _ -> (cy :: acc, before)
      | _ -> cycles (index + 1) after (cy :: acc)
  in
  let rev_cycles, before = cycles 0 (Ledger.capture hv) [] in
  let seed = run_cfg.Inject.Run.seed in
  (* Live postmortem capture, right after the died cycle: the event ring
     still holds the scenario's trace, the flight rings the pre-crash
     hypercall/journal tails, and [before] is the quiesce ledger
     entering the dying cycle. The death causes are already a closed
     vocabulary, so they are the signature's cause axis directly. *)
  let postmortem =
    match rev_cycles with
    | { cy_class = Cycle_died why; cy_index = at; _ } :: _ when postmortems ->
      let signature =
        Obs.Signature.make
          ~fault:(Inject.Fault.name run_cfg.Inject.Run.fault)
          ~target:(Option.value st.Inject.Run.first_target ~default:"none")
          ~cause:why
          ~branch:(Recovery.Engine.mechanism_name mechanism ^ "/died")
      in
      let repro =
        Printf.sprintf
          "nlh_endurance --mech %s --fault %s --cycles %d --scenarios 1 \
           --seed %Ld --jobs 1"
          (Inject.Postmortem.mech_cli run_cfg.Inject.Run.mech)
          (Inject.Postmortem.fault_cli run_cfg.Inject.Run.fault)
          cfg.cycles seed
      in
      Some
        ( signature,
          Inject.Postmortem.bundle ~signature ~hv ~baseline:(Some before)
            ~outcome:"died" ~phases:[] ~repro ~seed
            ~config:
              (("cycles", string_of_int cfg.cycles)
              :: ("died_at_cycle", string_of_int at)
              :: Inject.Postmortem.config_fields run_cfg ~fanout:1) )
    | _ -> None
  in
  Obs.Recorder.alloc_close hv.Hypervisor.obs;
  { sc_seed = seed; sc_cycles = List.rev rev_cycles; sc_postmortem = postmortem }

(* Run one scenario on a reusable worker, with a campaign run's
   prologue ({!Inject.Run.start_on}), then drive the cycles. *)
let scenario_on_worker ?postmortems (w : Inject.Run.worker) (cfg : config)
    ~seed =
  drive ?postmortems
    (Inject.Run.start_on w { cfg.run_cfg with Inject.Run.seed })
    cfg

(* ------------------------------------------------------------------ *)
(* Campaign aggregation                                                *)
(* ------------------------------------------------------------------ *)

(* Per-cycle-index tallies, summed over scenarios: one row of [columns]
   ints per cycle index, in the checkpoint payload's column order. Every
   column is a sum, so merging adds rows, commutatively and
   associatively. *)
let c_entered = 0 (* scenarios alive entering this cycle *)
let c_quiet = 1
let c_recovered = 2
let c_latent = 3
let c_died = 4
let c_leaked_pages = 5
let c_budget_violations = 6
let c_latency_sum = 7 (* ns, over the cycles with a completed recovery *)
let c_latency_samples = 8
let columns = 9

type totals = {
  mutable scenarios : int;
  mutable survived : int;
  mutable deaths : int;
  mutable latent_scenarios : int; (* survived, but some cycle left residue *)
  mutable max_leaked_pages : int; (* worst single recovery *)
  mutable budget_violations : int;
  per_cycle : int array array; (* one row per configured cycle *)
  leaks : Sim.Stats.Counts.t; (* per-resource leak totals (positive deltas) *)
  death_notes : Sim.Stats.Counts.t;
  mutable metrics : Obs.Metrics.snapshot;
  triage : Obs.Postmortem.Triage.table;
      (* death signatures with exemplar bundles; populated only when the
         campaign runs with postmortems *)
}

let make_totals ?triage_seed_cap ~cycles () =
  {
    scenarios = 0;
    survived = 0;
    deaths = 0;
    latent_scenarios = 0;
    max_leaked_pages = 0;
    budget_violations = 0;
    per_cycle = Array.make_matrix cycles columns 0;
    leaks = Sim.Stats.Counts.create ();
    death_notes = Sim.Stats.Counts.create ();
    metrics = Obs.Metrics.empty_snapshot;
    triage = Obs.Postmortem.Triage.create ?seed_cap:triage_seed_cap ();
  }

let add_scenario t (cfg : config) (sc : scenario) =
  t.scenarios <- t.scenarios + 1;
  let latent = ref false and died = ref false in
  List.iter
    (fun cy ->
      let row = t.per_cycle.(cy.cy_index) in
      let add col v = row.(col) <- row.(col) + v in
      add c_entered 1;
      (match cy.cy_class with
      | Cycle_quiet -> add c_quiet 1
      | Cycle_recovered -> add c_recovered 1
      | Cycle_latent ->
        latent := true;
        add c_latent 1
      | Cycle_died why ->
        died := true;
        add c_died 1;
        Sim.Stats.Counts.add t.death_notes why);
      add c_leaked_pages cy.cy_leaked_pages;
      if cy.cy_latency > 0 then begin
        add c_latency_sum cy.cy_latency;
        add c_latency_samples 1
      end;
      t.max_leaked_pages <- max t.max_leaked_pages cy.cy_leaked_pages;
      (match cfg.leak_budget_pages with
      | Some budget when cy.cy_leaked_pages > budget ->
        add c_budget_violations 1;
        t.budget_violations <- t.budget_violations + 1
      | Some _ | None -> ());
      List.iter
        (fun (r, v) -> if v > 0 then Sim.Stats.Counts.add ~by:v t.leaks r)
        (Ledger.leak_fields cy.cy_leak))
    sc.sc_cycles;
  if !died then t.deaths <- t.deaths + 1
  else begin
    t.survived <- t.survived + 1;
    if !latent then t.latent_scenarios <- t.latent_scenarios + 1
  end;
  Option.iter
    (fun (sg, bundle) ->
      Obs.Postmortem.Triage.record ~bundle t.triage sg ~seed:sc.sc_seed)
    sc.sc_postmortem

(* Commutative, associative fold of [src] into [dst] -- the property the
   parallel campaign relies on for jobs-independence. *)
let merge_into dst src =
  dst.scenarios <- dst.scenarios + src.scenarios;
  dst.survived <- dst.survived + src.survived;
  dst.deaths <- dst.deaths + src.deaths;
  dst.latent_scenarios <- dst.latent_scenarios + src.latent_scenarios;
  dst.max_leaked_pages <- max dst.max_leaked_pages src.max_leaked_pages;
  dst.budget_violations <- dst.budget_violations + src.budget_violations;
  Array.iteri
    (fun i s ->
      let d = dst.per_cycle.(i) in
      Array.iteri (fun col v -> d.(col) <- d.(col) + v) s)
    src.per_cycle;
  Sim.Stats.Counts.merge_into ~into:dst.leaks src.leaks;
  Sim.Stats.Counts.merge_into ~into:dst.death_notes src.death_notes;
  dst.metrics <- Obs.Metrics.merge_snapshots dst.metrics src.metrics;
  Obs.Postmortem.Triage.merge_into ~into:dst.triage src.triage

type result = {
  config_label : string;
  cfg : config;
  totals : totals;
  (* host-side accounting, never part of [totals]; see
     {!Inject.Drive.result} *)
  jobs : int;
  wall_seconds : float;
  minor_words : float;
}

let minor_words_per_scenario r =
  if r.totals.scenarios > 0 then
    r.minor_words /. float_of_int r.totals.scenarios
  else 0.0

(* Survival curve point: fraction of scenarios still alive *after* each
   cycle index, plus that cycle's audit-clean rate among recoveries. *)
let survival_curve r =
  let n = max 1 r.totals.scenarios in
  let alive = ref r.totals.scenarios in
  Array.mapi
    (fun i row ->
      alive := !alive - row.(c_died);
      let recoveries = row.(c_recovered) + row.(c_latent) in
      ( i,
        float_of_int !alive /. float_of_int n,
        (if recoveries = 0 then 1.0
         else float_of_int row.(c_recovered) /. float_of_int recoveries) ))
    r.totals.per_cycle

let mean_leak_pages_per_recovery r =
  let recoveries, pages =
    Array.fold_left
      (fun (n, p) row ->
        (n + row.(c_recovered) + row.(c_latent), p + row.(c_leaked_pages)))
      (0, 0) r.totals.per_cycle
  in
  Sim.Stats.mean_of_sum ~sum:pages ~samples:recoveries

(* ------------------------------------------------------------------ *)
(* Checkpoint payload (same nlh-checkpoint/1 surface as campaigns)     *)
(* ------------------------------------------------------------------ *)

(* What a payload's figures mean. Bump it whenever a field keeps its
   name and shape but changes meaning, so a file written with the old
   meaning is refused rather than merged into the new. 2: per-cycle
   [latency_sum]/[latency_samples] include the recovery of a cycle that
   died after its recovery completed (1 left them out). *)
let semantics = 2

(* Config/seed identity for resume validation; see
   {!Inject.Campaign.fingerprint} for the contract. *)
let fingerprint ~base_seed ~scenarios (cfg : config) =
  Printf.sprintf
    "endurance;v=%d;mech=%s;fault=%s;setup=%s;cycles=%d;settle=%d;budget=%s;\
     base_seed=%Ld;n=%d"
    semantics
    (Inject.Postmortem.mech_cli cfg.run_cfg.Inject.Run.mech)
    (Inject.Postmortem.fault_cli cfg.run_cfg.Inject.Run.fault)
    (Inject.Postmortem.setup_cli cfg.run_cfg.Inject.Run.setup)
    cfg.cycles cfg.settle_activities
    (match cfg.leak_budget_pages with
    | Some b -> string_of_int b
    | None -> "none")
    base_seed scenarios

(* Canonical payload: every [totals] field but the triage table, with
   each [per_cycle] row as it is. It is also the view determinism
   contracts compare: a resumed run merges it, so whatever it leaves out
   would drift unseen. The report embeds its members as they are. *)
let payload_members (t : totals) =
  let open Obs.Json in
  let counts =
    int_members
      [
        ("scenarios", t.scenarios); ("survived", t.survived); ("deaths", t.deaths);
        ("latent_scenarios", t.latent_scenarios);
        ("max_leaked_pages", t.max_leaked_pages);
        ("budget_violations", t.budget_violations);
      ]
  in
  [
    ( "totals",
      Obj
        (counts
        @ [
            ( "per_cycle",
              List
                (Array.to_list
                   (Array.map (fun row -> ints (Array.to_list row)) t.per_cycle))
            );
            ("leaks", int_assoc (Sim.Stats.Counts.sorted t.leaks));
            ("death_notes", int_assoc (Sim.Stats.Counts.sorted t.death_notes));
            ("metrics", Obj (Obs.Metrics.json_members t.metrics));
          ]) );
  ]

let payload_of_totals t = Obs.Json.Obj (payload_members t)

(* Parse a payload back into totals: the decoder resume and
   [nlh_trace_check] share. A resume passes its configured [cycles]; the
   checker, which has no config, takes the payload's own cycle count. *)
let totals_of_payload ?triage_seed_cap ?cycles (payload : Obs.Json.t) =
  Obs.Json.decoding (fun () ->
      let open Obs.Json in
      let tv = get "payload" "totals" payload in
      let int k = int_exn "totals" k tv in
      let per_cycle = list_of "totals.per_cycle" (get "totals" "per_cycle" tv) in
      let n = List.length per_cycle in
      (match cycles with
      | Some c when c <> n ->
        fail "totals: per_cycle has %d cycles, expected %d" n c
      | _ -> ());
      let t = make_totals ?triage_seed_cap ~cycles:n () in
      t.scenarios <- int "scenarios";
      t.survived <- int "survived";
      t.deaths <- int "deaths";
      t.latent_scenarios <- int "latent_scenarios";
      t.max_leaked_pages <- int "max_leaked_pages";
      t.budget_violations <- int "budget_violations";
      List.iteri
        (fun i cv ->
          let what = Printf.sprintf "totals.per_cycle[%d]" i in
          let row = Array.of_list (int_list_of what cv) in
          if Array.length row <> columns then
            fail "%s: expected %d ints" what columns;
          if Array.exists (fun x -> x < 0) row then
            fail "%s: negative field" what;
          t.per_cycle.(i) <- row)
        per_cycle;
      List.iter
        (fun (k, v) -> Sim.Stats.Counts.add ~by:v t.leaks k)
        (int_assoc_of "totals.leaks" (get "totals" "leaks" tv));
      List.iter
        (fun (k, v) -> Sim.Stats.Counts.add ~by:v t.death_notes k)
        (int_assoc_of "totals.death_notes" (get "totals" "death_notes" tv));
      t.metrics <- Obs.Metrics.of_json_exn (get "totals" "metrics" tv);
      if t.scenarios <> t.survived + t.deaths then
        fail "payload: scenarios <> survived + deaths";
      t)

(* Run [scenarios] endurance scenarios of [cfg], varying only the seed,
   through the chunked driver ({!Inject.Drive.run}), exactly like
   {!Inject.Campaign.run}: one long-lived worker machine per domain,
   restored from its boot image between scenarios; totals merged
   commutatively, hence
   jobs-independent. [checkpoint] files carry kind "endurance". *)
let run ?(label = "") ?(base_seed = 77_000L) ?(jobs = 1) ?chunk
    ?(oversubscribe = false) ?(postmortems = false)
    ?(checkpoint : Inject.Drive.checkpoint option) ?triage_seed_cap
    ~scenarios (cfg : config) =
  if postmortems && checkpoint <> None then
    invalid_arg "Endure.run: checkpointing does not support postmortems";
  let fresh () = make_totals ?triage_seed_cap ~cycles:cfg.cycles () in
  let worker_of (worker, _) seed =
    match !worker with
    | Some w -> w
    | None ->
      let recorder =
        (* With postmortems on, the ring must hold a whole scenario's
           Warn+ events for the death bundle's timeline. *)
        if postmortems then
          Obs.Recorder.create ~capacity:1024 ~min_level:Obs.Event.Warn ()
        else Obs.Recorder.create ~capacity:1 ~min_level:Obs.Event.Error ()
      in
      (* Register the endurance instruments before the first scenario
         so every worker's registry is structurally identical. *)
      ignore (instruments recorder);
      let w =
        Inject.Run.prepare ~recorder { cfg.run_cfg with Inject.Run.seed }
      in
      worker := Some w;
      w
  in
  (* A worker slot is its machine (booted at its first scenario) and the
     metrics of the chunk's scenarios so far, folded in place and
     snapshotted once by the chunk's seal. *)
  let scenario_into ((_, acc) as slot) totals i =
    let seed = Int64.add base_seed (Int64.of_int i) in
    let w = worker_of slot seed in
    add_scenario totals cfg (scenario_on_worker ~postmortems w cfg ~seed);
    Obs.Metrics.accumulate ~into:acc
      (Inject.Run.worker_recorder w).Obs.Recorder.metrics
  in
  let seal (_, acc) totals =
    totals.metrics <-
      Obs.Metrics.merge_snapshots totals.metrics (Obs.Metrics.snapshot acc);
    Obs.Metrics.clear acc
  in
  let r =
    Inject.Drive.run ?checkpoint ?chunk ~jobs ~oversubscribe ~kind:"endurance"
      ~fingerprint:(fingerprint ~base_seed ~scenarios cfg)
      ~decode:(fun _ payload ->
        totals_of_payload ?triage_seed_cap ~cycles:cfg.cycles payload)
      ~plan:(fun resumed ->
        {
          Inject.Drive.items = scenarios;
          merged = (match resumed with Some t -> t | None -> fresh ());
          fresh;
          merge_into;
          encode = payload_of_totals;
          init = (fun _ -> (ref None, Obs.Metrics.create ()));
          item = scenario_into;
          seal;
        })
      ()
  in
  {
    config_label = label;
    cfg;
    totals = r.Inject.Drive.totals;
    jobs = r.Inject.Drive.jobs;
    wall_seconds = r.Inject.Drive.wall_seconds;
    minor_words = r.Inject.Drive.minor_words;
  }

let pp fmt r =
  let t = r.totals in
  Format.fprintf fmt
    "%s: scenarios=%d cycles=%d | survived %d, died %d, latent %d | \
     leak max %d pages/recovery%a, budget violations %d@."
    r.config_label t.scenarios r.cfg.cycles t.survived t.deaths
    t.latent_scenarios t.max_leaked_pages
    (fun fmt () ->
      match mean_leak_pages_per_recovery r with
      | Some m -> Format.fprintf fmt " (mean %.2f)" m
      | None -> ())
    () t.budget_violations;
  if r.wall_seconds > 0.0 then
    Format.fprintf fmt "%s: wall %.2fs (jobs=%d, cores=%d), %.0f minor words/scenario@."
      r.config_label r.wall_seconds r.jobs
      (Inject.Pool.default_jobs ())
      (minor_words_per_scenario r)

(* ------------------------------------------------------------------ *)
(* Report (BENCH_endurance.json, schema nlh-endurance/2)               *)
(* ------------------------------------------------------------------ *)

let report_schema = "nlh-endurance/2"

(* The report: the caller's [meta], the checkpoint payload's members (so
   its "totals" bytes are a checkpoint's payload), and what the host
   measured. Every derived figure (the survival curve, the mean leak,
   words per scenario) is left to readers: the totals determine it. *)
let report_json ?(meta = []) r =
  let open Obs.Json in
  Obs.Export.document ~schema:report_schema ~meta
    (payload_members r.totals
    @ [
        Obs.Export.host
          [
            ("seconds", Number r.wall_seconds); ("minor_words", Number r.minor_words);
            ("jobs", int r.jobs);
          ];
      ])

(* Read a report back into its totals, with the checkpoint payload's
   decoder. *)
let report_of_string s =
  Result.bind (Obs.Json.parse_document s) (fun root ->
      Result.bind
        (Obs.Json.decoding (fun () ->
             Obs.Export.check_envelope ~schema:report_schema root;
             Obs.Export.check_host root))
        (fun () -> totals_of_payload root))
