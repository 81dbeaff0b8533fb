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
  | Cycle_died (* recovery failed, or the instance crashed again
                  before reaching the next quiesce point *)

type cycle = {
  cy_index : int;
  cy_class : cycle_class;
  cy_detection : string option;
  cy_latent_trigger : bool;
      (* the crash arrived before this cycle's fault was applied:
         residue of an earlier cycle, not this cycle's injection *)
  cy_latency : Sim.Time.ns; (* recovery latency; 0 when no recovery ran *)
  cy_leak : Ledger.t; (* ledger diff across the cycle *)
  cy_leaked_pages : int;
  cy_repairs : Recovery.Plan.repairs option;
}

type end_state = Survived | Died_at of int

type scenario = {
  sc_seed : int64;
  sc_end : end_state;
  sc_death_why : string option; (* stable death-cause label *)
  sc_first_latent : int option;
  sc_cycles : cycle list; (* chronological; shorter than [cycles] on death *)
  sc_postmortem : (Obs.Signature.t * Obs.Postmortem.t) option;
      (* death forensics, captured live at the [Dead] raise when the
         campaign runs with postmortems *)
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

(* [why] is a stable low-cardinality label ("recovery_failed",
   "privvm_failed", "post_recovery_crash") used for death-cause tallies;
   [crash] is the dying cycle's record, so the died cycle keeps its
   detection and, when its recovery completed, the latency and repairs. *)
exception Dead of { at : int; why : string; crash : Inject.Run.crash }

(* What a crashed cycle records, died or not: its detection, whether the
   crash was residue of an earlier cycle, and the recovery latency and
   repairs when the recovery completed (0 and [None] when it aborted). *)
let crash_fields (c : Inject.Run.crash) =
  let latency, repairs =
    match c.Inject.Run.recovery with
    | Inject.Run.Aborted _ -> (0, None)
    | Inject.Run.Recovered (plan, _) ->
      (plan.Recovery.Plan.latency, Some plan.Recovery.Plan.repairs)
  in
  ( Some (Crash.describe c.Inject.Run.det),
    c.Inject.Run.latent_trigger,
    latency,
    repairs )

(* One inject -> detect -> recover -> settle round: an
   {!Inject.Run.fault_cycle} with [settle_activities] post-recovery
   activities, read as a class and a ledger diff against [before], the
   quiesce-point ledger entering the cycle. Returns the cycle record and
   the new quiesce-point ledger; raises [Dead] when the instance does
   not reach it. Unlike a single-shot run, no new-VM probe: it would
   create and leak a domain the ledger would then (correctly,
   uselessly) report every cycle. *)
let run_cycle (st : Inject.Run.state) cfg ins ~index ~before =
  let hv = st.Inject.Run.hv in
  let obs = hv.Hypervisor.obs in
  let cls, detection, latent_trigger, latency, repairs =
    match
      Inject.Run.fault_cycle st ~settle:cfg.settle_activities
        ~new_vm_probe:false
    with
    | Inject.Run.Quiet ->
      (* The sampled manifestation did not crash the hypervisor within
         this cycle's activity budget (frequent for register/code
         faults, impossible for failstop). Any silent corruption it left
         stays for later cycles to trip over. *)
      (Cycle_quiet, None, false, 0, None)
    | Inject.Run.Crashed c -> (
      let dead why = raise (Dead { at = index; why; crash = c }) in
      let detection, latent_trigger, latency, repairs = crash_fields c in
      let survived cls = (cls, detection, latent_trigger, latency, repairs) in
      match c.Inject.Run.recovery with
      | Inject.Run.Aborted _ -> dead "recovery_failed"
      | Inject.Run.Recovered (_, h) -> (
        match h.Inject.Run.failure with
        | None -> survived Cycle_recovered
        | Some (Inject.Run.Residual _) -> survived Cycle_latent
        | Some (Inject.Run.Crashed_again _) -> dead "post_recovery_crash"
        | Some (Inject.Run.Privvm_starved | Inject.Run.Privvm_failed) ->
          dead "privvm_failed"))
  in
  let after = Ledger.capture hv in
  let leak = Ledger.diff ~before ~after in
  let leaked_pages = Ledger.leaked_pages leak in
  Obs.Metrics.incr ins.i_cycles;
  Obs.Metrics.set ins.i_last_cycle index;
  Obs.Metrics.incr ~by:leaked_pages ins.i_leaked_pages;
  List.iter
    (fun (r, c) ->
      match List.assoc_opt r (Ledger.leak_fields leak) with
      | Some v when v > 0 -> Obs.Metrics.incr ~by:v c
      | Some _ | None -> ())
    ins.i_leaks;
  (match cls with
  | Cycle_quiet -> Obs.Metrics.incr ins.i_quiet
  | Cycle_recovered ->
    Obs.Metrics.incr ins.i_recoveries;
    Obs.Metrics.incr ins.i_clean
  | Cycle_latent ->
    Obs.Metrics.incr ins.i_recoveries;
    Obs.Metrics.incr ins.i_latent
  | Cycle_died -> ());
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
  end;
  ( {
      cy_index = index;
      cy_class = cls;
      cy_detection = detection;
      cy_latent_trigger = latent_trigger;
      cy_latency = latency;
      cy_leak = leak;
      cy_leaked_pages = leaked_pages;
      cy_repairs = repairs;
    },
    after )

(* Drive one full scenario over an already-rewound machine state: the
   single-shot warm-up, then one fault cycle per round. *)
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
  let cycles = ref [] in
  let first_latent = ref None in
  let death = ref None in
  let death_why = ref None in
  let postmortem = ref None in
  let before = ref (Ledger.capture hv) in
  (try
     for index = 0 to cfg.cycles - 1 do
       let cy, after = run_cycle st cfg ins ~index ~before:!before in
       before := after;
       cycles := cy :: !cycles;
       if cy.cy_class = Cycle_latent && !first_latent = None then
         first_latent := Some index
     done
   with Dead { at; why; crash } ->
     Obs.Metrics.incr ins.i_deaths;
     death := Some at;
     death_why := Some why;
     (* Live postmortem capture, right at the point of death: the event
        ring still holds the scenario's trace, the flight rings the
        pre-crash hypercall/journal tails, and [!before] is the quiesce
        ledger entering the dying cycle. The death causes are already a
        closed vocabulary, so they are the signature's cause axis
        directly. *)
     if postmortems then begin
       let sg =
         Obs.Signature.make
           ~fault:(Inject.Fault.name run_cfg.Inject.Run.fault)
           ~target:
             (match st.Inject.Run.first_target with
             | Some t -> t
             | None -> "none")
           ~cause:why
           ~branch:(Recovery.Engine.mechanism_name mechanism ^ "/died")
       in
       let seed = run_cfg.Inject.Run.seed in
       let repro =
         Printf.sprintf
           "nlh_endurance --mech %s --fault %s --cycles %d --scenarios 1 \
            --seed %Ld --jobs 1"
           (Inject.Postmortem.mech_cli run_cfg.Inject.Run.mech)
           (Inject.Postmortem.fault_cli run_cfg.Inject.Run.fault)
           cfg.cycles seed
       in
       let bundle =
         Obs.Postmortem.make ~signature:sg ~outcome:"died" ~seed ~repro
           ~config:
             (("cycles", string_of_int cfg.cycles)
             :: ("died_at_cycle", string_of_int at)
             :: Inject.Postmortem.config_fields run_cfg ~fanout:1)
           ~events:(Obs.Recorder.events hv.Hypervisor.obs)
           ~phases:[]
           ~hypercalls:(Hypervisor.hypercall_tail hv)
           ~journal_tail:(Hypervisor.journal_tail hv)
           ~ledger_diff:
             (Ledger.fields
                (Ledger.diff ~before:!before ~after:(Ledger.capture hv)))
       in
       postmortem := Some (sg, bundle)
     end;
     let detection, latent_trigger, latency, repairs = crash_fields crash in
     cycles :=
       {
         cy_index = at;
         cy_class = Cycle_died;
         cy_detection = detection;
         cy_latent_trigger = latent_trigger;
         cy_latency = latency;
         cy_leak = Ledger.diff ~before:!before ~after:!before;
         cy_leaked_pages = 0;
         cy_repairs = repairs;
       }
       :: List.filter (fun c -> c.cy_index < at) !cycles);
  Obs.Recorder.alloc_close hv.Hypervisor.obs;
  {
    sc_seed = run_cfg.Inject.Run.seed;
    sc_end = (match !death with None -> Survived | Some k -> Died_at k);
    sc_death_why = !death_why;
    sc_first_latent = !first_latent;
    sc_cycles = List.rev !cycles;
    sc_postmortem = !postmortem;
  }

(* Run one scenario on a reusable worker, with a campaign run's
   prologue ({!Inject.Run.start_on}), then drive the cycles. *)
let scenario_on_worker ?postmortems (w : Inject.Run.worker) (cfg : config)
    ~seed =
  drive ?postmortems
    (Inject.Run.start_on w { cfg.run_cfg with Inject.Run.seed })
    cfg

(* One-shot convenience: boot a fresh machine and drive one scenario.
   [recorder] receives the cycle/leak events, recovery spans and
   endurance metrics. *)
let run_scenario ?recorder ?postmortems (cfg : config) ~seed =
  let run_cfg = { cfg.run_cfg with Inject.Run.seed } in
  drive ?postmortems (Inject.Run.boot_state ?recorder run_cfg) cfg

(* ------------------------------------------------------------------ *)
(* Campaign aggregation                                                *)
(* ------------------------------------------------------------------ *)

(* Per-cycle-index tallies, summed over scenarios. Every field is a sum,
   so index-wise array merge is commutative and associative. *)
type cycle_stats = {
  mutable cs_entered : int; (* scenarios alive entering this cycle *)
  mutable cs_quiet : int;
  mutable cs_recovered : int;
  mutable cs_latent : int;
  mutable cs_died : int;
  mutable cs_leaked_pages : int;
  mutable cs_budget_violations : int;
  mutable cs_latency_sum : Sim.Time.ns;
  mutable cs_latency_samples : int;
}

let make_cycle_stats () =
  {
    cs_entered = 0;
    cs_quiet = 0;
    cs_recovered = 0;
    cs_latent = 0;
    cs_died = 0;
    cs_leaked_pages = 0;
    cs_budget_violations = 0;
    cs_latency_sum = 0;
    cs_latency_samples = 0;
  }

type totals = {
  mutable scenarios : int;
  mutable survived : int;
  mutable deaths : int;
  mutable latent_scenarios : int; (* survived, but some cycle left residue *)
  mutable max_leaked_pages : int; (* worst single recovery *)
  mutable budget_violations : int;
  per_cycle : cycle_stats array; (* length = configured cycle count *)
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
    per_cycle = Array.init cycles (fun _ -> make_cycle_stats ());
    leaks = Sim.Stats.Counts.create ();
    death_notes = Sim.Stats.Counts.create ();
    metrics = Obs.Metrics.empty_snapshot;
    triage = Obs.Postmortem.Triage.create ?seed_cap:triage_seed_cap ();
  }

let add_scenario t (cfg : config) (sc : scenario) =
  t.scenarios <- t.scenarios + 1;
  (match sc.sc_end with
  | Survived ->
    t.survived <- t.survived + 1;
    if sc.sc_first_latent <> None then
      t.latent_scenarios <- t.latent_scenarios + 1
  | Died_at _ ->
    t.deaths <- t.deaths + 1;
    (match sc.sc_death_why with
    | Some why -> Sim.Stats.Counts.add t.death_notes why
    | None -> ());
    (match sc.sc_postmortem with
    | Some (sg, bundle) ->
      Obs.Postmortem.Triage.record ~bundle t.triage sg ~seed:sc.sc_seed
    | None -> ()));
  List.iter
    (fun cy ->
      let cs = t.per_cycle.(cy.cy_index) in
      cs.cs_entered <- cs.cs_entered + 1;
      (match cy.cy_class with
      | Cycle_quiet -> cs.cs_quiet <- cs.cs_quiet + 1
      | Cycle_recovered -> cs.cs_recovered <- cs.cs_recovered + 1
      | Cycle_latent -> cs.cs_latent <- cs.cs_latent + 1
      | Cycle_died -> cs.cs_died <- cs.cs_died + 1);
      cs.cs_leaked_pages <- cs.cs_leaked_pages + cy.cy_leaked_pages;
      if cy.cy_latency > 0 then begin
        cs.cs_latency_sum <- cs.cs_latency_sum + cy.cy_latency;
        cs.cs_latency_samples <- cs.cs_latency_samples + 1
      end;
      if cy.cy_leaked_pages > t.max_leaked_pages then
        t.max_leaked_pages <- cy.cy_leaked_pages;
      (match cfg.leak_budget_pages with
      | Some budget when cy.cy_leaked_pages > budget ->
        cs.cs_budget_violations <- cs.cs_budget_violations + 1;
        t.budget_violations <- t.budget_violations + 1
      | Some _ | None -> ());
      List.iter
        (fun (r, v) -> if v > 0 then Sim.Stats.Counts.add ~by:v t.leaks r)
        (Ledger.leak_fields cy.cy_leak))
    sc.sc_cycles

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
    (fun i (s : cycle_stats) ->
      let d = dst.per_cycle.(i) in
      d.cs_entered <- d.cs_entered + s.cs_entered;
      d.cs_quiet <- d.cs_quiet + s.cs_quiet;
      d.cs_recovered <- d.cs_recovered + s.cs_recovered;
      d.cs_latent <- d.cs_latent + s.cs_latent;
      d.cs_died <- d.cs_died + s.cs_died;
      d.cs_leaked_pages <- d.cs_leaked_pages + s.cs_leaked_pages;
      d.cs_budget_violations <- d.cs_budget_violations + s.cs_budget_violations;
      d.cs_latency_sum <- d.cs_latency_sum + s.cs_latency_sum;
      d.cs_latency_samples <- d.cs_latency_samples + s.cs_latency_samples)
    src.per_cycle;
  Sim.Stats.Counts.merge_into ~into:dst.leaks src.leaks;
  Sim.Stats.Counts.merge_into ~into:dst.death_notes src.death_notes;
  dst.metrics <- Obs.Metrics.merge_snapshots dst.metrics src.metrics;
  Obs.Postmortem.Triage.merge_into ~into:dst.triage src.triage

(* Canonical immutable view for determinism comparisons: plain ints and
   key-sorted lists only. *)
type snapshot = {
  s_scenarios : int;
  s_survived : int;
  s_deaths : int;
  s_latent_scenarios : int;
  s_max_leaked_pages : int;
  s_budget_violations : int;
  s_per_cycle : (int * int * int * int * int * int * int) list;
      (* (entered, quiet, recovered, latent, died, leaked_pages,
         latency_sum) per cycle index *)
  s_leaks : (string * int) list;
  s_death_notes : (string * int) list;
  s_metrics : Obs.Metrics.snapshot;
  s_triage : (string * Obs.Postmortem.Triage.entry) list;
}

let snapshot t =
  {
    s_scenarios = t.scenarios;
    s_survived = t.survived;
    s_deaths = t.deaths;
    s_latent_scenarios = t.latent_scenarios;
    s_max_leaked_pages = t.max_leaked_pages;
    s_budget_violations = t.budget_violations;
    s_per_cycle =
      Array.to_list
        (Array.map
           (fun c ->
             ( c.cs_entered,
               c.cs_quiet,
               c.cs_recovered,
               c.cs_latent,
               c.cs_died,
               c.cs_leaked_pages,
               c.cs_latency_sum ))
           t.per_cycle);
    s_leaks = Sim.Stats.Counts.sorted t.leaks;
    s_death_notes = Sim.Stats.Counts.sorted t.death_notes;
    s_metrics = t.metrics;
    s_triage = Obs.Postmortem.Triage.snapshot t.triage;
  }

let pp_snapshot fmt s =
  Format.fprintf fmt
    "scenarios=%d survived=%d deaths=%d latent=%d max_leak=%d budget_viol=%d \
     curve=[%a] leaks=[%a]"
    s.s_scenarios s.s_survived s.s_deaths s.s_latent_scenarios
    s.s_max_leaked_pages s.s_budget_violations
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       (fun fmt (e, q, r, l, d, lp, _) ->
         Format.fprintf fmt "%d/%d/%d/%d/%d/%d" e q r l d lp))
    s.s_per_cycle
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       (fun fmt (k, v) -> Format.fprintf fmt "%s x%d" k v))
    s.s_leaks

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
    (fun i (c : cycle_stats) ->
      alive := !alive - c.cs_died;
      let recoveries = c.cs_recovered + c.cs_latent in
      ( i,
        float_of_int !alive /. float_of_int n,
        (if recoveries = 0 then 1.0
         else float_of_int c.cs_recovered /. float_of_int recoveries) ))
    r.totals.per_cycle

let mean_leak_pages_per_recovery r =
  let recoveries, pages =
    Array.fold_left
      (fun (n, p) c -> (n + c.cs_recovered + c.cs_latent, p + c.cs_leaked_pages))
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

(* Canonical payload: every [totals] field, with [per_cycle] as 9-int
   arrays. Note this is richer than {!snapshot}'s 7-tuple view -- the
   checkpoint must round-trip the full [cycle_stats], budget violations
   and latency samples included, or a resumed run would drift. *)
let payload_of_totals (t : totals) =
  let open Obs.Json in
  let cycle (c : cycle_stats) =
    ints
      [
        c.cs_entered; c.cs_quiet; c.cs_recovered; c.cs_latent; c.cs_died;
        c.cs_leaked_pages; c.cs_budget_violations; c.cs_latency_sum;
        c.cs_latency_samples;
      ]
  in
  let counts =
    int_members
      [
        ("scenarios", t.scenarios); ("survived", t.survived); ("deaths", t.deaths);
        ("latent_scenarios", t.latent_scenarios);
        ("max_leaked_pages", t.max_leaked_pages);
        ("budget_violations", t.budget_violations);
      ]
  in
  Obj
    [
      ( "totals",
        Obj
          (counts
          @ [
              ("per_cycle", List (Array.to_list (Array.map cycle t.per_cycle)));
              ("leaks", int_assoc (Sim.Stats.Counts.sorted t.leaks));
              ("death_notes", int_assoc (Sim.Stats.Counts.sorted t.death_notes));
              ("metrics", Obj (Obs.Metrics.json_members t.metrics));
            ]) );
    ]

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
          match int_list_of what cv with
          | [ en; qu; re; la; di; lp; bv; ls; lsam ] as fields ->
            if List.exists (fun x -> x < 0) fields then
              fail "%s: negative field" what;
            t.per_cycle.(i) <-
              {
                cs_entered = en;
                cs_quiet = qu;
                cs_recovered = re;
                cs_latent = la;
                cs_died = di;
                cs_leaked_pages = lp;
                cs_budget_violations = bv;
                cs_latency_sum = ls;
                cs_latency_samples = lsam;
              }
          | _ -> fail "%s: expected 9 ints" what)
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
    Format.fprintf fmt "%s: wall %.2fs (jobs=%d, cores=%d)@." r.config_label
      r.wall_seconds r.jobs
      (Inject.Pool.default_jobs ())

(* ------------------------------------------------------------------ *)
(* JSON export (BENCH_endurance.json)                                  *)
(* ------------------------------------------------------------------ *)

(* Hand-rolled like the bench records: schema [nlh-endurance/1]. *)
let write_json oc ?(meta = []) r =
  let t = r.totals in
  Printf.fprintf oc "{\n  \"schema\": \"nlh-endurance/1\",\n";
  List.iter
    (fun (k, v) ->
      match v with
      | `String s -> Printf.fprintf oc "  %S: %S,\n" k s
      | `Int i -> Printf.fprintf oc "  %S: %d,\n" k i
      | `Bool b -> Printf.fprintf oc "  %S: %b,\n" k b)
    meta;
  Printf.fprintf oc "  \"scenarios\": %d,\n  \"cycles\": %d,\n" t.scenarios
    r.cfg.cycles;
  Printf.fprintf oc "  \"jobs\": %d,\n  \"cores\": %d,\n" r.jobs
    (Inject.Pool.default_jobs ());
  Printf.fprintf oc "  \"seconds\": %.3f,\n" r.wall_seconds;
  Printf.fprintf oc "  \"minor_words\": %.0f,\n" r.minor_words;
  Printf.fprintf oc "  \"minor_words_per_scenario\": %.0f,\n"
    (minor_words_per_scenario r);
  Printf.fprintf oc
    "  \"survived\": %d,\n  \"died\": %d,\n  \"latent_scenarios\": %d,\n"
    t.survived t.deaths t.latent_scenarios;
  Printf.fprintf oc "  \"max_leaked_pages_per_recovery\": %d,\n"
    t.max_leaked_pages;
  (match mean_leak_pages_per_recovery r with
  | Some m -> Printf.fprintf oc "  \"mean_leaked_pages_per_recovery\": %.4f,\n" m
  | None -> ());
  (match r.cfg.leak_budget_pages with
  | Some b -> Printf.fprintf oc "  \"leak_budget_pages\": %d,\n" b
  | None -> ());
  Printf.fprintf oc "  \"budget_violations\": %d,\n" t.budget_violations;
  Printf.fprintf oc "  \"leaks_by_resource\": {";
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "%s\n    %S: %d" (if i > 0 then "," else "") k v)
    (Sim.Stats.Counts.sorted t.leaks);
  Printf.fprintf oc "\n  },\n  \"curve\": [";
  let curve = survival_curve r in
  Array.iteri
    (fun i (idx, survival, clean_rate) ->
      let c = t.per_cycle.(idx) in
      Printf.fprintf oc
        "%s\n    { \"cycle\": %d, \"entered\": %d, \"quiet\": %d, \
         \"recovered\": %d, \"latent\": %d, \"died\": %d, \"leaked_pages\": \
         %d, \"survival\": %.4f, \"clean_rate\": %.4f }"
        (if i > 0 then "," else "")
        idx c.cs_entered c.cs_quiet c.cs_recovered c.cs_latent c.cs_died
        c.cs_leaked_pages survival clean_rate)
    curve;
  Printf.fprintf oc "\n  ]\n}\n"
