(** Postmortem capture for injection runs: turn a bad {!Run.outcome}
    into a failure {!Obs.Signature} (the cheap, per-run part) and, for
    the first run of each signature, a bounded {!Obs.Postmortem} bundle
    assembled from the live flight-recorder state (the lazy part --
    nothing here runs on good outcomes).

    The signature axes:
    - fault kind: the injected {!Fault.t} ("failstop" / "register" / "code")
    - target structure: the first structure the fault corrupted
      ([Run.state.first_target]; "failstop" for pure crashes)
    - death cause: canonicalized from the classification
      ([failure_reason] collapses to a closed label vocabulary)
    - recovery branch: mechanism name plus whether it completed,
      e.g. "NiLiHype/recovered", "ReHype/aborted", or "none"

    Everything is a pure function of (seed, config): the same failing
    run produces the same signature and bundle on any worker, which is
    what triage determinism across [--jobs] / [--fanout] rests on. *)

open Hyper

(* CLI vocabulary for the one-line repro: must match the [Arg.Symbol]
   names in bin/nlh_campaign.ml. *)
let mech_cli = function
  | Run.No_recovery -> "none"
  | Run.Mech (Recovery.Engine.Nilihype, _) -> "nilihype"
  | Run.Mech (Recovery.Engine.Rehype, _) -> "rehype"

let setup_cli = function
  | Run.One_appvm _ -> "1appvm"
  | Run.Three_appvm -> "3appvm"

let fault_cli = function
  | Fault.Failstop -> "failstop"
  | Fault.Register -> "register"
  | Fault.Code -> "code"
  | Fault.Data -> "data"

(* Canonical death cause: collapse the free-form [failure_reason] into a
   closed, greppable vocabulary. Signature keys must stay low-cardinality
   -- a reason string with a CPU number in it would give every failure
   its own signature. *)
let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let death_cause (d : Run.detected) =
  if not d.Run.recovered then
    match d.Run.failure_reason with
    | Some r ->
      if starts_with "recovery aborted: no recovery mechanism" r then "hv_died"
      else if starts_with "recovery aborted" r then "recovery_aborted"
      else if starts_with "PrivVM CPU starved" r then "privvm_starved"
      else if starts_with "PrivVM failed" r then "privvm_failed"
      else if starts_with "residual inconsistency" r then "residual_inconsistency"
      else if starts_with "post-recovery crash" r then "post_recovery_crash"
      else if starts_with "surviving thread" r then "surviving_thread_collision"
      else "hv_failed"
    | None -> "hv_failed"
  else if not d.Run.new_vm_ok then "new_vm_failed"
  else "app_vm_casualties"

let branch_of (cfg : Run.config) (d : Run.detected option) =
  match (cfg.Run.mech, d) with
  | Run.No_recovery, _ | _, None -> "none"
  | Run.Mech (m, _), Some d ->
    Recovery.Engine.mechanism_name m
    ^ if d.Run.recovered then "/recovered" else "/aborted"

(* The triage signature of a bad outcome; [None] for good outcomes
   (non-manifested, or detected-and-successful), which produce no
   postmortem work at all. *)
let signature_of (cfg : Run.config) ~first_target (out : Run.outcome) =
  let target = match first_target with Some t -> t | None -> "none" in
  let fault = Fault.name cfg.Run.fault in
  match out with
  | Run.Non_manifested -> None
  | Run.Silent_corruption ->
    Some
      (Obs.Signature.make ~fault ~target ~cause:"silent_corruption"
         ~branch:"none")
  | Run.Detected d ->
    if d.Run.success then None
    else
      Some
        (Obs.Signature.make ~fault ~target ~cause:(death_cause d)
           ~branch:(branch_of cfg (Some d)))

(* One-line repro: re-running this CLI invocation reproduces the failing
   run (same seed, same config => same outcome class). [runs]/[fanout]
   describe the smallest campaign containing the run: a single run for
   the sequential path, the batch prefix for fan-out variants (the
   variant's warmup comes from the batch's first seed, so replaying the
   seed alone would sample a different trajectory). *)
let repro_line (cfg : Run.config) ~seed ~runs ~fanout =
  Printf.sprintf
    "nlh_campaign --mech %s --fault %s --setup %s --runs %d --seed %Ld --jobs \
     1%s"
    (mech_cli cfg.Run.mech)
    (fault_cli cfg.Run.fault)
    (setup_cli cfg.Run.setup)
    runs seed
    (if fanout > 1 then Printf.sprintf " --fanout %d" fanout else "")

let config_fields (cfg : Run.config) ~fanout =
  [
    ("mech", mech_cli cfg.Run.mech);
    ("fault", fault_cli cfg.Run.fault);
    ("setup", setup_cli cfg.Run.setup);
    ("fanout", string_of_int fanout);
  ]

(* Assemble a bundle from the live machine state: the event ring, the
   crash-surviving flight-ring tails and the resource diff against
   [baseline] (none without one), with the driver's outcome name and
   recovery phases. O(ledger capture), so each driver limits who pays
   it: campaigns capture once per signature per worker; fuzz sessions
   capture for each bad run whose signature was not yet triaged when its
   round started; endurance captures once per died scenario. *)
let bundle ~(signature : Obs.Signature.t) ~(hv : Hypervisor.t)
    ~(baseline : Ledger.t option) ~outcome ~phases ~repro ~config ~seed =
  let ledger_diff =
    match baseline with
    | None -> []
    | Some before ->
      Ledger.fields (Ledger.diff ~before ~after:(Ledger.capture hv))
  in
  Obs.Postmortem.make ~signature ~outcome ~seed ~repro ~config
    ~events:(Obs.Recorder.events hv.Hypervisor.obs)
    ~phases
    ~hypercalls:(Hypervisor.hypercall_tail hv)
    ~journal_tail:(Hypervisor.journal_tail hv)
    ~ledger_diff

(* The bundle of a bad run: its recovery breakdown out of the outcome,
   and the resource diff against the worker's golden boot ledger. *)
let capture ~(signature : Obs.Signature.t) ~(hv : Hypervisor.t)
    ~(golden_ledger : Ledger.t option) ~repro ~config ~seed
    (out : Run.outcome) =
  let phases =
    match out with
    | Run.Detected { breakdown = Some b; _ } -> b.Latency_model.steps
    | _ -> []
  in
  bundle ~signature ~hv ~baseline:golden_ledger
    ~outcome:(Run.outcome_name out) ~phases ~repro ~config ~seed
