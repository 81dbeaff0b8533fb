(** Recovery plans and the one executor that runs them.

    Every recovery is a plan: an ordered list of steps, each with a name,
    a modelled cost and an action. Serial microreset (the four Table III
    steps), sharded microreset and microreboot (the twelve Table II
    steps) are three plan shapes; {!run} is the only place recovery time
    is charged.

    A [Global] step stops the world: it runs alone and the clock advances
    by its cost. A step owned by a domain is a lane step. Each contiguous
    run of lane steps is scheduled onto [geometry.cpus] simulated lanes by
    deterministic longest-processing-time order (cost descending, owner
    ascending); each step's span starts at its lane's start time on that
    lane's trace track, and the clock advances once by the makespan. The
    actions run sequentially in that order whatever lane they land on, so
    the post-recovery state does not depend on the lane count.

    Each step becomes both a breakdown entry and a span with the same
    name and duration. So, by construction, summing spans per name gives
    the breakdown, and the latency is the global costs plus the
    makespans. *)

open Hyper

type owner = Global | Domain of int (* -1: frames no domain owns *)

type step = {
  name : string;
  cost : Sim.Time.ns;
  owner : owner;
  action : unit -> unit;
  after : unit -> unit; (* notes emitted once the step is recorded *)
}

let step ?(owner = Global) ?(after = ignore) name cost action =
  { name; cost; owner; action; after }

(* Which consistency-scan path a microreset took. Incremental walks only
   the copy-on-write dirty sets (O(damaged state)); Full walks the
   whole structures (O(machine)). The repaired state is identical either
   way whenever the tracking is intact -- the per-element repairs are
   pure functions of the element, and every write since the last
   consistent baseline marked its element dirty. *)
type scan_mode = Full_scan | Incremental_scan

let scan_mode_name = function
  | Full_scan -> "full"
  | Incremental_scan -> "incremental"

(* How much abandoned in-flight work the steps repaired, counted per
   recovery and returned in its outcome; tests read it, and an
   endurance cycle keeps it, but no ledger or report uses it. The
   actions fill it in as they run. Microreboot gets lock release and
   frame repair "for free" from the reboot, so its static-lock,
   scheduler and recurring-timer counts stay 0. *)
type repairs = {
  mutable heap_locks_released : int;
  mutable static_locks_released : int;
  mutable sched_fixes : int;
  mutable pfn_fixed : int;
  mutable recurring_reactivated : int;
}

let no_repairs () =
  {
    heap_locks_released = 0;
    static_locks_released = 0;
    sched_fixes = 0;
    pfn_fixed = 0;
    recurring_reactivated = 0;
  }

type t = {
  mechanism : string; (* span category suffix: "NiLiHype", "ReHype"... *)
  mode : scan_mode option; (* [None]: no scan path to choose (ReHype) *)
  steps : step list;
}

type outcome = {
  latency : Sim.Time.ns; (* end-to-end, simulated *)
  breakdown : Latency_model.breakdown;
      (* per-step costs; concurrent lane steps sum past the latency *)
  repairs : repairs;
  scan_mode : scan_mode option;
  resume_global : Sim.Time.ns;
      (* the offset from recovery start at which a domain with no lane
         steps resumes: every global step *)
  resume_offsets : (int * Sim.Time.ns) list;
      (* ascending domid, only the domains whose lane steps moved them
         past [resume_global]: every global step plus their lane steps *)
}

(* The offset from recovery start at which [domid] resumes. *)
let resume_offset out domid =
  match List.assoc_opt domid out.resume_offsets with
  | Some o -> o
  | None -> out.resume_global

let lane_order a b =
  if a.cost <> b.cost then compare b.cost a.cost else compare a.owner b.owner

let execute (hv : Hypervisor.t) ~detected_on repairs plan =
  let clock = hv.Hypervisor.clock and obs = hv.Hypervisor.obs in
  let cat = "recovery:" ^ plan.mechanism in
  let lanes = Array.make (max 1 (Hypervisor.geometry hv).Config.cpus) 0 in
  let start = Sim.Clock.now clock in
  let breakdown = ref [] in
  let global = ref 0 in
  (* owner -> summed finish offsets of its lane steps, one per lane run *)
  let lane_done = Hashtbl.create 16 in
  let done_of d = Option.value ~default:0 (Hashtbl.find_opt lane_done d) in
  let record s ~track ~start =
    breakdown := (s.name, s.cost) :: !breakdown;
    Obs.Recorder.span obs ~name:s.name ~cat ~track ~start ~duration:s.cost;
    Obs.Recorder.event obs ~time:start ~cpu:detected_on Obs.Event.Info
      (Obs.Event.Recovery_step { mechanism = plan.mechanism; step = s.name });
    s.after ()
  in
  let run_lanes steps =
    Array.fill lanes 0 (Array.length lanes) 0;
    let phase = Sim.Clock.now clock in
    let finish = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let lane = ref 0 in
        Array.iteri (fun l busy -> if busy < lanes.(!lane) then lane := l) lanes;
        let off = lanes.(!lane) in
        lanes.(!lane) <- off + s.cost;
        s.action ();
        record s ~track:!lane ~start:(phase + off);
        match s.owner with
        | Domain d ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt finish d) in
          Hashtbl.replace finish d (max prev (off + s.cost))
        | Global -> ())
      (List.stable_sort lane_order steps);
    Hashtbl.iter (fun d f -> Hashtbl.replace lane_done d (done_of d + f)) finish;
    Sim.Clock.advance_by clock (Array.fold_left max 0 lanes)
  in
  let rec go = function
    | [] -> ()
    | ({ owner = Global; _ } as s) :: rest ->
      let t0 = Sim.Clock.now clock in
      Sim.Clock.advance_by clock s.cost;
      s.action ();
      record s ~track:detected_on ~start:t0;
      global := !global + s.cost;
      go rest
    | steps ->
      let rec split run = function
        | ({ owner = Domain _; _ } as s) :: rest -> split (s :: run) rest
        | rest -> (List.rev run, rest)
      in
      let run, rest = split [] steps in
      run_lanes run;
      go rest
  in
  go plan.steps;
  {
    latency = Sim.Clock.now clock - start;
    breakdown = { Latency_model.steps = List.rev !breakdown };
    repairs;
    scan_mode = plan.mode;
    resume_global = !global;
    resume_offsets =
      (if Hashtbl.length lane_done = 0 then []
       else
         Domain_table.fold_right
           (fun (d : Domain.t) offsets ->
             match Hashtbl.find_opt lane_done d.Domain.domid with
             | Some f when f > 0 -> (d.Domain.domid, !global + f) :: offsets
             | _ -> offsets)
           hv.Hypervisor.domains []);
  }

(* Run a recovery: [build] turns the repair tally into the plan, after
   the guard on the recovery handler itself -- reason #1 for recovery
   failure in Section VII-A is "the recovery routine fails to be invoked
   due to the corrupted hypervisor state". Raises
   [Crash.Hypervisor_crash] if recovery itself fails. An attempt that
   dies leaves partially applied repairs that did not all go through the
   write-tracking discipline recovery relies on, so the dirty tracking
   is invalidated before re-raising: a later attempt on this instance
   falls back to the full scan, and only a snapshot restore (a fresh
   consistent baseline) re-arms the incremental path. *)
let run (hv : Hypervisor.t) ~detected_on build =
  try
    if not hv.Hypervisor.recovery_handler_ok then
      Crash.panic "recovery routine corrupted: cannot be invoked";
    let repairs = no_repairs () in
    execute hv ~detected_on repairs (build repairs)
  with e ->
    Pfn.invalidate_tracking hv.Hypervisor.pfn;
    raise e
