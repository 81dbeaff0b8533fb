(** Typed trace events.

    The observability layer replaces the string-only simulator trace with
    a closed variant of the events the paper's evaluation cares about:
    hypercall entries and retries (retry success is Table I's largest
    step), undo-journal traffic (the dominant Figure 3 overhead), lock
    releases and per-enhancement steps during recovery (Table III's
    breakdown), fault injection/detection, and the final outcome
    classification. Every event carries the simulated timestamp and the
    CPU/domain it happened on, so a single run can be replayed as a
    timeline instead of a pile of strings. *)

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

(* Coarse event classification used for filtering: each payload variant
   belongs to exactly one subsystem. *)
type subsystem =
  | Hypercall
  | Journal
  | Lock
  | Timer
  | Inject
  | Detect
  | Recovery
  | Outcome
  | Endure
  | Other

let subsystem_name = function
  | Hypercall -> "hypercall"
  | Journal -> "journal"
  | Lock -> "lock"
  | Timer -> "timer"
  | Inject -> "inject"
  | Detect -> "detect"
  | Recovery -> "recovery"
  | Outcome -> "outcome"
  | Endure -> "endure"
  | Other -> "other"

type payload =
  (* Request-processing paths (normal operation). *)
  | Hypercall_entry of { domid : int; vid : int; kind : string; retry : bool }
  | Hypercall_commit of { domid : int; vid : int; kind : string }
  | Hypercall_retry of { domid : int; vid : int; kind : string; attempt : int }
  | Journal_append of { kind : string; depth : int }
  | Journal_undo of { entries : int }
  | Journal_commit of { entries : int }
  | Lock_release of { name : string; count : int } (* forced, during recovery *)
  | Timer_fire of { action : string }
  (* Injection, detection, recovery, classification. *)
  | Fault_injected of { target : string }
  | Detection of { kind : string; message : string }
  | Recovery_step of { mechanism : string; step : string }
  | Outcome_classified of { name : string }
  (* Post-recovery consistency audit: one event per violated invariant
     kind, with the violation magnitude (count of bad locks/frames/...). *)
  | Audit_violation of { kind : string; count : int }
  (* Endurance campaigns: per-cycle outcome of a long-lived instance and
     per-resource leak attribution from the ledger diff. *)
  | Endure_cycle of { index : int; survived : bool; clean : bool }
  | Leak_delta of { resource : string; delta : int }
  (* Free-form text. No simulator path emits one: it fills the trace
     ring's empty slots and hand-written events. *)
  | Message of string

let subsystem = function
  | Hypercall_entry _ | Hypercall_commit _ | Hypercall_retry _ -> Hypercall
  | Journal_append _ | Journal_undo _ | Journal_commit _ -> Journal
  | Lock_release _ -> Lock
  | Timer_fire _ -> Timer
  | Fault_injected _ -> Inject
  | Detection _ -> Detect
  | Recovery_step _ -> Recovery
  | Outcome_classified _ -> Outcome
  | Audit_violation _ -> Detect
  | Endure_cycle _ | Leak_delta _ -> Endure
  | Message _ -> Other

(* Short event name, used as the Chrome-trace "name" field. *)
let name = function
  | Hypercall_entry { kind; _ } -> "hypercall:" ^ kind
  | Hypercall_commit { kind; _ } -> "hypercall_commit:" ^ kind
  | Hypercall_retry { kind; _ } -> "hypercall_retry:" ^ kind
  | Journal_append { kind; _ } -> "journal_append:" ^ kind
  | Journal_undo _ -> "journal_undo"
  | Journal_commit _ -> "journal_commit"
  | Lock_release { name; _ } -> "lock_release:" ^ name
  | Timer_fire { action } -> "timer_fire:" ^ action
  | Fault_injected { target } -> "fault_injected:" ^ target
  | Detection { kind; _ } -> "detection:" ^ kind
  | Recovery_step { step; _ } -> "recovery_step:" ^ step
  | Outcome_classified { name } -> "outcome:" ^ name
  | Audit_violation { kind; _ } -> "audit_violation:" ^ kind
  | Endure_cycle _ -> "endure_cycle"
  | Leak_delta { resource; _ } -> "leak:" ^ resource
  | Message _ -> "message"

(* Structured payload fields as (key, value) pairs for exporters. *)
let args = function
  | Hypercall_entry { domid; vid; kind; retry } ->
    [
      ("domid", `Int domid);
      ("vid", `Int vid);
      ("kind", `String kind);
      ("retry", `Bool retry);
    ]
  | Hypercall_commit { domid; vid; kind } ->
    [ ("domid", `Int domid); ("vid", `Int vid); ("kind", `String kind) ]
  | Hypercall_retry { domid; vid; kind; attempt } ->
    [
      ("domid", `Int domid);
      ("vid", `Int vid);
      ("kind", `String kind);
      ("attempt", `Int attempt);
    ]
  | Journal_append { kind; depth } ->
    [ ("kind", `String kind); ("depth", `Int depth) ]
  | Journal_undo { entries } | Journal_commit { entries } ->
    [ ("entries", `Int entries) ]
  | Lock_release { name; count } ->
    [ ("lock", `String name); ("count", `Int count) ]
  | Timer_fire { action } -> [ ("action", `String action) ]
  | Fault_injected { target } -> [ ("target", `String target) ]
  | Detection { kind; message } ->
    [ ("kind", `String kind); ("message", `String message) ]
  | Recovery_step { mechanism; step } ->
    [ ("mechanism", `String mechanism); ("step", `String step) ]
  | Outcome_classified { name } -> [ ("name", `String name) ]
  | Audit_violation { kind; count } ->
    [ ("kind", `String kind); ("count", `Int count) ]
  | Endure_cycle { index; survived; clean } ->
    [ ("index", `Int index); ("survived", `Bool survived); ("clean", `Bool clean) ]
  | Leak_delta { resource; delta } ->
    [ ("resource", `String resource); ("delta", `Int delta) ]
  | Message m -> [ ("message", `String m) ]

(* The inverse of [name] and [args]: the payload they render, if any.
   Exact, since the result must render back to the same pair. *)
let of_name_args rendered fields =
  let s k = match List.assoc_opt k fields with Some (`String v) -> v | _ -> raise Exit in
  let i k = match List.assoc_opt k fields with Some (`Int v) -> v | _ -> raise Exit in
  let b k = match List.assoc_opt k fields with Some (`Bool v) -> v | _ -> raise Exit in
  let prefix = List.hd (String.split_on_char ':' rendered) in
  match
    match prefix with
    | "hypercall" ->
      Hypercall_entry { domid = i "domid"; vid = i "vid"; kind = s "kind"; retry = b "retry" }
    | "hypercall_commit" ->
      Hypercall_commit { domid = i "domid"; vid = i "vid"; kind = s "kind" }
    | "hypercall_retry" ->
      let attempt = i "attempt" in
      Hypercall_retry { domid = i "domid"; vid = i "vid"; kind = s "kind"; attempt }
    | "journal_append" -> Journal_append { kind = s "kind"; depth = i "depth" }
    | "journal_undo" -> Journal_undo { entries = i "entries" }
    | "journal_commit" -> Journal_commit { entries = i "entries" }
    | "lock_release" -> Lock_release { name = s "lock"; count = i "count" }
    | "timer_fire" -> Timer_fire { action = s "action" }
    | "fault_injected" -> Fault_injected { target = s "target" }
    | "detection" -> Detection { kind = s "kind"; message = s "message" }
    | "recovery_step" -> Recovery_step { mechanism = s "mechanism"; step = s "step" }
    | "outcome" -> Outcome_classified { name = s "name" }
    | "audit_violation" -> Audit_violation { kind = s "kind"; count = i "count" }
    | "endure_cycle" ->
      Endure_cycle { index = i "index"; survived = b "survived"; clean = b "clean" }
    | "leak" -> Leak_delta { resource = s "resource"; delta = i "delta" }
    | "message" -> Message (s "message")
    | _ -> raise Exit
  with
  | p when rendered = name p && fields = args p -> Some p
  | _ | (exception Exit) -> None

(* A recorded event: simulated timestamp plus origin coordinates.
   [domid = -1] means "not attributable to a domain". *)
type t = {
  time : int; (* simulated ns (Sim.Time.ns) *)
  level : level;
  cpu : int;
  domid : int;
  payload : payload;
}

let pp fmt e =
  Format.fprintf fmt "[%dns] %s cpu%d %s" e.time
    (String.uppercase_ascii (level_name e.level))
    e.cpu (name e.payload)
