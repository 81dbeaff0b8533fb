(** Postmortem bundles and failure-signature triage.

    A bundle is the bounded, deterministic forensic record assembled when
    an injection run ends badly: the causal timeline (injection events,
    first corrupted-structure touch, detection, recovery outcome), the
    recovery-phase breakdown, the flight-ring tails (last-N hypercalls
    and journal appends, read back from rings that survive snapshot
    restore), the {!Hyper.Ledger}-style resource diff, and a
    one-line repro. Assembly is lazy -- the harness only builds a bundle
    on a bad outcome -- and everything in it is a pure function of
    (seed, config), so bundles are byte-identical however the campaign
    was parallelised.

    Triage dedupes bundles by {!Signature}: per signature it keeps a
    count, a bounded set of the smallest failing seeds, and the exemplar
    bundle with the smallest captured seed. The merge is commutative and
    associative (counts sum; seed sets union-then-truncate; exemplar
    takes the minimum seed), which is what keeps `nlh-triage/1` output
    bit-identical for any [--jobs] / [--fanout] split. *)

(* Bounds keeping a bundle "bounded": big enough to triage with, small
   enough to ship thousands of. *)
let max_timeline = 24
let max_tail = 16
let seed_cap = 8

type t = {
  pm_signature : Signature.t;
  pm_outcome : string; (* outcome class name, e.g. "detected" *)
  pm_seed : int64;
  pm_repro : string; (* one-line CLI invocation reproducing the run *)
  pm_config : (string * string) list; (* mech / fault / setup / fanout... *)
  pm_timeline : (string * Event.t) list; (* (label, event), time order *)
  pm_first_touch : (string * int) option; (* first hypercall at/after injection *)
  pm_phases : (string * int) list; (* recovery phase -> simulated ns *)
  pm_hypercalls : (string * int) list; (* flight tail: (name, ns), oldest first *)
  pm_journal_tail : (string * int) list; (* flight tail: (entry kind, ns) *)
  pm_ledger_diff : (string * int) list; (* nonzero resource deltas *)
}

let take n l =
  let rec go n = function
    | x :: r when n > 0 -> x :: go (n - 1) r
    | _ -> []
  in
  go n l

let last n l = List.rev (take n (List.rev l))

(* Label the causally interesting events out of a run's trace ring:
   injections, detections (incl. audit violations), recovery steps and
   the outcome classification. Events are already oldest-first. *)
let label_event (e : Event.t) =
  match e.Event.payload with
  | Event.Fault_injected _ -> Some "injection"
  | Event.Detection _ -> Some "detection"
  | Event.Audit_violation _ -> Some "audit"
  | Event.Outcome_classified _ -> Some "outcome"
  | Event.Recovery_step _ -> Some "recovery"
  | _ -> None

let timeline_of_events events =
  let labeled =
    List.filter_map
      (fun e -> match label_event e with Some l -> Some (l, e) | None -> None)
      events
  in
  (* Keep the bounded *tail*: the end of the story is the part that
     explains the death. *)
  last max_timeline labeled

(* First corrupted-structure touch: the first hypervisor entry (from the
   crash-surviving hypercall flight ring) at or after the first
   injection event. With no injection event recorded (e.g. the ring was
   level-filtered) there is no touch to report. *)
let first_touch ~events ~hypercalls =
  let injected_at =
    List.find_map
      (fun (e : Event.t) ->
        match e.Event.payload with
        | Event.Fault_injected _ -> Some e.Event.time
        | _ -> None)
      events
  in
  match injected_at with
  | None -> None
  | Some t0 -> List.find_opt (fun (_, t) -> t >= t0) hypercalls

let make ~signature ~outcome ~seed ~repro ~config ~events ~phases ~hypercalls
    ~journal_tail ~ledger_diff =
  {
    pm_signature = signature;
    pm_outcome = outcome;
    pm_seed = seed;
    pm_repro = repro;
    pm_config = config;
    pm_timeline = timeline_of_events events;
    pm_first_touch = first_touch ~events ~hypercalls;
    pm_phases = phases;
    pm_hypercalls = last max_tail hypercalls;
    pm_journal_tail = last max_tail journal_tail;
    pm_ledger_diff = List.filter (fun (_, v) -> v <> 0) ledger_diff;
  }

(* ------------------------------------------------------------------ *)
(* JSON (schema nlh-postmortem/1)                                      *)
(* ------------------------------------------------------------------ *)

let add_named_ns_list buf key l =
  Json.escape_to buf key;
  Buffer.add_string buf ":[";
  List.iteri
    (fun i (name, ns) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"name\":";
      Json.escape_to buf name;
      Buffer.add_string buf (Printf.sprintf ",\"ns\":%d}" ns))
    l;
  Buffer.add_char buf ']'

let add_bundle_body buf t =
  Buffer.add_string buf "\"signature\":";
  Json.escape_to buf (Signature.key t.pm_signature);
  Buffer.add_string buf ",\"outcome\":";
  Json.escape_to buf t.pm_outcome;
  Buffer.add_string buf (Printf.sprintf ",\"seed\":%Ld" t.pm_seed);
  Buffer.add_string buf ",\"repro\":";
  Json.escape_to buf t.pm_repro;
  Buffer.add_string buf ",\"config\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.escape_to buf k;
      Buffer.add_char buf ':';
      Json.escape_to buf v)
    t.pm_config;
  Buffer.add_string buf "},\"timeline\":[";
  List.iteri
    (fun i (label, (e : Event.t)) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"label\":";
      Json.escape_to buf label;
      Buffer.add_string buf (Printf.sprintf ",\"ns\":%d,\"cpu\":%d" e.Event.time e.Event.cpu);
      Buffer.add_string buf ",\"event\":";
      Json.escape_to buf (Event.name e.Event.payload);
      Buffer.add_char buf ',';
      Export.add_args buf (Event.args e.Event.payload);
      Buffer.add_char buf '}')
    t.pm_timeline;
  Buffer.add_string buf "],\"first_touch\":";
  (match t.pm_first_touch with
  | None -> Buffer.add_string buf "null"
  | Some (name, ns) ->
    Buffer.add_string buf "{\"name\":";
    Json.escape_to buf name;
    Buffer.add_string buf (Printf.sprintf ",\"ns\":%d}" ns));
  Buffer.add_char buf ',';
  add_named_ns_list buf "recovery_phases" t.pm_phases;
  Buffer.add_char buf ',';
  add_named_ns_list buf "hypercalls" t.pm_hypercalls;
  Buffer.add_char buf ',';
  add_named_ns_list buf "journal_tail" t.pm_journal_tail;
  Buffer.add_string buf ",\"ledger_diff\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.escape_to buf k;
      Buffer.add_string buf (Printf.sprintf ":%d" v))
    t.pm_ledger_diff;
  Buffer.add_char buf '}'

let to_json ?(meta = []) t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\"schema\":\"nlh-postmortem/1\"";
  if meta <> [] then begin
    Buffer.add_string buf ",\"meta\":{";
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_char buf ',';
        Export.add_arg buf a)
      meta;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf ',';
  add_bundle_body buf t;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Triage: signature-keyed dedupe with a commutative merge             *)
(* ------------------------------------------------------------------ *)

(* Alias: [to_json] is shadowed inside [Triage] by the triage-document
   writer. *)
let bundle_json = to_json

module Triage = struct
  type entry = {
    e_signature : Signature.t;
    e_count : int;
    e_seeds : int64 list; (* ascending, at most [seed_cap] smallest *)
    e_exemplar : (int64 * t) option; (* bundle captured at smallest seed *)
  }

  type table = {
    tbl : (string, entry) Hashtbl.t;
    cap : int; (* max retained seeds per signature *)
  }

  let default_seed_cap = seed_cap

  let create ?(seed_cap = default_seed_cap) () =
    { tbl = Hashtbl.create 16; cap = max 1 seed_cap }

  let mem tr sg = Hashtbl.mem tr.tbl (Signature.key sg)

  (* Bounded ascending insert: keeps the [cap] smallest seeds, so the
     per-worker sets union-then-truncate to exactly the set a sequential
     run would keep. *)
  let merge_seeds ~cap a b =
    let rec union a b =
      match (a, b) with
      | [], l | l, [] -> l
      | x :: ra, y :: rb ->
        if Int64.compare x y < 0 then x :: union ra b
        else if Int64.compare x y > 0 then y :: union a rb
        else x :: union ra rb
    in
    take cap (union a b)

  let better_exemplar a b =
    match (a, b) with
    | None, e | e, None -> e
    | Some (sa, _), Some (sb, _) -> if Int64.compare sa sb <= 0 then a else b

  let merge_entry ~cap a b =
    {
      e_signature = a.e_signature;
      e_count = a.e_count + b.e_count;
      e_seeds = merge_seeds ~cap a.e_seeds b.e_seeds;
      e_exemplar = better_exemplar a.e_exemplar b.e_exemplar;
    }

  (* The destination table's cap is authoritative, so merging a table
     built with a larger cap still lands within bounds. *)
  let add_entry tr key e =
    match Hashtbl.find_opt tr.tbl key with
    | None -> Hashtbl.add tr.tbl key { e with e_seeds = take tr.cap e.e_seeds }
    | Some prev -> Hashtbl.replace tr.tbl key (merge_entry ~cap:tr.cap prev e)

  let record ?bundle tr sg ~seed =
    add_entry tr (Signature.key sg)
      {
        e_signature = sg;
        e_count = 1;
        e_seeds = [ seed ];
        e_exemplar = Option.map (fun b -> (seed, b)) bundle;
      }

  let merge_into ~into src =
    Hashtbl.iter (fun key e -> add_entry into key e) src.tbl

  let total tr = Hashtbl.fold (fun _ e acc -> acc + e.e_count) tr.tbl 0
  let signatures tr = Hashtbl.length tr.tbl

  (* Canonical key-sorted view: the determinism tests compare these
     structurally, exemplar bundles included. *)
  let snapshot tr =
    Hashtbl.fold (fun key e acc -> (key, e) :: acc) tr.tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let to_json ?(meta = []) tr =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"schema\":\"nlh-triage/1\"";
    if meta <> [] then begin
      Buffer.add_string buf ",\"meta\":{";
      List.iteri
        (fun i a ->
          if i > 0 then Buffer.add_char buf ',';
          Export.add_arg buf a)
        meta;
      Buffer.add_char buf '}'
    end;
    Buffer.add_string buf (Printf.sprintf ",\"total\":%d" (total tr));
    Buffer.add_string buf ",\"signatures\":[";
    List.iteri
      (fun i (key, e) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf "\n{\"signature\":";
        Json.escape_to buf key;
        Buffer.add_string buf ",\"fault\":";
        Json.escape_to buf e.e_signature.Signature.fault;
        Buffer.add_string buf ",\"target\":";
        Json.escape_to buf e.e_signature.Signature.target;
        Buffer.add_string buf ",\"cause\":";
        Json.escape_to buf e.e_signature.Signature.cause;
        Buffer.add_string buf ",\"branch\":";
        Json.escape_to buf e.e_signature.Signature.branch;
        Buffer.add_string buf (Printf.sprintf ",\"count\":%d" e.e_count);
        Buffer.add_string buf ",\"seeds\":[";
        List.iteri
          (fun j s ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (Printf.sprintf "%Ld" s))
          e.e_seeds;
        Buffer.add_string buf "],\"exemplar\":";
        (match e.e_exemplar with
        | None -> Buffer.add_string buf "null"
        | Some (_, b) ->
          Buffer.add_char buf '{';
          add_bundle_body buf b;
          Buffer.add_char buf '}');
        Buffer.add_char buf '}')
      (snapshot tr);
    Buffer.add_string buf "\n]}\n";
    Buffer.contents buf

  (* Filesystem-safe bundle filename for a signature key. *)
  let file_of_key key =
    "PM_"
    ^ String.map
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
          | _ -> '-')
        key
    ^ ".json"

  (* Write one exemplar bundle file per signature under [dir]; returns
     the (key-sorted) list of files written. *)
  let write_postmortems ~dir tr =
    (try if not (Sys.is_directory dir) then invalid_arg (dir ^ ": not a directory")
     with Sys_error _ -> Sys.mkdir dir 0o755);
    List.filter_map
      (fun (key, e) ->
        match e.e_exemplar with
        | None -> None
        | Some (_, b) ->
          let file = Filename.concat dir (file_of_key key) in
          let oc = open_out file in
          output_string oc (bundle_json b);
          close_out oc;
          Some file)
      (snapshot tr)
end
