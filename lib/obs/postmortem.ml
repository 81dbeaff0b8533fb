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
    bit-identical for any [--jobs] / [--fanout] split.

    This module owns both schemas: [to_json] / [of_json] write and
    decode nlh-postmortem/1 bundles, [Triage.to_json] / [Triage.of_json]
    nlh-triage/1 tables, and each decoder inverts its writer exactly.
    The decoders make every check a reader relies on (signature grammar,
    non-empty outcome and repro, monotone timeline, ascending seeds,
    counts summing to the total, exemplars filed under their own key),
    so nlh_postmortem renders decoded values and nlh_trace_check
    validates by decoding. *)

(* Bounds keeping a bundle "bounded": big enough to triage with, small
   enough to ship thousands of. *)
let max_timeline = 24
let max_tail = 16
let seed_cap = 8

(* A timeline row: a labelled trace event minus the level and domain,
   which a bundle does not record, so that a bundle round-trips through
   its JSON exactly. *)
type row = { tl_ns : int; tl_cpu : int; tl_event : Event.payload }

type t = {
  pm_signature : Signature.t;
  pm_outcome : string; (* outcome class name, e.g. "detected" *)
  pm_seed : int64;
  pm_repro : string; (* one-line CLI invocation reproducing the run *)
  pm_config : (string * string) list; (* mech / fault / setup / fanout... *)
  pm_timeline : row list; (* time order *)
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

(* The last [n] elements: a suffix of [l], shared rather than copied. *)
let last n l =
  let rec drop k l =
    match l with _ :: r when k > 0 -> drop (k - 1) r | _ -> l
  in
  drop (List.length l - n) l

(* Label the causally interesting events out of a run's trace ring:
   injections, detections (incl. audit violations), recovery steps and
   the outcome classification; "" for the rest. *)
let label_of = function
  | Event.Fault_injected _ -> "injection"
  | Event.Detection _ -> "detection"
  | Event.Audit_violation _ -> "audit"
  | Event.Outcome_classified _ -> "outcome"
  | Event.Recovery_step _ -> "recovery"
  | _ -> ""

(* Keep the bounded *tail* of the labelled events (oldest-first in, and
   out): the end of the story is the part that explains the death. *)
let timeline_of_events events =
  let newest_first =
    List.fold_left
      (fun acc (e : Event.t) -> if label_of e.Event.payload = "" then acc else e :: acc)
      [] events
  in
  let rec rows n acc = function
    | (e : Event.t) :: r when n > 0 ->
      let row = { tl_ns = e.Event.time; tl_cpu = e.Event.cpu; tl_event = e.Event.payload } in
      rows (n - 1) (row :: acc) r
    | _ -> acc
  in
  rows max_timeline [] newest_first

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

let schema = "nlh-postmortem/1"

let named_ns (name, ns) = Json.Obj [ ("name", Json.String name); ("ns", Json.int ns) ]
let named_ns_list l = Json.List (List.map named_ns l)

let row_json r =
  Json.Obj
    [
      ("label", Json.String (label_of r.tl_event)); ("ns", Json.int r.tl_ns);
      ("cpu", Json.int r.tl_cpu); ("event", Json.String (Event.name r.tl_event));
      ("args", Export.args_json (Event.args r.tl_event));
    ]

(* A bundle's members: a bundle file is these under a schema tag, a
   triage exemplar is these alone. *)
let bundle_members t =
  let open Json in
  [
    ("signature", String (Signature.key t.pm_signature));
    ("outcome", String t.pm_outcome); ("seed", Int t.pm_seed);
    ("repro", String t.pm_repro);
    ("config", Obj (List.map (fun (k, v) -> (k, String v)) t.pm_config));
    ("timeline", List (List.map row_json t.pm_timeline));
    ("first_touch", Option.fold ~none:Null ~some:named_ns t.pm_first_touch);
    ("recovery_phases", named_ns_list t.pm_phases);
    ("hypercalls", named_ns_list t.pm_hypercalls);
    ("journal_tail", named_ns_list t.pm_journal_tail);
    ("ledger_diff", int_assoc t.pm_ledger_diff);
  ]

let to_json ?(meta = []) t = Export.document ~schema ~meta (bundle_members t)

(* --- Decoding: raises {!Json.Bad} ------------------------------------ *)

let arg_of what : Json.t -> Export.arg = function
  | Json.Bool b -> `Bool b
  | Json.String s -> `String s
  | v -> (
    match Json.int_opt v with
    | Some i -> `Int i
    | None -> Json.fail "%s is not an int, bool or string" what)

let named_ns_of what v =
  List.mapi
    (fun i e ->
      let what = Printf.sprintf "%s[%d]" what i in
      (Json.str what "name" e, Json.int_exn what "ns" e))
    (Json.list_of what v)

let row_of what e =
  let open Json in
  let label = str_nonempty what "label" e and name = str_nonempty what "event" e in
  let args =
    List.map
      (fun (k, v) -> (k, arg_of (Printf.sprintf "%s.args[%S]" what k) v))
      (obj_of (what ^ ".args") (get what "args" e))
  in
  match Event.of_name_args name args with
  | None -> fail "%s: event %S does not match its args" what name
  | Some p when label_of p <> label ->
    fail "%s: label %S is not %S" what label (label_of p)
  | Some p -> { tl_ns = int_exn what "ns" e; tl_cpu = int_exn what "cpu" e; tl_event = p }

let signature_of what key =
  match Signature.of_key key with
  | Some sg -> sg
  | None -> Json.fail "%s: signature %S is not fault|target|cause|branch" what key

let bundle_of what b =
  let open Json in
  let field key = get what key b in
  let sub key = named_ns_of (what ^ "." ^ key) (field key) in
  let pm_signature = signature_of what (str what "signature" b) in
  let pm_outcome = str_nonempty what "outcome" b in
  let pm_repro = str_nonempty what "repro" b in
  let pm_timeline =
    List.mapi
      (fun i e -> row_of (Printf.sprintf "%s.timeline[%d]" what i) e)
      (list_of (what ^ ".timeline") (field "timeline"))
  in
  if not (sorted ~ties:true Int.compare (List.map (fun r -> r.tl_ns) pm_timeline)) then
    fail "%s: timeline not monotone" what;
  let config_entry (k, v) =
    match v with String s -> (k, s) | _ -> fail "%s: config[%S] is not a string" what k
  in
  {
    pm_signature;
    pm_outcome;
    pm_seed = int64_exn what "seed" b;
    pm_repro;
    pm_config = List.map config_entry (obj_of (what ^ ".config") (field "config"));
    pm_timeline;
    pm_first_touch =
      (match field "first_touch" with
      | Null -> None
      | ft ->
        let what = what ^ ".first_touch" in
        Some (str what "name" ft, int_exn what "ns" ft));
    pm_phases = sub "recovery_phases";
    pm_hypercalls = sub "hypercalls";
    pm_journal_tail = sub "journal_tail";
    pm_ledger_diff = int_assoc_of (what ^ ".ledger_diff") (field "ledger_diff");
  }

let of_json root =
  Json.decoding (fun () ->
      Export.check_envelope ~schema root;
      bundle_of "bundle" root)

let of_string s = Result.bind (Json.parse_document s) of_json

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

  let schema = "nlh-triage/1"

  let entry_json (key, e) =
    let open Json in
    let sg = e.e_signature in
    Obj
      [
        ("signature", String key); ("fault", String sg.Signature.fault);
        ("target", String sg.Signature.target); ("cause", String sg.Signature.cause);
        ("branch", String sg.Signature.branch); ("count", int e.e_count);
        ("seeds", List (List.map (fun s -> Int s) e.e_seeds));
        ( "exemplar",
          match e.e_exemplar with None -> Null | Some (_, b) -> Obj (bundle_members b) );
      ]

  (* One signature per line, key-sorted. *)
  let to_json ?(meta = []) tr =
    Export.document ~schema ~meta
      [
        ("total", Json.int (total tr));
        ("signatures", Json.List (List.map entry_json (snapshot tr)));
      ]

  let entry_of i e =
    let open Json in
    let what = Printf.sprintf "signatures[%d]" i in
    let key = str what "signature" e in
    let e_signature = signature_of what key in
    (* The flat fields must agree with the composite key. *)
    let fields = List.map (fun k -> str what k e) [ "fault"; "target"; "cause"; "branch" ] in
    let fields = String.concat "|" fields in
    if fields <> key then fail "%s: fields %S disagree with key %S" what fields key;
    let e_count = int_exn what "count" e in
    if e_count < 1 then fail "%s: count < 1" what;
    let seed = function Int s -> s | _ -> fail "%s: non-integer seed" what in
    let e_seeds = List.map seed (list_of (what ^ ".seeds") (get what "seeds" e)) in
    if e_seeds = [] then fail "%s: empty seed set" what;
    if not (sorted Int64.compare e_seeds) then fail "%s: seeds not ascending" what;
    let e_exemplar =
      match get what "exemplar" e with
      | Null -> None
      | b ->
        let b = bundle_of (what ^ ".exemplar") b in
        if Signature.key b.pm_signature <> key then
          fail "%s: exemplar signature disagrees with key" what;
        Some (b.pm_seed, b)
    in
    (key, { e_signature; e_count; e_seeds; e_exemplar })

  (* The table a triage document holds. Its seed cap is the default or
     the longest seed list in the file, whichever is larger. *)
  let of_json root =
    let open Json in
    decoding (fun () ->
        Export.check_envelope ~schema root;
        let total = int_exn "document" "total" root in
        let entries =
          List.mapi entry_of (list_of "signatures" (get "document" "signatures" root))
        in
        if not (sorted String.compare (List.map fst entries)) then
          fail "signatures not strictly key-sorted";
        let counted = List.fold_left (fun acc (_, e) -> acc + e.e_count) 0 entries in
        if counted <> total then
          fail "signature counts sum to %d but total is %d" counted total;
        let seed_cap =
          List.fold_left
            (fun m (_, e) -> max m (List.length e.e_seeds))
            default_seed_cap entries
        in
        let tr = create ~seed_cap () in
        List.iter (fun (key, e) -> Hashtbl.replace tr.tbl key e) entries;
        tr)

  let of_string s = Result.bind (Json.parse_document s) of_json

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
          Export.write_file file (bundle_json b);
          Some file)
      (snapshot tr)
end
