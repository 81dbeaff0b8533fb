(* Validate exported observability artifacts: well-formed JSON plus
   per-schema structural checks. Dispatches on document shape:

   - Chrome-trace timelines (a "traceEvents" array): rows all carry
     name/ph/ts and timestamps are globally non-decreasing.
   - "nlh-obs/1" metrics documents: the metrics reader checkpoints use
     (integer maps, strictly increasing histogram bounds, counts one
     longer than bounds and summing to samples) plus ordered quantile
     estimates.
   - "nlh-triage/1" triage documents: per-signature entries whose counts
     sum to the total, ascending seed sets, and well-formed exemplars.
   - "nlh-postmortem/1" bundles: signature grammar, timeline and
     flight-tail shape, monotone timeline timestamps.
   - "nlh-checkpoint/1" soak checkpoints and "nlh-fuzz/1" corpora: the
     envelope reader and per-kind payload decoders that resume uses, so
     a file passes exactly when a resume would accept it.
   - "nlh-fleet/1" fleet reports: known mechanisms appearing once each,
     request counts matching histogram samples, ordered latency
     quantiles, and per-trial scan-path accounting.

   Accepts any number of files; used by the @check alias as the
   export smoke test. *)

let die fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- Chrome-trace ---------------------------------------------------- *)

let check_chrome path events =
  let spans = ref 0 and instants = ref 0 in
  let last_ts = ref neg_infinity in
  List.iteri
    (fun i row ->
      let str key =
        match Option.bind (Obs.Json.member key row) Obs.Json.to_string with
        | Some s -> s
        | None -> die "%s: traceEvents[%d]: missing string %S" path i key
      in
      let num key =
        match Option.bind (Obs.Json.member key row) Obs.Json.to_number with
        | Some f -> f
        | None -> die "%s: traceEvents[%d]: missing number %S" path i key
      in
      if str "name" = "" then die "%s: traceEvents[%d]: empty name" path i;
      let ts = num "ts" in
      if ts < 0.0 then die "%s: traceEvents[%d]: negative ts" path i;
      if ts < !last_ts then
        die "%s: traceEvents[%d]: ts %.3f < previous %.3f (not monotone)" path
          i ts !last_ts;
      last_ts := ts;
      match str "ph" with
      | "X" ->
        if num "dur" < 0.0 then die "%s: traceEvents[%d]: negative dur" path i;
        incr spans
      | "i" -> incr instants
      | ph -> die "%s: traceEvents[%d]: unexpected ph %S" path i ph)
    events;
  Printf.printf "%s: OK chrome-trace (%d rows: %d spans, %d instants)\n" path
    (List.length events) !spans !instants

(* --- Shared accessors ------------------------------------------------ *)

let obj_members path what v =
  match v with
  | Obs.Json.Obj fields -> fields
  | _ -> die "%s: %s is not an object" path what

let list_of path what v =
  match Obs.Json.to_list v with
  | Some l -> l
  | None -> die "%s: %s is not an array" path what

let get path what key v =
  match Obs.Json.member key v with
  | Some x -> x
  | None -> die "%s: %s: missing %S" path what key

let num path what key v =
  match Obs.Json.to_number (get path what key v) with
  | Some f -> f
  | None -> die "%s: %s: %S is not a number" path what key

let str path what key v =
  match Obs.Json.to_string (get path what key v) with
  | Some s -> s
  | None -> die "%s: %s: %S is not a string" path what key

let int_assoc path what v =
  List.iter
    (fun (k, x) ->
      if Obs.Json.to_number x = None then
        die "%s: %s: %S is not a number" path what k)
    (obj_members path what v)

(* --- nlh-obs/1 ------------------------------------------------------- *)

(* The raw counters/gauges/histograms body is the one a checkpoint
   payload carries, so it is decoded by the same reader; only the
   derived quantiles are checked here. *)
let check_metrics path root =
  (match Obs.Checkpoint.(decoding (fun () -> metrics_of_json_exn root)) with
  | Ok _ -> ()
  | Error msg -> die "%s: %s" path msg);
  let hists =
    obj_members path "histograms" (get path "document" "histograms" root)
  in
  List.iter
    (fun (name, h) ->
      let what = Printf.sprintf "histograms[%S]" name in
      let samples = num path what "samples" h in
      (* Quantiles: present together iff the histogram is non-empty,
         and necessarily ordered. *)
      let q key = Option.bind (Obs.Json.member key h) Obs.Json.to_number in
      match (q "p50", q "p99", q "p999") with
      | Some p50, Some p99, Some p999 ->
        if samples <= 0.0 then
          die "%s: %s: quantiles on an empty histogram" path what;
        if not (p50 <= p99 && p99 <= p999) then
          die "%s: %s: quantiles not ordered (p50 %g p99 %g p999 %g)" path
            what p50 p99 p999
      | None, None, None ->
        if samples > 0.0 then
          die "%s: %s: non-empty histogram missing quantiles" path what
      | _ -> die "%s: %s: partial quantile set" path what)
    hists;
  Printf.printf "%s: OK nlh-obs/1 (%d histograms)\n" path (List.length hists)

(* --- nlh-postmortem/1 bundles ---------------------------------------- *)

(* Shared between standalone bundle files and triage exemplars. *)
let check_bundle path what b =
  let sg = str path what "signature" b in
  let parts = String.split_on_char '|' sg in
  if List.length parts <> 4 || List.exists (fun p -> p = "") parts then
    die "%s: %s: signature %S is not fault|target|cause|branch" path what sg;
  if str path what "outcome" b = "" then die "%s: %s: empty outcome" path what;
  if str path what "repro" b = "" then die "%s: %s: empty repro" path what;
  ignore (num path what "seed" b);
  List.iter
    (fun (k, v) ->
      if Obs.Json.to_string v = None then
        die "%s: %s: config[%S] is not a string" path what k)
    (obj_members path (what ^ ".config") (get path what "config" b));
  let last_ns = ref neg_infinity in
  List.iteri
    (fun i e ->
      let ewhat = Printf.sprintf "%s.timeline[%d]" what i in
      if str path ewhat "label" e = "" then die "%s: %s: empty label" path ewhat;
      if str path ewhat "event" e = "" then die "%s: %s: empty event" path ewhat;
      let ns = num path ewhat "ns" e in
      if ns < !last_ns then die "%s: %s: timeline not monotone" path ewhat;
      last_ns := ns)
    (list_of path (what ^ ".timeline") (get path what "timeline" b));
  (match get path what "first_touch" b with
  | Obs.Json.Null -> ()
  | ft ->
    ignore (str path (what ^ ".first_touch") "name" ft);
    ignore (num path (what ^ ".first_touch") "ns" ft));
  List.iter
    (fun key ->
      List.iteri
        (fun i e ->
          let ewhat = Printf.sprintf "%s.%s[%d]" what key i in
          ignore (str path ewhat "name" e);
          ignore (num path ewhat "ns" e))
        (list_of path (what ^ "." ^ key) (get path what key b)))
    [ "recovery_phases"; "hypercalls"; "journal_tail" ];
  int_assoc path (what ^ ".ledger_diff") (get path what "ledger_diff" b)

let check_postmortem path root =
  check_bundle path "bundle" root;
  Printf.printf "%s: OK nlh-postmortem/1 (%s)\n" path
    (str path "bundle" "signature" root)

(* --- nlh-triage/1 ---------------------------------------------------- *)

let check_triage path root =
  let total = num path "document" "total" root in
  let sigs =
    list_of path "signatures" (get path "document" "signatures" root)
  in
  let counted = ref 0.0 in
  let last_key = ref "" in
  List.iteri
    (fun i e ->
      let what = Printf.sprintf "signatures[%d]" i in
      let key = str path what "signature" e in
      if key <= !last_key && i > 0 then
        die "%s: %s: keys not strictly key-sorted" path what;
      last_key := key;
      (* The flat fields must agree with the composite key. *)
      let recomposed =
        String.concat "|"
          [
            str path what "fault" e;
            str path what "target" e;
            str path what "cause" e;
            str path what "branch" e;
          ]
      in
      if recomposed <> key then
        die "%s: %s: fields %S disagree with key %S" path what recomposed key;
      let count = num path what "count" e in
      if count < 1.0 then die "%s: %s: count < 1" path what;
      counted := !counted +. count;
      let seeds =
        List.map
          (fun s ->
            match Obs.Json.to_number s with
            | Some f -> f
            | None -> die "%s: %s: non-numeric seed" path what)
          (list_of path (what ^ ".seeds") (get path what "seeds" e))
      in
      if seeds = [] then die "%s: %s: empty seed set" path what;
      let rec asc = function
        | a :: (b :: _ as r) ->
          if a >= b then die "%s: %s: seeds not ascending" path what;
          asc r
        | _ -> ()
      in
      asc seeds;
      match get path what "exemplar" e with
      | Obs.Json.Null -> ()
      | b ->
        check_bundle path (what ^ ".exemplar") b;
        if str path (what ^ ".exemplar") "signature" b <> key then
          die "%s: %s: exemplar signature disagrees with key" path what)
    sigs;
  if !counted <> total then
    die "%s: signature counts sum to %g but total is %g" path !counted total;
  Printf.printf "%s: OK nlh-triage/1 (%d signatures, %g failures)\n" path
    (List.length sigs) total

(* --- nlh-checkpoint/1 and nlh-fuzz/1 ---------------------------------- *)

(* A checkpoint passes exactly when a resume would accept its envelope
   and payload: it is read with [Obs.Checkpoint.read] and decoded by the
   kind's own resume decoder. Only the config match (fingerprint and
   chunk geometry) is left out, since a file alone names no run to
   match. *)
let decode_checkpoint ~schema (h : Obs.Checkpoint.header) payload =
  let ok r = Result.map ignore r in
  match (schema, h.Obs.Checkpoint.kind) with
  | "nlh-checkpoint/1", "campaign" ->
    ok (Inject.Campaign.totals_of_payload payload)
  | "nlh-checkpoint/1", "endurance" -> ok (Endure.totals_of_payload payload)
  | "nlh-fuzz/1", "fuzz" -> ok (Fuzz.Session.saved_of_checkpoint h payload)
  | _, kind -> Error (Printf.sprintf "no %s checkpoint kind %S" schema kind)

let check_checkpoint path schema =
  match
    Result.bind (Obs.Checkpoint.read ~schema path) (fun (h, payload) ->
        Result.map (fun () -> h) (decode_checkpoint ~schema h payload))
  with
  | Error msg -> die "%s: %s" path msg
  | Ok h ->
    Printf.printf "%s: OK %s (%s, %d/%d chunks done)\n" path schema
      h.Obs.Checkpoint.kind (Obs.Checkpoint.done_count h)
      h.Obs.Checkpoint.n_chunks

(* --- nlh-fleet/1 ----------------------------------------------------- *)

(* A fleet report: per-mechanism request-latency quantiles through a
   recovery event. Invariants: every mechanism name is known and appears
   once; request counts equal the histogram sample counts; stalled and
   SLO-violating requests cannot exceed the total; quantiles are
   ordered; mean recovery latency cannot exceed the max; and each trial
   took exactly one consistency-scan path (incremental + full = trials). *)
let check_fleet path root =
  let trials = num path "document" "trials" root in
  if trials < 1.0 then die "%s: trials %g < 1" path trials;
  if num path "document" "tenants" root < 1.0 then die "%s: tenants < 1" path;
  if num path "document" "slo_ns" root <= 0.0 then die "%s: slo_ns <= 0" path;
  let mechs =
    list_of path "mechanisms" (get path "document" "mechanisms" root)
  in
  if mechs = [] then die "%s: empty mechanisms array" path;
  let seen = ref [] in
  List.iteri
    (fun i m ->
      let what = Printf.sprintf "mechanisms[%d]" i in
      let name = str path what "mechanism" m in
      if
        not
          (List.mem name [ "serial-full"; "serial-incremental"; "sharded" ])
      then die "%s: %s: unknown mechanism %S" path what name;
      if List.mem name !seen then
        die "%s: %s: duplicate mechanism %S" path what name;
      seen := name :: !seen;
      let f k = num path what k m in
      let requests = f "requests" in
      if requests < 1.0 then die "%s: %s: no requests" path what;
      if f "samples" <> requests then
        die "%s: %s: samples %g <> requests %g" path what (f "samples")
          requests;
      if f "stalled" > requests then
        die "%s: %s: stalled > requests" path what;
      if f "slo_violations" > requests then
        die "%s: %s: slo_violations > requests" path what;
      List.iter
        (fun k -> if f k < 0.0 then die "%s: %s: negative %s" path what k)
        [ "stalled"; "slo_violations"; "tenants_failed"; "net_lost" ];
      let p50 = f "request_p50_ns"
      and p99 = f "request_p99_ns"
      and p999 = f "request_p999_ns" in
      if not (0.0 < p50 && p50 <= p99 && p99 <= p999) then
        die "%s: %s: request quantiles not ordered (%g %g %g)" path what p50
          p99 p999;
      if f "recovery_ns_mean" > f "recovery_ns_max" then
        die "%s: %s: recovery mean exceeds max" path what;
      if f "recovery_ns_mean" <= 0.0 then
        die "%s: %s: non-positive recovery latency" path what;
      if f "scan_incremental" +. f "scan_full" <> trials then
        die "%s: %s: scan_incremental %g + scan_full %g <> trials %g" path
          what (f "scan_incremental") (f "scan_full") trials)
    mechs;
  Printf.printf "%s: OK nlh-fleet/1 (%d mechanisms, %g trials each)\n" path
    (List.length mechs) trials

(* --- Dispatch -------------------------------------------------------- *)

let check_file path =
  let contents = try read_file path with Sys_error e -> die "%s" e in
  let root =
    match Obs.Json.parse contents with
    | Ok v -> v
    | Error msg -> die "%s: invalid JSON: %s" path msg
  in
  match Obs.Json.member "traceEvents" root with
  | Some v -> check_chrome path (list_of path "traceEvents" v)
  | None -> (
    match Option.bind (Obs.Json.member "schema" root) Obs.Json.to_string with
    | Some "nlh-obs/1" -> check_metrics path root
    | Some "nlh-triage/1" -> check_triage path root
    | Some "nlh-postmortem/1" -> check_postmortem path root
    | Some ("nlh-checkpoint/1" | "nlh-fuzz/1" as schema) ->
      check_checkpoint path schema
    | Some "nlh-fleet/1" -> check_fleet path root
    | Some s -> die "%s: unknown schema %S" path s
    | None -> die "%s: neither a Chrome trace nor a schema document" path)

let () =
  if Array.length Sys.argv < 2 then die "usage: nlh_trace_check FILE.json...";
  for i = 1 to Array.length Sys.argv - 1 do
    check_file Sys.argv.(i)
  done
