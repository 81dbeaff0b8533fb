(* Validate exported observability artifacts. Every file is parsed by
   Obs.Json and dispatched on its shape; a schema with an owner module
   is validated by that owner's decoder, so a file passes exactly when
   its readers would accept it:

   - "nlh-obs/1" metrics documents: Obs.Export.metrics_of_string.
   - "nlh-triage/1" triage documents: Obs.Postmortem.Triage.of_string.
   - "nlh-postmortem/1" bundles: Obs.Postmortem.of_string.
   - "nlh-checkpoint/1" soak checkpoints and "nlh-fuzz/1" corpora:
     Obs.Checkpoint.read plus the kind's resume decoder.
   - "nlh-fleet/1" fleet reports: Fleet.of_string.
   - "nlh-endurance/2" endurance reports: Endure.report_of_string.
   - "nlh-latency/2" latency reports: Inject.Latency_report.of_string.

   One shape is checked here, with Obs.Json's decode helpers:
   Chrome-trace timelines (a "traceEvents" array), whose rows all carry
   name/ph/ts and whose timestamps are globally non-decreasing.

   Accepts any number of files; used by the @check alias as the
   export smoke test. *)

let die fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- Chrome-trace ---------------------------------------------------- *)

let check_chrome events =
  let open Obs.Json in
  let spans = ref 0 and instants = ref 0 in
  let last_ts = ref neg_infinity in
  List.iteri
    (fun i row ->
      let what = Printf.sprintf "traceEvents[%d]" i in
      if str what "name" row = "" then fail "%s: empty name" what;
      let ts = num what "ts" row in
      if ts < 0.0 then fail "%s: negative ts" what;
      if ts < !last_ts then
        fail "%s: ts %.3f < previous %.3f (not monotone)" what ts !last_ts;
      last_ts := ts;
      match str what "ph" row with
      | "X" ->
        if num what "dur" row < 0.0 then fail "%s: negative dur" what;
        incr spans
      | "i" -> incr instants
      | ph -> fail "%s: unexpected ph %S" what ph)
    events;
  Printf.sprintf "chrome-trace (%d rows: %d spans, %d instants)"
    (List.length events) !spans !instants

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
  Result.bind (Obs.Checkpoint.read ~schema path) (fun (h, payload) ->
      Result.map
        (fun () ->
          Printf.sprintf "%s (%s, %d/%d chunks done)" schema
            h.Obs.Checkpoint.kind (Obs.Checkpoint.done_count h)
            h.Obs.Checkpoint.n_chunks)
        (decode_checkpoint ~schema h payload))

(* --- Dispatch -------------------------------------------------------- *)

(* The verdict on one file: [Ok] with the summary its OK line reports,
   or the first complaint. *)
let check contents path root =
  let local f = Obs.Json.decoding (fun () -> f root) in
  match Obs.Json.member "traceEvents" root with
  | Some v -> local (fun _ -> check_chrome (Obs.Json.list_of "traceEvents" v))
  | None -> (
    match Obs.Json.schema_of root with
    | Some "nlh-obs/1" ->
      Result.map
        (fun (s : Obs.Metrics.snapshot) ->
          Printf.sprintf "nlh-obs/1 (%d histograms)"
            (List.length s.Obs.Metrics.histograms))
        (Obs.Export.metrics_of_string contents)
    | Some "nlh-triage/1" ->
      Result.map
        (fun tr ->
          Printf.sprintf "nlh-triage/1 (%d signatures, %d failures)"
            (Obs.Postmortem.Triage.signatures tr)
            (Obs.Postmortem.Triage.total tr))
        (Obs.Postmortem.Triage.of_string contents)
    | Some "nlh-postmortem/1" ->
      Result.map
        (fun b ->
          Printf.sprintf "nlh-postmortem/1 (%s)"
            (Obs.Signature.key b.Obs.Postmortem.pm_signature))
        (Obs.Postmortem.of_string contents)
    | Some ("nlh-checkpoint/1" | "nlh-fuzz/1" as schema) ->
      check_checkpoint path schema
    | Some "nlh-fleet/1" ->
      Result.map
        (fun (rp : Fleet.report) ->
          Printf.sprintf "nlh-fleet/1 (%d mechanisms, %d trials each)"
            (List.length rp.Fleet.mechanisms)
            (List.assoc "trials" rp.Fleet.header))
        (Fleet.of_string contents)
    | Some "nlh-endurance/2" ->
      Result.map
        (fun t ->
          Printf.sprintf "nlh-endurance/2 (%d scenarios, %d cycles)" t.Endure.scenarios
            (Array.length t.Endure.per_cycle))
        (Endure.report_of_string contents)
    | Some "nlh-latency/2" ->
      Result.map
        (fun rp ->
          match rp.Inject.Latency_report.empirical with
          | Some (_, t) -> Printf.sprintf "nlh-latency/2 (empirical: %d runs)" t.Inject.Campaign.runs
          | None -> "nlh-latency/2 (no empirical section)")
        (Inject.Latency_report.of_string contents)
    | Some s -> Error (Printf.sprintf "unknown schema %S" s)
    | None -> Error "neither a Chrome trace nor a schema document")

let check_file path =
  let contents = try read_file path with Sys_error e -> die "%s" e in
  let root =
    match Obs.Json.parse contents with
    | Ok v -> v
    | Error msg -> die "%s: invalid JSON: %s" path msg
  in
  match check contents path root with
  | Ok summary -> Printf.printf "%s: OK %s\n" path summary
  | Error msg -> die "%s: %s" path msg

let () =
  if Array.length Sys.argv < 2 then die "usage: nlh_trace_check FILE.json...";
  for i = 1 to Array.length Sys.argv - 1 do
    check_file Sys.argv.(i)
  done
