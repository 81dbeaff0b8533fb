(** Exporters: Chrome-trace JSON (loadable in Perfetto / chrome://tracing)
    for a single run's events and spans, and a plain metrics-JSON document
    ([OBS_campaign.json], schema nlh-obs/1) for campaign-level snapshots,
    with the nlh-obs/1 reader; and what every schema-tagged document
    shares: its envelope, its "host" object and the file writer.

    Both documents are {!Json.t} values printed by {!Json.document};
    timestamps are simulated nanoseconds converted to the microseconds
    Chrome-trace expects. Output is deterministic: events and spans are
    emitted in timestamp order with a stable tie-break, and metrics come
    from the canonically sorted {!Metrics.snapshot}. *)

let us_of_ns ns = float_of_int ns /. 1000.0

type arg = [ `Int of int | `Bool of bool | `String of string ]

let args_json (args : (string * arg) list) =
  let value : arg -> Json.t = function
    | `Int i -> Json.int i
    | `Bool b -> Json.Bool b
    | `String s -> Json.String s
  in
  Json.Obj (List.map (fun (k, v) -> (k, value v)) args)

(* The ["args":{...}] member of a trace row, appended to a caller's
   buffer. *)
let add_args buf args = Json.render_members_to buf [ ("args", args_json args) ]

(* Chrome-trace rows: a span becomes a complete event ("ph":"X"), a trace
   event becomes a thread-scoped instant ("ph":"i"). *)
type row = Span_row of Span.span | Event_row of Event.t

let row_time = function
  | Span_row s -> s.Span.start
  | Event_row e -> e.Event.time

let row_json row =
  let open Json in
  match row with
  | Span_row (s : Span.span) ->
    Obj
      [
        ("ph", String "X"); ("name", String s.name); ("cat", String s.cat);
        ("ts", Number (us_of_ns s.start)); ("dur", Number (us_of_ns s.duration));
        ("pid", int 0); ("tid", int (max 0 s.track));
        ("args", args_json [ ("duration_ns", `Int s.duration) ]);
      ]
  | Event_row (e : Event.t) ->
    Obj
      [
        ("ph", String "i"); ("s", String "t"); ("name", String (Event.name e.payload));
        ("cat", String (Event.subsystem_name (Event.subsystem e.payload)));
        ("ts", Number (us_of_ns e.time)); ("pid", int 0); ("tid", int (max 0 e.cpu));
        ( "args",
          args_json
            (("level", `String (Event.level_name e.level))
            :: ("domid", `Int e.domid) :: Event.args e.payload) );
      ]

let chrome_trace_string ~events ~spans =
  let rows =
    List.map (fun e -> Event_row e) events
    @ List.map (fun s -> Span_row s) spans
  in
  (* Stable: rows with equal timestamps keep events-then-spans order. *)
  let rows = List.stable_sort (fun a b -> compare (row_time a) (row_time b)) rows in
  let rows = Json.List (List.map row_json rows) in
  Json.(document (Obj [ ("traceEvents", rows); ("displayTimeUnit", String "ms") ]))

let chrome_trace_of_recorder (r : Recorder.t) =
  chrome_trace_string
    ~events:(Trace.to_list r.Recorder.trace)
    ~spans:(Span.to_list r.Recorder.spans)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* --- Schema-tagged documents --------------------------------------- *)

(* A schema-tagged document: the tag, the caller's [meta] when there is
   any, then [members]. *)
let document ~schema ~meta members =
  let meta = if meta = [] then [] else [ ("meta", args_json meta) ] in
  Json.document (Json.Obj ((("schema", Json.String schema) :: meta) @ members))

(* A report's last member: what the host measured ([fields]: wall time,
   minor words, workers) and its core count, in one "host" object that a
   pin can drop whole. *)
let host fields =
  ("host", Json.Obj (fields @ [ ("cores", Json.int (Domain.recommended_domain_count ())) ]))

(* The envelope of a schema-tagged document: the tag, and a "meta"
   object if present (decoded values do not keep it). *)
let check_envelope ~schema root =
  Json.expect_schema schema root;
  Option.iter (fun m -> ignore (Json.obj_of "meta" m)) (Json.member "meta" root)

(* A report's "host" object: every member a non-negative number. *)
let check_host root =
  List.iter
    (fun (k, v) ->
      match Json.to_number v with
      | Some x when x >= 0.0 -> ()
      | _ -> Json.fail "host: %S is not a non-negative number" k)
    (Json.obj_of "host" (Json.get "document" "host" root))

let write_chrome_trace path (r : Recorder.t) =
  write_file path (chrome_trace_of_recorder r)

(* --- Metrics JSON (OBS_campaign.json) ------------------------------ *)

let metrics_schema = "nlh-obs/1"

(** [metrics_json ~meta snapshot] renders the campaign metrics document:
    {v
    { "schema": "nlh-obs/1",
      "meta": { ... caller-supplied strings/ints ... },
      "counters": { name: total, ... },
      "gauges": { name: value, ... },
      "histograms": { name: {bounds, counts, sum, samples, p50, p99, p999}, ... } }
    v}
    [counts] has one trailing overflow bucket beyond [bounds]; the
    bucket-resolution quantile estimates (see [Metrics.quantile]) are
    omitted for empty histograms, where no rank exists. *)
let metrics_json ?(meta = []) (s : Metrics.snapshot) =
  document ~schema:metrics_schema ~meta (Metrics.json_members ~quantiles:true s)

let write_metrics_json ?meta path s = write_file path (metrics_json ?meta s)

(* Read an nlh-obs/1 document back: the snapshot a checkpoint would
   decode, plus the quantile estimates, which must be present exactly
   when a histogram is non-empty, and ordered. *)
let metrics_of_json root =
  let open Json in
  decoding (fun () ->
      check_envelope ~schema:metrics_schema root;
      let s = Metrics.of_json_exn root in
      List.iter
        (fun (name, h) ->
          let what = Printf.sprintf "histograms[%S]" name in
          let hv = get "histograms" name (get "document" "histograms" root) in
          let q key = Option.map (fun _ -> int_exn what key hv) (member key hv) in
          match (q "p50", q "p99", q "p999") with
          | Some p50, Some p99, Some p999 ->
            if h.Metrics.h_samples <= 0 then
              fail "%s: quantiles on an empty histogram" what;
            if not (p50 <= p99 && p99 <= p999) then
              fail "%s: quantiles not ordered (p50 %d p99 %d p999 %d)" what p50
                p99 p999
          | None, None, None ->
            if h.Metrics.h_samples > 0 then
              fail "%s: non-empty histogram missing quantiles" what
          | _ -> fail "%s: partial quantile set" what)
        s.Metrics.histograms;
      s)

(* Read an nlh-obs/1 file's contents: a torn write is rejected before
   the document is decoded. *)
let metrics_of_string contents =
  Result.bind (Json.parse_document contents) metrics_of_json
