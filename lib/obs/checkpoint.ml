(** Checkpoint files for resumable soak campaigns (schema nlh-checkpoint/1).

    A checkpoint records the progress of a chunked campaign: which chunks
    of the work range have been fully aggregated (a completed-chunk
    bitmap), the merged aggregate so far (an opaque JSON [payload] owned
    by the campaign kind), and enough configuration identity (the
    [fingerprint]) that a resume can refuse a checkpoint written for a
    different campaign. The file is rewritten atomically (tmp + rename),
    so a kill mid-write leaves the previous consistent checkpoint in
    place.

    The envelope is deliberately generic -- [lib/obs] knows nothing about
    injection campaigns. {!Inject.Drive} writes and resumes the files;
    each run kind serializes its own aggregate into [payload] and decodes
    it with the raising helpers below under {!decoding}. The helpers at
    the bottom round-trip the one aggregate component every kind shares,
    a {!Metrics.snapshot}. *)

let schema = "nlh-checkpoint/1"

(* The fuzzer reuses the same envelope (fingerprint identity, done
   bitmap, atomic write, opaque payload) under its own schema tag: a
   corpus/state file is a checkpoint whose payload happens to hold the
   corpus. The [?schema] parameters below default to the classic tag so
   existing campaign/endurance files are untouched. *)
let fuzz_schema = "nlh-fuzz/1"

type header = {
  kind : string; (* "campaign" | "endurance" *)
  fingerprint : string; (* config/seed identity; resume requires equality *)
  chunk : int; (* work items per chunk *)
  n_chunks : int;
  done_chunks : bool array; (* length [n_chunks] *)
}

let done_count h =
  Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 h.done_chunks

let complete h = done_count h = h.n_chunks

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* [payload] must already be a serialized JSON object. The done bitmap is
   written as the ascending list of completed chunk indices: sparse early
   in a campaign, and self-validating (the parser rejects out-of-order or
   duplicate indices). *)
let to_string ?(schema = schema) h ~payload =
  let buf = Buffer.create (256 + String.length payload) in
  Buffer.add_string buf "{\"schema\":";
  Json.escape_to buf schema;
  Buffer.add_string buf ",\"kind\":";
  Json.escape_to buf h.kind;
  Buffer.add_string buf ",\"fingerprint\":";
  Json.escape_to buf h.fingerprint;
  Buffer.add_string buf
    (Printf.sprintf ",\"chunk\":%d,\"n_chunks\":%d,\"done\":[" h.chunk
       h.n_chunks);
  let first = ref true in
  Array.iteri
    (fun i d ->
      if d then begin
        if not !first then Buffer.add_char buf ',';
        first := false;
        Buffer.add_string buf (string_of_int i)
      end)
    h.done_chunks;
  Buffer.add_string buf "],\n\"payload\":";
  Buffer.add_string buf payload;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write ?schema ~path h ~payload =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?schema h ~payload));
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Parser / validator                                                  *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let get what key v =
  match Json.member key v with
  | Some x -> x
  | None -> fail "%s: missing %S" what key

let str what key v =
  match Json.to_string (get what key v) with
  | Some s -> s
  | None -> fail "%s: %S is not a string" what key

let int_exn what key v =
  match Json.to_number (get what key v) with
  | Some f when Float.is_integer f -> int_of_float f
  | Some _ | None -> fail "%s: %S is not an integer" what key

(* A bound on the done bitmap a reader will allocate, so a damaged count
   is rejected rather than exhausting memory. *)
let max_chunks = 1 lsl 24

let of_json ?(schema = schema) root =
  (match Json.member "schema" root with
  | Some (Json.String s) when s = schema -> ()
  | Some (Json.String s) -> fail "schema %S is not %S" s schema
  | _ -> fail "missing schema");
  let kind = str "checkpoint" "kind" root in
  let fingerprint = str "checkpoint" "fingerprint" root in
  if fingerprint = "" then fail "empty fingerprint";
  let chunk = int_exn "checkpoint" "chunk" root in
  if chunk < 1 then fail "chunk %d < 1" chunk;
  let n_chunks = int_exn "checkpoint" "n_chunks" root in
  if n_chunks < 0 || n_chunks > max_chunks then
    fail "n_chunks %d outside [0, %d]" n_chunks max_chunks;
  let done_chunks = Array.make n_chunks false in
  let indices =
    match Json.to_list (get "checkpoint" "done" root) with
    | Some l -> l
    | None -> fail "\"done\" is not an array"
  in
  let last = ref (-1) in
  List.iter
    (fun v ->
      match Json.to_number v with
      | Some f when Float.is_integer f ->
        let i = int_of_float f in
        if i < 0 || i >= n_chunks then
          fail "done index %d outside [0, %d)" i n_chunks;
        if i <= !last then fail "done indices not strictly ascending";
        last := i;
        done_chunks.(i) <- true
      | Some _ | None -> fail "non-integer done index")
    indices;
  let payload =
    match get "checkpoint" "payload" root with
    | Json.Obj _ as p -> p
    | _ -> fail "\"payload\" is not an object"
  in
  ({ kind; fingerprint; chunk; n_chunks; done_chunks }, payload)

(* Parse a checkpoint file's contents. The writer ends every file with
   "}\n"; contents that do not are a torn write even when a prefix of
   them happens to parse. *)
let of_string ?schema contents =
  if not (String.ends_with ~suffix:"}\n" contents) then
    Error "torn write: no closing \"}\" and newline"
  else
    match Json.parse contents with
    | Error msg -> Error ("invalid JSON: " ^ msg)
    | Ok root -> ( try Ok (of_json ?schema root) with Bad msg -> Error msg)

let read ?schema path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | contents -> of_string ?schema contents

(* ------------------------------------------------------------------ *)
(* Metrics-snapshot round trip                                         *)
(* ------------------------------------------------------------------ *)

(* The nlh-obs/1 body shape (counters/gauges/histograms), minus the
   derived quantile fields -- a checkpoint stores raw aggregates only, so
   the round trip is exact. *)
let add_metrics buf (s : Metrics.snapshot) =
  Buffer.add_string buf "{\"counters\":";
  Export.add_int_assoc buf s.Metrics.counters;
  Buffer.add_string buf ",\"gauges\":";
  Export.add_int_assoc buf s.Metrics.gauges;
  Buffer.add_string buf ",\"histograms\":{";
  List.iteri
    (fun i (name, h) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.escape_to buf name;
      Buffer.add_string buf ":{\"bounds\":";
      Export.add_int_list buf h.Metrics.h_bounds;
      Buffer.add_string buf ",\"counts\":";
      Export.add_int_list buf h.Metrics.h_counts;
      Buffer.add_string buf
        (Printf.sprintf ",\"sum\":%d,\"samples\":%d}" h.Metrics.h_sum
           h.Metrics.h_samples))
    s.Metrics.histograms;
  Buffer.add_string buf "}}"

let int_assoc_of what v =
  match v with
  | Json.Obj fields ->
    List.map
      (fun (k, x) ->
        match Json.to_number x with
        | Some f when Float.is_integer f -> (k, int_of_float f)
        | Some _ | None -> fail "%s: %S is not an integer" what k)
      fields
  | _ -> fail "%s is not an object" what

let int_list_of what v =
  match Json.to_list v with
  | Some l ->
    List.map
      (fun x ->
        match Json.to_number x with
        | Some f when Float.is_integer f -> int_of_float f
        | Some _ | None -> fail "%s: non-integer element" what)
      l
  | None -> fail "%s is not an array" what

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

(* Raises [Bad]: callers sit inside a payload decoder and convert to
   [Error] at the edge (see {!decoding}). *)
let metrics_of_json_exn v : Metrics.snapshot =
  let counters = int_assoc_of "counters" (get "metrics" "counters" v) in
  let gauges = int_assoc_of "gauges" (get "metrics" "gauges" v) in
  let histograms =
    match get "metrics" "histograms" v with
    | Json.Obj fields ->
      List.map
        (fun (name, h) ->
          let what = Printf.sprintf "histograms[%S]" name in
          let bounds = int_list_of (what ^ ".bounds") (get what "bounds" h) in
          let rec increasing = function
            | a :: (b :: _ as r) -> a < b && increasing r
            | _ -> true
          in
          if not (increasing bounds) then
            fail "%s: bounds not strictly increasing" what;
          let counts = int_list_of (what ^ ".counts") (get what "counts" h) in
          if List.length counts <> List.length bounds + 1 then
            fail "%s: counts length is not bounds+1" what;
          if List.exists (fun c -> c < 0) counts then
            fail "%s: negative bucket count" what;
          let samples = int_exn what "samples" h in
          if List.fold_left ( + ) 0 counts <> samples then
            fail "%s: counts do not sum to samples" what;
          ( name,
            {
              Metrics.h_bounds = bounds;
              h_counts = counts;
              h_sum = int_exn what "sum" h;
              h_samples = samples;
            } ))
        fields
    | _ -> fail "histograms is not an object"
  in
  {
    Metrics.counters = by_name counters;
    gauges = by_name gauges;
    histograms = by_name histograms;
  }

(* Run a payload decoder built from the raising helpers above, turning
   its first complaint into [Error]. *)
let decoding f = try Ok (f ()) with Bad msg -> Error msg
