(** The fuzzer's corpus: coverage points mapped to the entry that
    reaches them.

    The map is keyed by coverage point ({!Obs.Coverage}); the value is
    the *preferred* entry for that point -- shortest mutation trace
    first, then lexicographically smallest. Preference is a total order
    on traces, so inserting the same set of evaluations in any order
    (or merging per-worker corpora in any order) converges to the same
    map: merge is commutative and associative, which is what makes the
    fuzz aggregate [--jobs]-invariant.

    An entry records everything a human needs from a discovery -- the
    trace (the repro), the resolved warmup seed, the outcome class and
    the triage signature -- but not the point or the metrics: both
    re-derive from the trace, and the corpus file stays small. *)

type entry = {
  en_trace : int list; (* mutation trace; op codes in [0, 2^48) *)
  en_seed : int64; (* resolved warmup seed, for display *)
  en_outcome : string; (* outcome class name *)
  en_signature : string; (* triage signature key, "" for good outcomes *)
}

type t = { tbl : (string, entry) Hashtbl.t (* coverage point -> entry *) }

let create () = { tbl = Hashtbl.create 64 }
let n_points t = Hashtbl.length t.tbl
let mem t point = Hashtbl.mem t.tbl point

(* Shorter trace first, then lexicographic: a total order, so the
   preferred entry for a point is independent of insertion order. Equal
   traces imply equal entries (an entry is a pure function of its
   trace), so ties are harmless. *)
let compare_trace a b =
  compare (List.length a, a) (List.length b, b)

let compare_entry a b = compare_trace a.en_trace b.en_trace

let add t point e =
  match Hashtbl.find_opt t.tbl point with
  | None -> Hashtbl.add t.tbl point e
  | Some prev -> if compare_entry e prev < 0 then Hashtbl.replace t.tbl point e

(* Record one evaluation: if any of its coverage points is new, the
   entry is kept (registered under *all* its points, taking over any it
   reaches with a shorter trace); otherwise it is a dud and the corpus
   is untouched. Returns whether the entry was kept. *)
let absorb t ~points e =
  let novel = List.exists (fun p -> not (mem t p)) points in
  if novel then List.iter (fun p -> add t p e) points;
  novel

let merge_into ~into src = Hashtbl.iter (fun p e -> add into p e) src.tbl

(* Canonical views: sorted coverage points; entries deduplicated by
   trace in preference order. Serialization below builds on these, so
   equal corpora produce byte-identical files. *)
let coverage t =
  Hashtbl.fold (fun p _ acc -> p :: acc) t.tbl []
  |> List.sort String.compare

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl []
  |> List.sort_uniq compare_entry

(* Distinct triage signatures discovered, sorted. *)
let signatures t =
  List.filter_map
    (fun e -> if e.en_signature = "" then None else Some e.en_signature)
    (entries t)
  |> List.sort_uniq String.compare

(* ------------------------------------------------------------------ *)
(* Serialization (the "entries"/"coverage" fields of a fuzz payload)    *)
(* ------------------------------------------------------------------ *)

let add_trace buf trace =
  Buffer.add_char buf '[';
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int c))
    trace;
  Buffer.add_char buf ']'

(* Entries as a canonical array; coverage as sorted (point, entry-index)
   pairs into it. Seeds are strings: the JSON parser reads numbers as
   floats, and int64 must round-trip exactly. *)
let add_payload buf t =
  let ents = entries t in
  let index =
    let h = Hashtbl.create (List.length ents) in
    List.iteri (fun i e -> Hashtbl.replace h e.en_trace i) ents;
    h
  in
  Buffer.add_string buf "\"entries\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n{\"trace\":";
      add_trace buf e.en_trace;
      Buffer.add_string buf ",\"seed\":";
      Obs.Json.escape_to buf (Printf.sprintf "%Ld" e.en_seed);
      Buffer.add_string buf ",\"outcome\":";
      Obs.Json.escape_to buf e.en_outcome;
      Buffer.add_string buf ",\"signature\":";
      Obs.Json.escape_to buf e.en_signature;
      Buffer.add_char buf '}')
    ents;
  Buffer.add_string buf "],\"coverage\":[";
  List.iteri
    (fun i point ->
      if i > 0 then Buffer.add_char buf ',';
      let e = Hashtbl.find t.tbl point in
      Buffer.add_string buf "\n{\"point\":";
      Obs.Json.escape_to buf point;
      Buffer.add_string buf
        (Printf.sprintf ",\"entry\":%d}" (Hashtbl.find index e.en_trace)))
    (coverage t);
  Buffer.add_char buf ']'

(* Parser: raises {!Obs.Checkpoint.Bad} like the envelope helpers it is
   built from; callers convert to [Error] at the edge. *)
let fail fmt = Obs.Checkpoint.fail fmt

let entry_of_json v =
  let trace =
    Obs.Checkpoint.int_list_of "entry.trace"
      (Obs.Checkpoint.get "entry" "trace" v)
  in
  if trace = [] then fail "entry.trace is empty";
  List.iter
    (fun c ->
      if c < 0 || c >= Input.op_space then
        fail "entry.trace: op code %d outside [0, 2^%d)" c Input.op_bits)
    trace;
  let seed_s = Obs.Checkpoint.str "entry" "seed" v in
  let seed =
    match Int64.of_string_opt seed_s with
    | Some s -> s
    | None -> fail "entry.seed %S is not an int64" seed_s
  in
  let outcome = Obs.Checkpoint.str "entry" "outcome" v in
  if outcome = "" then fail "entry.outcome is empty";
  let signature = Obs.Checkpoint.str "entry" "signature" v in
  (* "" marks a good outcome; anything else must be a canonical key. *)
  if
    signature <> ""
    && Option.map Obs.Signature.key (Obs.Signature.of_key signature)
       <> Some signature
  then fail "entry.signature %S is not fault|target|cause|branch" signature;
  { en_trace = trace; en_seed = seed; en_outcome = outcome; en_signature = signature }

let of_json payload =
  let ents =
    match Obs.Json.to_list (Obs.Checkpoint.get "payload" "entries" payload) with
    | Some l -> Array.of_list (List.map entry_of_json l)
    | None -> fail "\"entries\" is not an array"
  in
  (* [add_payload] writes entries in strict preference order. *)
  Array.iteri
    (fun i e ->
      if i > 0 && compare_entry ents.(i - 1) e >= 0 then
        fail "entries[%d] not in canonical (length, lex) order" i)
    ents;
  let t = create () in
  (match Obs.Json.to_list (Obs.Checkpoint.get "payload" "coverage" payload) with
  | None -> fail "\"coverage\" is not an array"
  | Some l ->
    let last = ref "" in
    List.iter
      (fun v ->
        let point = Obs.Checkpoint.str "coverage" "point" v in
        if point = "" then fail "empty coverage point";
        if !last <> "" && String.compare !last point >= 0 then
          fail "coverage points not sorted/unique at %S" point;
        last := point;
        let i = Obs.Checkpoint.int_exn "coverage" "entry" v in
        if i < 0 || i >= Array.length ents then
          fail "coverage entry index %d outside [0, %d)" i (Array.length ents);
        Hashtbl.replace t.tbl point ents.(i))
      l);
  t
