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

(* Entries as a canonical array, one per line; coverage as sorted
   (point, entry-index) pairs into it. Seeds are strings, as the first
   nlh-fuzz/1 files wrote them; keeping them so keeps those files
   loadable. *)
let payload_members t =
  let ents = entries t in
  let index =
    let h = Hashtbl.create (List.length ents) in
    List.iteri (fun i e -> Hashtbl.replace h e.en_trace i) ents;
    h
  in
  let open Obs.Json in
  [
    ( "entries",
      List
        (List.map
           (fun e ->
             Obj
               [
                 ("trace", ints e.en_trace);
                 ("seed", String (Int64.to_string e.en_seed));
                 ("outcome", String e.en_outcome);
                 ("signature", String e.en_signature);
               ])
           ents) );
    ( "coverage",
      List
        (List.map
           (fun point ->
             let e = Hashtbl.find t.tbl point in
             Obj
               [
                 ("point", String point);
                 ("entry", int (Hashtbl.find index e.en_trace));
               ])
           (coverage t)) );
  ]

let add_payload buf t = Obs.Json.render_members_to buf (payload_members t)

(* Decoders raise {!Obs.Json.Bad}; callers convert to [Error] at the
   edge. *)
let entry_of_json v =
  let open Obs.Json in
  let trace = int_list_of "entry.trace" (get "entry" "trace" v) in
  if trace = [] then fail "entry.trace is empty";
  List.iter
    (fun c ->
      if c < 0 || c >= Input.op_space then
        fail "entry.trace: op code %d outside [0, 2^%d)" c Input.op_bits)
    trace;
  let seed_s = str "entry" "seed" v in
  let seed =
    match Int64.of_string_opt seed_s with
    | Some s -> s
    | None -> fail "entry.seed %S is not an int64" seed_s
  in
  let outcome = str_nonempty "entry" "outcome" v in
  let signature = str "entry" "signature" v in
  (* "" marks a good outcome; anything else must be a canonical key. *)
  if signature <> "" && Obs.Signature.of_key signature = None then
    fail "entry.signature %S is not fault|target|cause|branch" signature;
  { en_trace = trace; en_seed = seed; en_outcome = outcome; en_signature = signature }

let of_json payload =
  let open Obs.Json in
  let ents = list_of "\"entries\"" (get "payload" "entries" payload) in
  let ents = List.map entry_of_json ents in
  (* [payload_members] writes entries in strict preference order, and
     coverage points sorted and unique. *)
  if not (sorted compare_entry ents) then
    fail "entries not in canonical (length, lex) order";
  let ents = Array.of_list ents in
  let cover =
    List.map
      (fun v -> (str_nonempty "coverage" "point" v, int_exn "coverage" "entry" v))
      (list_of "\"coverage\"" (get "payload" "coverage" payload))
  in
  if not (sorted String.compare (List.map fst cover)) then
    fail "coverage points not sorted/unique";
  let t = create () in
  List.iter
    (fun (point, i) ->
      if i < 0 || i >= Array.length ents then
        fail "coverage entry index %d outside [0, %d)" i (Array.length ents);
      Hashtbl.replace t.tbl point ents.(i))
    cover;
  t
