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
    each run kind builds its own aggregate as a {!Json.t} [payload] and
    decodes it with {!Json}'s raising helpers under {!Json.decoding}. *)

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

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* The done bitmap is written as the ascending list of completed chunk
   indices: sparse early in a campaign, and self-validating (the parser
   rejects out-of-order or duplicate indices). *)
let to_string ?(schema = schema) h ~payload =
  let done_ = ref [] in
  for i = Array.length h.done_chunks - 1 downto 0 do
    if h.done_chunks.(i) then done_ := i :: !done_
  done;
  Export.document ~schema ~meta:[]
    Json.
      [
        ("kind", String h.kind); ("fingerprint", String h.fingerprint); ("chunk", int h.chunk);
        ("n_chunks", int h.n_chunks); ("done", ints !done_); ("payload", payload);
      ]

let write ?schema ~path h ~payload =
  let tmp = path ^ ".tmp" in
  Export.write_file tmp (to_string ?schema h ~payload);
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Parser / validator                                                  *)
(* ------------------------------------------------------------------ *)

(* A bound on the done bitmap a reader will allocate, so a damaged count
   is rejected rather than exhausting memory. *)
let max_chunks = 1 lsl 24

let of_json ?(schema = schema) root =
  let open Json in
  expect_schema schema root;
  let kind = str "checkpoint" "kind" root in
  let fingerprint = str "checkpoint" "fingerprint" root in
  if fingerprint = "" then fail "empty fingerprint";
  let chunk = int_exn "checkpoint" "chunk" root in
  if chunk < 1 then fail "chunk %d < 1" chunk;
  let n_chunks = int_exn "checkpoint" "n_chunks" root in
  if n_chunks < 0 || n_chunks > max_chunks then
    fail "n_chunks %d outside [0, %d]" n_chunks max_chunks;
  let done_chunks = Array.make n_chunks false in
  let indices = int_list_of "\"done\"" (get "checkpoint" "done" root) in
  if not (sorted Int.compare indices) then fail "done indices not strictly ascending";
  List.iter
    (fun i ->
      if i < 0 || i >= n_chunks then fail "done index %d outside [0, %d)" i n_chunks;
      done_chunks.(i) <- true)
    indices;
  let payload = get "checkpoint" "payload" root in
  ignore (obj_of "\"payload\"" payload);
  ({ kind; fingerprint; chunk; n_chunks; done_chunks }, payload)

let of_string ?schema contents =
  Result.bind (Json.parse_document contents) (fun root ->
      Json.decoding (fun () -> of_json ?schema root))

let read ?schema path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> of_string ?schema contents

(* A metrics snapshot as one checkpoint-payload object, appended to a
   caller's buffer. *)
let add_metrics buf (s : Metrics.snapshot) =
  Json.render_to buf (Json.Obj (Metrics.json_members s))
