(** The one chunked driver behind every campaign and endurance soak.

    A run folds work items [0, items) into an aggregate. The range is cut
    into fixed chunks; workers claim whole chunks ({!Pool.map_chunks}),
    fold each into a fresh per-chunk aggregate, seal it after its last
    item (where a worker moves state it folded in place, such as per-run
    metrics, into the chunk's aggregate: one snapshot per chunk, not per
    item), and the coordinator merges every finished chunk into the
    run's aggregate. With a checkpoint, the aggregate and the
    completed-chunk bitmap are written atomically to an nlh-checkpoint/1
    file every [ck_every] chunks and once at the end, and a resume
    starts from that file instead of from nothing. A fresh run is a resume from an empty checkpoint: the same
    fold runs either way.

    Because chunk boundaries depend only on (items, chunk) -- never on
    [jobs] -- and the aggregate merge is commutative and associative,
    the final aggregate (and the final checkpoint file) is identical for
    every [jobs] value, and a killed-then-resumed run reproduces an
    uninterrupted one byte for byte. *)

(* Checkpointing a run. [ck_stop_after] stops claiming new chunks after
   that many have been published: the test harness's simulated kill. *)
type checkpoint = {
  ck_path : string;
  ck_every : int; (* write the file every this many published chunks *)
  ck_resume : bool; (* load [ck_path] and skip completed chunks *)
  ck_stop_after : int option;
}

let n_chunks ~items ~chunk = if items <= 0 then 0 else (items + chunk - 1) / chunk

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Resume validation                                                   *)
(* ------------------------------------------------------------------ *)

(* The envelope checks every resume makes before it trusts a payload:
   the file was written by the same kind of run, for the same config
   and seed range. *)
let check_envelope ~kind ~fingerprint (h : Obs.Checkpoint.header) =
  if h.Obs.Checkpoint.kind <> kind then
    Error (Printf.sprintf "checkpoint kind %S is not %S" h.Obs.Checkpoint.kind kind)
  else if h.Obs.Checkpoint.fingerprint <> fingerprint then
    Error
      (Printf.sprintf "checkpoint fingerprint mismatch (file: %s; run: %s)"
         h.Obs.Checkpoint.fingerprint fingerprint)
  else Ok ()

(* The file's chunk count must follow from the run's item count and the
   file's chunk size: a checkpoint written for another range would map
   chunk indices to the wrong items. *)
let check_geometry ~items (h : Obs.Checkpoint.header) =
  let chunk = h.Obs.Checkpoint.chunk in
  let want = n_chunks ~items ~chunk in
  if h.Obs.Checkpoint.n_chunks = want then Ok ()
  else
    Error
      (Printf.sprintf "checkpoint has %d chunks but %d items in chunks of %d imply %d"
         h.Obs.Checkpoint.n_chunks items chunk want)

(* Read [path] for a resume: envelope checks, then the kind's payload
   decoder. The decoder is the same one [nlh_trace_check] validates
   with, so a file passes the checker exactly when it decodes here. *)
let load ?schema ~kind ~fingerprint ~decode path =
  let* h, payload = Obs.Checkpoint.read ?schema path in
  let* () = check_envelope ~kind ~fingerprint h in
  let* p = decode h payload in
  Ok (h, p)

let resume_error path msg =
  invalid_arg (Printf.sprintf "cannot resume from %s: %s" path msg)

(* ------------------------------------------------------------------ *)
(* The fold                                                            *)
(* ------------------------------------------------------------------ *)

(* What a run folds. [merged] is the aggregate chunks merge into: empty
   for a fresh run, the decoded payload on resume. [items] may depend on
   the payload too (a campaign's fan-out is pinned by its file). *)
type ('t, 'w) plan = {
  items : int;
  merged : 't;
  fresh : unit -> 't; (* an empty per-chunk aggregate *)
  merge_into : 't -> 't -> unit;
  encode : 't -> Obs.Json.t; (* the checkpoint payload of an aggregate *)
  init : int -> 'w;
      (* a worker's state for a pool slot, built in the worker's domain *)
  item : 'w -> 't -> int -> unit; (* fold item [i] into a chunk aggregate *)
  seal : 'w -> 't -> unit;
      (* after a chunk's last item, in the worker's domain: move what the
         worker folded in place into the chunk's aggregate and start the
         next chunk from nothing *)
}

type 't result = {
  totals : 't;
  jobs : int; (* worker domains the run actually used *)
  wall_seconds : float; (* host monotonic time for the whole run *)
  minor_words : float;
      (* host minor-heap words allocated across all workers, summed from
         each worker domain's own [Gc.minor_words]. Host-side accounting
         only: never part of [totals], which stay bit-identical across
         hosts and [jobs] values. *)
}

let now_ns () = Monotonic_clock.now ()

(* Run [plan] over [Pool.map_chunks]. [plan] receives the decoded
   payload when resuming ([None] for a fresh run). [chunk] (default
   {!Pool.default_chunk}) is ignored on resume: the file pins it. Raises
   [Invalid_argument] when a resume is refused. *)
let run ?checkpoint ?chunk ~jobs ~oversubscribe ~kind ~fingerprint ~decode
    ~plan () =
  let resumed =
    match checkpoint with
    | Some ck when ck.ck_resume -> (
      match load ~kind ~fingerprint ~decode ck.ck_path with
      | Ok (h, payload) -> Some (ck.ck_path, h, payload)
      | Error msg -> resume_error ck.ck_path msg)
    | _ -> None
  in
  let p = plan (Option.map (fun (_, _, payload) -> payload) resumed) in
  let chunk, done_chunks =
    match resumed with
    | Some (path, h, _) -> (
      match check_geometry ~items:p.items h with
      | Ok () -> (h.Obs.Checkpoint.chunk, h.Obs.Checkpoint.done_chunks)
      | Error msg -> resume_error path msg)
    | None ->
      let c =
        match chunk with
        | Some c -> max 1 c
        | None -> Pool.default_chunk ~n:p.items ~jobs:(max 1 jobs)
      in
      (c, Array.make (n_chunks ~items:p.items ~chunk:c) false)
  in
  let n_chunks = Array.length done_chunks in
  let write () =
    match checkpoint with
    | Some ck ->
      Obs.Checkpoint.write ~path:ck.ck_path
        { Obs.Checkpoint.kind; fingerprint; chunk; n_chunks; done_chunks }
        ~payload:(p.encode p.merged)
    | None -> ()
  in
  let every, stop_after =
    match checkpoint with
    | Some ck -> (ck.ck_every, ck.ck_stop_after)
    | None -> (0, None)
  in
  let t0 = now_ns () in
  let published = ref 0 in
  let minor_words = ref 0.0 in
  Pool.map_chunks ~jobs ~oversubscribe
    ~should_stop:(fun () ->
      match stop_after with Some m -> !published >= m | None -> false)
    ~n_chunks
    ~skip:(fun c -> done_chunks.(c))
    ~init:(fun slot ->
      (* [Gc.minor_words] is per-domain in OCaml 5: start the count here,
         in the worker's own domain. *)
      let minor_start = Gc.minor_words () in
      (p.init slot, minor_start))
    ~body:(fun (w, _) c ->
      let t = p.fresh () in
      for i = c * chunk to min p.items ((c + 1) * chunk) - 1 do
        p.item w t i
      done;
      p.seal w t;
      t)
    ~publish:(fun c t ->
      p.merge_into p.merged t;
      done_chunks.(c) <- true;
      incr published;
      if every > 0 && !published mod every = 0 then write ())
    ~finish:(fun (_, minor_start) ->
      minor_words := !minor_words +. (Gc.minor_words () -. minor_start))
    ();
  (* Always leave a final consistent file, even when [ck_every] did not
     divide the published count (or nothing ran at all). *)
  write ();
  {
    totals = p.merged;
    jobs = Pool.workers ~jobs ~oversubscribe n_chunks;
    wall_seconds = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9;
    minor_words = !minor_words;
  }
