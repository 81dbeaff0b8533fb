(* Shared CLI plumbing for the nlh_* tools:
   --trace FILE / --trace-level LEVEL / --metrics FILE, the
   checkpoint/resume flags shared by nlh_campaign and nlh_endurance, and
   the --mech flag shared by nlh_campaign, nlh_endurance and nlh_fuzz. *)

let trace_file = ref ""
let trace_level = ref "info"
let metrics_file = ref ""
let triage_file = ref ""
let postmortem_dir = ref ""
let checkpoint_file = ref ""
let checkpoint_every = ref 16
let resume = ref false
let stop_after_chunks = ref 0
let triage_seeds = ref 0

(* --mech: [Some m] recovers with mechanism [m]; [None] ("none", only
   offered when [~none] holds) does not recover. *)
let mech_spec ?(none = true) mech =
  ( "--mech",
    Arg.Symbol
      ( ([ "nilihype"; "rehype" ] @ if none then [ "none" ] else []),
        function
        | "nilihype" -> mech := Some Recovery.Engine.Nilihype
        | "rehype" -> mech := Some Recovery.Engine.Rehype
        | _ -> mech := None ),
    " recovery mechanism" )

(* The run configuration's [mech] and [hv_config] for a --mech choice: a
   mechanism recovers with its full enhancement set on the configuration
   it requires; no recovery runs the stock configuration. *)
let run_mech = function
  | Some m ->
    ( Inject.Run.Mech (m, Recovery.Enhancement.full_set),
      Recovery.Engine.config m )
  | None -> (Inject.Run.No_recovery, Hyper.Config.stock)

let mech_name = function
  | Some m -> Recovery.Engine.mechanism_name m
  | None -> "none"

(* Bad flags and unusable input files end a tool with one
   "tool: message" line on stderr and exit code 2: never an uncaught
   exception, never a report of an empty run. *)
let usage_error tool msg =
  prerr_endline (tool ^ ": " ^ msg);
  exit 2

let require_at_least tool flag bound value =
  if value < bound then
    usage_error tool
      (Printf.sprintf "%s must be at least %d (got %d)" flag bound value)

(* Run [f], reporting a refused configuration or resume (the
   [Invalid_argument] the drivers raise) as a usage error. *)
let or_usage_error tool f =
  try f () with Invalid_argument msg -> usage_error tool msg

(* Postmortem capture is on when either output is requested. *)
let postmortems_on () = !triage_file <> "" || !postmortem_dir <> ""

(* The checkpoint config assembled from the flags; [None] unless
   --checkpoint was given. *)
let checkpoint () : Inject.Drive.checkpoint option =
  if !checkpoint_file = "" then begin
    if !resume then invalid_arg "--resume requires --checkpoint FILE";
    None
  end
  else
    Some
      {
        Inject.Drive.ck_path = !checkpoint_file;
        ck_every = !checkpoint_every;
        ck_resume = !resume;
        ck_stop_after =
          (if !stop_after_chunks > 0 then Some !stop_after_chunks else None);
      }

let triage_seed_cap () =
  if !triage_seeds > 0 then Some !triage_seeds else None

let arg_specs =
  [
    ( "--trace",
      Arg.Set_string trace_file,
      "FILE write a Chrome-trace JSON timeline (Perfetto-loadable) of one \
       instrumented run" );
    ( "--trace-level",
      Arg.Symbol
        ( [ "debug"; "info"; "warn"; "error" ],
          fun s -> trace_level := s ),
      " minimum event level kept in the trace ring (default info)" );
    ( "--metrics",
      Arg.Set_string metrics_file,
      "FILE write metrics as JSON (nlh-obs/1 schema)" );
    ( "--triage-out",
      Arg.Set_string triage_file,
      "FILE write failure-signature triage as JSON (nlh-triage/1 schema)" );
    ( "--postmortem-dir",
      Arg.Set_string postmortem_dir,
      "DIR write one exemplar postmortem bundle per failure signature \
       (nlh-postmortem/1 schema)" );
    ( "--checkpoint",
      Arg.Set_string checkpoint_file,
      "FILE stream partial aggregates to FILE (nlh-checkpoint/1 schema, \
       atomic rewrite) so the campaign can be resumed after a kill" );
    ( "--checkpoint-every",
      Arg.Set_int checkpoint_every,
      "N rewrite the checkpoint every N completed chunks (default 16)" );
    ( "--resume",
      Arg.Set resume,
      " resume from --checkpoint FILE: skip completed chunks and merge \
       into the saved aggregate (chunk size and fanout are pinned by the \
       file; --jobs may differ freely)" );
    ( "--stop-after-chunks",
      Arg.Set_int stop_after_chunks,
      "N stop claiming work after N chunks have been published (testing \
       aid: simulates a mid-campaign kill with a consistent checkpoint)" );
    ( "--triage-seeds",
      Arg.Set_int triage_seeds,
      "K keep at most K smallest failing seeds per triage signature \
       (default 8)" );
  ]

let level () =
  match Obs.Event.level_of_string !trace_level with
  | Some l -> l
  | None -> Obs.Event.Info

(* The lines saying what a tool wrote. Writers note them here, and the
   tool prints them with [print_notes] after its summary: nlh_campaign
   and nlh_endurance write every file before they print anything, so a
   reader that closes stdout early (a [| head]) cannot stop a file from
   being written. *)
let notes_buf = Buffer.create 256
let notes = Format.formatter_of_buffer notes_buf
let note fmt = Format.fprintf notes fmt

let print_notes () =
  Format.pp_print_flush notes ();
  Format.printf "%s@?" (Buffer.contents notes_buf);
  Buffer.clear notes_buf

let make_recorder () =
  Obs.Recorder.create ~capacity:65536 ~min_level:(level ()) ()

(* Re-run one injection with a full recorder attached and export its
   Chrome-trace timeline. Notes the recovery-phase breakdown, whose
   entries equal the per-phase span sums by construction. *)
let traced_run path (cfg : Inject.Run.config) =
  let recorder = make_recorder () in
  let outcome = Inject.Run.run_obs ~recorder cfg in
  Obs.Export.write_chrome_trace path recorder;
  note "trace: wrote %s (%d events, %d spans; outcome: %s)@." path
    (Obs.Trace.size recorder.Obs.Recorder.trace)
    (Obs.Span.count recorder.Obs.Recorder.spans)
    (Inject.Run.outcome_name outcome);
  (match outcome with
  | Inject.Run.Detected { breakdown = Some b; _ } ->
    note "recovery phases of the traced run:@.%a" Hyper.Latency_model.pp b
  | Inject.Run.Detected _ | Inject.Run.Non_manifested
  | Inject.Run.Silent_corruption ->
    ());
  outcome

let write_metrics ?meta path snapshot =
  Obs.Export.write_metrics_json ?meta path snapshot;
  note "metrics: wrote %s@." path

(* Emit the triage artifacts requested on the command line: the
   nlh-triage/1 summary document and/or one exemplar bundle file per
   failure signature. A campaign with no bad outcomes still writes a
   valid (empty) triage document, so downstream tooling never has to
   special-case the happy path. *)
let write_triage ?meta (triage : Obs.Postmortem.Triage.table) =
  if !triage_file <> "" then begin
    Obs.Export.write_file !triage_file
      (Obs.Postmortem.Triage.to_json ?meta triage);
    note "triage: wrote %s (%d signature(s), %d failure(s))@."
      !triage_file
      (Obs.Postmortem.Triage.signatures triage)
      (Obs.Postmortem.Triage.total triage)
  end;
  if !postmortem_dir <> "" then begin
    let files = Obs.Postmortem.Triage.write_postmortems ~dir:!postmortem_dir triage in
    note "postmortems: wrote %d bundle(s) under %s@."
      (List.length files) !postmortem_dir
  end
