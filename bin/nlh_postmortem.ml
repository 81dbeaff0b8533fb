(* Postmortem reader: human-oriented rendering of the triage artifacts.

   Given an nlh-triage/1 document, prints the failure-signature table --
   count, failing seeds, and the exemplar's one-line repro -- sorted by
   descending count so the dominant failure mode tops the list. Given an
   nlh-postmortem/1 bundle, pretty-prints the whole forensic record:
   causal timeline, first corrupted-structure touch, recovery phases,
   flight-ring tails and the resource-ledger diff. Accepts several files
   and dispatches per file on the "schema" member.

   Files are decoded by Obs.Postmortem, which owns both schemas, and
   only decoded values are rendered. A missing, torn, malformed or
   inconsistent file (one that nlh_trace_check would reject) ends the
   tool with one "nlh_postmortem: ..." line and exit code 2. *)

let die fmt = Format.kasprintf (Obs_cli.usage_error "nlh_postmortem") fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- Bundle rendering ------------------------------------------------ *)

let print_bundle (b : Obs.Postmortem.t) =
  let open Obs.Postmortem in
  Printf.printf "  signature: %s\n" (Obs.Signature.key b.pm_signature);
  Printf.printf "  outcome:   %s\n" b.pm_outcome;
  Printf.printf "  seed:      %Ld\n" b.pm_seed;
  Printf.printf "  repro:     %s\n" b.pm_repro;
  Printf.printf "  config:   ";
  List.iter (fun (k, v) -> Printf.printf " %s=%s" k v) b.pm_config;
  print_newline ();
  if b.pm_timeline <> [] then begin
    Printf.printf "  timeline (%d events):\n" (List.length b.pm_timeline);
    List.iter
      (fun r ->
        Printf.printf "    %10d ns  %-9s %s\n" r.tl_ns (label_of r.tl_event)
          (Obs.Event.name r.tl_event))
      b.pm_timeline
  end;
  Option.iter
    (fun (name, ns) ->
      Printf.printf "  first touch after injection: %s at %d ns\n" name ns)
    b.pm_first_touch;
  let section title rows =
    if rows <> [] then begin
      Printf.printf "  %s:\n" title;
      List.iter (fun (n, ns) -> Printf.printf "    %-28s %10d ns\n" n ns) rows
    end
  in
  section "recovery phases" b.pm_phases;
  section "hypercall tail" b.pm_hypercalls;
  section "journal tail" b.pm_journal_tail;
  if b.pm_ledger_diff <> [] then begin
    Printf.printf "  ledger diff vs boot:\n";
    List.iter (fun (k, v) -> Printf.printf "    %-28s %+d\n" k v) b.pm_ledger_diff
  end

(* --- Triage rendering ------------------------------------------------ *)

let print_triage path tr =
  let open Obs.Postmortem.Triage in
  let entries = snapshot tr in
  Printf.printf "%s: %d failure(s) across %d signature(s)\n" path (total tr)
    (List.length entries);
  (* Descending count; the snapshot is key-sorted, so a stable sort keeps
     the key as the deterministic tie-break. *)
  let by_count =
    List.stable_sort (fun (_, a) (_, b) -> compare b.e_count a.e_count) entries
  in
  List.iter
    (fun (key, e) ->
      Printf.printf "\n%4dx %s\n" e.e_count key;
      Printf.printf "      seeds:%s\n"
        (String.concat "" (List.map (Printf.sprintf " %Ld") e.e_seeds));
      Option.iter
        (fun (_, b) -> Printf.printf "      repro: %s\n" b.Obs.Postmortem.pm_repro)
        e.e_exemplar)
    by_count

let () =
  if Array.length Sys.argv < 2 then
    die "expects one or more TRIAGE.json or BUNDLE.json files";
  for i = 1 to Array.length Sys.argv - 1 do
    let path = Sys.argv.(i) in
    let contents = try read_file path with Sys_error e -> die "%s" e in
    let root =
      match Obs.Json.parse_document contents with
      | Ok v -> v
      | Error msg -> die "%s: %s" path msg
    in
    let decoded = function Ok v -> v | Error msg -> die "%s: %s" path msg in
    match Obs.Json.schema_of root with
    | Some "nlh-triage/1" ->
      print_triage path (decoded (Obs.Postmortem.Triage.of_json root))
    | Some "nlh-postmortem/1" ->
      let b = decoded (Obs.Postmortem.of_json root) in
      Printf.printf "%s:\n" path;
      print_bundle b
    | Some s -> die "%s: unsupported schema %S" path s
    | None -> die "%s: missing schema member" path
  done
