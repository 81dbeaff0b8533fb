(* Postmortem reader: human-oriented rendering of the triage artifacts.

   Given an nlh-triage/1 document, prints the failure-signature table --
   count, failing seeds, and the exemplar's one-line repro -- sorted by
   descending count so the dominant failure mode tops the list. Given an
   nlh-postmortem/1 bundle, pretty-prints the whole forensic record:
   causal timeline, first corrupted-structure touch, recovery phases,
   flight-ring tails and the resource-ledger diff. Accepts several files
   and dispatches per file on the "schema" member. A missing, torn or
   malformed file ends the tool with one "nlh_postmortem: ..." line and
   exit code 2. *)

let die fmt = Format.kasprintf (Obs_cli.usage_error "nlh_postmortem") fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let get path what key v =
  match Obs.Json.member key v with
  | Some x -> x
  | None -> die "%s: %s: missing %S" path what key

let str path what key v =
  match Obs.Json.to_string (get path what key v) with
  | Some s -> s
  | None -> die "%s: %s: %S is not a string" path what key

let int_of path what key v =
  match Obs.Json.to_number (get path what key v) with
  | Some f -> int_of_float f
  | None -> die "%s: %s: %S is not a number" path what key

let list_of path what key v =
  match Obs.Json.to_list (get path what key v) with
  | Some l -> l
  | None -> die "%s: %s: %S is not an array" path what key

let named_ns path what key v =
  List.map
    (fun e -> (str path what "name" e, int_of path what "ns" e))
    (list_of path what key v)

(* --- Bundle rendering ------------------------------------------------ *)

let print_bundle path what b =
  Printf.printf "  signature: %s\n" (str path what "signature" b);
  Printf.printf "  outcome:   %s\n" (str path what "outcome" b);
  Printf.printf "  seed:      %d\n" (int_of path what "seed" b);
  Printf.printf "  repro:     %s\n" (str path what "repro" b);
  (match get path what "config" b with
  | Obs.Json.Obj fields ->
    Printf.printf "  config:   ";
    List.iter
      (fun (k, v) ->
        match Obs.Json.to_string v with
        | Some s -> Printf.printf " %s=%s" k s
        | None -> ())
      fields;
    print_newline ()
  | _ -> ());
  let timeline = list_of path what "timeline" b in
  if timeline <> [] then begin
    Printf.printf "  timeline (%d events):\n" (List.length timeline);
    List.iter
      (fun e ->
        Printf.printf "    %10d ns  %-9s %s\n"
          (int_of path what "ns" e)
          (str path what "label" e)
          (str path what "event" e))
      timeline
  end;
  (match get path what "first_touch" b with
  | Obs.Json.Null -> ()
  | ft ->
    Printf.printf "  first touch after injection: %s at %d ns\n"
      (str path what "name" ft) (int_of path what "ns" ft));
  let section title rows =
    if rows <> [] then begin
      Printf.printf "  %s:\n" title;
      List.iter (fun (n, ns) -> Printf.printf "    %-28s %10d ns\n" n ns) rows
    end
  in
  section "recovery phases" (named_ns path what "recovery_phases" b);
  section "hypercall tail" (named_ns path what "hypercalls" b);
  section "journal tail" (named_ns path what "journal_tail" b);
  match get path what "ledger_diff" b with
  | Obs.Json.Obj fields when fields <> [] ->
    Printf.printf "  ledger diff vs boot:\n";
    List.iter
      (fun (k, v) ->
        match Obs.Json.to_number v with
        | Some f -> Printf.printf "    %-28s %+d\n" k (int_of_float f)
        | None -> ())
      fields
  | _ -> ()

(* --- Triage rendering ------------------------------------------------ *)

let print_triage path root =
  let sigs = list_of path "document" "signatures" root in
  Printf.printf "%s: %d failure(s) across %d signature(s)\n" path
    (int_of path "document" "total" root)
    (List.length sigs);
  let by_count =
    (* Descending count, key as the deterministic tie-break. *)
    List.stable_sort
      (fun a b ->
        let ca = int_of path "sig" "count" a
        and cb = int_of path "sig" "count" b in
        if ca <> cb then compare cb ca
        else
          String.compare (str path "sig" "signature" a)
            (str path "sig" "signature" b))
      sigs
  in
  List.iter
    (fun e ->
      let what = "signature " ^ str path "sig" "signature" e in
      Printf.printf "\n%4dx %s\n" (int_of path what "count" e)
        (str path what "signature" e);
      let seeds =
        List.filter_map Obs.Json.to_number (list_of path what "seeds" e)
      in
      Printf.printf "      seeds:%s\n"
        (String.concat ""
           (List.map (fun s -> Printf.sprintf " %d" (int_of_float s)) seeds));
      match get path what "exemplar" e with
      | Obs.Json.Null -> ()
      | b -> Printf.printf "      repro: %s\n" (str path what "repro" b))
    by_count

let () =
  if Array.length Sys.argv < 2 then
    die "expects one or more TRIAGE.json or BUNDLE.json files";
  for i = 1 to Array.length Sys.argv - 1 do
    let path = Sys.argv.(i) in
    let contents = try read_file path with Sys_error e -> die "%s" e in
    let root =
      match Obs.Json.parse contents with
      | Ok v -> v
      | Error msg -> die "%s: invalid JSON: %s" path msg
    in
    match Option.bind (Obs.Json.member "schema" root) Obs.Json.to_string with
    | Some "nlh-triage/1" -> print_triage path root
    | Some "nlh-postmortem/1" ->
      Printf.printf "%s:\n" path;
      print_bundle path "bundle" root
    | Some s -> die "%s: unsupported schema %S" path s
    | None -> die "%s: missing schema member" path
  done
