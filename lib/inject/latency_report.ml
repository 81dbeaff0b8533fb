(** The recovery-latency report (schema nlh-latency/2): one machine
    geometry's analytic NiLiHype and ReHype latencies (Tables II-III)
    and, when a failstop campaign cross-checked them, its checkpoint
    payload under "empirical"; a last "host" object holds what the host
    measured. Readers derive the ratio, runs/s, words per run and the
    mean recovery latency from these. *)

let schema = "nlh-latency/2"

type t = {
  nilihype_ns : int;
  rehype_ns : int;
  empirical : (int * Campaign.totals) option; (* fanout, totals *)
}

(* [empirical] is the campaign's fanout and result. *)
let to_json ~meta ~nilihype_ns ~rehype_ns ~(empirical : (int * Campaign.result) option) =
  let open Obs.Json in
  let campaign, host =
    match empirical with
    | None -> ([], [])
    | Some (fanout, r) ->
      ( [ ("empirical", Campaign.payload_json ~fanout r.Campaign.totals) ],
        [
          ("seconds", Number r.Campaign.wall_seconds);
          ("minor_words", Number r.Campaign.minor_words); ("jobs", int r.Campaign.jobs);
        ] )
  in
  Obs.Export.document ~schema ~meta
    ([ ("nilihype_latency_ns", int nilihype_ns); ("rehype_latency_ns", int rehype_ns) ]
    @ campaign
    @ [ Obs.Export.host host ])

(* The empirical section, if any, is read by {!Campaign.totals_of_payload}. *)
let of_json root =
  let open Obs.Json in
  let analytic =
    decoding (fun () ->
        Obs.Export.check_envelope ~schema root;
        Obs.Export.check_host root;
        let nilihype_ns = int_exn "document" "nilihype_latency_ns" root in
        let rehype_ns = int_exn "document" "rehype_latency_ns" root in
        if nilihype_ns <= 0 then fail "nilihype_latency_ns %d is not positive" nilihype_ns;
        if rehype_ns <= nilihype_ns then
          fail "rehype_latency_ns %d is not above nilihype_latency_ns %d" rehype_ns nilihype_ns;
        { nilihype_ns; rehype_ns; empirical = None })
  in
  match (analytic, member "empirical" root) with
  | Ok rp, Some payload ->
    Result.map (fun e -> { rp with empirical = Some e }) (Campaign.totals_of_payload payload)
  | result, _ -> result

let of_string s = Result.bind (Obs.Json.parse_document s) of_json
