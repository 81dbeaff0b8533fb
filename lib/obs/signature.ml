(** Failure signatures: the triage key for bad injection outcomes.

    A signature is the 4-tuple (fault kind x target structure x death
    cause x recovery branch) -- the same axes ReHype's evaluation uses to
    classify per-failure forensics. Campaigns dedupe postmortem bundles
    by signature: thousands of failing runs typically collapse into a
    handful of signatures, and one bounded exemplar bundle per signature
    is enough for hand-triage.

    The canonical rendering is [key]: the four fields joined with ['|'],
    e.g. ["failstop|failstop|recovery_aborted|NiLiHype/aborted"]. Keys
    are the sort key for triage tables, so every field must be a stable,
    low-cardinality label (no free-form messages, no seeds). *)

type t = {
  fault : string; (* injected fault kind: "failstop" / "register" / "code" *)
  target : string; (* first corrupted structure, or "failstop" *)
  cause : string; (* canonical death cause, e.g. "recovery_aborted" *)
  branch : string; (* recovery branch taken, e.g. "NiLiHype/aborted" *)
}

let sep = '|'

(* Field sanitation: keys must round-trip through [of_key], so the
   separator (and whitespace, for one-line greppability) is rewritten
   when a signature is made. *)
let dirty c = c = sep || c = ' ' || c = '\n'

let clean s =
  if s = "" then "unknown"
  else if String.exists dirty s then String.map (fun c -> if dirty c then '_' else c) s
  else s

let make ~fault ~target ~cause ~branch =
  let fault = clean fault and target = clean target in
  { fault; target; cause = clean cause; branch = clean branch }

let key t = String.concat (String.make 1 sep) [ t.fault; t.target; t.cause; t.branch ]

(* The inverse of [key]: [None] unless [s] is exactly four clean,
   non-empty fields. *)
let of_key s =
  match String.split_on_char sep s with
  | [ fault; target; cause; branch ] as fields
    when List.for_all (fun f -> f <> "" && not (String.exists dirty f)) fields ->
    Some { fault; target; cause; branch }
  | _ -> None

let compare a b = String.compare (key a) (key b)
let pp fmt t = Format.pp_print_string fmt (key t)
