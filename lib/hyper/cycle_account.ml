(** Unhalted-cycle accounting for hypervisor code.

    Mirrors the paper's measurement methodology (Section VII-C): a
    hardware performance counter counts cycles spent executing hypervisor
    code; the hypervisor processing overhead of NiLiHype is the percent
    increase of that count relative to stock Xen for the same workload. *)

type t = {
  mutable total : int; (* all cycles spent in hypervisor code *)
  mutable logging : int; (* subset spent in retry-mitigation logging *)
  mutable entries : int; (* number of hypervisor entries *)
}

let create () = { total = 0; logging = 0; entries = 0 }

let charge t n = t.total <- t.total + n

let charge_logging t n =
  t.total <- t.total + n;
  t.logging <- t.logging + n

let note_entry t = t.entries <- t.entries + 1

let total t = t.total
let logging t = t.logging

(* Percent increase of [instrumented] over [baseline]. *)
let overhead_pct ~baseline ~instrumented =
  if baseline = 0 then 0.0
  else 100.0 *. float_of_int (instrumented - baseline) /. float_of_int baseline
