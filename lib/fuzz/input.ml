(** The fuzzer's input space and its mutation encoding.

    A fault-space *point* pins every axis a run's outcome depends on:
    the warmup seed, the fault kind, the corruption target, the payload
    bits steering the corruption's internal choices, the crash mode and
    the trigger offset within the window. A corpus entry is not a point
    but a [(base seed, mutation trace)] pair: the trace is a list of
    small integer op codes folded over the base point, so replaying the
    trace on the same base seed reconstructs the identical point -- and,
    because a directed run is a pure function of its point (see
    {!Inject.Fault.directive}), the identical run.

    Op codes are capped at 48 bits, the range nlh-fuzz/1 files hold
    and {!Corpus} checks on load. The decode is total -- every 48-bit
    integer is a valid op -- which keeps mutation trivial: append random
    integers. *)

type point = {
  p_seed : int64; (* warmup seed; drawn from a small pool near the base *)
  p_kind : Inject.Fault.t;
  p_target : int; (* index into {!Inject.Corrupt.all}; -1 = crash only *)
  p_payload : int64; (* seeds the corruption's private rng stream *)
  p_crash : int; (* 0 = none, 1 = panic, 2 = hang *)
  p_window : int; (* trigger offset, folded mod the window by arm_fault *)
  p_incremental : bool; (* dirty-set consistency scan on recovery *)
}

(* Window ops wrap here, so the stored offset is already canonical. *)
let window = Inject.Fault.trigger_window_steps

(* Warmup seeds come from a bounded pool so mutants of different traces
   still land on a handful of distinct seeds -- which is what lets the
   scheduler group candidates by seed and clone one warmup across a
   whole group. *)
let seed_pool = 64

let n_kinds = List.length Inject.Fault.all

let base_point ~base_seed =
  {
    p_seed = base_seed;
    p_kind = Inject.Fault.Failstop;
    p_target = -1;
    p_payload = 0L;
    p_crash = 1;
    p_window = 0;
    p_incremental = false;
  }

let op_bits = 48
let op_space = 1 lsl op_bits

(* One op: tag in the low 3 bits, argument in the rest. *)
let apply_op ~base_seed p code =
  let tag = code land 7 in
  let arg = code lsr 3 in
  match tag with
  | 0 -> { p with p_seed = Int64.add base_seed (Int64.of_int (arg mod seed_pool)) }
  | 1 -> { p with p_kind = List.nth Inject.Fault.all (arg mod n_kinds) }
  | 2 -> { p with p_target = (arg mod (Inject.Corrupt.n_targets + 1)) - 1 }
  | 3 -> { p with p_payload = Int64.logxor p.p_payload (Int64.of_int arg) }
  (* Tag 4 packs two axes: the crash mode in the low arg bits and the
     recovery path (incremental vs full consistency scan) in bit 2, so
     the fuzzer explores both scan paths without widening the 3-bit tag
     space (which would re-encode every stored trace). *)
  | 4 ->
    {
      p with
      p_crash = arg mod 3;
      p_incremental = (arg lsr 2) land 1 = 1;
    }
  | 5 -> { p with p_window = arg mod window }
  | 6 -> { p with p_window = (p.p_window + 1 + (arg mod 31)) mod window }
  | _ -> { p with p_payload = Int64.add p.p_payload (Int64.of_int (1 + (arg mod 255))) }

let apply ~base_seed trace =
  List.fold_left (fun p c -> apply_op ~base_seed p c) (base_point ~base_seed) trace

(* Append 1-3 random ops: the whole mutation operator. Every op code is
   valid, so mutation never needs to understand the point it mutates. *)
let mutate rng trace =
  let extra = 1 + Sim.Rng.int rng 3 in
  let rec add acc n =
    if n = 0 then acc else add (acc @ [ Sim.Rng.int rng op_space ]) (n - 1)
  in
  add trace extra

let kind_index k =
  let rec go i = function
    | [] -> 0
    | x :: rest -> if x = k then i else go (i + 1) rest
  in
  go 0 Inject.Fault.all

(* Canonical rendering of a point, used for grouping and display. *)
let point_key p =
  Printf.sprintf "%Ld|%d|%d|%Ld|%d|%d|%c" p.p_seed (kind_index p.p_kind)
    p.p_target p.p_payload p.p_crash p.p_window
    (if p.p_incremental then 'i' else 'f')

let crash_of = function
  | 0 -> Inject.Fault.Crash_none
  | 1 -> Inject.Fault.Crash_panic
  | _ -> Inject.Fault.Crash_hang

let directive_of p =
  {
    Inject.Fault.d_target = p.p_target;
    d_payload = p.p_payload;
    d_crash = crash_of p.p_crash;
    d_window = p.p_window;
  }

(* The run configuration a point resolves to, over the session's base
   config. The directive fires post-warmup, so two points sharing a seed
   share a warmup -- the invariant clone fan-out scheduling rests on.
   The incremental axis only toggles which consistency-scan path the
   recovery takes; the machine geometry and warmup are unchanged, so it
   preserves that invariant. *)
let config_of ~(base : Inject.Run.config) p =
  {
    base with
    Inject.Run.seed = p.p_seed;
    fault = p.p_kind;
    directive = Some (directive_of p);
    hv_config =
      { base.Inject.Run.hv_config with Hyper.Config.incremental_scan = p.p_incremental };
  }

(* CLI encoding of a trace: decimal op codes joined by commas ("-" for
   the empty trace). This is the payload of every one-line repro. *)
let trace_string = function
  | [] -> "-"
  | trace -> String.concat "," (List.map string_of_int trace)

let trace_of_string s =
  if s = "-" || s = "" then Ok []
  else
    try
      Ok
        (List.map
           (fun tok ->
             let v = int_of_string (String.trim tok) in
             if v < 0 || v >= op_space then failwith "range";
             v)
           (String.split_on_char ',' s))
    with _ -> Error (Printf.sprintf "invalid trace %S (comma-separated op codes in [0, 2^%d))" s op_bits)
