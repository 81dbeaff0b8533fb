(** Metrics registry: named counters, gauges and fixed-bucket histograms.

    Instruments are registered by name; registering the same name twice
    returns the same instrument (with a kind check), so independent call
    sites can share a counter. A registry is snapshotted into an
    immutable, canonically ordered value; snapshots merge with a
    commutative and associative operation (counters and histogram buckets
    sum, gauges take the max), which is what lets parallel campaigns
    aggregate per-run metrics bit-identically for any worker count --
    the same contract {!Inject.Pool} relies on for the plain totals.
    {!accumulate} is the same merge done in place, registry into
    registry, so a worker can fold each run without building a snapshot
    and take one snapshot per chunk of runs. *)

type counter = { mutable count : int }

type gauge = { mutable value : int }

type histogram = {
  bounds : int array; (* inclusive upper bounds, strictly increasing *)
  counts : int array; (* length = Array.length bounds + 1 (overflow) *)
  mutable sum : int;
  mutable samples : int;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

(* [entries] lists what [table] holds, newest registration first: the
   walk [reset], [restore] and [accumulate] take, which (unlike
   [Hashtbl.iter]) builds no closure. *)
type t = {
  table : (string, instrument) Hashtbl.t;
  mutable entries : (string * instrument) list;
}

let create () = { table = Hashtbl.create 32; entries = [] }

let add t name i =
  Hashtbl.add t.table name i;
  t.entries <- (name, i) :: t.entries

(* Drop every instrument: the registry is as [create] left it, and
   handles taken before stay valid but are no longer part of it. *)
let clear t =
  Hashtbl.clear t.table;
  t.entries <- []

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let counter t name =
  match Hashtbl.find_opt t.table name with
  | Some (Counter c) -> c
  | Some other ->
    invalid_arg
      (Printf.sprintf "Metrics.counter: %S already registered as a %s" name
         (kind_name other))
  | None ->
    let c = { count = 0 } in
    add t name (Counter c);
    c

let gauge t name =
  match Hashtbl.find_opt t.table name with
  | Some (Gauge g) -> g
  | Some other ->
    invalid_arg
      (Printf.sprintf "Metrics.gauge: %S already registered as a %s" name
         (kind_name other))
  | None ->
    let g = { value = 0 } in
    add t name (Gauge g);
    g

let histogram t name ~bounds =
  if Array.length bounds = 0 then
    invalid_arg "Metrics.histogram: empty bucket bounds";
  Array.iteri
    (fun i b ->
      if i > 0 && bounds.(i - 1) >= b then
        invalid_arg "Metrics.histogram: bounds must be strictly increasing")
    bounds;
  match Hashtbl.find_opt t.table name with
  | Some (Histogram h) ->
    if h.bounds <> bounds then
      invalid_arg
        (Printf.sprintf "Metrics.histogram: %S re-registered with different bounds" name);
    h
  | Some other ->
    invalid_arg
      (Printf.sprintf "Metrics.histogram: %S already registered as a %s" name
         (kind_name other))
  | None ->
    let h =
      {
        bounds = Array.copy bounds;
        counts = Array.make (Array.length bounds + 1) 0;
        sum = 0;
        samples = 0;
      }
    in
    add t name (Histogram h);
    h

(* ------------------------------------------------------------------ *)
(* Log-bucket (HDR-style) histograms                                   *)
(* ------------------------------------------------------------------ *)

(* Geometric growth step shared by the bound generator and the quantile
   error bound: the next bound is ~25% above the previous one, so any
   estimate read off a bucket's upper bound is within 25% (one bucket's
   relative width) of the true value. Integer arithmetic only -- no libm,
   so bounds are bit-identical on every platform. *)
let log_step b = b + max 1 (b / 4)

(* Relative width of the widest bucket: [quantile] answers are upper
   bounds of the bucket holding the requested rank, so the estimate
   overshoots the true value by at most this fraction. *)
let log_relative_error = 0.25

(* Geometric bucket bounds from [lo] to at least [hi] (both clamped to
   >= 1): each bound is [log_step] of the previous. ~72 buckets cover
   1us..10s in nanoseconds. *)
let log_bounds ~lo ~hi =
  let lo = max 1 lo and hi = max 1 hi in
  let rec build acc b = if b >= hi then List.rev (b :: acc) else build (b :: acc) (log_step b) in
  Array.of_list (build [] lo)

(* A fixed-relative-error histogram: same instrument type as [histogram],
   just with generated geometric bounds, so snapshot / restore / merge
   all apply unchanged. *)
let log_histogram t name ~lo ~hi = histogram t name ~bounds:(log_bounds ~lo ~hi)

let incr ?(by = 1) c = c.count <- c.count + by
let set g v = g.value <- v

(* A value lands in the first bucket whose (inclusive) upper bound is
   >= v; values above every bound land in the trailing overflow bucket.
   Binary search: log-bucket histograms have ~70+ buckets, so the old
   linear scan would dominate the hot injection loop. *)
let bucket h v =
  let n = Array.length h.bounds in
  if n = 0 || v > h.bounds.(n - 1) then n
  else begin
    (* Invariant: bounds.(hi) >= v, and bounds.(lo-1) < v (lo = 0 ok). *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if h.bounds.(mid) >= v then hi := mid else lo := mid + 1
    done;
    !lo
  end

let add_at h b v n =
  h.counts.(b) <- h.counts.(b) + n;
  h.sum <- h.sum + (v * n);
  h.samples <- h.samples + n

let observe h v = add_at h (bucket h v) v 1

(* [n] observations of [v] at once: the same buckets, sum and sample
   count as [n] calls to [observe h v] ([n = 0] changes nothing). *)
let observe_n h v n = add_at h (bucket h v) v n

(* [observe h v] for a caller whose values drift slowly, such as a
   stalled tenant's falling request latencies: the bucket search walks
   from bucket [near] (the previous observation's, which this returns)
   instead of bisecting. Any [near] gives [observe]'s bucket. *)
let observe_near h ~near v =
  let n = Array.length h.bounds in
  let b = ref (if near < 0 then 0 else if near > n then n else near) in
  while !b < n && v > h.bounds.(!b) do b := !b + 1 done;
  while !b > 0 && h.bounds.(!b - 1) >= v do b := !b - 1 done;
  add_at h !b v 1;
  !b

(* Zero every registered instrument in place. Cached instrument handles
   stay valid and the registry keeps its structure, so a reset registry
   snapshots identically to a fresh one with the same registrations. *)
let rec zero_entries = function
  | [] -> ()
  | (_, instr) :: rest ->
    (match instr with
    | Counter c -> c.count <- 0
    | Gauge g -> g.value <- 0
    | Histogram h ->
      Array.fill h.counts 0 (Array.length h.counts) 0;
      h.sum <- 0;
      h.samples <- 0);
    zero_entries rest

let reset t = zero_entries t.entries

(* ------------------------------------------------------------------ *)
(* In-place merge                                                      *)
(* ------------------------------------------------------------------ *)

(* [src]'s instrument [s] folded into [into]'s [d] of the same name:
   {!merge_snapshots}'s rule, in place. *)
let accumulate_one name d s =
  match (d, s) with
  | Counter d, Counter s -> d.count <- d.count + s.count
  | Gauge d, Gauge s -> if s.value > d.value then d.value <- s.value
  | Histogram d, Histogram s ->
    if d.bounds != s.bounds && d.bounds <> s.bounds then
      invalid_arg
        (Printf.sprintf "Metrics.accumulate: histogram %S has mismatched bounds" name);
    let dc = d.counts and sc = s.counts in
    for b = 0 to Array.length dc - 1 do
      dc.(b) <- dc.(b) + sc.(b)
    done;
    d.sum <- d.sum + s.sum;
    d.samples <- d.samples + s.samples
  | _ ->
    invalid_arg
      (Printf.sprintf "Metrics.accumulate: %S is a %s, the source has a %s" name
         (kind_name d) (kind_name s))

(* A new instrument holding [s]'s values. A histogram shares [s]'s
   bounds: no registry ever writes them. *)
let copy_instrument = function
  | Counter s -> Counter { count = s.count }
  | Gauge s -> Gauge { value = s.value }
  | Histogram s ->
    Histogram
      { bounds = s.bounds; counts = Array.copy s.counts; sum = s.sum; samples = s.samples }

let rec accumulate_entries into = function
  | [] -> ()
  | (name, s) :: rest ->
    (match Hashtbl.find into.table name with
    | d -> accumulate_one name d s
    | exception Not_found -> add into name (copy_instrument s));
    accumulate_entries into rest

(* Fold [src] into [into] in place: afterwards [snapshot into] equals
   [merge_snapshots] of the two registries' snapshots before the call.
   A name [into] lacks is registered with [src]'s values (so a gauge
   seen once keeps its value, zero or negative); a shared name's
   counter and histogram buckets add and its gauge takes the max. A
   kind or bounds mismatch raises [Invalid_argument], as registration
   does, and may leave [into] partly folded. Once [into] holds every
   name of [src], a call allocates nothing. *)
let accumulate ~into src = accumulate_entries into src.entries

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type hist_snapshot = {
  h_bounds : int list;
  h_counts : int list; (* length = length h_bounds + 1 *)
  h_sum : int;
  h_samples : int;
}

(* Quantile estimation over a histogram snapshot: the answer is the
   (inclusive) upper bound of the first bucket whose cumulative count
   reaches rank ceil(q * samples). For geometric [log_bounds] buckets
   this overshoots the exact order statistic by at most
   [log_relative_error]; for the trailing unbounded overflow bucket the
   estimate is clamped to one growth step past the top bound. *)
let quantile hs q =
  if hs.h_samples <= 0 || q < 0.0 || q > 1.0 then None
  else begin
    let rank = max 1 (min hs.h_samples (int_of_float (ceil (q *. float_of_int hs.h_samples)))) in
    let rec walk cum bounds counts =
      match (bounds, counts) with
      | [], [ overflow ] ->
        ignore overflow;
        (* rank falls in the overflow bucket: no upper bound, so answer
           one geometric step past the last finite bound (or the mean for
           a histogram with no bounds at all). *)
        None
      | b :: rb, c :: rc ->
        let cum = cum + c in
        if cum >= rank then Some b else walk cum rb rc
      | _ -> None
    in
    match walk 0 hs.h_bounds hs.h_counts with
    | Some b -> Some b
    | None ->
      (match List.rev hs.h_bounds with
      | top :: _ -> Some (log_step top)
      | [] -> Some (hs.h_sum / hs.h_samples))
  end

let p50 hs = quantile hs 0.50
let p99 hs = quantile hs 0.99
let p999 hs = quantile hs 0.999

(* Canonical (name-sorted) immutable view. Two registries produce equal
   snapshots iff every instrument agrees, regardless of registration or
   accumulation order -- the determinism tests compare these directly. *)
type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hist_snapshot) list;
}

let empty_snapshot = { counters = []; gauges = []; histograms = [] }

let snapshot t =
  let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  Hashtbl.iter
    (fun name instr ->
      match instr with
      | Counter c -> counters := (name, c.count) :: !counters
      | Gauge g -> gauges := (name, g.value) :: !gauges
      | Histogram h ->
        histograms :=
          ( name,
            {
              h_bounds = Array.to_list h.bounds;
              h_counts = Array.to_list h.counts;
              h_sum = h.sum;
              h_samples = h.samples;
            } )
          :: !histograms)
    t.table;
  {
    counters = by_name !counters;
    gauges = by_name !gauges;
    histograms = by_name !histograms;
  }

(* The restore walks are toplevel recursive functions, so a restore
   allocates nothing (a local [let rec] would build a closure per call). *)
let restore_find t kind name =
  match Hashtbl.find t.table name with
  | i -> i
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Metrics.restore: %s %S not registered" kind name)

let restore_mismatch name other kind =
  invalid_arg
    (Printf.sprintf "Metrics.restore: %S is a %s, snapshot has a %s" name
       (kind_name other) kind)

(* Whether [a.(i..)] is exactly [l]. *)
let rec bounds_match a i = function
  | [] -> i = Array.length a
  | b :: rest -> i < Array.length a && a.(i) = b && bounds_match a (i + 1) rest

let rec write_counts a i = function
  | [] -> ()
  | v :: rest ->
    a.(i) <- v;
    write_counts a (i + 1) rest

let rec restore_counters t = function
  | [] -> ()
  | (name, v) :: rest ->
    (match restore_find t "counter" name with
    | Counter c -> c.count <- v
    | other -> restore_mismatch name other "counter");
    restore_counters t rest

let rec restore_gauges t = function
  | [] -> ()
  | (name, v) :: rest ->
    (match restore_find t "gauge" name with
    | Gauge g -> g.value <- v
    | other -> restore_mismatch name other "gauge");
    restore_gauges t rest

let rec restore_histograms t = function
  | [] -> ()
  | (name, hs) :: rest ->
    (match restore_find t "histogram" name with
    | Histogram h ->
      if not (bounds_match h.bounds 0 hs.h_bounds) then
        invalid_arg
          (Printf.sprintf "Metrics.restore: histogram %S bounds mismatch" name);
      write_counts h.counts 0 hs.h_counts;
      h.sum <- hs.h_sum;
      h.samples <- hs.h_samples
    | other -> restore_mismatch name other "histogram");
    restore_histograms t rest

(* Write a snapshot's values back into a live registry: the restore half
   of the snapshot/restore pair used by clone fan-out (a fresh variant
   must start from exactly the trigger-point metric values, or the
   per-run metric deltas it contributes would differ from a fresh run's).
   Instruments are zeroed first, so snapshot names absent from the
   registry are an error and registry names absent from the snapshot end
   up at zero -- matching a registry that was reset and replayed.
   Allocates nothing. *)
let restore t s =
  reset t;
  restore_counters t s.counters;
  restore_gauges t s.gauges;
  restore_histograms t s.histograms

(* Merge two name-sorted assoc lists, combining values of shared keys. *)
let rec merge_assoc combine a b =
  match (a, b) with
  | [], l | l, [] -> l
  | (ka, va) :: ra, (kb, vb) :: rb ->
    let c = String.compare ka kb in
    if c < 0 then (ka, va) :: merge_assoc combine ra b
    else if c > 0 then (kb, vb) :: merge_assoc combine a rb
    else (ka, combine ka va vb) :: merge_assoc combine ra rb

let merge_hist name a b =
  if a.h_bounds <> b.h_bounds then
    invalid_arg
      (Printf.sprintf "Metrics.merge: histogram %S has mismatched bounds" name);
  {
    h_bounds = a.h_bounds;
    h_counts = List.map2 ( + ) a.h_counts b.h_counts;
    h_sum = a.h_sum + b.h_sum;
    h_samples = a.h_samples + b.h_samples;
  }

(* Commutative, associative: counters and histogram buckets sum; gauges
   (point-in-time values) take the max, the only order-free choice that
   keeps "largest observed" semantics across runs. *)
let merge_snapshots a b =
  {
    counters = merge_assoc (fun _ x y -> x + y) a.counters b.counters;
    gauges = merge_assoc (fun _ x y -> max x y) a.gauges b.gauges;
    histograms = merge_assoc merge_hist a.histograms b.histograms;
  }

let pp_snapshot fmt s =
  List.iter (fun (k, v) -> Format.fprintf fmt "%s %d@." k v) s.counters;
  List.iter (fun (k, v) -> Format.fprintf fmt "%s %d (gauge)@." k v) s.gauges;
  List.iter
    (fun (k, h) ->
      Format.fprintf fmt "%s samples=%d sum=%d buckets=[%s]@." k h.h_samples
        h.h_sum
        (String.concat "; " (List.map string_of_int h.h_counts)))
    s.histograms

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

(* The counters/gauges/histograms members a checkpoint payload and an
   nlh-obs/1 document share. [quantiles] adds each non-empty
   histogram's bucket-resolution p50/p99/p999 estimates; a checkpoint
   stores raw aggregates only, so its round trip is exact. *)
let json_members ?(quantiles = false) s =
  let open Json in
  let hist h =
    let q =
      match (p50 h, p99 h, p999 h) with
      | Some a, Some b, Some c when quantiles -> [ ("p50", a); ("p99", b); ("p999", c) ]
      | _ -> []
    in
    Obj
      (("bounds", ints h.h_bounds) :: ("counts", ints h.h_counts)
      :: int_members ((("sum", h.h_sum) :: ("samples", h.h_samples) :: q)))
  in
  [
    ("counters", int_assoc s.counters);
    ("gauges", int_assoc s.gauges);
    ("histograms", Obj (List.map (fun (name, h) -> (name, hist h)) s.histograms));
  ]

(* Decode the members [json_members] writes (quantile fields are ignored).
   Raises {!Json.Bad}. *)
let of_json_exn v =
  let open Json in
  let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  let counters = int_assoc_of "counters" (get "metrics" "counters" v) in
  let gauges = int_assoc_of "gauges" (get "metrics" "gauges" v) in
  let histograms =
    List.map
      (fun (name, h) ->
        let what = Printf.sprintf "histograms[%S]" name in
        let bounds = int_list_of (what ^ ".bounds") (get what "bounds" h) in
        if not (sorted Int.compare bounds) then
          fail "%s: bounds not strictly increasing" what;
        let counts = int_list_of (what ^ ".counts") (get what "counts" h) in
        if List.length counts <> List.length bounds + 1 then
          fail "%s: counts length is not bounds+1" what;
        if List.exists (fun c -> c < 0) counts then
          fail "%s: negative bucket count" what;
        let samples = int_exn what "samples" h in
        if List.fold_left ( + ) 0 counts <> samples then
          fail "%s: counts do not sum to samples" what;
        ( name,
          {
            h_bounds = bounds;
            h_counts = counts;
            h_sum = int_exn what "sum" h;
            h_samples = samples;
          } ))
      (obj_of "histograms" (get "metrics" "histograms" v))
  in
  {
    counters = by_name counters;
    gauges = by_name gauges;
    histograms = by_name histograms;
  }
