(* Tests for the observability layer: the typed event ring, metrics
   registry merge semantics, campaign metric determinism across worker
   counts, and the Chrome-trace exporter (valid JSON, monotone
   timestamps, span sums reproducing the latency breakdown). *)

open Contract

let ev ?(level = Obs.Event.Info) ?(cpu = 0) ?(domid = -1) ~time payload =
  { Obs.Event.time; level; cpu; domid; payload }

let msg ?level ~time s = ev ?level ~time (Obs.Event.Message s)

(* ------------------------- Event ring ------------------------------- *)

let test_ring_wraparound () =
  let tr = Obs.Trace.create ~capacity:4 ~min_level:Obs.Event.Debug () in
  for i = 1 to 6 do
    Obs.Trace.record tr (msg ~time:i (Printf.sprintf "e%d" i))
  done;
  checki "ring full" 4 (Obs.Trace.size tr);
  checki "two overwritten" 2 (Obs.Trace.dropped tr);
  let times = List.map (fun e -> e.Obs.Event.time) (Obs.Trace.to_list tr) in
  Alcotest.check (Alcotest.list Alcotest.int) "oldest-first, newest survive"
    [ 3; 4; 5; 6 ] times

let test_ring_level_filter_at_record () =
  let tr = Obs.Trace.create ~capacity:8 ~min_level:Obs.Event.Warn () in
  Obs.Trace.record tr (msg ~level:Obs.Event.Debug ~time:1 "d");
  Obs.Trace.record tr (msg ~level:Obs.Event.Info ~time:2 "i");
  checki "below threshold dropped at record" 0 (Obs.Trace.size tr);
  Obs.Trace.record tr (msg ~level:Obs.Event.Warn ~time:3 "w");
  Obs.Trace.record tr (msg ~level:Obs.Event.Error ~time:4 "e");
  checki "warn and error kept" 2 (Obs.Trace.size tr);
  (* Lowering the threshold afterwards admits finer events. *)
  Obs.Trace.set_min_level tr Obs.Event.Debug;
  Obs.Trace.record tr (msg ~level:Obs.Event.Debug ~time:5 "d2");
  checki "debug kept after set_min_level" 3 (Obs.Trace.size tr)

let test_ring_readback_filters () =
  let tr = Obs.Trace.create ~capacity:16 ~min_level:Obs.Event.Debug () in
  Obs.Trace.record tr
    (ev ~level:Obs.Event.Debug ~time:1
       (Obs.Event.Journal_append { kind = "use_count_delta"; depth = 1 }));
  Obs.Trace.record tr
    (ev ~level:Obs.Event.Error ~time:2
       (Obs.Event.Detection { kind = "panic"; message = "bad" }));
  Obs.Trace.record tr (msg ~level:Obs.Event.Info ~time:3 "hello");
  checki "all kept" 3 (Obs.Trace.size tr);
  checki "level narrows readback" 1
    (List.length (Obs.Trace.to_list ~min_level:Obs.Event.Error tr));
  checki "subsystem narrows readback" 1
    (List.length (Obs.Trace.to_list ~subsystem:Obs.Event.Journal tr))

let test_ring_clear () =
  let tr = Obs.Trace.create ~capacity:2 ~min_level:Obs.Event.Debug () in
  for i = 1 to 5 do
    Obs.Trace.record tr (msg ~time:i "x")
  done;
  Obs.Trace.clear tr;
  checki "empty after clear" 0 (Obs.Trace.size tr);
  checki "dropped reset" 0 (Obs.Trace.dropped tr);
  checkb "to_list empty" true (Obs.Trace.to_list tr = []);
  Obs.Trace.record tr (msg ~time:9 "y");
  checki "reusable after clear" 1 (Obs.Trace.size tr)

(* ------------------------- Metrics ---------------------------------- *)

let test_histogram_bucket_boundaries () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "lat" ~bounds:[| 10; 20 |] in
  List.iter (Obs.Metrics.observe h) [ 0; 10; 11; 20; 21; 1000 ];
  let s = Obs.Metrics.snapshot m in
  match s.Obs.Metrics.histograms with
  | [ ("lat", hs) ] ->
    (* Upper bounds are inclusive; values beyond the last bound land in
       the trailing overflow bucket. *)
    Alcotest.check (Alcotest.list Alcotest.int) "bucket counts" [ 2; 2; 2 ]
      hs.Obs.Metrics.h_counts;
    checki "samples" 6 hs.Obs.Metrics.h_samples;
    checki "sum" 1062 hs.Obs.Metrics.h_sum
  | _ -> Alcotest.fail "expected exactly one histogram"

let test_instrument_reuse () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr (Obs.Metrics.counter m "c");
  Obs.Metrics.incr ~by:4 (Obs.Metrics.counter m "c");
  let s = Obs.Metrics.snapshot m in
  checki "re-registration shares the instrument" 5
    (List.assoc "c" s.Obs.Metrics.counters);
  checkb "kind mismatch rejected" true (refuses (fun () -> Obs.Metrics.gauge m "c"))

let snap build =
  let m = Obs.Metrics.create () in
  build m;
  Obs.Metrics.snapshot m

let test_merge_commutative () =
  let a =
    snap (fun m ->
        Obs.Metrics.incr ~by:3 (Obs.Metrics.counter m "shared");
        Obs.Metrics.incr (Obs.Metrics.counter m "only_a");
        Obs.Metrics.set (Obs.Metrics.gauge m "g") 7;
        Obs.Metrics.observe (Obs.Metrics.histogram m "h" ~bounds:[| 5; 10 |]) 4)
  in
  let b =
    snap (fun m ->
        Obs.Metrics.incr ~by:2 (Obs.Metrics.counter m "shared");
        Obs.Metrics.incr (Obs.Metrics.counter m "only_b");
        Obs.Metrics.set (Obs.Metrics.gauge m "g") 5;
        Obs.Metrics.observe (Obs.Metrics.histogram m "h" ~bounds:[| 5; 10 |]) 12)
  in
  let ab = Obs.Metrics.merge_snapshots a b in
  let ba = Obs.Metrics.merge_snapshots b a in
  checkb "merge is commutative" true (ab = ba);
  checkb "empty is a unit" true
    (Obs.Metrics.merge_snapshots a Obs.Metrics.empty_snapshot = a
    && Obs.Metrics.merge_snapshots Obs.Metrics.empty_snapshot a = a);
  checki "shared counters sum" 5 (List.assoc "shared" ab.Obs.Metrics.counters);
  checki "disjoint counter kept" 1 (List.assoc "only_a" ab.Obs.Metrics.counters);
  checki "gauges take the max" 7 (List.assoc "g" ab.Obs.Metrics.gauges);
  let h = List.assoc "h" ab.Obs.Metrics.histograms in
  Alcotest.check (Alcotest.list Alcotest.int) "histogram buckets pointwise"
    [ 1; 0; 1 ] h.Obs.Metrics.h_counts;
  checki "histogram sum" 16 h.Obs.Metrics.h_sum

(* ------------------ Log-bucket histograms and quantiles ------------- *)

let test_log_bounds () =
  let lo = 1_000 and hi = 100_000_000_000 in
  let bounds = Obs.Metrics.log_bounds ~lo ~hi in
  checki "starts at lo" lo bounds.(0);
  checkb "covers hi" true (bounds.(Array.length bounds - 1) >= hi);
  Array.iteri
    (fun i b ->
      if i > 0 then begin
        checkb "strictly increasing" true (b > bounds.(i - 1));
        checki "each bound is one geometric step" (Obs.Metrics.log_step bounds.(i - 1)) b
      end)
    bounds;
  (* ~25% growth spans 8 decades in well under 120 buckets -- the point
     of geometric bounds vs linear ones. *)
  checkb "bucket count stays small" true (Array.length bounds < 120)

let test_log_observe_bucket_rule () =
  (* The binary-search [observe] must agree with the documented rule:
     first bucket whose inclusive upper bound is >= v, overflow past the
     last bound. *)
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.log_histogram m "ns" ~lo:10 ~hi:1_000 in
  let hs () = List.assoc "ns" (Obs.Metrics.snapshot m).Obs.Metrics.histograms in
  let bounds = (hs ()).Obs.Metrics.h_bounds in
  let values =
    [ 0; 1; 9; 10; 11; 12; 13; 499; 500; 999; 1_000; 1_500; 50_000 ]
    @ bounds (* every exact bound lands in its own bucket *)
  in
  List.iter (Obs.Metrics.observe h) values;
  let expect = Array.make (List.length bounds + 1) 0 in
  List.iter
    (fun v ->
      let rec idx i = function
        | [] -> i
        | b :: _ when v <= b -> i
        | _ :: r -> idx (i + 1) r
      in
      let i = idx 0 bounds in
      expect.(i) <- expect.(i) + 1)
    values;
  Alcotest.check (Alcotest.list Alcotest.int) "binary search matches the rule"
    (Array.to_list expect) (hs ()).Obs.Metrics.h_counts

(* [observe_n h v n] leaves the histogram [n] calls to [observe h v]
   leave, and [observe_near] from any starting bucket picks [observe]'s,
   over values below, inside and past the bounds (the overflow bucket)
   and counts from 0. *)
let prop_batched_observe =
  let gen =
    QCheck.(
      small_list
        (triple (int_range (-5) 1_500) (int_range 0 20) (int_range (-3) 40)))
  in
  QCheck.Test.make ~count:300 ~name:"observe_n and observe_near equal observe"
    gen (fun obs ->
      let fresh () =
        let m = Obs.Metrics.create () in
        (m, Obs.Metrics.log_histogram m "ns" ~lo:10 ~hi:1_000)
      in
      let ma, a = fresh () and mb, b = fresh () and mc, c = fresh () in
      List.iter
        (fun (v, n, near) ->
          Obs.Metrics.observe_n a v n;
          for _ = 1 to n do
            Obs.Metrics.observe b v;
            ignore (Obs.Metrics.observe_near c ~near v)
          done)
        obs;
      let sa = Obs.Metrics.snapshot ma in
      sa = Obs.Metrics.snapshot mb && sa = Obs.Metrics.snapshot mc)

let test_quantile_accuracy () =
  (* Estimated quantiles of a known skewed distribution stay within one
     bucket's relative error (25%) above the exact order statistic. *)
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.log_histogram m "lat" ~lo:100 ~hi:10_000_000 in
  let state = ref 12345 in
  let next () =
    (* Deterministic LCG; squaring skews the tail like a latency curve. *)
    state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
    let u = !state mod 10_000 in
    100 + (u * u / 30)
  in
  let values = List.init 5_000 (fun _ -> next ()) in
  List.iter (Obs.Metrics.observe h) values;
  let sorted = List.sort compare values in
  let hs = List.assoc "lat" (Obs.Metrics.snapshot m).Obs.Metrics.histograms in
  let check_q name q est =
    let n = List.length sorted in
    let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
    let exact = List.nth sorted (rank - 1) in
    let est = match est with Some e -> e | None -> Alcotest.fail (name ^ " undefined") in
    checkb (name ^ " >= exact order statistic") true (est >= exact);
    checkb
      (Printf.sprintf "%s %d within 25%% above exact %d" name est exact)
      true
      (float_of_int est
      <= float_of_int exact *. (1.0 +. Obs.Metrics.log_relative_error) +. 1.0)
  in
  check_q "p50" 0.50 (Obs.Metrics.p50 hs);
  check_q "p99" 0.99 (Obs.Metrics.p99 hs);
  check_q "p999" 0.999 (Obs.Metrics.p999 hs);
  (* Quantiles are monotone in q. *)
  let g = function Some v -> v | None -> -1 in
  checkb "p50 <= p99 <= p999" true
    (g (Obs.Metrics.p50 hs) <= g (Obs.Metrics.p99 hs)
    && g (Obs.Metrics.p99 hs) <= g (Obs.Metrics.p999 hs))

let test_quantile_edge_cases () =
  let empty =
    { Obs.Metrics.h_bounds = [ 10 ]; h_counts = [ 0; 0 ]; h_sum = 0; h_samples = 0 }
  in
  checkb "empty histogram has no quantiles" true (Obs.Metrics.p99 empty = None);
  let overflow =
    { Obs.Metrics.h_bounds = [ 10; 20 ]; h_counts = [ 0; 0; 4 ]; h_sum = 400; h_samples = 4 }
  in
  (* Rank in the unbounded overflow bucket: clamp to one growth step past
     the top bound rather than inventing a value. *)
  checkb "overflow clamps one step past top" true
    (Obs.Metrics.p99 overflow = Some (Obs.Metrics.log_step 20))

let test_metrics_restore_roundtrip () =
  let build m =
    ( Obs.Metrics.counter m "c",
      Obs.Metrics.gauge m "g",
      Obs.Metrics.histogram m "h" ~bounds:[| 5; 10 |],
      Obs.Metrics.log_histogram m "lh" ~lo:1_000 ~hi:100_000_000 )
  in
  let m = Obs.Metrics.create () in
  let c, g, h, lh = build m in
  Obs.Metrics.incr ~by:3 c;
  Obs.Metrics.set g 9;
  List.iter (Obs.Metrics.observe h) [ 1; 7; 100 ];
  List.iter (Obs.Metrics.observe lh) [ 999; 5_000; 123_456; 1_000_000_000 ];
  let s = Obs.Metrics.snapshot m in
  (* Restore into a fresh registry with the same registrations: snapshots
     must be bit-identical, log-bucket histograms included. *)
  let m2 = Obs.Metrics.create () in
  let _, _, _, lh2 = build m2 in
  Obs.Metrics.restore m2 s;
  checkb "fresh registry round-trips" true (Obs.Metrics.snapshot m2 = s);
  (* A dirtied registry is fully overwritten by a second restore. *)
  Obs.Metrics.observe lh2 77_777;
  Obs.Metrics.restore m2 s;
  checkb "dirty registry overwritten" true (Obs.Metrics.snapshot m2 = s);
  (* Quantiles computed from the restored snapshot agree. *)
  let q snap =
    Obs.Metrics.p99 (List.assoc "lh" snap.Obs.Metrics.histograms)
  in
  checkb "quantiles survive restore" true (q (Obs.Metrics.snapshot m2) = q s)

(* ------------------------- In-place merge --------------------------- *)

(* The instruments a random registry may register: counters, gauges, two
   log histograms and a linear one. A registry built from [ops] registers
   a name at its first op, so later registries can hold names earlier
   ones lack; a gauge takes the op's value, zero and negative included. *)
let acc_names =
  [|
    ("c.a", `C); ("c.b", `C); ("c.c", `C); ("g.a", `G); ("g.b", `G);
    ("h.log", `H (Obs.Metrics.log_bounds ~lo:10 ~hi:4_000));
    ("h.log2", `H (Obs.Metrics.log_bounds ~lo:1 ~hi:100));
    ("h.lin", `H [| 0; 10; 100 |]);
  |]

let acc_registry ops =
  let m = Obs.Metrics.create () in
  List.iter
    (fun (k, v) ->
      match acc_names.(k mod Array.length acc_names) with
      | name, `C -> Obs.Metrics.incr ~by:(abs v) (Obs.Metrics.counter m name)
      | name, `G -> Obs.Metrics.set (Obs.Metrics.gauge m name) v
      | name, `H bounds -> Obs.Metrics.observe (Obs.Metrics.histogram m name ~bounds) v)
    ops;
  m

let fold_snapshots regs =
  List.fold_left
    (fun acc r -> Obs.Metrics.merge_snapshots acc (Obs.Metrics.snapshot r))
    Obs.Metrics.empty_snapshot regs

(* Accumulating registries one by one equals folding their snapshots
   with [merge_snapshots]: into a fresh registry, into one that already
   holds the first registry's values, and into one [clear] emptied after
   unrelated use. *)
let prop_accumulate_is_merge =
  let op = QCheck.(pair (int_bound 7) (int_range (-50) 5_000)) in
  QCheck.Test.make ~count:300 ~name:"accumulate equals merge_snapshots fold"
    QCheck.(list_of_size Gen.(1 -- 6) (list_of_size Gen.(0 -- 12) op))
    (fun descs ->
      let regs = List.map acc_registry descs in
      let want = fold_snapshots regs in
      let fresh = Obs.Metrics.create () in
      List.iter (fun r -> Obs.Metrics.accumulate ~into:fresh r) regs;
      let warm = acc_registry (List.hd descs) in
      List.iter (fun r -> Obs.Metrics.accumulate ~into:warm r) (List.tl regs);
      let cleared = acc_registry [ (3, 7); (5, 9); (0, 4) ] in
      Obs.Metrics.clear cleared;
      checkb "cleared registry is empty" true
        (Obs.Metrics.snapshot cleared = Obs.Metrics.empty_snapshot);
      List.iter (fun r -> Obs.Metrics.accumulate ~into:cleared r) regs;
      Obs.Metrics.snapshot fresh = want
      && Obs.Metrics.snapshot warm = want
      && Obs.Metrics.snapshot cleared = want)

(* A name seen only in a later registry, a gauge that only ever holds a
   negative value, and a zero gauge next to a negative one, spelled out. *)
let test_accumulate_cases () =
  let into = Obs.Metrics.create () in
  Obs.Metrics.accumulate ~into (acc_registry [ (0, 2); (3, -5) ]);
  Obs.Metrics.accumulate ~into (acc_registry [ (1, 4); (3, -9); (4, 0) ]);
  Obs.Metrics.accumulate ~into (acc_registry [ (4, -1); (5, 12) ]);
  let s = Obs.Metrics.snapshot into in
  Alcotest.(check (list (pair string int)))
    "counters" [ ("c.a", 2); ("c.b", 4) ] s.Obs.Metrics.counters;
  Alcotest.(check (list (pair string int)))
    "gauges keep negative and zero maxima" [ ("g.a", -5); ("g.b", 0) ]
    s.Obs.Metrics.gauges;
  checki "late histogram registered" 1
    (List.assoc "h.log" s.Obs.Metrics.histograms).Obs.Metrics.h_samples

(* A name of another kind, or a histogram with other bounds, raises
   [Invalid_argument], as registration does ([merge_snapshots] raises
   on the bounds too). *)
let test_accumulate_mismatch () =
  let raises what f = checkb (what ^ " raises Invalid_argument") true (refuses f) in
  let counter_x = Obs.Metrics.create () and gauge_x = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter counter_x "x");
  ignore (Obs.Metrics.gauge gauge_x "x");
  raises "counter into gauge" (fun () ->
      Obs.Metrics.accumulate ~into:gauge_x counter_x);
  raises "gauge into counter" (fun () ->
      Obs.Metrics.accumulate ~into:counter_x gauge_x);
  let hist bounds =
    let m = Obs.Metrics.create () in
    Obs.Metrics.observe (Obs.Metrics.histogram m "h" ~bounds) 3;
    m
  in
  let a = hist [| 1; 5 |] and b = hist [| 1; 6 |] in
  raises "bounds" (fun () -> Obs.Metrics.accumulate ~into:a b);
  raises "merge_snapshots bounds" (fun () ->
      ignore
        (Obs.Metrics.merge_snapshots (Obs.Metrics.snapshot a) (Obs.Metrics.snapshot b)))

(* A worker recorder's registry, with every histogram populated. *)
let busy_recorder_metrics () =
  let r = Obs.Recorder.create ~capacity:1 ~min_level:Obs.Event.Error () in
  let m = r.Obs.Recorder.metrics in
  Obs.Metrics.incr ~by:5 r.Obs.Recorder.hypercall_entries;
  Obs.Metrics.set r.Obs.Recorder.run_end_time_ns 123_456;
  List.iter
    (fun v ->
      Obs.Metrics.observe r.Obs.Recorder.run_latency_ns v;
      Obs.Metrics.observe r.Obs.Recorder.recovery_latency_ns v;
      Obs.Metrics.observe r.Obs.Recorder.recovery_latency_ms (v / 1_000_000))
    [ 1_000; 2_000_000; 50_000_000 ];
  m

(* Once the accumulator holds every name of its source (one call), an
   accumulate allocates nothing: the worker loops fold every run. *)
let test_accumulate_allocates_nothing () =
  let src = busy_recorder_metrics () in
  let into = Obs.Metrics.create () in
  Obs.Metrics.accumulate ~into src;
  let w = minor_words (fun () -> Obs.Metrics.accumulate ~into src) in
  if w <> 0.0 then Alcotest.failf "warm accumulate allocated %.0f words" w

(* A restore into a registry that holds the snapshot's names (every
   clone replay does one) allocates at most 50 words; it costs 0 now,
   against ~918 when it compared bounds through [Array.to_list]. *)
let test_restore_word_ceiling () =
  let m = busy_recorder_metrics () in
  let s = Obs.Metrics.snapshot m in
  Obs.Metrics.restore m s;
  let w = minor_words (fun () -> Obs.Metrics.restore m s) in
  if w > 50.0 then Alcotest.failf "warm restore allocated %.0f words" w;
  checkb "restore round-trips" true (Obs.Metrics.snapshot m = s)

(* ------------------------- Campaign metrics ------------------------- *)

let campaign_metrics (r : Inject.Campaign.result) =
  (Inject.Campaign.snapshot r.Inject.Campaign.totals).Inject.Campaign.s_metrics

let test_campaign_metrics_parallel_identical () =
  let seq, _ =
    jobs_invariant (digest ~what:"metrics" metrics_t campaign_metrics)
      (fun ~jobs ~oversubscribe ->
        Inject.Campaign.run ~base_seed:42L ~jobs ~oversubscribe ~n:40
          (run_cfg ~fault:Inject.Fault.Register ~seed:0L ()))
  in
  checkb "aggregate metrics non-empty" true
    ((campaign_metrics seq).Obs.Metrics.counters <> [])

(* ------------------------- nlh-obs/1 damage ------------------------- *)

(* A real metrics document: a small register campaign's aggregate, so
   every histogram kind is populated and carries quantiles. *)
let obs_document =
  lazy
    (let r = Inject.Campaign.run ~base_seed:3L ~jobs:1 ~n:6 (run_cfg ~fault:Inject.Fault.Register ~seed:0L ()) in
     Obs.Export.metrics_json
       ~meta:[ ("runs", `Int 6); ("fault", `String "register") ]
       (campaign_metrics r))

(* ------------------------- Chrome-trace export ---------------------- *)

let get msg = function Some v -> v | None -> Alcotest.fail msg

let test_chrome_trace_roundtrip () =
  let recorder =
    Obs.Recorder.create ~capacity:65536 ~min_level:Obs.Event.Debug ()
  in
  let outcome =
    Inject.Run.run_obs ~recorder (run_cfg ~fault:Inject.Fault.Failstop ~seed:7L ())
  in
  let steps =
    match outcome with
    | Inject.Run.Detected { Inject.Run.breakdown = Some b; _ } ->
      b.Hyper.Latency_model.steps
    | _ -> Alcotest.fail "failstop run must be detected with a breakdown"
  in
  (* Per-phase span sums reproduce the latency breakdown exactly. *)
  Alcotest.check
    Alcotest.(list (pair string int))
    "span sums equal breakdown" steps
    (span_sums recorder.Obs.Recorder.spans);
  let text = Obs.Export.chrome_trace_of_recorder recorder in
  match Obs.Json.parse text with
  | Error e -> Alcotest.fail ("exporter produced invalid JSON: " ^ e)
  | Ok j ->
    let rows =
      get "traceEvents must be an array"
        (Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list)
    in
    checkb "trace has rows" true (rows <> []);
    let spans = ref 0 and last = ref neg_infinity in
    List.iter
      (fun row ->
        let name =
          get "row name must be a string"
            (Option.bind (Obs.Json.member "name" row) Obs.Json.to_string)
        in
        checkb "row name non-empty" true (name <> "");
        let ts =
          get "row ts must be a number"
            (Option.bind (Obs.Json.member "ts" row) Obs.Json.to_number)
        in
        checkb "ts non-negative" true (ts >= 0.0);
        checkb "ts non-decreasing" true (ts >= !last);
        last := ts;
        match
          Option.bind (Obs.Json.member "ph" row) Obs.Json.to_string
        with
        | Some "X" ->
          incr spans;
          let dur =
            get "span dur must be a number"
              (Option.bind (Obs.Json.member "dur" row) Obs.Json.to_number)
          in
          checkb "span dur non-negative" true (dur >= 0.0)
        | Some "i" -> ()
        | _ -> Alcotest.fail "row phase must be X or i")
      rows;
    checki "one span row per breakdown phase" (List.length steps) !spans

(* --------------------------- JSON codec ----------------------------- *)

(* Integers are exact: every int64 prints as its decimal literal and
   parses back to the same value, the float-unsafe ones around 2^53 and
   the int64 bounds included. *)
let prop_int64_roundtrip =
  let p53 = Int64.shift_left 1L 53 in
  let edges =
    [
      Int64.min_int;
      Int64.max_int;
      0L;
      -1L;
      p53;
      Int64.neg p53;
      Int64.succ p53;
      Int64.pred p53;
      Int64.neg (Int64.succ p53);
      Int64.neg (Int64.pred p53);
    ]
  in
  QCheck.Test.make ~count:1000 ~name:"int64 prints and parses back exactly"
    QCheck.(oneof [ oneofl edges; int64 ])
    (fun i ->
      let v = Obs.Json.List [ Obs.Json.Int i; Obs.Json.Obj [ ("k", Obs.Json.Int i) ] ] in
      let text = Obs.Json.render v in
      text = Printf.sprintf "[%Ld,{\"k\":%Ld}]" i i && Obs.Json.parse text = Ok v)

let test_float_roundtrip () =
  List.iter
    (fun f ->
      let v = Obs.Json.Number f in
      checkb (Printf.sprintf "%h stays a float" f) true
        (Obs.Json.parse (Obs.Json.render v) = Ok v))
    [ 0.0; 2.0; 1.5; 0.1; 1e300; -3.25e-7; 123456.789; float_of_int max_int ]

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "record-time level filter" `Quick
            test_ring_level_filter_at_record;
          Alcotest.test_case "readback filters" `Quick test_ring_readback_filters;
          Alcotest.test_case "clear" `Quick test_ring_clear;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram bucket boundaries" `Quick
            test_histogram_bucket_boundaries;
          Alcotest.test_case "instrument reuse" `Quick test_instrument_reuse;
          Alcotest.test_case "merge commutative" `Quick test_merge_commutative;
          Alcotest.test_case "log bounds geometric" `Quick test_log_bounds;
          Alcotest.test_case "log observe bucket rule" `Quick
            test_log_observe_bucket_rule;
          Alcotest.test_case "quantile accuracy" `Quick test_quantile_accuracy;
          Alcotest.test_case "quantile edge cases" `Quick
            test_quantile_edge_cases;
          Alcotest.test_case "restore round-trip" `Quick
            test_metrics_restore_roundtrip;
          QCheck_alcotest.to_alcotest prop_batched_observe;
          QCheck_alcotest.to_alcotest prop_accumulate_is_merge;
          Alcotest.test_case "accumulate cases" `Quick test_accumulate_cases;
          Alcotest.test_case "accumulate mismatches raise" `Quick
            test_accumulate_mismatch;
          Alcotest.test_case "warm accumulate allocates nothing" `Quick
            test_accumulate_allocates_nothing;
          Alcotest.test_case "warm restore word ceiling" `Quick
            test_restore_word_ceiling;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 metrics identical" `Slow
            test_campaign_metrics_parallel_identical;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome-trace roundtrip" `Quick
            test_chrome_trace_roundtrip;
        ]
        @ damage ~label:"nlh-obs/1"
            [ file "nlh-obs/1" obs_document Obs.Export.metrics_of_string ] );
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_int64_roundtrip;
          Alcotest.test_case "floats stay floats" `Quick test_float_roundtrip;
        ] );
    ]
