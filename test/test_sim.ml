(* Tests for the simulation substrate: PRNG, clock, statistics. *)

let check = Alcotest.check
open Contract

(* ------------------------- Rng ------------------------------------- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 7L and b = Sim.Rng.create 7L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Sim.Rng.int64 a) (Sim.Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create 7L and b = Sim.Rng.create 8L in
  checkb "different seeds differ" false (Sim.Rng.int64 a = Sim.Rng.int64 b)

let test_rng_int_bounds () =
  let r = Sim.Rng.create 1L in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int r 10 in
    checkb "in range" true (v >= 0 && v < 10)
  done

let test_rng_int_rejects_nonpositive () =
  let r = Sim.Rng.create 1L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sim.Rng.int r 0))

let test_rng_float_bounds () =
  let r = Sim.Rng.create 2L in
  for _ = 1 to 1000 do
    let v = Sim.Rng.float r 3.5 in
    checkb "in range" true (v >= 0.0 && v < 3.5)
  done

let test_rng_choose_weighted () =
  let r = Sim.Rng.create 3L in
  (* A zero-weight element must never be chosen. *)
  for _ = 1 to 500 do
    let v = Sim.Rng.choose_weighted r [ (0.0, `Never); (1.0, `Always) ] in
    checkb "never picks zero weight" true (v = `Always)
  done

let test_rng_choose_weighted_distribution () =
  let r = Sim.Rng.create 4L in
  let count = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Sim.Rng.choose_weighted r [ (0.25, true); (0.75, false) ] then incr count
  done;
  let p = float_of_int !count /. float_of_int n in
  checkb "roughly 25%" true (p > 0.22 && p < 0.28)

let test_rng_choose_weighted_empty () =
  let r = Sim.Rng.create 5L in
  Alcotest.check_raises "empty"
    (Invalid_argument "Rng.choose_weighted: no positive weight") (fun () ->
      ignore (Sim.Rng.choose_weighted r []))

(* splitmix64, the textbook Int64 form: [step] advances the state by the
   golden gamma and returns the mixed output; the state stays readable
   for the [save] check. *)
let reference seed =
  let state = ref seed in
  let step () =
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  (state, step)

let reference_seeds = [ 0L; 1L; 7L; -1L; 0x8000000000000000L; 0xDEADBEEFCAFEF00DL ]

(* The production generator keeps its state unboxed (see rng.ml). This
   pins its raw stream, bit for bit, to the Int64 reference. *)
let test_rng_matches_int64_reference () =
  List.iter
    (fun seed ->
      let _, next_ref = reference seed in
      let r = Sim.Rng.create seed in
      for i = 1 to 500 do
        check Alcotest.int64
          (Printf.sprintf "splitmix64 matches Int64 reference (seed %Ld, draw %d)" seed i)
          (next_ref ()) (Sim.Rng.int64 r)
      done)
    reference_seeds

(* Each derivation, pinned to values derived here from the reference
   stream, interleaved in one stream so a derivation that draws twice or
   not at all shifts every later check: [int] is the low 62 bits mod n,
   [float] the top 53 bits over 2^53 (compared bit for bit), [float_below]
   that draw compared, [bool] the low bit; [save] is the reference state
   and [reseed] to it replays the same draws. *)
let test_rng_derivations_match_reference () =
  let exact_float = Alcotest.testable Fmt.float (fun a b ->
    Int64.bits_of_float a = Int64.bits_of_float b)
  in
  List.iter
    (fun seed ->
      let state, next_ref = reference seed in
      let r = Sim.Rng.create seed in
      let label what i = Printf.sprintf "%s (seed %Ld, round %d)" what seed i in
      let ref_float x =
        x *. (Int64.to_float (Int64.shift_right_logical (next_ref ()) 11)
              /. 9007199254740992.0)
      in
      for i = 1 to 200 do
        List.iter
          (fun n ->
            let want =
              Int64.to_int (Int64.logand (next_ref ()) 0x3FFFFFFFFFFFFFFFL) mod n
            in
            checki (label (Printf.sprintf "int %d" n) i) want (Sim.Rng.int r n))
          [ 1; 2; 3; 7; 10; 340; 1 lsl 30; max_int ];
        check exact_float (label "float" i) (ref_float 3.5) (Sim.Rng.float r 3.5);
        check exact_float (label "float 1" i) (ref_float 1.0) (Sim.Rng.float r 1.0);
        checkb (label "float_below" i) (ref_float 1.0 < 0.3)
          (Sim.Rng.float_below r 1.0 0.3);
        checkb (label "bool" i)
          (Int64.logand (next_ref ()) 1L = 1L)
          (Sim.Rng.bool r);
        let saved = Sim.Rng.save r in
        check Alcotest.int64 (label "save is the state" i) !state saved;
        let a = Sim.Rng.int64 r and b = Sim.Rng.int r 1000 in
        Sim.Rng.reseed r saved;
        check Alcotest.int64 (label "reseed replays int64" i) a (Sim.Rng.int64 r);
        checki (label "reseed replays int" i) b (Sim.Rng.int r 1000);
        ignore (next_ref ());
        ignore (next_ref ())
      done)
    reference_seeds

(* ------------------------- Clock ----------------------------------- *)

let test_clock_starts_at_zero () =
  checki "t=0" 0 (Sim.Clock.now (Sim.Clock.create ()))

let test_clock_advance () =
  let c = Sim.Clock.create () in
  Sim.Clock.advance_by c 100;
  Sim.Clock.advance_to c 250;
  checki "t=250" 250 (Sim.Clock.now c)

let test_clock_no_time_travel () =
  let c = Sim.Clock.create () in
  Sim.Clock.advance_to c 100;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Clock.advance_to: time goes backwards (50 < 100)")
    (fun () -> Sim.Clock.advance_to c 50)

let test_clock_negative_delta () =
  let c = Sim.Clock.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Clock.advance_by: negative delta")
    (fun () -> Sim.Clock.advance_by c (-1))

(* ------------------------- Time ------------------------------------ *)

let test_time_units () =
  checki "us" 1_000 (Sim.Time.us 1);
  checki "ms" 1_000_000 (Sim.Time.ms 1);
  checki "s" 1_000_000_000 (Sim.Time.s 1);
  check (Alcotest.float 1e-9) "to_ms" 1.5 (Sim.Time.to_ms (Sim.Time.us 1500))

(* ------------------------- Time formatting -------------------------- *)

let show pp v = Format.asprintf "%a" pp v

let test_time_pp_unit_boundaries () =
  let str = Alcotest.string in
  check str "ns" "999ns" (show Sim.Time.pp 999);
  check str "us" "1.000us" (show Sim.Time.pp (Sim.Time.us 1));
  check str "just under ms" "999.999us" (show Sim.Time.pp (Sim.Time.ms 1 - 1));
  check str "ms" "1.000ms" (show Sim.Time.pp (Sim.Time.ms 1));
  check str "s" "2.500s" (show Sim.Time.pp (Sim.Time.ms 2500));
  check str "pp_ms" "0.250ms" (show Sim.Time.pp_ms (Sim.Time.us 250))

let test_time_pp_float_fractional () =
  let str = Alcotest.string in
  check str "sub-ns mean" "0.5ns" (show Sim.Time.pp_float 0.5);
  check str "us" "1.500us" (show Sim.Time.pp_float 1500.);
  check str "ms" "2.500ms" (show Sim.Time.pp_float 2.5e6);
  check str "s" "3.000s" (show Sim.Time.pp_float 3e9);
  (* Whole nanoseconds print in the same unit as the integer printer. *)
  List.iter
    (fun n ->
      check str "agrees with pp above 1us" (show Sim.Time.pp n)
        (show Sim.Time.pp_float (float_of_int n)))
    [ Sim.Time.us 7; Sim.Time.ms 42; Sim.Time.s 3 ]

(* ------------------------- Stats ------------------------------------ *)

let test_stats_proportion_ci () =
  (* Half-width of 95% CI for 500/1000 is ~3.1%. *)
  let half = Sim.Stats.proportion_ci_half ~successes:500 ~trials:1000 in
  checkb "about 3.1%" true (half > 0.030 && half < 0.032)

let test_stats_ci_shrinks_with_n () =
  let h1 = Sim.Stats.proportion_ci_half ~successes:50 ~trials:100 in
  let h2 = Sim.Stats.proportion_ci_half ~successes:500 ~trials:1000 in
  checkb "more trials, tighter CI" true (h2 < h1)

let test_stats_wilson_bounds () =
  let lo, hi = Sim.Stats.wilson_interval ~successes:0 ~trials:100 in
  checkb "lower bound 0" true (lo = 0.0);
  checkb "upper bound small but positive" true (hi > 0.0 && hi < 0.06);
  let lo, hi = Sim.Stats.wilson_interval ~successes:100 ~trials:100 in
  checkb "upper bound 1" true (hi = 1.0);
  checkb "lower bound below 1" true (lo < 1.0 && lo > 0.94)

let test_stats_paper_convention () =
  (* The paper reports e.g. "16.0% +/- 2.3%" for ~1000 runs. *)
  let p = Sim.Stats.proportion ~successes:160 ~trials:1000 in
  let s = Format.asprintf "%a" Sim.Stats.pp_proportion p in
  check Alcotest.string "format" "16.0% +/- 2.3%" s

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects <=0" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "weighted choice" `Quick test_rng_choose_weighted;
          Alcotest.test_case "weighted distribution" `Quick
            test_rng_choose_weighted_distribution;
          Alcotest.test_case "weighted empty" `Quick test_rng_choose_weighted_empty;
          Alcotest.test_case "splitmix64 matches Int64 reference" `Quick
            test_rng_matches_int64_reference;
          Alcotest.test_case "derivations match Int64 reference" `Quick
            test_rng_derivations_match_reference;
        ] );
      ( "clock",
        [
          Alcotest.test_case "starts at zero" `Quick test_clock_starts_at_zero;
          Alcotest.test_case "advance" `Quick test_clock_advance;
          Alcotest.test_case "no time travel" `Quick test_clock_no_time_travel;
          Alcotest.test_case "negative delta" `Quick test_clock_negative_delta;
          Alcotest.test_case "time units" `Quick test_time_units;
        ] );
      (* Alcotest sizes the label column by the longest group name and
         truncates test names to fit 80 columns, so renaming or dropping
         a group changes how every long test name in this suite prints. *)
      ( "time_format",
        [
          Alcotest.test_case "unit boundaries" `Quick test_time_pp_unit_boundaries;
          Alcotest.test_case "float durations" `Quick
            test_time_pp_float_fractional;
        ] );
      ( "stats",
        [
          Alcotest.test_case "proportion CI" `Quick test_stats_proportion_ci;
          Alcotest.test_case "CI shrinks" `Quick test_stats_ci_shrinks_with_n;
          Alcotest.test_case "wilson bounds" `Quick test_stats_wilson_bounds;
          Alcotest.test_case "paper format" `Quick test_stats_paper_convention;
        ] );
    ]
