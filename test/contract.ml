(* The test kit: one combinator per equivalence contract, and the helpers
   every suite shares.

   The reproduced figures can be trusted only because every driver keeps
   the same contracts:
   - [damage]: a file it writes is never half-accepted after a torn
     write, and a flipped byte never crashes its reader;
   - [jobs_invariant]: its aggregate does not depend on the worker
     count;
   - [kill_resume]: a run stopped after k chunks and resumed on other
     workers ends on the bytes of an uninterrupted run;
   - [seal_invisible]: the chunk boundaries at which workers seal their
     metrics do not show in the aggregate;
   - [fresh_equals_restore]: a machine restored from an image is a
     freshly booted one.

   Each combinator takes the subject and the digest or decoder it
   checks, so putting a new driver or axis under a contract is one call.
   test_contract gives each combinator a deliberately broken subject
   that it must reject. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Whether [f ()] crashes the simulated hypervisor. *)
let crashes f =
  match f () with _ -> false | exception Hyper.Crash.Hypervisor_crash _ -> true

(* Whether [f ()] refuses its arguments with [Invalid_argument]. *)
let refuses f = match f () with _ -> false | exception Invalid_argument _ -> true

(* The default run (NiLiHype with every enhancement, on the 3AppVM
   setup) with another fault, seed or mechanism. *)
let run_cfg ?(fault = Inject.Fault.Failstop) ?(seed = 42L)
    ?(mech = Inject.Run.default_config.mech) () =
  { Inject.Run.default_config with seed; fault; mech }

(* A freshly booted machine, on the campaign geometry unless [mconfig]
   says otherwise. *)
let boot ?(mconfig = Hw.Machine.campaign_config) ?vcpus_per_cpu
    ?(setup = Hyper.Hypervisor.Three_appvm) ?(config = Hyper.Config.nilihype) ?obs () =
  Hyper.Hypervisor.boot ~mconfig ?obs ?vcpus_per_cpu ~config ~setup (Sim.Clock.create ())

(* The vectors in service on APIC [a], ascending. *)
let in_service_vectors a = List.filter (Hw.Apic.in_service a) (List.init 256 Fun.id)

(* Minor words allocated by [f ()]. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* Words allocated by [f ()], arrays allocated straight into the major
   heap included: [Gc.minor] around the measurement makes
   [Gc.allocated_bytes] count them. *)
let allocated_words f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)

(* Span durations summed by span name, in first-seen order: directly
   comparable to a latency breakdown's steps. *)
let span_sums spans =
  List.rev
    (List.fold_left
       (fun acc (s : Obs.Span.span) ->
         if List.mem_assoc s.name acc then
           List.map (fun (n, d) -> (n, if n = s.name then d + s.duration else d)) acc
         else (s.name, s.duration) :: acc)
       [] (Obs.Span.to_list spans))

(* ------------------------------ Files -------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* [f path] on a fresh temporary file, removed afterwards. *)
let with_temp f =
  let path = Filename.temp_file "nlh_test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* [contents] with its first [from] replaced by [into]: one edit that
   breaks an invariant a decoder must check. *)
let replace_first contents (from, into) =
  let n = String.length from in
  let rec find i =
    if i + n > String.length contents then Alcotest.failf "%S is not in the file" from
    else if String.sub contents i n = from then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub contents 0 i ^ into ^ String.sub contents (i + n) (String.length contents - i - n)

(* Whether nlh_trace_check accepts the file at [path]. *)
let trace_check_accepts path =
  Sys.command
    (Printf.sprintf "../bin/nlh_trace_check.exe %s > /dev/null 2>&1"
       (Filename.quote path))
  = 0

(* ----------------------------- Digests ------------------------------- *)

let metrics_t = Alcotest.testable Obs.Metrics.pp_snapshot ( = )

(* A digest checks that two results of one subject agree (expected
   first), failing with the message it is given. *)
type 'r digest = string -> 'r -> 'r -> unit

(* The digest that compares [f] of each result with [testable]; [what]
   names the compared part in the failure message. *)
let digest ?what testable f : _ digest =
 fun msg want got ->
  let msg = match what with Some w -> msg ^ ": " ^ w | None -> msg in
  Alcotest.check testable msg (f want) (f got)

let both (a : 'r digest) (b : 'r digest) : 'r digest =
 fun msg want got ->
  a msg want got;
  b msg want got

let campaign_totals =
  digest (Alcotest.testable Inject.Campaign.pp_snapshot ( = )) Inject.Campaign.snapshot

(* An endurance aggregate's canonical view: its checkpoint payload bytes,
   and its triage table's nlh-triage/1 bytes. *)
let endure_totals =
  both
    (digest ~what:"payload bytes" Alcotest.string (fun t ->
         Obs.Json.render (Endure.payload_of_totals t)))
    (digest ~what:"triage bytes" Alcotest.string (fun t ->
         Obs.Postmortem.Triage.to_json t.Endure.triage))

let campaign_snapshot : Inject.Campaign.result digest =
 fun msg a b -> campaign_totals msg a.totals b.totals

let endure_snapshot : Endure.result digest =
 fun msg a b -> endure_totals msg a.totals b.totals

(* ---------------------------- Contracts ------------------------------ *)

let prefixed label s = if label = "" then s else label ^ " " ^ s

(* A file a driver wrote, and whether its decoder accepts some bytes. *)
type file = { name : string; contents : string Lazy.t; accepts : string -> bool }

let file name contents decode =
  { name; contents; accepts = (fun s -> Result.is_ok (decode s)) }

(* Torn writes and flipped bytes: every strict prefix of each intact
   file is rejected, and a single-byte substitution is either rejected
   or decodes to some other valid file, but never raises. One test case
   for the prefixes of all [files], then one qcheck case per file. *)
let damage ?(label = "") files =
  Alcotest.test_case (prefixed label "every strict prefix rejected") `Quick (fun () ->
      List.iter
        (fun f ->
          let s = Lazy.force f.contents in
          checkb (prefixed f.name "intact file accepted") true (f.accepts s);
          for len = 0 to String.length s - 1 do
            if f.accepts (String.sub s 0 len) then
              Alcotest.failf "%s: prefix of %d bytes accepted" (prefixed f.name "file") len
          done)
        files)
  :: List.map
       (fun f ->
         QCheck_alcotest.to_alcotest
           (QCheck.Test.make ~count:400
              ~name:(prefixed f.name "single-byte substitution never raises")
              QCheck.(pair (int_bound 1_000_000) char)
              (fun (i, c) ->
                let b = Bytes.of_string (Lazy.force f.contents) in
                Bytes.set b (i mod Bytes.length b) c;
                ignore (f.accepts (Bytes.to_string b));
                true)))
       files

(* The aggregate does not depend on the worker count: [run] at jobs 1
   and at [jobs], oversubscribing the host's cores so that a one-core
   host still splits the work, agree under [d]. [reference] stands in
   for the jobs-1 run, for a subject compared against another's.
   Returns both results. *)
let jobs_invariant ?(label = "") ?(jobs = 4) ?reference (d : 'r digest) run =
  let one =
    match reference with Some r -> r | None -> run ~jobs:1 ~oversubscribe:false
  in
  let many = run ~jobs ~oversubscribe:true in
  d (Printf.sprintf "%sjobs=1 vs jobs=%d" label jobs) one many;
  (one, many)

(* A checkpointed run stopped after [after] chunks (or rounds) at jobs 1
   and resumed at [jobs] ends on the same result under [d] and on the
   same checkpoint file, byte for byte, as an uninterrupted run.
   [run ~path ~stop_after ~resume ~jobs ~oversubscribe] runs the subject
   with its checkpoint at [path]. Returns the killed and resumed
   results. *)
let kill_resume ~after ?(jobs = 2) (d : 'r digest) run =
  with_temp (fun whole_path ->
      with_temp (fun path ->
          let whole =
            run ~path:whole_path ~stop_after:None ~resume:false ~jobs:1
              ~oversubscribe:false
          in
          let killed =
            run ~path ~stop_after:(Some after) ~resume:false ~jobs:1 ~oversubscribe:false
          in
          checkb "the killed run's file is partial" true
            (read_file path <> read_file whole_path);
          let resumed = run ~path ~stop_after:None ~resume:true ~jobs ~oversubscribe:true in
          d "resumed = uninterrupted" whole resumed;
          checks "final files byte-identical" (read_file whole_path) (read_file path);
          (killed, resumed)))

(* Workers seal their metrics once per chunk, so the chunk size must not
   show: chunks of one item, the default chunk and one chunk of all [n]
   items, each at jobs 1 and 2, agree under [d] with [reference], a
   loop that merges every item's own metrics. *)
let seal_invisible ?(label = "") ~n ~reference (d : 'r digest) run =
  List.iter
    (fun (chunk, jobs) ->
      let size = match chunk with Some c -> string_of_int c | None -> "default" in
      d
        (Printf.sprintf "%schunk %s, jobs %d" label size jobs)
        reference
        (run ~chunk ~jobs ~oversubscribe:true))
    [ (Some 1, 1); (Some 1, 2); (None, 1); (None, 2); (Some n, 1); (Some n, 2) ]

(* A machine restored from an image is a freshly booted one: in each
   [(label, fresh, restored)] case, [restored ()] (run first, on the
   reused machine) and [fresh ()] agree under [d]. *)
let fresh_equals_restore (d : 'r digest) cases =
  List.iter
    (fun (label, fresh, restored) ->
      let got = restored () in
      d (label ^ ": restored = fresh boot") (fresh ()) got)
    cases
