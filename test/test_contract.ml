(* The kit checks itself: each contract combinator passes a correct toy
   subject and rejects a deliberately broken one. Without these, a
   combinator weakened by a later change would still let every suite
   pass. *)

open Contract

(* Whether running [f] fails an Alcotest check. Alcotest does not export
   the exception its checks raise, so it is recognised by name: any other
   exception is a fault in the kit and propagates. *)
let rejects f =
  match f () with
  | () -> false
  | exception e when Printexc.exn_slot_name e = "Alcotest_engine__Core.Check_error" -> true

(* [contract] passes [good] and rejects [broken]. *)
let kit broken_name contract ~good ~broken () =
  checkb "correct subject passes" false (rejects (fun () -> contract good));
  checkb (broken_name ^ " rejected") true (rejects (fun () -> contract broken))

let int_digest = digest Alcotest.int Fun.id

(* The intact file is ten digits; the broken decoder takes any five bytes
   or more. *)
let test_damage =
  let intact = "0123456789" in
  kit "a decoder that accepts a prefix"
    (fun accepts ->
      List.iter
        (fun (_, _, f) -> f ())
        (damage [ file "digits" (lazy intact) (fun s -> if accepts s then Ok () else Error "") ]))
    ~good:(String.equal intact)
    ~broken:(fun s -> String.length s >= 5)

let test_jobs_invariant =
  kit "a digest that embeds jobs"
    (fun run -> ignore (jobs_invariant int_digest run))
    ~good:(fun ~jobs:_ ~oversubscribe:_ -> 42)
    ~broken:(fun ~jobs ~oversubscribe:_ -> jobs)

(* A checkpointed driver over six chunks, chunk k adding k*k to a sum;
   its file holds the chunks done and the sum. The broken resume skips
   the merge of the first chunk it runs. *)
let toy_drive ~broken ~path ~stop_after ~resume ~jobs:_ ~oversubscribe:_ =
  let start, sum =
    if resume then Scanf.sscanf (read_file path) "%d %d" (fun k s -> (k, s)) else (0, 0)
  in
  let k = ref start and sum = ref sum in
  while !k < 6 && Option.fold ~none:true ~some:(fun s -> !k - start < s) stop_after do
    if not (broken && resume && !k = start) then sum := !sum + (!k * !k);
    incr k;
    write_file path (Printf.sprintf "%d %d\n" !k !sum)
  done;
  !sum

let test_kill_resume =
  kit "a resume that skips one chunk's merge"
    (fun broken -> ignore (kill_resume ~after:2 int_digest (toy_drive ~broken)))
    ~good:false ~broken:true

(* Items 0..9 summed chunk by chunk (default chunk 4); the broken seal
   drops the last chunk's sum whenever there is more than one chunk. *)
let toy_chunks ~broken ~chunk ~jobs:_ ~oversubscribe:_ =
  let size = Option.value chunk ~default:4 in
  let sums =
    List.init ((10 + size - 1) / size) (fun c ->
        List.fold_left ( + ) 0 (List.init (min size (10 - (c * size))) (( + ) (c * size))))
  in
  let kept = if broken && List.length sums > 1 then List.tl (List.rev sums) else sums in
  List.fold_left ( + ) 0 kept

let test_seal_invisible =
  kit "a seal that drops a chunk's metrics"
    (fun broken -> seal_invisible ~n:10 ~reference:45 int_digest (toy_chunks ~broken))
    ~good:false ~broken:true

(* A two-field machine restored from its boot image; the broken restore
   leaves the second field stale. *)
let test_fresh_equals_restore =
  kit "a restore that leaves one field stale"
    (fun broken ->
      let a = ref 0 and b = ref 0 in
      let image = (!a, !b) in
      let restored () =
        a := 5;
        b := 7;
        a := fst image;
        if not broken then b := snd image;
        (!a, !b)
      in
      fresh_equals_restore
        (digest Alcotest.(pair int int) Fun.id)
        [ ("toy", (fun () -> (0, 0)), restored) ])
    ~good:false ~broken:true

let () =
  Alcotest.run "contract"
    [
      ( "kit",
        [
          Alcotest.test_case "damage" `Quick test_damage;
          Alcotest.test_case "jobs_invariant" `Quick test_jobs_invariant;
          Alcotest.test_case "kill_resume" `Quick test_kill_resume;
          Alcotest.test_case "seal_invisible" `Quick test_seal_invisible;
          Alcotest.test_case "fresh_equals_restore" `Quick test_fresh_equals_restore;
        ] );
    ]
