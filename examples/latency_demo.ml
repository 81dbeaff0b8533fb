(* Recovery-latency demo: measure the service interruption a NetBench-
   style 1 ms UDP echo sees across a hypervisor recovery, for both
   mechanisms, at the paper's machine geometry (8 GB / 8 CPUs).

     dune exec examples/latency_demo.exe *)

let demo mechanism name =
  let outcome = Recovery.Engine.measure mechanism in
  Format.printf "@.%s recovery latency breakdown:@." name;
  Format.printf "%a" Hyper.Latency_model.pp outcome.Recovery.Plan.breakdown;
  (* Drive the NetBench sender model across the interruption. *)
  let net = Guest.Netstack.create () in
  let now = Sim.Time.s 2 in
  (* 2 seconds of healthy echo traffic... *)
  for i = 1 to 2000 do
    Guest.Netstack.sender_tick net ~now:(i * Sim.Time.ms 1) ~delivered:true
  done;
  (* ...then the recovery pause... *)
  Guest.Netstack.interruption net ~now ~duration:outcome.Recovery.Plan.latency;
  Format.printf
    "NetBench sender: max gap %a, loss rate %.2f%%, >10%%-window criterion \
     tripped: %b@."
    Sim.Time.pp net.Guest.Netstack.max_gap
    (100.0 *. Guest.Netstack.loss_rate net)
    (Guest.Netstack.failed net);
  outcome.Recovery.Plan.latency

let () =
  let nl = demo Recovery.Engine.Nilihype "NiLiHype (microreset)" in
  let re = demo Recovery.Engine.Rehype "ReHype (microreboot)" in
  Format.printf "@.ReHype/NiLiHype latency ratio: %.1fx (paper: >30x)@."
    (float_of_int re /. float_of_int nl)
