(** IO-APIC model: a redirection table mapping device IRQ lines to CPU
    vectors.

    ReHype's reboot re-initialises these registers, so during normal
    operation it must log every write in order to restore the pre-failure
    routing afterwards (one of the two loggings NiLiHype does not need,
    cf. Table IV discussion). *)

type entry = { mutable vector : int; mutable dest_cpu : int; mutable masked : bool }

type t = {
  entries : entry array;
  mutable write_log : (int * int * int * bool) list;
      (* (line, vector, dest, masked) writes recorded when logging is on *)
  mutable logging : bool;
}

let lines t = Array.length t.entries

let create ~lines =
  {
    entries =
      Array.init lines (fun _ -> { vector = 0; dest_cpu = 0; masked = true });
    write_log = [];
    logging = false;
  }

let set_logging t on = t.logging <- on

let write t ~line ~vector ~dest_cpu ~masked =
  let e = t.entries.(line) in
  e.vector <- vector;
  e.dest_cpu <- dest_cpu;
  e.masked <- masked;
  if t.logging then t.write_log <- (line, vector, dest_cpu, masked) :: t.write_log

(* Model of the reboot's hardware re-initialisation: routing is lost, the
   write log is kept for replay. *)
let reset_to_power_on t =
  Array.iter
    (fun e ->
      e.vector <- 0;
      e.dest_cpu <- 0;
      e.masked <- true)
    t.entries

(* Replay the logged writes after a reboot, oldest first. *)
let replay_log t =
  List.iter
    (fun (line, vector, dest_cpu, masked) ->
      let e = t.entries.(line) in
      e.vector <- vector;
      e.dest_cpu <- dest_cpu;
      e.masked <- masked)
    (List.rev t.write_log)

let routing_valid t =
  Array.exists (fun e -> not e.masked) t.entries
