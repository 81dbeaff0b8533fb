(** Event channels: the paravirtual interrupt mechanism between the
    hypervisor, the PrivVM's driver backends and the AppVMs' frontends. *)

type chan = {
  port : int;
  mutable bound : bool;
  mutable pending : bool;
  mutable masked : bool;
}

type table = {
  mutable chans : chan array;
  lock : Spinlock.t; (* heap-resident per-domain lock *)
}

let create heap ~ports domid =
  let lock =
    Spinlock.create
      ~name:(Printf.sprintf "d%d_evtchn" domid)
      ~location:Spinlock.Heap
  in
  ignore (Heap.alloc heap (Heap.Lock lock));
  {
    chans =
      Array.init ports (fun port ->
          { port; bound = false; pending = false; masked = false });
    lock;
  }

let bind t ~port =
  let c = t.chans.(port) in
  if c.bound then Crash.assert_failed "evtchn: double bind of port %d" port;
  c.bound <- true

let send t ~port =
  let c = t.chans.(port) in
  if c.bound && not c.masked then c.pending <- true

let consume_pending t =
  let any = ref false in
  Array.iter
    (fun c ->
      if c.pending then begin
        c.pending <- false;
        any := true
      end)
    t.chans;
  !any
