(** Event channels: the paravirtual interrupt mechanism between the
    hypervisor, the PrivVM's driver backends and the AppVMs' frontends.

    A table is one int of flag bits per port. It owns its images the way
    {!Owned_frames} does: [synced] is the last image taken or restored,
    and every mutator below sets [dirty] when it writes. A clean table
    (or a dirty one whose ports came back to [synced]) captures as
    [synced] itself, and restoring a clean table to [synced] is skipped,
    so snapshotting and rewinding a machine costs nothing for the tables
    a run left alone. *)

let port_bound = 1
let port_pending = 2

type image = int array (* per port: the flag bits; never mutated *)

type table = {
  flags : int array; (* per port: [port_bound] lor [port_pending] *)
  lock : Spinlock.t; (* heap-resident per-domain lock *)
  mutable synced : image; (* equal to [flags] while not [dirty] *)
  mutable dirty : bool;
}

let create heap ~ports domid =
  let lock =
    Spinlock.create
      ~name:(Printf.sprintf "d%d_evtchn" domid)
      ~location:Spinlock.Heap
  in
  ignore (Heap.alloc heap (Heap.Lock lock));
  { flags = Array.make ports 0; lock; synced = Array.make ports 0; dirty = false }

let lock t = t.lock
let ports t = Array.length t.flags
let flags t ~port = t.flags.(port)

let bind t ~port =
  let f = t.flags.(port) in
  if f land port_bound <> 0 then Crash.assert_failed "evtchn: double bind of port %d" port;
  t.flags.(port) <- f lor port_bound;
  t.dirty <- true

(* Raising an already pending port writes nothing. *)
let send t ~port =
  let f = t.flags.(port) in
  if f land (port_bound lor port_pending) = port_bound then begin
    t.flags.(port) <- f lor port_pending;
    t.dirty <- true
  end

(* The scans recurse at toplevel: a local recursive function would
   capture its environment in a closure allocated on every call. *)
let rec unbound_from (flags : int array) i =
  if i >= Array.length flags then -1
  else if flags.(i) land port_bound = 0 then i
  else unbound_from flags (i + 1)

(* Lowest unbound port, -1 if every port is bound. *)
let first_unbound t = unbound_from t.flags 0

(* Ports with every bit of [bits] set. *)
let count t bits =
  let n = ref 0 in
  for port = 0 to Array.length t.flags - 1 do
    if t.flags.(port) land bits = bits then incr n
  done;
  !n

let rec same_below (a : int array) (b : int array) i =
  i < 0 || (a.(i) = b.(i) && same_below a b (i - 1))

let capture t =
  if t.dirty then begin
    if not (same_below t.flags t.synced (Array.length t.flags - 1)) then
      t.synced <- Array.copy t.flags;
    t.dirty <- false
  end;
  t.synced

(* A typed int loop: no [caml_modify] per port, and nothing allocated. *)
let restore t (img : image) =
  if t.dirty || t.synced != img then begin
    let flags = t.flags in
    for port = 0 to Array.length flags - 1 do
      flags.(port) <- img.(port)
    done;
    t.synced <- img;
    t.dirty <- false
  end
