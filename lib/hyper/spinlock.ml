(** Hypervisor spinlocks.

    Two populations, matching the paper's treatment:
    - locks allocated in the heap (per-domain, per-CPU scheduler and timer
      locks): ReHype already had a mechanism to release these, reused by
      NiLiHype;
    - locks in the static data segment ("static locks": console, domain
      list, global heap lock...): ReHype gets them re-initialised by the
      boot; NiLiHype gathers them into one linker segment and walks that
      segment to unlock them ("Unlock static locks" enhancement).

    In the simulator a lock left held by a discarded execution thread is
    permanent: the next acquisition spins forever, which the watchdog
    reports as a hang. *)

type location =
  | Static (* lives in the static data segment's lock section *)
  | Heap (* allocated from the Xen heap *)

type t = {
  name : string;
  location : location;
  mutable holder : int; (* CPU id of the holder, [-1] when free: a plain
                           int, so taking a lock allocates nothing *)
  mutable acquisitions : int;
}

let create ~name ~location = { name; location; holder = -1; acquisitions = 0 }

let acquire t ~cpu =
  if t.holder = -1 then begin
    t.holder <- cpu;
    t.acquisitions <- t.acquisitions + 1
  end
  else if t.holder = cpu then
    (* Recursive acquisition deadlocks a non-recursive spinlock; Xen's
       debug build asserts on it. *)
    Crash.panic "spinlock %s: recursive acquisition on cpu%d" t.name cpu
  else
    (* The holder's execution thread no longer exists (it was abandoned
       by a failure), so this spin never ends. *)
    Crash.hang "spinlock %s: spinning (held by dead thread on cpu%d)" t.name
      t.holder

let release t ~cpu =
  if t.holder = -1 then Crash.panic "spinlock %s: releasing an unheld lock" t.name
  else if t.holder = cpu then t.holder <- -1
  else
    Crash.panic "spinlock %s: released by cpu%d, held by cpu%d" t.name cpu
      t.holder

let is_held t = t.holder <> -1

let force_unlock t = t.holder <- -1

(* Snapshot storage: a lock's holder and acquisition count as the two
   ints of [a] from [i]. *)
let save t a i =
  a.(i) <- t.holder;
  a.(i + 1) <- t.acquisitions

let load t a i =
  t.holder <- a.(i);
  t.acquisitions <- a.(i + 1)

(** The static-lock segment: the array the modified linker script
    produces, over which the recovering CPU iterates. *)
module Segment = struct
  type lock = t

  type t = { mutable locks : lock list }

  let create () = { locks = [] }

  let register t lock =
    if lock.location <> Static then
      invalid_arg "Spinlock.Segment.register: not a static lock";
    t.locks <- lock :: t.locks

  let iter t f = List.iter f t.locks

  (* The "Unlock static locks" enhancement: walk the segment and unlock
     any locked lock. Returns how many were released. *)
  let unlock_all t =
    let released = ref 0 in
    iter t (fun l ->
        if is_held l then begin
          force_unlock l;
          incr released
        end);
    !released

  let held_count t =
    List.fold_left (fun n l -> if is_held l then n + 1 else n) 0 t.locks

  let count t = List.length t.locks

  (* Every lock's [save]d pair, in segment order, from [a.(2 * k)]. The
     walks recurse at toplevel, so neither allocates a closure. *)
  let rec save_from a i = function
    | [] -> ()
    | l :: rest ->
      save l a i;
      save_from a (i + 2) rest

  let rec load_from a i = function
    | [] -> ()
    | l :: rest ->
      load l a i;
      load_from a (i + 2) rest

  let save t a = save_from a 0 t.locks
  let load t a = load_from a 0 t.locks
end
