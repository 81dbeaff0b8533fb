(** The domain table: an array indexed by domid, plus the idle domain's
    reserved domid held apart so the array stays as short as the domids
    handed out. See domain_table.mli. *)

let idle_domid = 1000

type image = {
  i_doms : Domain.t option array; (* never mutated *)
  i_idle : Domain.t option;
  i_hi : int;
}

type t = {
  mutable doms : Domain.t option array;
      (* index = domid; [idle_domid]'s entry is unused. Each [Some] is
         allocated once, when its domain is added, so a lookup returns
         it as it stands. *)
  mutable idle : Domain.t option; (* the domain holding [idle_domid] *)
  mutable hi : int; (* one past the highest domid in [doms] *)
  mutable synced : image; (* the last image taken or restored *)
}

let create () =
  let empty = { i_doms = [||]; i_idle = None; i_hi = 0 } in
  { doms = empty.i_doms; idle = None; hi = 0; synced = empty }

let find t domid =
  if domid = idle_domid then t.idle
  else if domid >= 0 && domid < t.hi then t.doms.(domid)
  else None

(* Make [t.doms] writable and at least [n] long: a copy while an image
   shares it, so images are never mutated. *)
let own t n =
  let len = Array.length t.doms in
  if n > len then begin
    let a = Array.make (max n (max 8 (2 * len))) None in
    Array.blit t.doms 0 a 0 len;
    t.doms <- a
  end
  else if t.doms == t.synced.i_doms then t.doms <- Array.copy t.doms

let add t (d : Domain.t) =
  let domid = d.Domain.domid in
  if domid = idle_domid then t.idle <- Some d
  else if domid < 0 then invalid_arg "Domain_table.add: negative domid"
  else begin
    own t (domid + 1);
    t.doms.(domid) <- Some d;
    if domid >= t.hi then t.hi <- domid + 1
  end

let remove t domid =
  if domid = idle_domid then t.idle <- None
  else if find t domid != None then begin
    own t 0;
    t.doms.(domid) <- None;
    while t.hi > 0 && t.doms.(t.hi - 1) == None do
      t.hi <- t.hi - 1
    done
  end

(* Walk positions, for a walk that started when the table's [hi] was
   [hi]: every domid below [hi] in order, with the idle domain's in its
   place among them, or after them when they are all below it. *)
let entry t p = if p = idle_domid then t.idle else t.doms.(p)
let start hi = if hi > 0 then 0 else idle_domid
let next hi p = if p + 1 < hi || p >= idle_domid then p + 1 else idle_domid
let ended hi p = p > idle_domid && p >= hi

let iter f t =
  let hi = t.hi in
  let p = ref (start hi) in
  while not (ended hi !p) do
    (match entry t !p with Some d -> f d | None -> ());
    p := next hi !p
  done

let iter_vcpus f t =
  let hi = t.hi in
  let p = ref (start hi) in
  while not (ended hi !p) do
    (match entry t !p with
    | Some d ->
      let vs = d.Domain.vcpus in
      for i = 0 to Array.length vs - 1 do
        f vs.(i)
      done
    | None -> ());
    p := next hi !p
  done

(* The same positions, last first. *)
let fold_right f t init =
  let hi = t.hi in
  let acc = ref init in
  let p = ref (if hi > idle_domid then hi - 1 else idle_domid) in
  while !p >= 0 do
    (match entry t !p with Some d -> acc := f d !acc | None -> ());
    p := if !p = idle_domid && hi <= idle_domid then hi - 1 else !p - 1
  done;
  !acc

let find_first pred t =
  let hi = t.hi in
  let p = ref (start hi) and found = ref None in
  while !found == None && not (ended hi !p) do
    (match entry t !p with
    | Some d as e when pred d -> found := e
    | Some _ | None -> ());
    p := next hi !p
  done;
  !found

let count pred t =
  let hi = t.hi in
  let p = ref (start hi) and n = ref 0 in
  while not (ended hi !p) do
    (match entry t !p with Some d when pred d -> incr n | Some _ | None -> ());
    p := next hi !p
  done;
  !n

let nth pred t k =
  let hi = t.hi in
  let p = ref (start hi) and k = ref k and found = ref None in
  while !found == None && not (ended hi !p) do
    (match entry t !p with
    | Some d as e when pred d -> if !k = 0 then found := e else decr k
    | Some _ | None -> ());
    p := next hi !p
  done;
  match !found with Some d -> d | None -> invalid_arg "Domain_table.nth"

let vcpu_count t =
  let hi = t.hi in
  let p = ref (start hi) and n = ref 0 in
  while not (ended hi !p) do
    (match entry t !p with
    | Some d -> n := !n + Array.length d.Domain.vcpus
    | None -> ());
    p := next hi !p
  done;
  !n

let nth_vcpu t k =
  let hi = t.hi in
  let p = ref (start hi) and k = ref k and found = ref None in
  while !found == None && not (ended hi !p) do
    (match entry t !p with
    | Some d as e ->
      let n = Array.length d.Domain.vcpus in
      if !k < n then found := e else k := !k - n
    | None -> ());
    p := next hi !p
  done;
  match !found with
  | Some d -> d.Domain.vcpus.(!k)
  | None -> invalid_arg "Domain_table.nth_vcpu"

let capture t =
  if t.doms == t.synced.i_doms && t.idle == t.synced.i_idle then t.synced
  else begin
    let im = { i_doms = t.doms; i_idle = t.idle; i_hi = t.hi } in
    t.synced <- im;
    im
  end

let restore t im =
  t.doms <- im.i_doms;
  t.idle <- im.i_idle;
  t.hi <- im.i_hi;
  t.synced <- im
