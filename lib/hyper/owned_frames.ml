(** The frames a domain owns, newest first.

    A domain's frame list takes a push for every frame it is given and
    loses every copy of a frame it hands back, and on a long-lived
    machine it grows to thousands of frames. The frames sit in push
    order in a flat array, a released entry becomes a hole, and a
    chained hash over frame numbers finds every copy of a frame: a
    release allocates nothing and costs the same whatever the length.
    The holes are squeezed out when the array fills, amortised O(1) per
    push.

    Order contract: [iter], [nth_writable] and [find_if] see the
    frames newest first, duplicates included, exactly as the list
    [to_list] returns (push = cons, remove = filter out every copy) --
    so every random pick over a domain's frames lands on the same frame
    as it would over that list.

    Images: [capture] copies the live frames out in push order and also
    keeps the working arrays of that moment; [restore] loads the frames
    back into those arrays, allocating nothing. So every rewind to an
    image starts from the same capacity, and whether a later push grows
    the arrays (allocating) does not depend on what earlier runs on the
    machine did -- the allocation profiler's counters stay
    jobs-invariant. [capture] leaves room to double before the next
    growth. A set unchanged since its last capture or restore returns
    (or skips restoring) that same image, so snapshotting an untouched
    domain costs nothing. *)

type t = {
  mutable frames : int array; (* push order, oldest first; [hole] = released *)
  mutable len : int; (* slots in use, holes included *)
  mutable live : int; (* frames present, duplicates counted *)
  mutable buckets : int array; (* frame hash -> first slot of its chain, or -1 *)
  mutable chain : int array; (* slot -> next slot of the same bucket, or -1 *)
  mutable synced : image; (* an image equal to the contents, when [clean] *)
  mutable clean : bool;
}

and image = {
  live_frames : int array; (* push order; never mutated *)
  i_frames : int array; (* the working arrays at capture *)
  i_buckets : int array;
  i_chain : int array;
}

let hole = -1
let initial_capacity = 16 (* a power of two, like every capacity *)

let create () =
  let frames = Array.make initial_capacity hole
  and buckets = Array.make initial_capacity (-1)
  and chain = Array.make initial_capacity (-1) in
  {
    frames;
    len = 0;
    live = 0;
    buckets;
    chain;
    synced = { live_frames = [||]; i_frames = frames; i_buckets = buckets; i_chain = chain };
    clean = true;
  }

let length t = t.live

let bucket t f = f land (Array.length t.buckets - 1)

let link t slot =
  let b = bucket t t.frames.(slot) in
  t.chain.(slot) <- t.buckets.(b);
  t.buckets.(b) <- slot

let rehash t =
  Array.fill t.buckets 0 (Array.length t.buckets) (-1);
  for s = 0 to t.len - 1 do
    if t.frames.(s) <> hole then link t s
  done

(* Fresh arrays of [cap] slots holding the first [len] slots. *)
let resize t cap =
  let frames = Array.make cap hole in
  Array.blit t.frames 0 frames 0 t.len;
  t.frames <- frames;
  t.buckets <- Array.make cap (-1);
  t.chain <- Array.make cap (-1)

(* The array is full: double it unless squeezing out the holes frees at
   least half of it, then squeeze them out. *)
let make_room t =
  let cap = Array.length t.frames in
  if 2 * t.live > cap then resize t (2 * cap);
  let j = ref 0 in
  for s = 0 to t.len - 1 do
    let f = t.frames.(s) in
    if f <> hole then begin
      t.frames.(!j) <- f;
      incr j
    end
  done;
  t.len <- !j;
  rehash t

let push t f =
  if f < 0 then invalid_arg "Owned_frames.push: negative frame";
  if t.len = Array.length t.frames then make_room t;
  t.frames.(t.len) <- f;
  link t t.len;
  t.len <- t.len + 1;
  t.live <- t.live + 1;
  t.clean <- false

(* Walk bucket [b]'s chain from slot [s] ([prev] the slot before it, -1
   at the head), unlinking and punching out every copy of [f]. *)
let rec unlink t f b prev s =
  if s >= 0 then begin
    let next = t.chain.(s) in
    if t.frames.(s) = f then begin
      t.frames.(s) <- hole;
      t.live <- t.live - 1;
      if prev < 0 then t.buckets.(b) <- next else t.chain.(prev) <- next;
      unlink t f b prev next
    end
    else unlink t f b s next
  end

(* Release every copy of [f]; trailing holes are given back at once. *)
let remove t f =
  if f >= 0 then begin
    let live = t.live in
    let b = bucket t f in
    unlink t f b (-1) t.buckets.(b);
    if t.live <> live then begin
      t.clean <- false;
      while t.len > 0 && t.frames.(t.len - 1) = hole do
        t.len <- t.len - 1
      done
    end
  end

let clear t =
  if t.live > 0 then begin
    t.len <- 0;
    t.live <- 0;
    Array.fill t.buckets 0 (Array.length t.buckets) (-1);
    t.clean <- false
  end

let iter f t =
  for s = t.len - 1 downto 0 do
    let x = t.frames.(s) in
    if x <> hole then f x
  done

(* The frames whose descriptor in [descs] (a [Pfn.t]'s) is [Writable],
   counted, and the [k]-th (from 0) of them newest first, -1 if fewer.
   The type is a field read, not a predicate call into another module. *)
let count_writable (descs : Pfn.desc array) t =
  let n = ref 0 in
  for s = t.len - 1 downto 0 do
    let x = t.frames.(s) in
    if x <> hole && descs.(x).Pfn.ptype = Pfn.Writable then incr n
  done;
  !n

let rec nth_writable_from (descs : Pfn.desc array) t k s =
  if s < 0 then -1
  else
    let x = t.frames.(s) in
    if x <> hole && descs.(x).Pfn.ptype = Pfn.Writable then
      if k = 0 then x else nth_writable_from descs t (k - 1) (s - 1)
    else nth_writable_from descs t k (s - 1)

let nth_writable descs t k = nth_writable_from descs t k (t.len - 1)

let rec find_from p a b t s =
  if s < 0 then -1
  else
    let x = t.frames.(s) in
    if x <> hole && p a b x then x else find_from p a b t (s - 1)

(* The newest frame satisfying [p a b], -1 if none; the predicate's
   environment ([a], [b]) is passed in, so a toplevel predicate makes a
   search allocation-free. *)
let find_if p a b t = find_from p a b t (t.len - 1)

let to_list t =
  let l = ref [] in
  for s = 0 to t.len - 1 do
    let x = t.frames.(s) in
    if x <> hole then l := x :: !l
  done;
  !l

let capture t =
  if t.clean then t.synced
  else begin
    let cap = ref (Array.length t.frames) in
    while !cap < 2 * t.live do
      cap := 2 * !cap
    done;
    if !cap > Array.length t.frames then begin
      resize t !cap;
      rehash t
    end;
    let live_frames = Array.make t.live 0 in
    let j = ref 0 in
    for s = 0 to t.len - 1 do
      let x = t.frames.(s) in
      if x <> hole then begin
        live_frames.(!j) <- x;
        incr j
      end
    done;
    let img =
      { live_frames; i_frames = t.frames; i_buckets = t.buckets; i_chain = t.chain }
    in
    t.synced <- img;
    t.clean <- true;
    img
  end

let restore t img =
  if not (t.clean && t.synced == img) then begin
    let n = Array.length img.live_frames in
    t.frames <- img.i_frames;
    t.buckets <- img.i_buckets;
    t.chain <- img.i_chain;
    Array.blit img.live_frames 0 t.frames 0 n;
    t.len <- n;
    t.live <- n;
    rehash t;
    t.synced <- img;
    t.clean <- true
  end
