(* splitmix64, computed on two 32-bit limbs held in native ints.

   The reference implementation is the obvious one over [Int64], but
   without flambda every [Int64] operation allocates a 3-word box, which
   made the generator the single largest allocator in the injection hot
   loop (~10 boxed temporaries per draw). The limb form keeps the whole
   state step in untagged native-int arithmetic: 16-bit partial products
   stay below 2^32 and their accumulated sums below 2^34, so nothing
   overflows the 63-bit native int. The mixed output limbs are written
   into the generator's own scratch fields ([out_hi]/[out_lo]) rather
   than returned as a tuple or through a continuation, both of which
   would allocate; a generator is owned by exactly one domain, so the
   scratch is race-free. [int] and [bool] allocate nothing at all,
   [float] only its boxed return.

   Stream compatibility with the Int64 reference is bit-exact and
   guarded by a test (test_sim: "limb arithmetic matches Int64
   reference"). *)

type t = {
  mutable hi : int; (* state, upper 32 bits *)
  mutable lo : int; (* state, lower 32 bits *)
  mutable out_hi : int; (* last mixed output, upper 32 bits *)
  mutable out_lo : int; (* last mixed output, lower 32 bits *)
}

let mask32 = 0xFFFFFFFF

(* golden gamma 0x9E3779B97F4A7C15 *)
let gamma_hi = 0x9E3779B9
let gamma_lo = 0x7F4A7C15

let create seed =
  {
    hi = Int64.to_int (Int64.shift_right_logical seed 32);
    lo = Int64.to_int (Int64.logand seed 0xFFFFFFFFL);
    out_hi = 0;
    out_lo = 0;
  }

(* Rewind an existing generator to a new seed: [reseed t s] makes [t]
   produce exactly the stream of [create s] without allocating. *)
let reseed t seed =
  t.hi <- Int64.to_int (Int64.shift_right_logical seed 32);
  t.lo <- Int64.to_int (Int64.logand seed 0xFFFFFFFFL)

(* Capture the current stream position as a seed value: [reseed t (save t)]
   is the identity, and [create (save t)] clones the remaining stream.
   Together with [reseed] this is the snapshot/restore pair -- one boxed
   Int64 per save, nothing per restore. *)
let save t =
  Int64.logor
    (Int64.shift_left (Int64.of_int t.hi) 32)
    (Int64.of_int t.lo)

(* (hi, lo) * C mod 2^64, where C is given as four 16-bit digits
   (b0 least significant); result into out_hi/out_lo. Six 32x16-bit
   partial products (each < 2^48, sums < 2^51, so nothing overflows the
   63-bit native int) instead of the ten 16x16 products of the obvious
   schoolbook form: the upper half only ever needs the cross terms mod
   2^32, so the high-digit products can take whole 32-bit limbs. Output
   is bit-identical to the full schoolbook product (guarded by the
   Int64-reference test in test_sim). *)
let mul_into t hi lo b0 b1 b2 b3 =
  let m0 = lo * b0 in
  let m1 = lo * b1 in
  let lo_acc = m0 + ((m1 land 0xFFFF) lsl 16) in
  let hi_acc =
    (lo_acc lsr 32) + (m1 lsr 16) + (lo * b2)
    + (((lo land 0xFFFF) * b3) lsl 16)
    + (hi * b0)
    + (((hi land 0xFFFF) * b1) lsl 16)
  in
  t.out_hi <- hi_acc land mask32;
  t.out_lo <- lo_acc land mask32

(* splitmix64 step: advance state by the golden gamma, then mix
     z ^= z >>> 30; z *= 0xBF58476D1CE4E5B9;
     z ^= z >>> 27; z *= 0x94D049BB133111EB;
     z ^= z >>> 31
   leaving the result in out_hi/out_lo. *)
let next t =
  let lo_acc = t.lo + gamma_lo in
  let lo = lo_acc land mask32 in
  let hi = (t.hi + gamma_hi + (lo_acc lsr 32)) land mask32 in
  t.hi <- hi;
  t.lo <- lo;
  (* z ^= z >>> 30 *)
  let xlo = lo lxor (((hi lsl 2) lor (lo lsr 30)) land mask32) in
  let xhi = hi lxor (hi lsr 30) in
  mul_into t xhi xlo 0xE5B9 0x1CE4 0x476D 0xBF58;
  (* z ^= z >>> 27 *)
  let hi = t.out_hi and lo = t.out_lo in
  let xlo = lo lxor (((hi lsl 5) lor (lo lsr 27)) land mask32) in
  let xhi = hi lxor (hi lsr 27) in
  mul_into t xhi xlo 0x11EB 0x1331 0x49BB 0x94D0;
  (* z ^= z >>> 31 *)
  let hi = t.out_hi and lo = t.out_lo in
  t.out_lo <- lo lxor (((hi lsl 1) lor (lo lsr 31)) land mask32);
  t.out_hi <- hi lxor (hi lsr 31)

let int64 t =
  next t;
  Int64.logor
    (Int64.shift_left (Int64.of_int t.out_hi) 32)
    (Int64.of_int t.out_lo)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Modulo bias is negligible for the bounds used here (<= 2^30). The
     62-bit truncation mirrors the Int64 reference's 0x3FFF... mask. *)
  next t;
  (((t.out_hi land 0x3FFFFFFF) lsl 32) lor t.out_lo) mod n

(* Inlined, so [float_below] and [choose_index_cum] keep the draw
   unboxed. *)
let[@inline] float t x =
  (* The top 53 bits (the >>> 11 of the reference) are exact in a float. *)
  next t;
  let v = (t.out_hi lsl 21) lor (t.out_lo lsr 11) in
  x *. (float_of_int v /. 9007199254740992.0 (* 2^53 *))

let float_below t x y = float t x < y

let bool t =
  next t;
  t.out_lo land 1 = 1

let choose_weighted t weights =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weights in
  if total <= 0.0 then invalid_arg "Rng.choose_weighted: no positive weight";
  let target = float t total in
  let rec go acc = function
    | [] -> invalid_arg "Rng.choose_weighted: empty list"
    | [ (_, x) ] -> x
    | (w, x) :: rest ->
      let acc = acc +. w in
      if target < acc then x else go acc rest
  in
  go 0.0 weights

(* Hot-path form of [choose_weighted]: the caller precomputes the
   cumulative partial sums (cum.(i) = w0 +. ... +. wi, in list order)
   once and samples indices with no per-draw traversal of a boxed-float
   list. Same single [float] draw against the same total and the same
   strict [target < cum.(i)] boundary (with last-element fallback), so
   the selected index -- and the RNG stream -- match [choose_weighted]
   over the originating list exactly. *)
let choose_index_cum t cum =
  let n = Array.length cum in
  if n = 0 then invalid_arg "Rng.choose_index_cum: empty array";
  let total = cum.(n - 1) in
  if total <= 0.0 then invalid_arg "Rng.choose_index_cum: no positive weight";
  let target = float t total in
  let i = ref 0 in
  while !i < n - 1 && target >= cum.(!i) do
    incr i
  done;
  !i

(* Cumulative sums of a weight list, for [choose_index_cum]. Summed in
   list order so the partial sums match [choose_weighted]'s bit for bit. *)
let cumulative weights =
  let n = List.length weights in
  if n = 0 then invalid_arg "Rng.cumulative: empty list";
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  List.iteri
    (fun i (w, _) ->
      acc := !acc +. w;
      cum.(i) <- !acc)
    weights;
  cum
