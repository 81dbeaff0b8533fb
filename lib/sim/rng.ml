(* splitmix64, the textbook Int64 form, on a state that is never boxed.

   Without flambda an [int64] kept in a mutable record field, or
   returned from a call that is not inlined, is a 3-word box. So the
   state lives in an 8-byte [bytes] read and written with the
   [%caml_bytes_get64u]/[%caml_bytes_set64u] primitives, which load and
   store the raw 64 bits, and [next] is inlined into every draw: the
   compiler then keeps each intermediate [int64] in a register, and
   [int], [float_below] and [bool] allocate nothing ([float] only its
   boxed return, [int64] and [save] their boxed result). A generator is
   owned by exactly one domain.

   Every derivation is pinned bit for bit to an Int64 reference stream
   (test_sim: "splitmix64 matches Int64 reference" and "derivations
   match Int64 reference"): the raw stream, [int]'s low 62 bits mod n,
   [float]'s top 53 bits over 2^53, [bool]'s low bit, and the
   [save]/[reseed] round trip. *)

type t = bytes

external get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

(* Rewind an existing generator to a new seed: [reseed t s] makes [t]
   produce exactly the stream of [create s] without allocating. *)
let reseed t seed = set64 t 0 seed

(* Capture the current stream position as a seed value: [reseed t (save t)]
   is the identity, and [create (save t)] clones the remaining stream.
   Together with [reseed] this is the snapshot/restore pair -- one boxed
   Int64 per save, nothing per restore. *)
let save t = get64 t 0

(* splitmix64 step: advance the state by the golden gamma, then mix. *)
let[@inline] next t =
  let z = Int64.add (get64 t 0) 0x9E3779B97F4A7C15L in
  set64 t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = next t

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Modulo bias is negligible for the bounds used here (<= 2^30).
     [max_int] keeps the low 62 bits. *)
  (Int64.to_int (next t) land max_int) mod n

(* Inlined, so [float_below] and [choose_index_cum] keep the draw
   unboxed. The top 53 bits are exact in a float, and so is the
   multiply by 2^-53. *)
let[@inline] float t x =
  x *. (float_of_int (Int64.to_int (Int64.shift_right_logical (next t) 11)) *. 0x1p-53)

let float_below t x y = float t x < y

let bool t = Int64.to_int (next t) land 1 = 1

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
