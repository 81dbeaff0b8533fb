(** Statistics helpers used to report campaign results with the same
    95% confidence intervals the paper quotes. *)

let z_95 = 1.959964

(* Normal-approximation half-width of the 95% CI for a proportion, the
   convention used in the paper's "rate +/- x%" figures. *)
let proportion_ci_half ~successes ~trials =
  if trials <= 0 then nan
  else begin
    let n = float_of_int trials in
    let p = float_of_int successes /. n in
    z_95 *. sqrt (p *. (1.0 -. p) /. n)
  end

(* Wilson score interval: better behaved near 0% and 100%. *)
let wilson_interval ~successes ~trials =
  if trials <= 0 then (nan, nan)
  else begin
    let n = float_of_int trials in
    let p = float_of_int successes /. n in
    let z = z_95 in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let centre = (p +. (z2 /. (2.0 *. n))) /. denom in
    let half =
      z *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n))) /. denom
    in
    (max 0.0 (centre -. half), min 1.0 (centre +. half))
  end

(* String-keyed occurrence counters, used for campaign failure notes.
   Accumulation and merging are O(1) amortised per key; [sorted] gives a
   canonical (key-ordered) view so aggregates are comparable regardless
   of the order in which counts were accumulated or merged. *)
module Counts = struct
  type t = (string, int) Hashtbl.t

  let create ?(size = 16) () : t = Hashtbl.create size

  let add ?(by = 1) (t : t) key =
    match Hashtbl.find_opt t key with
    | Some c -> Hashtbl.replace t key (c + by)
    | None -> Hashtbl.add t key by

  (* Commutative, associative merge: [into] absorbs every count of
     [src]. *)
  let merge_into ~into (src : t) =
    Hashtbl.iter (fun k v -> add ~by:v into k) src

  let sorted (t : t) =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let total (t : t) = Hashtbl.fold (fun _ v acc -> acc + v) t 0

  let of_list l =
    let t = create () in
    List.iter (fun (k, v) -> add ~by:v t k) l;
    t
end

(* Mean of an integer sum without integer truncation; [None] when there
   are no samples. Keeping (sum, samples) instead of a running mean is
   what makes campaign aggregates mergeable exactly. *)
let mean_of_sum ~sum ~samples =
  if samples <= 0 then None
  else Some (float_of_int sum /. float_of_int samples)

type proportion = { successes : int; trials : int }

let proportion ~successes ~trials = { successes; trials }

let rate p =
  if p.trials = 0 then nan
  else float_of_int p.successes /. float_of_int p.trials

let pp_proportion fmt p =
  let half = proportion_ci_half ~successes:p.successes ~trials:p.trials in
  Format.fprintf fmt "%.1f%% +/- %.1f%%" (100.0 *. rate p) (100.0 *. half)
