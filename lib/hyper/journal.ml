(** Undo journal for non-idempotent hypercall mitigation.

    The paper's lightweight alternative to transactionalising hypercalls:
    changes to critical variables (page reference counters, validation
    bits, type changes) are logged during normal operation; following
    recovery, before a retried hypercall re-reads or re-modifies those
    variables, the logged changes are undone. Logging costs cycles --
    it is the dominant normal-operation overhead in Figure 3.

    Each vCPU owns one journal for the lifetime of the vCPU (see
    {!Hypercalls.record}), so logging must not allocate: an entry is a
    typed op, the frame or grant slot it names and an int operand, held
    in two preallocated parallel int arrays (op and operand packed into
    one cell). {!undo_all} walks them newest first. The arrays are sized
    when the vCPU is created, from the config's bounds on what one call
    logs; only a call past those bounds (a config loosened after boot, a
    hand-built call over the ABI limit) grows them. *)

type op =
  | Use_count_delta (* operand: the delta that was applied *)
  | Validated_set (* the validation bit was set *)
  | Validated_cleared
  | Type_change (* operand: [Pfn.page_type_code] of the previous type *)
  | Owner_change (* operand: the previous owner *)
  | Put_if_used
      (* a frame the call allocated: drop its reference if it still
         holds one *)
  | Grant_unmap_undo (* target is a grant slot the call mapped *)
  | Grant_remap_undo (* target is a grant slot the call unmapped *)

(* Op codes fit in the low [op_bits] bits of a cell; [ops] decodes them. *)
let op_bits = 3

let op_code = function
  | Use_count_delta -> 0
  | Validated_set -> 1
  | Validated_cleared -> 2
  | Type_change -> 3
  | Owner_change -> 4
  | Put_if_used -> 5
  | Grant_unmap_undo -> 6
  | Grant_remap_undo -> 7

let ops =
  [|
    Use_count_delta; Validated_set; Validated_cleared; Type_change;
    Owner_change; Put_if_used; Grant_unmap_undo; Grant_remap_undo;
  |]

type t = {
  pfn : Pfn.t; (* the table frame targets index *)
  grants : Grant.table; (* the owning domain's grant table *)
  mutable cells : int array; (* per entry: op code lor (operand lsl op_bits) *)
  mutable targets : int array; (* per entry: frame index, or grant slot *)
  mutable count : int; (* entries since the last commit or undo *)
  mutable enabled : bool;
}

let create ~pfn ~grants ~capacity =
  {
    pfn;
    grants;
    cells = Array.make capacity 0;
    targets = Array.make capacity 0;
    count = 0;
    enabled = false;
  }

let set_enabled t on = t.enabled <- on

(* Cycles charged per log append; calibrated so that the hypercall-heavy
   workloads show the Figure 3 overhead profile. *)
let cycles_per_write = 70

let grow t =
  let capacity = max 8 (2 * Array.length t.cells) in
  let cells = Array.make capacity 0 and targets = Array.make capacity 0 in
  Array.blit t.cells 0 cells 0 t.count;
  Array.blit t.targets 0 targets 0 t.count;
  t.cells <- cells;
  t.targets <- targets

let log t op ~target ~operand =
  if t.enabled then begin
    if t.count = Array.length t.cells then grow t;
    t.cells.(t.count) <- op_code op lor (operand lsl op_bits);
    t.targets.(t.count) <- target;
    t.count <- t.count + 1
  end

(* Short op tag, used by the observability layer to label journal-append
   events and flight-ring entries. The three structure-specific ops keep
   the tag of the undo closures they replace, so postmortem bundles and
   triage files read the same. *)
let op_kind = function
  | Use_count_delta -> "use_count_delta"
  | Validated_set -> "validated_set"
  | Validated_cleared -> "validated_cleared"
  | Type_change -> "type_change"
  | Owner_change -> "owner_change"
  | Put_if_used | Grant_unmap_undo | Grant_remap_undo -> "undo_fn"

(* The frame arms write descriptor fields directly (not through the Pfn
   mutators), so they must mark the descriptor dirty themselves for the
   snapshot layer; the grant arms write through [Grant], which marks its
   table. *)
let undo_entry t i =
  let cell = t.cells.(i) and target = t.targets.(i) in
  let operand = cell asr op_bits in
  match ops.(cell land ((1 lsl op_bits) - 1)) with
  | Use_count_delta ->
    let d = Pfn.get t.pfn target in
    Pfn.touch d;
    d.Pfn.use_count <- d.Pfn.use_count - operand
  | Validated_set ->
    let d = Pfn.get t.pfn target in
    Pfn.touch d;
    d.Pfn.validated <- false
  | Validated_cleared ->
    let d = Pfn.get t.pfn target in
    Pfn.touch d;
    d.Pfn.validated <- true
  | Type_change ->
    let d = Pfn.get t.pfn target in
    Pfn.touch d;
    d.Pfn.ptype <- Pfn.page_types.(operand)
  | Owner_change ->
    let d = Pfn.get t.pfn target in
    Pfn.touch d;
    d.Pfn.owner <- operand
  | Put_if_used ->
    let d = Pfn.get t.pfn target in
    if d.Pfn.use_count > 0 then Pfn.put_page d
  | Grant_unmap_undo ->
    if Grant.mapped_by t.grants ~slot:target <> -1 then
      Grant.set_mapped_by t.grants ~slot:target (-1)
  | Grant_remap_undo ->
    if Grant.mapped_by t.grants ~slot:target = -1 then
      Grant.set_mapped_by t.grants ~slot:target 0

(* Undo everything logged since the last [commit], newest first. *)
let undo_all t =
  for i = t.count - 1 downto 0 do
    undo_entry t i
  done;
  t.count <- 0

(* A hypercall completed: its changes are final, drop the log. *)
let commit t = t.count <- 0

let depth t = t.count
let capacity t = Array.length t.cells
