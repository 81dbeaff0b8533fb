(** Grant tables: three ints per slot (in use, frame, mapper), with
    images the table takes and restores itself (see grant.ml). The table
    is abstract, so every write goes through a function below and marks
    it dirty. *)

type table

(** A table's contents at capture. Shared with the table and with later
    captures while the contents do not change; never mutated. *)
type image

(** [create heap ~slots domid] allocates the table's lock on [heap];
    every slot starts unused, with frame and mapper -1. *)
val create : Heap.t -> slots:int -> int -> table

val lock : table -> Spinlock.t

(** Number of slots. *)
val length : table -> int

val in_use : table -> slot:int -> bool
val frame : table -> slot:int -> int
val mapped_by : table -> slot:int -> int

(** Put [frame] in [slot]: in use, unmapped. *)
val grant : table -> slot:int -> frame:int -> unit

(** Asserts unless the slot is in use and unmapped. *)
val map : table -> slot:int -> by:int -> unit

(** Panics if the slot is not mapped. *)
val unmap : table -> slot:int -> unit

(** Overwrite the mapper, unchecked: the undo journal's grant ops. *)
val set_mapped_by : table -> slot:int -> int -> unit

(** Whether the frame backs an in-use slot. *)
val frame_granted : table -> int -> bool

(** Slots in use and unmapped, and the [k]-th of them (from 0, lowest
    slot first; [k] below [count_free]). *)
val count_free : table -> int
val nth_free : table -> int -> int

val count_in_use : table -> int
val count_mapped : table -> int

(** The contents as an image: the last one taken or restored when the
    contents still equal it, else a fresh copy. *)
val capture : table -> image

(** Load [image] back; skipped when the table is clean and was last
    synced to it. Allocates nothing. *)
val restore : table -> image -> unit
