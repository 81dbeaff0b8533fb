(** Event channels: one int of flag bits per port, with images the table
    takes and restores itself (see evtchn.ml). The table is abstract, so
    every write goes through a function below and marks it dirty. *)

type table

(** A table's contents at capture. Shared with the table and with later
    captures while the contents do not change; never mutated. *)
type image

(** Port flag bits. *)

val port_bound : int
val port_pending : int

(** [create heap ~ports domid] allocates the table's lock on [heap]. *)
val create : Heap.t -> ports:int -> int -> table

val lock : table -> Spinlock.t
val ports : table -> int
val flags : table -> port:int -> int

(** Asserts if the port is already bound. *)
val bind : table -> port:int -> unit

(** Marks a bound port pending. *)
val send : table -> port:int -> unit

(** Lowest unbound port, -1 if none. *)
val first_unbound : table -> int

(** [count t bits]: ports with every bit of [bits] set. *)
val count : table -> int -> int

(** The contents as an image: the last one taken or restored when the
    contents still equal it, else a fresh copy. *)
val capture : table -> image

(** Load [image] back; skipped when the table is clean and was last
    synced to it. Allocates nothing. *)
val restore : table -> image -> unit
