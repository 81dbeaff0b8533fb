(** The hypervisor's domains, indexed by domid.

    A lookup is an array read, and every walk visits the domains in
    ascending domid, so the idle domain ({!idle_domid}) comes last while
    handed-out domids stay below it. No lookup or walk allocates; a walk
    allocates only what its function does.

    The table images itself like the event-channel and grant tables: a
    table unchanged since its last capture or restore captures as that
    same image, and the first write after one copies the domid array,
    so an image is never mutated. *)

type t

(** The domains at capture. Shared with the table and with later
    captures while no domain is added or removed; never mutated. *)
type image

(** The idle domain's reserved domid. Every other domid is handed out in
    sequence from 0. *)
val idle_domid : int

val create : unit -> t

(** The domain holding [domid]: [None] for any domid no domain holds,
    negative or past the table included. Allocates nothing. *)
val find : t -> int -> Domain.t option

(** Bind the domain's domid to it, replacing any domain bound there. *)
val add : t -> Domain.t -> unit

(** Unbind [domid]; nothing if no domain holds it. *)
val remove : t -> int -> unit

(** {2 Walks}

    Ascending domid. A domain the function adds is not visited; one it
    removes is not visited after the removal. *)

val iter : (Domain.t -> unit) -> t -> unit

(** Every vCPU, domain by domain, each domain's in vid order. *)
val iter_vcpus : (Domain.vcpu -> unit) -> t -> unit

(** [fold_right f t init] is [List.fold_right f (domains) init]: consing
    each domain onto the accumulator builds an ascending list. *)
val fold_right : (Domain.t -> 'a -> 'a) -> t -> 'a -> 'a

(** The first domain satisfying the predicate. Allocates nothing. *)
val find_first : (Domain.t -> bool) -> t -> Domain.t option

(** Domains satisfying the predicate, and the [k]-th of them (from 0;
    [k] below the count). *)
val count : (Domain.t -> bool) -> t -> int

val nth : (Domain.t -> bool) -> t -> int -> Domain.t

(** vCPUs over every domain, and the [k]-th in {!iter_vcpus} order. *)
val vcpu_count : t -> int

val nth_vcpu : t -> int -> Domain.vcpu

(** {2 Images} *)

(** The current domains: the last image taken or restored while no
    domain was added or removed since, else a new one. *)
val capture : t -> image

(** Bind exactly [image]'s domains again. Allocates nothing. *)
val restore : t -> image -> unit
