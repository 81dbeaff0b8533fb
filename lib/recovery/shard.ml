(** Sharded microreset: partition repair into per-domain shards recovered
    concurrently across the simulated CPUs.

    The serial microreset stops the world for the whole repair, so every
    domain pays the full recovery latency even when only one domain's
    state was damaged. Sharded recovery splits the work: a short global
    quiesce repairs the singletons every domain depends on (static
    locks, heap locks, IRQ state, scheduler metadata, recurring timers),
    then per-domain shards -- the domain's page-frame descriptors plus
    its hypercall/syscall retry and FS/GS bookkeeping -- run concurrently
    on the available CPUs. A domain resumes as soon as the global phase
    and its own shard are done; domains with no damaged state and no
    in-flight hypervisor work pay only the global window.

    The shards are the plan's lane steps, so {!Plan.run} schedules them
    and the post-recovery machine state is identical to the serial
    microreset's (the per-descriptor repair is order-independent, see
    {!Pfn.fix_desc}). *)

open Hyper

(* Scale a simulated-table frame count to the configured geometry, so a
   full-scan shard over the 64 Ki-frame campaign table charges its
   proportional share of the modelled host's 2 Mi-frame scan. Exact
   (factor 1) when no geometry override is set. *)
let scale_frames ~geo_frames ~real_frames n =
  if real_frames = geo_frames then n else n * geo_frames / real_frames

(* The global quiesce, one lane step per shard, then the global resume. *)
let plan (hv : Hypervisor.t) ~(enh : Enhancement.set) ~detected_on repairs =
  let mechanism = "NiLiHype-sharded" in
  let has = Common.has hv ~mechanism ~cpu:detected_on enh in
  let geo = Hypervisor.geometry hv in
  let real_frames = Hypervisor.frames hv in
  let mode = Common.scan_mode hv in
  let scan = Enhancement.mem enh Enhancement.Pfn_consistency_scan in
  (* Group descriptors needing a scan by owner. Each descriptor has
     exactly one owner value, so the groups are a total partition of the
     scanned set whatever state the owner fields are in (damaged owners
     land in some group and are still repaired). Groups keep reverse
     visit order; repairs are order-independent. The quiesce touches no
     descriptor, so grouping before it sees what the shards will. The
     full scan peeks: an untouched frame reads as the table's sentinel,
     which is consistent, so its shard never writes it; it only counts
     toward the sentinel owner's group (created where the first frame
     would have created it, so the groups fold in the same order). *)
  let groups : (int, Pfn.desc list ref * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let group owner =
    match Hashtbl.find_opt groups owner with
    | Some g -> g
    | None ->
      let g = (ref [], ref 0) in
      Hashtbl.replace groups owner g;
      g
  in
  let visit (d : Pfn.desc) =
    let descs, count = group d.Pfn.owner in
    descs := d :: !descs;
    incr count
  in
  (if scan then
     match mode with
     | Plan.Incremental_scan -> Pfn.iter_dirty hv.Hypervisor.pfn visit
     | Plan.Full_scan ->
       let pfn = hv.Hypervisor.pfn in
       let untouched = lazy (snd (group pfn.Pfn.sentinel.Pfn.owner)) in
       for i = 0 to real_frames - 1 do
         let d = Pfn.peek pfn i in
         if d == pfn.Pfn.sentinel then incr (Lazy.force untouched) else visit d
       done);
  (* Domains with in-flight hypervisor work need a shard for their
     retry / FS-GS bookkeeping even if none of their frames is dirty.
     One walk over the vCPUs: [Array.exists] per domain would build a
     closure per domain. *)
  Domain_table.iter_vcpus
    (fun (v : Domain.vcpu) ->
      if v.Domain.in_hypercall <> None || v.Domain.in_syscall_forward then
        ignore (group v.Domain.domid))
    hv.Hypervisor.domains;
  let shard owner (descs, count) steps =
    let scan_cost =
      if not scan then 0
      else
        match mode with
        | Plan.Incremental_scan -> Latency_model.pfn_scan_dirty ~dirty:!count
        | Plan.Full_scan ->
          Latency_model.pfn_scan
            ~frames:(scale_frames ~geo_frames:geo.Config.frames ~real_frames !count)
    in
    let name =
      if owner < 0 then "Shard: unowned frames"
      else "Shard: domain " ^ string_of_int owner
    in
    Plan.step ~owner:(Plan.Domain owner) name
      (Latency_model.shard_domain_base + scan_cost)
      (fun () ->
        List.iter
          (fun d ->
            if Pfn.fix_desc d then
              repairs.Plan.pfn_fixed <- repairs.Plan.pfn_fixed + 1)
          !descs;
        match Hypervisor.domain hv owner with
        | Some d ->
          Array.iter (Common.setup_retry ~enh) d.Domain.vcpus;
          Array.iter (Common.restore_fs_gs_vcpu hv ~enh) d.Domain.vcpus
        | None -> ())
    :: steps
  in
  {
    Plan.mechanism;
    mode = Some mode;
    steps =
      Plan.step "Quiesce CPUs, repair global singletons"
        (Latency_model.shard_global_quiesce ~cpus:geo.Config.cpus)
        ~after:(Common.singletons_repaired hv ~has ~cpu:detected_on mode repairs)
        (fun () ->
          Common.stop_world hv ~detected_on;
          Common.repair_singletons hv ~has repairs)
      :: Hashtbl.fold shard groups [ Common.resume_step hv ~has ];
  }

let recover hv ~enh ~detected_on =
  Plan.run hv ~detected_on (plan hv ~enh ~detected_on)
