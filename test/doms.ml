(* A hypervisor's domains and vCPUs as lists, in walk order, for checks
   that count, compare or index them. The library walks them in place
   ([Hyper.Domain_table]). *)

let domains (hv : Hyper.Hypervisor.t) =
  Hyper.Domain_table.fold_right List.cons hv.Hyper.Hypervisor.domains []

let app_domains hv = List.filter Hyper.Domain.is_app (domains hv)

let vcpus hv =
  List.concat_map
    (fun (d : Hyper.Domain.t) -> Array.to_list d.Hyper.Domain.vcpus)
    (domains hv)
