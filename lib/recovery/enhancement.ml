(** Catalogue of recovery enhancements.

    The basic microreset (discard all execution threads) never succeeds
    on its own; the enhancements below resolve the component-level
    recovery challenges (Section II). They are listed in the order of
    the paper's measurement-driven incremental development (Table I). *)

type t =
  (* NiLiHype-specific (Section V-A) *)
  | Clear_irq_count
  | Sched_consistency
  | Reprogram_apic_timer
  | Unlock_static_locks
  | Reactivate_recurring_timers
  (* The "ReHype mechanisms" reused by NiLiHype (Sections III-B, IV) *)
  | Release_heap_locks
  | Hypercall_retry
  | Syscall_retry
  | Ack_interrupts
  | Pfn_consistency_scan
  | Restore_fs_gs

let name = function
  | Clear_irq_count -> "clear_irq_count"
  | Sched_consistency -> "sched_consistency"
  | Reprogram_apic_timer -> "reprogram_apic_timer"
  | Unlock_static_locks -> "unlock_static_locks"
  | Reactivate_recurring_timers -> "reactivate_recurring_timers"
  | Release_heap_locks -> "release_heap_locks"
  | Hypercall_retry -> "hypercall_retry"
  | Syscall_retry -> "syscall_retry"
  | Ack_interrupts -> "ack_interrupts"
  | Pfn_consistency_scan -> "pfn_consistency_scan"
  | Restore_fs_gs -> "restore_fs_gs"

(* The mechanisms NiLiHype inherits from ReHype ("Enhanced with ReHype
   mechanisms" row of Table I). ReHype's undo of partially executed
   non-idempotent hypercalls is not among them: it is no recovery-time
   switch here but belongs to [Hyper.Config.nonidempotent_logging], which
   logs during normal operation and gates the retry path's
   [Journal.undo_all]. *)
let rehype_mechanisms =
  [
    Release_heap_locks;
    Hypercall_retry;
    Syscall_retry;
    Ack_interrupts;
    Pfn_consistency_scan;
    Restore_fs_gs;
  ]

let all =
  [
    Clear_irq_count;
    Sched_consistency;
    Reprogram_apic_timer;
    Unlock_static_locks;
    Reactivate_recurring_timers;
  ]
  @ rehype_mechanisms

type set = { enabled : t list }

let set_of_list enabled = { enabled }
let full_set = set_of_list all
let mem set e = List.mem e set.enabled

(* Table I: the incremental-development ladder. Each row pairs a label
   with the cumulative enhancement set and the normal-operation config it
   requires (retry mitigation needs the logging to have been on). *)
let table1_ladder : (string * Hyper.Config.t * set) list =
  let open Hyper.Config in
  let row label config enabled = (label, config, set_of_list enabled) in
  [
    row "Basic" stock [];
    row "+ Clear IRQ count" stock [ Clear_irq_count ];
    row "+ Enhanced with ReHype mechanisms" nilihype
      (Clear_irq_count :: rehype_mechanisms);
    row "+ Ensure consistency within scheduling metadata" nilihype
      (Clear_irq_count :: Sched_consistency :: rehype_mechanisms);
    row "+ Reprogram hardware timer" nilihype
      (Clear_irq_count :: Sched_consistency :: Reprogram_apic_timer
       :: rehype_mechanisms);
    row "+ Unlock static locks" nilihype
      (Clear_irq_count :: Sched_consistency :: Reprogram_apic_timer
       :: Unlock_static_locks :: rehype_mechanisms);
    row "+ Reactivate recurring timer events" nilihype
      (Clear_irq_count :: Sched_consistency :: Reprogram_apic_timer
       :: Unlock_static_locks :: Reactivate_recurring_timers
       :: rehype_mechanisms);
  ]
