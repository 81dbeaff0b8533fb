(** x86-64 register file model: the 16 general-purpose registers (RSP
    among them), RFLAGS, RIP, and the FS/GS segment bases that Xen on
    x86-64 does not save across a hypervisor entry. Each CPU and each
    guest vCPU holds one, and machine and domain images copy it whole.
    Register faults do not flip bits here: the injector models their
    propagated effect as corruption targets (lib/inject/fault.ml,
    corrupt.ml). *)

type reg =
  | RAX | RBX | RCX | RDX | RSI | RDI | RBP | RSP
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15
  | RFLAGS
  | RIP
  | FS
  | GS

let all_regs =
  [|
    RAX; RBX; RCX; RDX; RSI; RDI; RBP; RSP;
    R8; R9; R10; R11; R12; R13; R14; R15;
    RFLAGS; RIP; FS; GS;
  |]

let index = function
  | RAX -> 0 | RBX -> 1 | RCX -> 2 | RDX -> 3
  | RSI -> 4 | RDI -> 5 | RBP -> 6 | RSP -> 7
  | R8 -> 8 | R9 -> 9 | R10 -> 10 | R11 -> 11
  | R12 -> 12 | R13 -> 13 | R14 -> 14 | R15 -> 15
  | RFLAGS -> 16 | RIP -> 17 | FS -> 18 | GS -> 19

type t = { values : int64 array }

let count = Array.length all_regs

let create () = { values = Array.make count 0L }

let get t r = t.values.(index r)
let set t r v = t.values.(index r) <- v

let copy t = { values = Array.copy t.values }

let restore ~from t = Array.blit from.values 0 t.values 0 count
