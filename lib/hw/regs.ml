(** x86-64 register file model.

    The fault injector flips bits here (Register faults) and the recovery
    enhancements save/restore FS/GS, so the register set mirrors the one
    Gigan targets: the 16 general-purpose registers, the stack pointer
    (part of the GPRs as RSP), the flags register and the program counter,
    plus the FS/GS segment bases that Xen on x86-64 does not save. *)

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

(* The registers Gigan draws from for Register faults: 16 GPRs (includes
   RSP), RFLAGS and RIP -- not FS/GS. *)
let injectable_regs =
  [|
    RAX; RBX; RCX; RDX; RSI; RDI; RBP; RSP;
    R8; R9; R10; R11; R12; R13; R14; R15;
    RFLAGS; RIP;
  |]

let index = function
  | RAX -> 0 | RBX -> 1 | RCX -> 2 | RDX -> 3
  | RSI -> 4 | RDI -> 5 | RBP -> 6 | RSP -> 7
  | R8 -> 8 | R9 -> 9 | R10 -> 10 | R11 -> 11
  | R12 -> 12 | R13 -> 13 | R14 -> 14 | R15 -> 15
  | RFLAGS -> 16 | RIP -> 17 | FS -> 18 | GS -> 19

let name = function
  | RAX -> "rax" | RBX -> "rbx" | RCX -> "rcx" | RDX -> "rdx"
  | RSI -> "rsi" | RDI -> "rdi" | RBP -> "rbp" | RSP -> "rsp"
  | R8 -> "r8" | R9 -> "r9" | R10 -> "r10" | R11 -> "r11"
  | R12 -> "r12" | R13 -> "r13" | R14 -> "r14" | R15 -> "r15"
  | RFLAGS -> "rflags" | RIP -> "rip" | FS -> "fs" | GS -> "gs"

type t = { values : int64 array }

let count = Array.length all_regs

let create () = { values = Array.make count 0L }

let get t r = t.values.(index r)
let set t r v = t.values.(index r) <- v

let flip_bit t r bit =
  let v = get t r in
  set t r (Int64.logxor v (Int64.shift_left 1L bit))

let copy t = { values = Array.copy t.values }

let restore ~from t = Array.blit from.values 0 t.values 0 count

let equal a b = a.values = b.values

let pp fmt t =
  Array.iter
    (fun r -> Format.fprintf fmt "%s=%Lx " (name r) (get t r))
    all_regs
