(** The single arithmetic semantics shared by the AST interpreter, the
    IR constant folder, every simplification pass and the VM — so that
    no transformation can ever change a program's observable output.

    All operations are total: division/remainder by zero yield 0, shift
    amounts are taken modulo 64 with word-size-or-more shifts saturating
    to 0 (or the sign for arithmetic right shifts).

    One copy lives outside this module: the VM's fast core evaluates
    the binary and unary operators inline ([Vm.Fast.binop] and
    [Vm.Fast.unop]), because a call into this module through
    [Ir.eval_binop] costs more than the operation. The conformance case
    "every binary operator at the edge operands"
    ([test/test_vm_conformance.ml]) pins that copy to [Ir.eval_binop]
    over 0, ±1, ±2, 62–65, [max_int] and [min_int]. *)

let add = ( + )
let sub = ( - )
let mul = ( * )

let div a b = if b = 0 then 0 else a / b

let rem a b = if b = 0 then 0 else a mod b

let band = ( land )
let bor = ( lor )
let bxor = ( lxor )

let shl a b =
  let s = b land 63 in
  if s >= 63 then 0 else a lsl s

let shr a b =
  let s = b land 63 in
  if s >= 63 then if a < 0 then -1 else 0 else a asr s

let ceq a b = if a = b then 1 else 0
let cne a b = if a <> b then 1 else 0
let clt a b = if a < b then 1 else 0
let cle a b = if a <= b then 1 else 0
let cgt a b = if a > b then 1 else 0
let cge a b = if a >= b then 1 else 0

let neg a = -a
let lnot a = if a = 0 then 1 else 0
let bnot a = Stdlib.lnot a

(** [wrap_index i size] — total array indexing: indices wrap modulo the
    array size (the runtime convention of both the VM and the
    interpreter). *)
let wrap_index i size = if size <= 0 then 0 else ((i mod size) + size) mod size
