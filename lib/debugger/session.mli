(** Interactive debugger sessions driven by command scripts — the
    analog of the paper's methodology of driving gdb in batch mode.

    Commands (gdb-flavoured): [break L] (optionally
    [break L if var OP int]), [tbreak L], [delete L],
    [run i1,i2,...], [continue]/[c], [step]/[s], [next]/[n], [finish],
    [print x]/[p x], [watch x], [unwatch x], [info locals], [info line],
    [info breakpoints], [info watchpoints], [backtrace]/[bt], [quit].
    A breakpoint arms every line-table address of its line. [continue],
    [step] and [next] hold back only the stopped line's own locations
    until execution leaves that line in the stopped frame or a caller,
    so a breakpoint inside a function the line calls still fires, and
    a [continue] from inside that function stops again at the line's
    post-call location if it carries a breakpoint.
    Watchpoints are software watchpoints: the value is re-sampled from
    the debug info after every instruction, as gdb does without
    hardware debug registers. Variables are materialized from the
    binary's DWARF-like debug information; a variable whose location
    list does not cover the stop address prints [<optimized out>],
    exactly the artifact the paper measures. *)

type t

(** A variable's value as the debug information reads it: a scalar, or
    every word of an array's slot. *)
type value = Vint of int | Varr of int list

val create : Emit.binary -> entry:string -> t
(** A fresh session; the program is not running until [run]. *)

val exec : t -> string -> string list
(** Execute one command; returns its output lines. Unknown commands
    produce a one-line error, never an exception. *)

val script : Emit.binary -> entry:string -> string list -> string
(** [script bin ~entry commands] replays a batch script (the gdb [-x]
    analog) and returns the transcript: each command echoed behind a
    ["(dbg) "] prompt, followed by its output. *)

(** One stop of {!first_hits}: the line, the stopped frame's function,
    and every visible variable whose location reads. *)
type hit = {
  hit_line : int;
  hit_func : string;
  hit_values : (Ir.var_id * value) list;
}

val first_hits : Emit.binary -> entry:string -> input:int list -> hit list
(** The paper's trace protocol (Section III-A, step 2) as a session: a
    temporary breakpoint on every line of the line table, one run on
    [input], continued to exit; one hit per line, in first-hit order.
    A run that exhausts its budget ends the list; [Vm.Runtime_error]
    escapes. *)
