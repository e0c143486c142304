(** Debug-trace extraction following the paper's protocol
    (Section III-A, step 2): temporary breakpoints on every line of the
    line table, one session over all inputs, recording each line's first
    hit and the variables the debug information can materialize there. *)

module Var_set : Set.S with type elt = Ir.var_id

type trace = {
  stepped : (int, Var_set.t) Hashtbl.t;  (** line -> variables at first hit *)
  steppable : int list;  (** lines present in the binary's line table *)
  hit_order : int list;  (** lines in first-hit order *)
  per_input_lines : int list array;
      (** lines newly observed per input, for corpus pruning *)
}

val trace :
  ?all_locations:bool ->
  Vm.loaded ->
  entry:string ->
  inputs:int list list ->
  trace
(** [trace prog ~entry ~inputs] runs one debug session over the loaded
    binary: every input runs the same decode. [all_locations]
    (default [true], gdb's behaviour) arms every code location carrying a
    line; [false] arms only the lowest address (the ablation policy). *)

val stepped_lines : trace -> int list
(** Sorted lines stepped during the session. *)

val vars_at : trace -> int -> Var_set.t
(** Variables recorded at a line's first hit (empty if not stepped). *)
