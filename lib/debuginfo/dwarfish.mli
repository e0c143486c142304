(** DWARF-like debug information attached to emitted binaries: the line
    table and per-variable location lists, and the queries a debugger
    and the static metrics make against them. *)

type location =
  | In_reg of int  (** physical register *)
  | In_slot of int  (** frame slot (word offset within the frame) *)
  | Const of int  (** value was constant-folded *)

type range = {
  lo : int;
  hi : int;  (** half-open [lo, hi) address range *)
  where : location;
  usable : bool;
      (** [false] for entry-value-style entries present in the debug
          info (counted by static readers) but not materializable by the
          debugger — the paper's static-overestimation artifact *)
}

type var_info = {
  vi_var : Ir.var_id;
  vi_is_array : bool;
  mutable vi_ranges : range list;
}

type line_entry = { addr : int; line : int }

type t = {
  mutable line_table : line_entry list;  (** sorted by address after {!finalize} *)
  mutable vars : var_info list;
}

val empty : unit -> t

val location_to_string : location -> string

val steppable_lines : t -> int list
(** Lines with at least one line-table entry — where a breakpoint can
    land. *)

val breakpoint_addrs : t -> (int * int) list
(** [(line, addr)] pairs: the lowest address of each steppable line. *)

val available_at : t -> int -> (Ir.var_id * location) list
(** Variables "visible with a value" at an address: covered by a usable
    location-list entry. *)

val var_ranges : t -> Ir.var_id -> range list
(** All ranges recorded for a variable (usable or not). *)

val add_line : t -> addr:int -> line:int -> unit

val finalize : t -> unit
(** Sort the line table by address; call once after emission. *)

val add_var : t -> var:Ir.var_id -> is_array:bool -> range list -> unit
(** Append ranges to a variable's location list, adding the variable
    (with [is_array]) after the others when it has none yet. Linear in
    the number of variables: use {!Vars} to build a whole binary's. *)

(** Location lists gathered range by range and turned into [vars] once.
    [to_list] returns exactly the [vars] that calling {!add_var} with
    each range, in the same order, on an empty [t] would leave —
    variables in first-add order with the first add's [var] and
    [is_array], each one's ranges in add order — in time linear in the
    number of ranges. *)
module Vars : sig
  type t

  val create : unit -> t
  val add : t -> var:Ir.var_id -> is_array:bool -> range -> unit
  val to_list : t -> var_info list
end
