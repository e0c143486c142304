(** DWARF-like debug information attached to emitted binaries.

    Two structures, mirroring what a debugger consumes:

    - the {b line table}: a map from instruction address to source line,
      from which "steppable" lines and breakpoint addresses derive;
    - {b location lists}: per source variable, a list of half-open
      address ranges with the concrete location (register, frame slot, or
      constant) holding the variable's value on that range.

    An O0 binary gives every named scalar a frame-slot location spanning
    its whole function — including addresses before the variable's first
    assignment. That over-wide range is the DWARF artifact the paper's
    hybrid metric corrects with static definition ranges. *)

type location =
  | In_reg of int  (** physical register *)
  | In_slot of int  (** frame slot (word offset within the frame) *)
  | Const of int  (** value was constant-folded; DWARF const value *)

type range = {
  lo : int;
  hi : int;
  where : location;
  usable : bool;
      (** [false] for entry-value-style entries that are present in the
          debug info (a static reader counts them) but that the debugger
          cannot materialize — the paper's "shows as in the binary but is
          unusable" artifact (Section II), which gcc produces much more
          than clang *)
}
(** Half-open address range [lo, hi). *)

type var_info = {
  vi_var : Ir.var_id;
  vi_is_array : bool;
  mutable vi_ranges : range list;
}

type line_entry = { addr : int; line : int }

type t = {
  mutable line_table : line_entry list;  (** sorted by address *)
  mutable vars : var_info list;
}

let empty () = { line_table = []; vars = [] }

let location_to_string = function
  | In_reg r -> Printf.sprintf "reg%d" r
  | In_slot s -> Printf.sprintf "frame+%d" s
  | Const n -> Printf.sprintf "const %d" n

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

(** All source lines with at least one line-table entry: the lines a
    debugger can place a breakpoint on. *)
let steppable_lines t =
  List.sort_uniq compare (List.map (fun e -> e.line) t.line_table)

(** Breakpoint address for each steppable line: the lowest address
    carrying that line (the address [gdb]'s [tbreak FILE:LINE] picks). *)
let breakpoint_addrs t =
  let best = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt best e.line with
      | Some a when a <= e.addr -> ()
      | _ -> Hashtbl.replace best e.line e.addr)
    t.line_table;
  Hashtbl.fold (fun line addr acc -> (line, addr) :: acc) best []
  |> List.sort compare

(** [available_at t addr] — variables whose location list covers [addr]
    with a location the debugger can actually evaluate: "visible with a
    value" in the paper's sense. *)
let available_at t addr =
  List.filter_map
    (fun vi ->
      List.find_map
        (fun r ->
          if r.usable && addr >= r.lo && addr < r.hi then
            Some (vi.vi_var, r.where)
          else None)
        vi.vi_ranges)
    t.vars

(** [var_covered_addrs t var] — the set of addresses covered by [var]'s
    location list, for the static coverage metric. *)
let var_ranges t var =
  List.concat_map
    (fun vi -> if vi.vi_var = var then vi.vi_ranges else [])
    t.vars

let add_line t ~addr ~line = t.line_table <- { addr; line } :: t.line_table

let finalize t =
  t.line_table <- List.sort (fun a b -> compare a.addr b.addr) t.line_table

let add_var t ~var ~is_array ranges =
  match List.find_opt (fun vi -> vi.vi_var = var) t.vars with
  | Some vi -> vi.vi_ranges <- vi.vi_ranges @ ranges
  | None -> t.vars <- t.vars @ [ { vi_var = var; vi_is_array = is_array; vi_ranges = ranges } ]

(* Variables compare by content, like the [=] of [add_var]. *)
module Var_tbl = Hashtbl.Make (struct
  type t = Ir.var_id

  let equal (a : t) (b : t) =
    String.equal a.Ir.origin b.Ir.origin && String.equal a.Ir.name b.Ir.name

  let hash = Hashtbl.hash
end)

module Vars = struct
  type entry = {
    e_var : Ir.var_id;
    e_is_array : bool;
    mutable e_ranges : range list;  (** newest first *)
  }

  type t = {
    by_var : entry Var_tbl.t;
    mutable order : entry list;  (** newest first *)
  }

  let create () = { by_var = Var_tbl.create 64; order = [] }

  let add t ~var ~is_array r =
    match Var_tbl.find_opt t.by_var var with
    | Some e -> e.e_ranges <- r :: e.e_ranges
    | None ->
        let e = { e_var = var; e_is_array = is_array; e_ranges = [ r ] } in
        Var_tbl.add t.by_var var e;
        t.order <- e :: t.order

  let to_list t =
    List.rev_map
      (fun e ->
        {
          vi_var = e.e_var;
          vi_is_array = e.e_is_array;
          vi_ranges = List.rev e.e_ranges;
        })
      t.order
end
