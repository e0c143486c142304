(** Debug-trace extraction, following the paper's protocol
    (Section III-A, step 2): set a temporary breakpoint on every line in
    the line table, run the program over all its inputs in one session,
    and on each (first) hit record the line and the variables that are
    visible with a value at the stopped PC.

    Like modern [gdb], a breakpoint on a line arms {e every} code
    location carrying that line (inlined copies, unrolled iterations,
    threaded duplicates included); the first location hit records the
    line and the variables the debug info can materialize at that PC,
    and further hits of the same line are ignored (the temporary
    breakpoint is gone). *)

module Var_set = Set.Make (struct
  type t = Ir.var_id

  let compare = compare
end)

type trace = {
  stepped : (int, Var_set.t) Hashtbl.t;  (** line -> variables at first hit *)
  steppable : int list;  (** all lines present in the binary's line table *)
  hit_order : int list;  (** lines in first-hit order *)
  per_input_lines : int list array;
      (** lines newly observed per input, for corpus pruning *)
}

(** [trace prog ~entry ~inputs] runs one debug session over [inputs].
    [all_locations] (default, gdb's behaviour) arms every code location
    of a line; [false] arms only the lowest address — the older
    single-location policy kept for the ablation study, under which a
    line duplicated by inlining is missed whenever the armed copy sits on
    a cold path. *)
let trace ?(all_locations = true) (prog : Vm.loaded) ~entry
    ~(inputs : int list list) : trace =
  let bin = prog.Vm.binary in
  let bps = Array.make (Array.length bin.Emit.code) false in
  List.iter
    (fun (e : Dwarfish.line_entry) -> bps.(e.Dwarfish.addr) <- true)
    bin.Emit.debug.Dwarfish.line_table;
  if not all_locations then begin
    Array.fill bps 0 (Array.length bps) false;
    List.iter
      (fun (_line, addr) -> bps.(addr) <- true)
      (Dwarfish.breakpoint_addrs bin.Emit.debug)
  end;
  let stepped = Hashtbl.create 64 in
  let hit_order = ref [] in
  let per_input = Array.make (max 1 (List.length inputs)) [] in
  List.iteri
    (fun idx input ->
      let res =
        Vm.exec prog ~entry ~input
          { Vm.default_opts with breakpoints = Some bps }
      in
      let new_lines =
        List.filter_map
          (fun addr ->
            match bin.Emit.line_of.(addr) with
            | Some line when not (Hashtbl.mem stepped line) ->
                let vars =
                  Dwarfish.available_at bin.Emit.debug addr
                  |> List.map fst |> Var_set.of_list
                in
                Hashtbl.replace stepped line vars;
                hit_order := line :: !hit_order;
                Some line
            | Some _ | None -> None)
          res.Vm.bp_hits
      in
      if idx < Array.length per_input then per_input.(idx) <- new_lines)
    inputs;
  {
    stepped;
    steppable = Dwarfish.steppable_lines bin.Emit.debug;
    hit_order = List.rev !hit_order;
    per_input_lines = per_input;
  }

let stepped_lines t =
  Hashtbl.fold (fun line _ acc -> line :: acc) t.stepped [] |> List.sort compare

let vars_at t line =
  Option.value ~default:Var_set.empty (Hashtbl.find_opt t.stepped line)
