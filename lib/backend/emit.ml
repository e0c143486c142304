(** Binary emission: flatten machine functions to an address space,
    resolve branches, drop fall-through jumps, and build the debug
    information (line table and location lists).

    The location-list builder is a small LiveDebugValues: per-block
    forward scans track which location holds each variable, a binding
    dies when its location is overwritten, and block entry states are the
    meet (agreement) of predecessor exits — disagreeing locations after a
    join are exactly how duplication-heavy passes (jump threading, loop
    rotation) lose variables. *)

type eop =
  | Eins of Mach.mkind  (** non-control instruction *)
  | Ejmp of int
  | Ecbr of Mach.mval * int * int
  | Eret of Mach.mval option

type func_info = {
  fi_name : string;
  fi_index : int;
  fi_entry : int;
  fi_end : int;  (** exclusive *)
  fi_data_words : int;
  fi_frame_words : int;  (** data + spill *)
  fi_slot_offset : (int * int * int) list;  (** slot id, offset, size *)
  fi_param_locs : Mach.mloc list;
  fi_activation : int option;
      (** shrink-wrapped functions pay the frame cost when execution first
          reaches this address *)
}

type binary = {
  code : eop array;
  line_of : int option array;
  funcs : func_info array;
  fn_by_name : (string, int) Hashtbl.t;
  fn_of_addr : int array;
  bin_globals : Ir.global_def list;
  debug : Dwarfish.t;
  text_digest : string;
  full_digest : string;
      (** content address of the whole binary — machine code, line
          attributions and debug sections. Two binaries sharing it are
          interchangeable for *any* measurement, including debug-quality
          metrics; [text_digest] covers the machine code alone, and
          identical .text can carry different debug info, frame layouts
          ([funcs]) and globals, all of which a measurement may read. *)
}

(* ------------------------------------------------------------------ *)
(* Identical-code folding (gcc's toplevel-reorder model)               *)

(* Canonical text of a function's code with labels normalized to layout
   positions and all debug artifacts stripped. Two functions with equal
   canonical text produce identical .text, so the later one can alias the
   earlier. *)
let canonical_text (m : Mach.mfn) =
  let pos = Hashtbl.create 16 in
  List.iteri (fun i l -> Hashtbl.replace pos l i) m.Mach.mf_layout;
  let lbl l = string_of_int (Option.value ~default:(-1) (Hashtbl.find_opt pos l)) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (String.concat ","
       (List.map Mach.mloc_to_string m.Mach.mf_param_locs));
  List.iter
    (fun (fs : Mach.frame_slot) ->
      Buffer.add_string buf (Printf.sprintf "|s%d:%d" fs.Mach.fs_id fs.Mach.fs_size))
    m.Mach.mf_frame;
  Buffer.add_string buf (Printf.sprintf "|spill%d|" m.Mach.mf_spill_words);
  List.iter
    (fun l ->
      let b = Mach.mblock m l in
      Buffer.add_string buf (lbl l ^ ":");
      List.iter
        (fun (i : Mach.minstr) ->
          match i.Mach.mk with
          | Mach.Mdbg _ -> ()
          | mk -> Buffer.add_string buf (Mach.mkind_to_string mk ^ ";"))
        b.Mach.mins;
      (match b.Mach.mterm with
      | Mach.Mret None -> Buffer.add_string buf "ret;"
      | Mach.Mret (Some v) ->
          Buffer.add_string buf ("ret " ^ Mach.mval_to_string v ^ ";")
      | Mach.Mjmp t -> Buffer.add_string buf ("jmp " ^ lbl t ^ ";")
      | Mach.Mcbr (c, t1, t2) ->
          Buffer.add_string buf
            (Printf.sprintf "cbr %s,%s,%s;" (Mach.mval_to_string c) (lbl t1)
               (lbl t2))))
    m.Mach.mf_layout;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Location-list construction                                          *)

(* Keyed by variable in the order polymorphic [compare] gives the
   record — origin, then name — which decides when ranges close and so
   the order of [vars] and of each variable's ranges. *)
module Var_map = Map.Make (struct
  type t = Ir.var_id

  let compare (a : t) (b : t) =
    match String.compare a.Ir.origin b.Ir.origin with
    | 0 -> String.compare a.Ir.name b.Ir.name
    | c -> c
end)

type binding = Mach.dloc  (* where the variable's value is *)

type event = Bind of Ir.var_id * binding option | Write of Mach.mloc

let mloc_equal (a : Mach.mloc) (b : Mach.mloc) =
  match (a, b) with
  | Mach.Preg x, Mach.Preg y | Mach.Pslot x, Mach.Pslot y -> x = y
  | _ -> false

let binding_equal (a : binding) (b : binding) =
  match (a, b) with
  | Mach.Dloc x, Mach.Dloc y -> mloc_equal x y
  | Mach.Dconst x, Mach.Dconst y -> x = y
  | _ -> false

(* Does the binding live in location [w] (so a write to [w] kills it)? *)
let held_in w = function Mach.Dloc l -> mloc_equal l w | Mach.Dconst _ -> false

(* The meet of two binding environments keeps only agreeing bindings. *)
let meet_env a b =
  Var_map.merge
    (fun _ x y ->
      match (x, y) with Some x, Some y when binding_equal x y -> Some x | _ -> None)
    a b

(* ------------------------------------------------------------------ *)

let slot_layout (m : Mach.mfn) =
  let offset = ref 0 in
  let table =
    List.map
      (fun (fs : Mach.frame_slot) ->
        let o = !offset in
        offset := o + fs.Mach.fs_size;
        (fs.Mach.fs_id, o, fs.Mach.fs_size))
      m.Mach.mf_frame
  in
  (table, !offset)

let dloc_to_location ~data_words = function
  | Mach.Dloc (Mach.Preg k) -> Dwarfish.In_reg k
  | Mach.Dloc (Mach.Pslot i) -> Dwarfish.In_slot (data_words + i)
  | Mach.Dconst n -> Dwarfish.Const n

(** [emit ?icf ?entry_values prog] flattens an ordered machine program
    into a binary. With [icf] (gcc's toplevel-reorder model) functions
    with identical code are folded into one. With [entry_values] (gcc's
    variable-tracking style), a binding killed by a register overwrite is
    continued as an entry-value-style entry until the next rebinding —
    present in the debug info, unusable by the debugger. *)
let emit ?(icf = false) ?(entry_values = false) (prog : Mach.mprogram) : binary =
  let code = ref [] in
  let line_of = ref [] in
  let fn_of_addr = ref [] in
  let next_addr = ref 0 in
  let push fi_index eop line =
    code := eop :: !code;
    line_of := line :: !line_of;
    fn_of_addr := fi_index :: !fn_of_addr;
    incr next_addr
  in
  let debug = Dwarfish.empty () in
  (* Location-list ranges of every function, merged per variable across
     functions (inlined copies share a variable) and turned into
     [debug.vars] once, after the last function. *)
  let vars = Dwarfish.Vars.create () in
  let funcs = ref [] in
  let fn_by_name = Hashtbl.create 16 in
  (* ICF: functions whose canonical text matches an earlier function
     become aliases and emit no code (and hence no debug info — the
     mechanical cost of folding). *)
  let canon_seen : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let fi_counter = ref 0 in
  List.iter
    (fun (m : Mach.mfn) ->
      let canon =
        if icf then canonical_text m
        else "unique:" ^ m.Mach.mf_name
      in
      match Hashtbl.find_opt canon_seen canon with
      | Some idx -> Hashtbl.replace fn_by_name m.Mach.mf_name idx
      | None ->
          let fi_index = !fi_counter in
          incr fi_counter;
          Hashtbl.replace canon_seen canon fi_index;
          Hashtbl.replace fn_by_name m.Mach.mf_name fi_index;
          let slot_offsets, data_words = slot_layout m in
          let entry_addr = !next_addr in
          (* First pass: assign addresses to blocks, accounting for
             dropped fall-through jumps and stripped Mdbg. *)
          let block_addr = Hashtbl.create 16 in
          let addr = ref entry_addr in
          let layout = m.Mach.mf_layout in
          let rec assign = function
            | [] -> ()
            | l :: rest ->
                Hashtbl.replace block_addr l !addr;
                let b = Mach.mblock m l in
                let real =
                  List.length
                    (List.filter
                       (fun (i : Mach.minstr) ->
                         match i.Mach.mk with Mach.Mdbg _ -> false | _ -> true)
                       b.Mach.mins)
                in
                addr := !addr + real;
                (match (b.Mach.mterm, rest) with
                | Mach.Mjmp t, next :: _ when t = next -> () (* fall-through *)
                | _ -> incr addr);
                assign rest
          in
          assign layout;
          let fn_end = !addr in
          (* The per-block tables below are arrays indexed by label. *)
          let n_labels = List.fold_left (fun n l -> max n (l + 1)) 0 layout in
          (* Second pass: emit code, collect line entries and debug
             events per block (each block's in address order). *)
          let events : (int * event) list array = Array.make n_labels [] in
          let rec emit_blocks = function
            | [] -> ()
            | l :: rest ->
                let b = Mach.mblock m l in
                let evs = ref [] in
                List.iter
                  (fun (i : Mach.minstr) ->
                    match i.Mach.mk with
                    | Mach.Mdbg (v, d) ->
                        (* Takes effect from the next emitted address. *)
                        evs := (!next_addr, Bind (v, d)) :: !evs
                    | mk ->
                        List.iter
                          (fun w -> evs := (!next_addr, Write w) :: !evs)
                          (Mach.writes mk);
                        (match i.Mach.mline with
                        | Some line -> Dwarfish.add_line debug ~addr:!next_addr ~line
                        | None -> ());
                        push fi_index (Eins mk) i.Mach.mline)
                  b.Mach.mins;
                events.(l) <- List.rev !evs;
                let target t = Hashtbl.find block_addr t in
                (match (b.Mach.mterm, rest) with
                | Mach.Mjmp t, next :: _ when t = next -> ()
                | Mach.Mjmp t, _ ->
                    (match b.Mach.mterm_line with
                    | Some line -> Dwarfish.add_line debug ~addr:!next_addr ~line
                    | None -> ());
                    push fi_index (Ejmp (target t)) b.Mach.mterm_line
                | Mach.Mcbr (c, t1, t2), _ ->
                    (match b.Mach.mterm_line with
                    | Some line -> Dwarfish.add_line debug ~addr:!next_addr ~line
                    | None -> ());
                    push fi_index (Ecbr (c, target t1, target t2)) b.Mach.mterm_line
                | Mach.Mret v, _ ->
                    (match b.Mach.mterm_line with
                    | Some line -> Dwarfish.add_line debug ~addr:!next_addr ~line
                    | None -> ());
                    push fi_index (Eret v) b.Mach.mterm_line);
                emit_blocks rest
          in
          emit_blocks layout;
          (* Location lists: dataflow over blocks, then per-block range
             emission. Predecessors are listed latest in layout first;
             only the lists of layout blocks are read. *)
          let preds = Array.make n_labels [] in
          let rec succs_of = function
            | [] -> ()
            | l :: rest ->
                let b = Mach.mblock m l in
                let add s = if s < n_labels then preds.(s) <- l :: preds.(s) in
                List.iter add (Mach.msuccs b.Mach.mterm);
                succs_of rest
          in
          succs_of layout;
          let block_out : binding Var_map.t option array = Array.make n_labels None in
          let block_in : binding Var_map.t option array = Array.make n_labels None in
          let transfer l env0 =
            List.fold_left
              (fun env (_, ev) ->
                match ev with
                | Bind (v, Some d) -> Var_map.add v d env
                | Bind (v, None) -> Var_map.remove v env
                | Write w ->
                    if Var_map.exists (fun _ d -> held_in w d) env then
                      Var_map.filter (fun _ d -> not (held_in w d)) env
                    else env)
              env0 events.(l)
          in
          (* Optimistic (top-initialized) fixpoint: a block whose
             predecessors are all still unvisited is skipped — its input
             stays at top — so every defined in/out only ever loses
             bindings and the iteration terminates. (Treating unvisited
             inputs as bottom instead makes the dataflow non-monotone and
             can oscillate forever on loopy layouts.) *)
          let changed = ref true in
          while !changed do
            changed := false;
            List.iter
              (fun l ->
                let pred_outs = List.filter_map (Array.get block_out) preds.(l) in
                let inn_opt =
                  if l = m.Mach.mf_entry then Some Var_map.empty
                  else
                    match pred_outs with
                    | [] -> None (* all predecessors still at top *)
                    | first :: rest -> Some (List.fold_left meet_env first rest)
                in
                match inn_opt with
                | None -> ()
                | Some inn ->
                    let out = transfer l inn in
                    let same map tbl =
                      match tbl.(l) with
                      | Some old -> old == map || Var_map.equal binding_equal old map
                      | None -> false
                    in
                    if not (same inn block_in && same out block_out) then begin
                      block_in.(l) <- Some inn;
                      block_out.(l) <- Some out;
                      changed := true
                    end)
              layout
          done;
          (* Range emission. *)
          let layout_arr = Array.of_list layout in
          Array.iteri
            (fun i l ->
              let bstart = Hashtbl.find block_addr l in
              let bend =
                if i + 1 < Array.length layout_arr then
                  Hashtbl.find block_addr layout_arr.(i + 1)
                else fn_end
              in
              let open_ranges = ref Var_map.empty in
              let ghost_ranges = ref Var_map.empty in
              let start_env = Option.value ~default:Var_map.empty block_in.(l) in
              Var_map.iter
                (fun v d -> open_ranges := Var_map.add v (bstart, d) !open_ranges)
                start_env;
              let close ?(killed = false) v addr =
                match Var_map.find_opt v !open_ranges with
                | Some (lo, d) ->
                    if addr > lo then
                      Dwarfish.Vars.add vars ~var:v ~is_array:false
                        {
                          Dwarfish.lo;
                          hi = addr;
                          where = dloc_to_location ~data_words d;
                          usable = true;
                        };
                    open_ranges := Var_map.remove v !open_ranges;
                    (* gcc-style variable tracking: the value still has a
                       recoverable expression, emitted as an entry-value
                       entry the debugger cannot materialize. *)
                    if killed && entry_values then
                      ghost_ranges := Var_map.add v (addr, d) !ghost_ranges
                | None -> ()
              in
              let close_ghost v addr =
                match Var_map.find_opt v !ghost_ranges with
                | Some (lo, d) ->
                    if addr > lo then
                      Dwarfish.Vars.add vars ~var:v ~is_array:false
                        {
                          Dwarfish.lo;
                          hi = addr;
                          where = dloc_to_location ~data_words d;
                          usable = false;
                        };
                    ghost_ranges := Var_map.remove v !ghost_ranges
                | None -> ()
              in
              List.iter
                (fun (addr, ev) ->
                  match ev with
                  | Bind (v, d) -> (
                      close v addr;
                      close_ghost v addr;
                      match d with
                      | Some d -> open_ranges := Var_map.add v (addr, d) !open_ranges
                      | None -> ())
                  | Write w ->
                      let holds _ (_, d) = held_in w d in
                      if Var_map.exists holds !open_ranges then
                        Var_map.iter
                          (fun v _ -> close ~killed:true v addr)
                          (Var_map.filter holds !open_ranges))
                events.(l);
              Var_map.iter (fun v _ -> close v bend) !open_ranges;
              Var_map.iter (fun v _ -> close_ghost v bend) !ghost_ranges)
            layout_arr;
          (* Frame-resident variables: whole-function (or post-activation)
             slot locations. *)
          let activation =
            if m.Mach.mf_shrink_wrapped then begin
              (* First address whose instruction touches the frame. *)
              let found = ref None in
              List.iter
                (fun l ->
                  let b = Mach.mblock m l in
                  let a = ref (Hashtbl.find block_addr l) in
                  List.iter
                    (fun (i : Mach.minstr) ->
                      match i.Mach.mk with
                      | Mach.Mdbg _ -> ()
                      | mk ->
                          if !found = None && Mach.touches_frame mk then
                            found := Some !a;
                          incr a)
                    b.Mach.mins)
                layout;
              !found
            end
            else None
          in
          let static_start =
            match activation with Some a -> a | None -> entry_addr
          in
          List.iter
            (fun (fs : Mach.frame_slot) ->
              match fs.Mach.fs_var with
              | Some v ->
                  let offset =
                    List.find_map
                      (fun (id, o, _) -> if id = fs.Mach.fs_id then Some o else None)
                      slot_offsets
                  in
                  (match offset with
                  | Some o ->
                      Dwarfish.Vars.add vars ~var:v ~is_array:fs.Mach.fs_array
                        {
                          Dwarfish.lo = static_start;
                          hi = fn_end;
                          where = Dwarfish.In_slot o;
                          usable = true;
                        }
                  | None -> ())
              | None -> ())
            m.Mach.mf_frame;
          funcs :=
            {
              fi_name = m.Mach.mf_name;
              fi_index;
              fi_entry = entry_addr;
              fi_end = fn_end;
              fi_data_words = data_words;
              fi_frame_words = data_words + m.Mach.mf_spill_words;
              fi_slot_offset = slot_offsets;
              fi_param_locs = m.Mach.mf_param_locs;
              fi_activation = activation;
            }
            :: !funcs)
    prog.Mach.mfuncs;
  debug.Dwarfish.vars <- Dwarfish.Vars.to_list vars;
  Dwarfish.finalize debug;
  let code = Array.of_list (List.rev !code) in
  let line_of = Array.of_list (List.rev !line_of) in
  let fn_of_addr = Array.of_list (List.rev !fn_of_addr) in
  let funcs =
    Array.of_list (List.sort (fun a b -> compare a.fi_index b.fi_index) (List.rev !funcs))
  in
  let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [])) in
  {
    code;
    line_of;
    funcs;
    fn_by_name;
    fn_of_addr;
    bin_globals = prog.Mach.mglobals;
    debug;
    text_digest = digest code;
    full_digest = digest (code, line_of, funcs, prog.Mach.mglobals, debug);
  }
