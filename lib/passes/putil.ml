(** Shared helpers for the optimization passes. *)

(** [kill_bindings fn dead] marks every debug binding that references a
    register [r] with [dead r] as optimized-out — what a compiler does
    when it deletes a value it cannot salvage. *)
let kill_bindings (fn : Ir.fn) (dead : Ir.reg -> bool) =
  Ir.iter_instrs fn (fun _ i ->
      match i.Ir.ik with
      | Ir.Dbg (v, Some (Ir.Reg r)) when dead r ->
          i.Ir.ik <- Ir.Dbg (v, None)
      | _ -> ())

(** [replace_uses fn map] rewrites register uses (including debug
    bindings, which follow the value). *)
let replace_uses (fn : Ir.fn) (map : (Ir.reg, Ir.operand) Hashtbl.t) =
  if Hashtbl.length map > 0 then begin
    (* Chase chains so that a->b, b->c resolves a->c. *)
    let rec resolve o depth =
      match o with
      | Ir.Reg r when depth < 64 -> (
          match Hashtbl.find_opt map r with
          | Some o' -> resolve o' (depth + 1)
          | None -> o)
      | _ -> o
    in
    Ir.apply_subst fn (fun r ->
        match Hashtbl.find_opt map r with
        | Some o -> Some (resolve o 1)
        | None -> None)
  end

(** Use counts of the function's registers (debug bindings excluded),
    one byte per register; read them through {!use_count}. A count
    stops at 2: the passes only tell apart unused, used once and used
    more than once. *)
let use_counts (fn : Ir.fn) =
  let counts = Bytes.make fn.Ir.next_reg '\000' in
  let bump r =
    let c = Bytes.get counts r in
    if c < '\002' then Bytes.set counts r (Char.chr (Char.code c + 1))
  in
  let bump_arg (_, o) = Ir.iter_operand bump o in
  let bump_phi (p : Ir.phi) = List.iter bump_arg p.Ir.p_args in
  let bump_instr (i : Ir.instr) = Ir.iter_real_uses bump i.Ir.ik in
  Ir.iter_blocks fn (fun b ->
      List.iter bump_phi b.Ir.phis;
      List.iter bump_instr b.Ir.instrs;
      Ir.iter_term_uses bump b.Ir.term);
  counts

(** [use_count counts r] — 0, 1 or 2 (for two or more): the real uses
    [r] had when [counts] was taken (0 for a register created since). *)
let use_count counts r =
  if r < Bytes.length counts then Char.code (Bytes.get counts r) else 0

(** Is the instruction free of side effects (deletable when its results
    are unused)? [pure_calls] lists functions proven pure. *)
let pure_ikind ?(pure_calls = fun _ -> false) = function
  | Ir.Bin _ | Ir.Un _ | Ir.Mov _ | Ir.Select _ | Ir.Vec _ | Ir.Load _ -> true
  | Ir.Call (_, f, _) -> pure_calls f
  | Ir.Store _ | Ir.Input _ | Ir.Eof _ | Ir.Output _ | Ir.Dbg _ -> false

(** A key identifying the value computed by a pure instruction, for value
    numbering; [None] when the instruction is not numberable. Commutative
    operands are put in a canonical order. *)
let value_key = function
  | Ir.Bin (op, _, a, b) ->
      let a, b = if Ir.commutative op && b < a then (b, a) else (a, b) in
      Some (Printf.sprintf "bin:%s:%s:%s" (Ir.binop_name op)
              (Ir.operand_to_string a) (Ir.operand_to_string b))
  | Ir.Un (op, _, a) ->
      Some (Printf.sprintf "un:%s:%s" (Ir.unop_name op) (Ir.operand_to_string a))
  | Ir.Select (_, c, a, b) ->
      Some (Printf.sprintf "sel:%s:%s:%s" (Ir.operand_to_string c)
              (Ir.operand_to_string a) (Ir.operand_to_string b))
  | Ir.Mov (_, a) -> Some (Printf.sprintf "mov:%s" (Ir.operand_to_string a))
  | _ -> None

(** Clone an instruction kind, renaming definitions through [fresh_def]
    and uses through [map_use]. *)
let clone_ikind ~fresh_def ~map_use (ik : Ir.ikind) : Ir.ikind =
  let mapped = Ir.subst_uses map_use ik in
  match mapped with
  | Ir.Bin (op, d, a, b) -> Ir.Bin (op, fresh_def d, a, b)
  | Ir.Un (op, d, a) -> Ir.Un (op, fresh_def d, a)
  | Ir.Mov (d, a) -> Ir.Mov (fresh_def d, a)
  | Ir.Load (d, a) -> Ir.Load (fresh_def d, a)
  | Ir.Store _ | Ir.Output _ | Ir.Dbg _ -> mapped
  | Ir.Call (d, f, args) -> Ir.Call (Option.map fresh_def d, f, args)
  | Ir.Input d -> Ir.Input (fresh_def d)
  | Ir.Eof d -> Ir.Eof (fresh_def d)
  | Ir.Select (d, c, a, b) -> Ir.Select (fresh_def d, c, a, b)
  | Ir.Vec (op, lanes) ->
      Ir.Vec (op, Array.map (fun (d, a, b) -> (fresh_def d, a, b)) lanes)
