(** Structural IR sanity checks, run in tests and (cheaply) between
    passes when the toolchain is built with checking enabled. *)

exception Invalid of string

let failf fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let check_fn (fn : Ir.fn) =
  (* Validate terminator targets before anything walks successors. *)
  Ir.Label_store.iter
    (fun l (b : Ir.block) ->
      List.iter
        (fun s ->
          if not (Ir.mem_block fn s) then
            failf "%s: block %d branches to missing block %d" fn.Ir.f_name l s)
        (Ir.succs b.Ir.term))
    fn.Ir.blocks;
  Ir.recompute_preds fn;
  let reachable = Ir.reachable fn in
  (* Layout must contain exactly the blocks in the table, entry first. *)
  (match fn.Ir.layout with
  | e :: _ when e = fn.Ir.entry -> ()
  | _ -> failf "%s: entry is not first in layout" fn.Ir.f_name);
  List.iter
    (fun l ->
      if not (Ir.mem_block fn l) then
        failf "%s: layout mentions missing block %d" fn.Ir.f_name l)
    fn.Ir.layout;
  if List.length fn.Ir.layout <> Ir.Label_store.length fn.Ir.blocks then
    failf "%s: layout and block table disagree" fn.Ir.f_name;
  let seen_defs = Hashtbl.create 64 in
  List.iter (fun (r, _) -> Hashtbl.replace seen_defs r ()) fn.Ir.f_params;
  Ir.Label_store.iter
    (fun l (b : Ir.block) ->
      (* Terminator targets exist. *)
      List.iter
        (fun s ->
          if not (Ir.mem_block fn s) then
            failf "%s: block %d branches to missing block %d" fn.Ir.f_name l s)
        (Ir.succs b.Ir.term);
      (* Reachable blocks: each phi has exactly one argument per
         predecessor. *)
      if Ir.Dense_set.mem reachable l then
        List.iter
          (fun (p : Ir.phi) ->
            let arg_labels = List.map fst p.Ir.p_args in
            let sorted_args = List.sort compare arg_labels in
            let sorted_preds = List.sort compare b.Ir.preds in
            if sorted_args <> sorted_preds then
              failf "%s: phi r%d in block %d has args for [%s], preds are [%s]"
                fn.Ir.f_name p.Ir.p_dst l
                (String.concat "," (List.map string_of_int sorted_args))
                (String.concat "," (List.map string_of_int sorted_preds)))
          b.Ir.phis;
      List.iter (fun (p : Ir.phi) -> Hashtbl.replace seen_defs p.Ir.p_dst ()) b.Ir.phis;
      List.iter
        (fun (i : Ir.instr) ->
          List.iter
            (fun d ->
              if Hashtbl.mem seen_defs d then
                failf "%s: register r%d defined more than once" fn.Ir.f_name d;
              Hashtbl.replace seen_defs d ())
            (Ir.def_of_ikind i.Ir.ik))
        b.Ir.instrs)
    fn.Ir.blocks;
  (* Every use has a def somewhere (dominance is not checked — too
     strict for pre-SSA code where merges go through slots). *)
  Ir.Label_store.iter
    (fun l (b : Ir.block) ->
      if Ir.Dense_set.mem reachable l then begin
        let check_use r =
          if not (Hashtbl.mem seen_defs r) then
            failf "%s: use of undefined register r%d in block %d" fn.Ir.f_name r l
        in
        List.iter
          (fun (p : Ir.phi) ->
            List.iter
              (fun (_, o) -> List.iter check_use (Ir.operand_uses o))
              p.Ir.p_args)
          b.Ir.phis;
        List.iter
          (fun (i : Ir.instr) -> List.iter check_use (Ir.uses_of_ikind i.Ir.ik))
          b.Ir.instrs;
        List.iter check_use (Ir.term_uses b.Ir.term)
      end)
    fn.Ir.blocks

(** [check p] verifies every function; raises {!Invalid} on breakage. *)
let check (p : Ir.program) = Hashtbl.iter (fun _ fn -> check_fn fn) p.Ir.funcs

(** [check_bool p] is [true] when [p] verifies. *)
let check_bool p =
  match check p with () -> true | exception Invalid _ -> false
