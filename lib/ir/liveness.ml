(** Backward liveness analysis over virtual registers.

    Debug bindings ([Dbg]) do not count as uses here: liveness drives
    register allocation and dead-code elimination, and a value kept alive
    only by debug info must not consume a register (this is exactly the
    compiler behaviour that loses variables). *)

module Reg_set = Set.Make (Int)

type t = {
  live_in : (int, Reg_set.t) Hashtbl.t;
  live_out : (int, Reg_set.t) Hashtbl.t;
}

let block_use_def (b : Ir.block) =
  (* use = registers read before any write in the block (phis read in
     predecessors, so their arguments are handled at the edge and their
     destinations count as defs). *)
  let use = ref Reg_set.empty and def = ref Reg_set.empty in
  List.iter (fun (p : Ir.phi) -> def := Reg_set.add p.p_dst !def) b.phis;
  List.iter
    (fun (i : Ir.instr) ->
      List.iter
        (fun r -> if not (Reg_set.mem r !def) then use := Reg_set.add r !use)
        (Ir.real_uses_of_ikind i.ik);
      List.iter (fun r -> def := Reg_set.add r !def) (Ir.def_of_ikind i.ik))
    b.instrs;
  List.iter
    (fun r -> if not (Reg_set.mem r !def) then use := Reg_set.add r !use)
    (Ir.term_uses b.term);
  (!use, !def)

let compute (fn : Ir.fn) =
  Ir.recompute_preds fn;
  let live_in = Hashtbl.create 16 and live_out = Hashtbl.create 16 in
  let labels = Ir.rpo fn in
  List.iter
    (fun l ->
      Hashtbl.replace live_in l Reg_set.empty;
      Hashtbl.replace live_out l Reg_set.empty)
    labels;
  let use_def = Hashtbl.create 16 in
  List.iter
    (fun l -> Hashtbl.replace use_def l (block_use_def (Ir.block fn l)))
    labels;
  let changed = ref true in
  while !changed do
    changed := false;
    (* Iterate in postorder (reverse of RPO) for fast convergence. *)
    List.iter
      (fun l ->
        let b = Ir.block fn l in
        let out =
          List.fold_left
            (fun acc s ->
              let succ_in = Hashtbl.find live_in s in
              (* Remove the successor's phi destinations; add the operands
                 this edge feeds them. *)
              let succ_b = Ir.block fn s in
              let minus_phis =
                List.fold_left
                  (fun acc (p : Ir.phi) -> Reg_set.remove p.p_dst acc)
                  succ_in succ_b.Ir.phis
              in
              let with_edge =
                List.fold_left
                  (fun acc (p : Ir.phi) ->
                    List.fold_left
                      (fun acc (pl, o) ->
                        if pl = l then
                          List.fold_left
                            (fun acc r -> Reg_set.add r acc)
                            acc (Ir.operand_uses o)
                        else acc)
                      acc p.p_args)
                  minus_phis succ_b.Ir.phis
              in
              Reg_set.union acc with_edge)
            Reg_set.empty (Ir.succs b.term)
        in
        let use, def = Hashtbl.find use_def l in
        let inn = Reg_set.union use (Reg_set.diff out def) in
        if
          (not (Reg_set.equal out (Hashtbl.find live_out l)))
          || not (Reg_set.equal inn (Hashtbl.find live_in l))
        then begin
          Hashtbl.replace live_out l out;
          Hashtbl.replace live_in l inn;
          changed := true
        end)
      (List.rev labels)
  done;
  { live_in; live_out }

let live_in t l = Option.value ~default:Reg_set.empty (Hashtbl.find_opt t.live_in l)
let live_out t l = Option.value ~default:Reg_set.empty (Hashtbl.find_opt t.live_out l)
