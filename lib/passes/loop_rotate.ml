(** Loop rotation (clang [LoopRotate], gcc [tree-ch] — loop header
    copying).

    A while-shaped loop tests its condition in the header on every
    iteration and pays a branch each time control returns from the latch.
    Rotation copies the header's condition computation into (a) the
    preheader, as an entry guard, and (b) the latch, which then branches
    back or exits directly — the do-while shape. One jump per iteration
    is saved.

    Debug consequences, all mechanical: the duplicated condition carries
    duplicated line entries (the breakpoint lands on the guard copy); the
    exit block now joins two paths (guard and latch) whose variable
    locations disagree, so bindings die at the join unless both paths
    agree.

    Restrictions (checked, else the loop is skipped): the header's
    non-phi instructions are pure; non-phi header definitions are not
    used outside the header except by the branch; the exit block is
    outside the loop. Header phi values used outside the loop are routed
    through new phis in the exit block. *)

module Label_set = Loops.Label_set

let rotate_one (fn : Ir.fn) (lp : Loops.loop) =
  let header = Ir.block fn lp.Loops.header in
  match header.Ir.term with
  | Ir.Cbr (cond, body_l, exit_l)
    when Label_set.mem body_l lp.Loops.body
         && (not (Label_set.mem exit_l lp.Loops.body))
         && exit_l <> lp.Loops.header ->
      let pure_instrs =
        List.for_all
          (fun (i : Ir.instr) ->
            match i.Ir.ik with
            | Ir.Dbg _ -> true
            | ik -> Putil.pure_ikind ik && (match ik with Ir.Load _ -> false | _ -> true))
          header.Ir.instrs
      in
      let header_defs =
        List.concat_map
          (fun (i : Ir.instr) -> Ir.def_of_ikind i.Ir.ik)
          header.Ir.instrs
      in
      (* Uses of header instruction defs outside the header (other than
         the branch itself) make rotation too invasive — skip. *)
      let defs_escape =
        let escape = ref false in
        Ir.iter_blocks fn (fun b ->
            if b.Ir.b_label <> lp.Loops.header then begin
              List.iter
                (fun (p : Ir.phi) ->
                  List.iter
                    (fun (_, o) ->
                      List.iter
                        (fun r -> if List.mem r header_defs then escape := true)
                        (Ir.operand_uses o))
                    p.Ir.p_args)
                b.Ir.phis;
              List.iter
                (fun (i : Ir.instr) ->
                  List.iter
                    (fun r -> if List.mem r header_defs then escape := true)
                    (Ir.uses_of_ikind i.Ir.ik))
                b.Ir.instrs;
              List.iter
                (fun r -> if List.mem r header_defs then escape := true)
                (Ir.term_uses b.Ir.term)
            end)
        ;
        !escape
      in
      Ir.recompute_preds fn;
      if
        (not pure_instrs) || defs_escape
        || List.length lp.Loops.latches <> 1
        || (Ir.block fn exit_l).Ir.phis <> []
        (* A break inside the body would give the exit other
           predecessors; the two-way exit phi below could not represent
           them. *)
        || (Ir.block fn exit_l).Ir.preds <> [ lp.Loops.header ]
      then false
      else begin
        let latch_l = List.hd lp.Loops.latches in
        let latch = Ir.block fn latch_l in
        (* Only rotate the classic shape where the latch jumps
           unconditionally to the header. *)
        match latch.Ir.term with
        | Ir.Br h when h = lp.Loops.header ->
            let dom_orig = Dom.compute fn in
            (* After rotation the guard reaches the exit without passing
               the header, so a block that merges paths from the exit
               region and the body region would lose header domination; a
               header-phi use there could not be repaired. Bail on that
               shape: a use outside the loop must be dominated either by
               the exit or (still) by the header. *)
            let reachable_from_exit =
              let seen = Hashtbl.create 16 in
              let rec go l =
                if not (Hashtbl.mem seen l) then begin
                  Hashtbl.replace seen l ();
                  List.iter go (Ir.succs (Ir.block fn l).Ir.term)
                end
              in
              go exit_l;
              seen
            in
            let phi_dsts =
              List.map (fun (p : Ir.phi) -> p.Ir.p_dst) header.Ir.phis
            in
            let unsound = ref false in
            let bad_site l =
              (not (Label_set.mem l lp.Loops.body))
              && Hashtbl.mem reachable_from_exit l
              && not (Dom.dominates dom_orig exit_l l)
            in
            Ir.iter_blocks fn (fun b ->
                let check r = if List.mem r phi_dsts then unsound := true in
                (* Phi arguments are evaluated at the contributing
                   predecessor; attribute their uses there. *)
                List.iter
                  (fun (q : Ir.phi) ->
                    List.iter
                      (fun (pl, o) ->
                        if bad_site pl then
                          List.iter check (Ir.operand_uses o))
                      q.Ir.p_args)
                  b.Ir.phis;
                if bad_site b.Ir.b_label then begin
                  List.iter
                    (fun (i : Ir.instr) ->
                      List.iter check (Ir.uses_of_ikind i.Ir.ik))
                    b.Ir.instrs;
                  List.iter check (Ir.term_uses b.Ir.term)
                end);
            if !unsound then false
            else begin
            let ph = Loops.preheader fn lp in
            let phb = Ir.block fn ph in
            (* Copy the header computation with a value substitution:
               header phis resolve to the value flowing in from [who]. *)
            let copy_into (dst : Ir.block) who ~append =
              let map = Hashtbl.create 8 in
              List.iter
                (fun (p : Ir.phi) ->
                  match List.assoc_opt who p.Ir.p_args with
                  | Some v -> Hashtbl.replace map p.Ir.p_dst v
                  | None -> ())
                header.Ir.phis;
              let fresh = Hashtbl.create 8 in
              let fresh_def r =
                let r' = Ir.fresh_reg fn in
                Hashtbl.replace fresh r r';
                Hashtbl.replace map r (Ir.Reg r');
                r'
              in
              let copies =
                List.filter_map
                  (fun (i : Ir.instr) ->
                    match i.Ir.ik with
                    | Ir.Dbg _ -> None
                    | ik ->
                        Some
                          {
                            Ir.ik =
                              Putil.clone_ikind ~fresh_def
                                ~map_use:(Hashtbl.find_opt map) ik;
                            line = i.Ir.line;
                          })
                  header.Ir.instrs
              in
              if append then dst.Ir.instrs <- dst.Ir.instrs @ copies
              else dst.Ir.instrs <- copies @ dst.Ir.instrs;
              Ir.subst_operand (Hashtbl.find_opt map) cond
            in
            (* Entry guard in the preheader. *)
            let guard_cond = copy_into phb ph ~append:true in
            phb.Ir.term <- Ir.Cbr (guard_cond, lp.Loops.header, exit_l);
            phb.Ir.term_line <- header.Ir.term_line;
            (* Latch now tests the next iteration's condition itself. *)
            let latch_cond = copy_into latch latch_l ~append:true in
            latch.Ir.term <- Ir.Cbr (latch_cond, lp.Loops.header, exit_l);
            latch.Ir.term_line <- header.Ir.term_line;
            (* The header falls through into the body. *)
            header.Ir.term <- Ir.Br body_l;
            (* Header phi values used outside the loop: a use in a block
               dominated by the exit must merge guard/latch values in the
               exit block; a use in a block still dominated by the header
               (e.g. an early-return block hanging off the body) keeps the
               phi. [rotatable_exits] has already ruled out the shapes
               where neither holds. *)
            let exit_b = Ir.block fn exit_l in
            let outside_subst = Hashtbl.create 8 in
            List.iter
              (fun (p : Ir.phi) ->
                let used_outside = ref false in
                let exit_site l =
                  (not (Label_set.mem l lp.Loops.body))
                  && Dom.dominates dom_orig exit_l l
                in
                Ir.iter_blocks fn (fun b ->
                    let check r = if r = p.Ir.p_dst then used_outside := true in
                    List.iter
                      (fun (q : Ir.phi) ->
                        List.iter
                          (fun (pl, o) ->
                            if exit_site pl then
                              List.iter check (Ir.operand_uses o))
                          q.Ir.p_args)
                      b.Ir.phis;
                    if exit_site b.Ir.b_label then begin
                      List.iter
                        (fun (i : Ir.instr) ->
                          List.iter check (Ir.real_uses_of_ikind i.Ir.ik))
                        b.Ir.instrs;
                      List.iter check (Ir.term_uses b.Ir.term)
                    end)
                ;
                if !used_outside then begin
                  let merged = Ir.fresh_reg fn in
                  let from_guard =
                    Option.value ~default:(Ir.Imm 0)
                      (List.assoc_opt ph p.Ir.p_args)
                  in
                  let from_latch =
                    Option.value ~default:(Ir.Imm 0)
                      (List.assoc_opt latch_l p.Ir.p_args)
                  in
                  exit_b.Ir.phis <-
                    exit_b.Ir.phis
                    @ [
                        {
                          Ir.p_dst = merged;
                          p_args = [ (ph, from_guard); (latch_l, from_latch) ];
                        };
                      ];
                  Hashtbl.replace outside_subst p.Ir.p_dst (Ir.Reg merged)
                end)
              header.Ir.phis;
            (* Substitute only at sites dominated by the exit: a block's
               instructions/terminator when the block is, a phi argument
               when its contributing predecessor is. *)
            if Hashtbl.length outside_subst > 0 then begin
              let exit_site l =
                (not (Label_set.mem l lp.Loops.body))
                && Dom.dominates dom_orig exit_l l
              in
              Ir.iter_blocks fn (fun b ->
                  List.iter
                    (fun (q : Ir.phi) ->
                      q.Ir.p_args <-
                        List.map
                          (fun (pl, o) ->
                            if exit_site pl then
                              ( pl,
                                Ir.subst_operand
                                  (Hashtbl.find_opt outside_subst) o )
                            else (pl, o))
                          q.Ir.p_args)
                    b.Ir.phis;
                  if exit_site b.Ir.b_label then begin
                    List.iter
                      (fun (i : Ir.instr) ->
                        i.Ir.ik <-
                          Ir.subst_uses (Hashtbl.find_opt outside_subst) i.Ir.ik)
                      b.Ir.instrs;
                    b.Ir.term <-
                      Ir.subst_term (Hashtbl.find_opt outside_subst) b.Ir.term
                  end)
            end;
            Ir.recompute_preds fn;
            true
            end
        | _ -> false
      end
  | _ -> false

let run (fn : Ir.fn) =
  (* Rotating a loop reshapes the CFG, invalidating sibling/outer loop
     records; recompute and retry until a fixpoint so nests rotate
     fully. Already-rotated loops have a conditional latch and are
     skipped by the shape guard, so this terminates. *)
  let total = ref 0 in
  let progress = ref true in
  let rounds = ref 0 in
  while !progress && !rounds < 8 do
    progress := false;
    incr rounds;
    Ir.prune_unreachable fn;
    let dom = Dom.compute fn in
    let loop_info = Loops.find fn dom in
    List.iter
      (fun lp ->
        (* The loop record may be stale after an earlier rotation this
           round; guard against vanished blocks. *)
        if
          Ir.mem_block fn lp.Loops.header
          && Loops.Label_set.for_all (Ir.mem_block fn) lp.Loops.body
          && (not !progress)
          && rotate_one fn lp
        then begin
          incr total;
          progress := true
        end)
      loop_info.Loops.loops
  done;
  if !total > 0 then Cleanup.run fn;
  !total

let run_program (p : Ir.program) = Ir.iter_funcs (fun fn -> ignore (run fn)) p
