(** Jump threading (gcc [thread-jumps], clang [JumpThreading]).

    When a block's conditional branch is decided on some incoming edge,
    that predecessor is retargeted straight to the decided destination,
    skipping the test. Two ways an edge decides the branch:

    - a phi argument that is a constant (possibly through one comparison
      of the phi against a constant);
    - a {e dominating condition}: the predecessor itself just branched on
      a comparison of the same register, so on the taken edge the value
      is known (the classic if-chain case, [if (x==1) ... if (x==2)]).

    Values the threaded block defines for code below it are repaired with
    new phis at the destination (the SSA-updater part of real jump
    threading). The threaded edge bypasses the block's debug bindings and
    the new join splits location ranges — the mechanical losses behind
    this pass's high ranking in the paper. *)

(* The comparison (if any) defining a block's branch condition. *)
let cond_cmp (fn : Ir.fn) (b : Ir.block) =
  match b.Ir.term with
  | Ir.Cbr (Ir.Reg r, _, _) ->
      let found = ref None in
      Ir.iter_instrs fn (fun _ i ->
          match i.Ir.ik with
          | Ir.Bin (op, d, Ir.Reg x, Ir.Imm c) when d = r ->
              found := Some (op, x, c)
          | _ -> ());
      !found
  | _ -> None

(* Walk [pred]'s dominator chain for a conditional branch on a
   comparison of [x] with a constant whose taken edge dominates [pred]:
   the strongest fact about [x] that necessarily holds on entry. *)
let dominating_fact (fn : Ir.fn) dom pred x =
  (* A fact established on edge D->T holds at [pred] when T dominates
     [pred] AND T's only predecessor is D — then every path to [pred]
     entered T through that very edge. (T merely dominating [pred] is
     not enough: T reachable from elsewhere would launder the fact.) *)
  let edge_holds d t =
    Dom.dominates dom t pred && (Ir.block fn t).Ir.preds = [ d ]
  in
  let rec up l =
    match Dom.idom dom l with
    | None -> None
    | Some d -> (
        let db = Ir.block fn d in
        match (cond_cmp fn db, db.Ir.term) with
        | Some (pop, px, pc), Ir.Cbr (_, pt, pf) when px = x && pt <> pf ->
            if edge_holds d pt then Some (pop, pc, true)
            else if edge_holds d pf then Some (pop, pc, false)
            else up d
        | _ -> up d)
  in
  Ir.recompute_preds fn;
  up pred

(* What does entering [b] from [pred] tell us about [b]'s branch
   condition? *)
let eval_cond_for_pred (fn : Ir.fn) dom (b : Ir.block) pred =
  let phi_value r =
    List.find_map
      (fun (p : Ir.phi) ->
        if p.Ir.p_dst = r then
          match List.assoc_opt pred p.Ir.p_args with
          | Some (Ir.Imm n) -> Some n
          | _ -> None
        else None)
      b.Ir.phis
  in
  match b.Ir.term with
  | Ir.Cbr (Ir.Imm n, _, _) -> Some n
  | Ir.Cbr (Ir.Reg r, _, _) -> (
      match phi_value r with
      | Some n -> Some n
      | None -> (
          (* Through one comparison of a phi with a constant... *)
          let via_phi_cmp =
            match cond_cmp fn b with
            | Some (op, x, c) -> (
                match phi_value x with
                | Some v -> Some (Ir.eval_binop op v c)
                | None -> None)
            | None -> None
          in
          match via_phi_cmp with
          | Some v -> Some v
          | None -> (
              (* ... or through a dominating condition on the same
                 register: either the predecessor's own branch (the edge
                 chooses), or any comparison on a dominator whose taken
                 edge dominates the predecessor (the if-chain case). *)
              match cond_cmp fn b with
              | None -> None
              | Some (op, x, c) -> (
                  let apply (pop, pc, on_true) =
                    if (on_true && pop = Ir.Ceq) || ((not on_true) && pop = Ir.Cne)
                    then (* x = pc exactly *)
                      Some (Ir.eval_binop op pc c)
                    else if
                      (* x known != pc: decides equality tests against
                         that same constant. *)
                      ((on_true && pop = Ir.Cne)
                      || ((not on_true) && pop = Ir.Ceq))
                      && op = Ir.Ceq && c = pc
                    then Some 0
                    else None
                  in
                  let via_pred_branch =
                    match Ir.find_block fn pred with
                    | Some pb -> (
                        match (cond_cmp fn pb, pb.Ir.term) with
                        | Some (pop, px, pc), Ir.Cbr (_, pt, pf)
                          when px = x && pt <> pf ->
                            if b.Ir.b_label = pt then apply (pop, pc, true)
                            else if b.Ir.b_label = pf then apply (pop, pc, false)
                            else None
                        | _ -> None)
                    | None -> None
                  in
                  match via_pred_branch with
                  | Some v -> Some v
                  | None -> (
                      match dominating_fact fn dom pred x with
                      | Some fact -> apply fact
                      | None -> None)))))
  | Ir.Br _ | Ir.Ret _ -> None

(* Threadable block shape: phis, debug bindings, and pure computations
   feeding only the branch condition. *)
let threadable_block (b : Ir.block) counts =
  List.for_all
    (fun (i : Ir.instr) ->
      match i.Ir.ik with
      | Ir.Dbg _ -> true
      | Ir.Bin (_, d, _, _) when Putil.pure_ikind i.Ir.ik ->
          (match b.Ir.term with
          | Ir.Cbr (Ir.Reg c, _, _) when c = d ->
              Putil.use_count counts d = 1
          | _ -> false)
      | _ -> false)
    b.Ir.instrs

(* Uses of [r] outside block [b], classified against [target]'s
   pre-threading dominance region: `Inside (substitutable), `Keep (still
   dominated by b's region, untouched), or `Unsafe. *)
let classify_uses (fn : Ir.fn) dom ~b_label ~target r =
  let reachable_from_target =
    let seen = Hashtbl.create 16 in
    let rec go l =
      if not (Hashtbl.mem seen l) then begin
        Hashtbl.replace seen l ();
        List.iter go (Ir.succs (Ir.block fn l).Ir.term)
      end
    in
    go target;
    seen
  in
  let unsafe = ref false in
  let used_inside = ref false in
  Ir.iter_blocks fn (fun ob ->
      if ob.Ir.b_label <> b_label then begin
        let classify_block ub =
          if Dom.dominates dom target ub then used_inside := true
          else if Hashtbl.mem reachable_from_target ub then unsafe := true
        in
        let check_in ub rr = if rr = r then classify_block ub in
        List.iter
          (fun (i : Ir.instr) ->
            List.iter (check_in ob.Ir.b_label) (Ir.real_uses_of_ikind i.Ir.ik))
          ob.Ir.instrs;
        List.iter (check_in ob.Ir.b_label) (Ir.term_uses ob.Ir.term);
        (* Phi-argument uses are attributed to the contributing pred. *)
        List.iter
          (fun (p : Ir.phi) ->
            List.iter
              (fun (pl, o) ->
                if pl <> b_label then
                  List.iter (check_in pl) (Ir.operand_uses o))
              p.Ir.p_args)
          ob.Ir.phis
      end);
  if !unsafe then `Unsafe else if !used_inside then `Inside else `Keep

let run (fn : Ir.fn) =
  Ir.prune_unreachable fn;
  let threaded = ref 0 in
  let counts = Putil.use_counts fn in
  let labels = fn.Ir.layout in
  List.iter
    (fun l ->
      match Ir.find_block fn l with
      | None -> ()
      | Some b -> (
          match b.Ir.term with
          | Ir.Cbr (_, t1, t2)
            when l <> fn.Ir.entry && t1 <> l && t2 <> l
                 && threadable_block b counts ->
              Ir.recompute_preds fn;
              List.iter
                (fun pred ->
                  let dom = Dom.compute fn in
                  match eval_cond_for_pred fn dom b pred with
                  | Some v
                    when pred <> l && Ir.mem_block fn pred
                         && Ir.mem_block fn l -> (
                      let target = if v <> 0 then t1 else t2 in
                      let resolve_through o =
                        match o with
                        | Ir.Reg r -> (
                            match
                              List.find_map
                                (fun (p : Ir.phi) ->
                                  if p.Ir.p_dst = r then
                                    List.assoc_opt pred p.Ir.p_args
                                  else None)
                                b.Ir.phis
                            with
                            | Some value -> value
                            | None -> o)
                        | Ir.Imm _ -> o
                      in
                      (* Values of b consumed below: phi dsts used outside
                         b. The cond computation is consumed by the branch
                         only (threadable_block). *)
                      let escaped =
                        List.filter
                          (fun (p : Ir.phi) ->
                            classify_uses fn dom ~b_label:l ~target p.Ir.p_dst
                            <> `Keep)
                          b.Ir.phis
                      in
                      let tb0 = Ir.block fn target in
                      let already_edge0 = List.mem pred tb0.Ir.preds in
                      let repairs_ok =
                        target <> l
                        (* A pre-existing direct edge from this pred can
                           carry only one phi value; bail if a repair
                           would need two. *)
                        && (not (already_edge0 && escaped <> []))
                        (* A repair phi's argument for a target pred
                           other than the new edge is the escaped value
                           itself, defined in [l] — only valid if [l]
                           dominates that pred. The new edge
                           pred->target can itself break that dominance
                           (a path now bypasses [l]), so probe the CFG
                           as it will be after retargeting. *)
                        && (escaped = []
                           || begin
                                let pb = Ir.block fn pred in
                                let saved = pb.Ir.term in
                                let redirect x = if x = l then target else x in
                                pb.Ir.term <-
                                  (match saved with
                                  | Ir.Br x -> Ir.Br (redirect x)
                                  | Ir.Cbr (c, x, y) ->
                                      Ir.Cbr (c, redirect x, redirect y)
                                  | Ir.Ret _ as t -> t);
                                Ir.recompute_preds fn;
                                let dom2 = Dom.compute fn in
                                let ok =
                                  List.for_all
                                    (fun tp ->
                                      tp = pred || Dom.dominates dom2 l tp)
                                    (Ir.block fn target).Ir.preds
                                in
                                pb.Ir.term <- saved;
                                Ir.recompute_preds fn;
                                ok
                              end)
                        && List.for_all
                             (fun (p : Ir.phi) ->
                               classify_uses fn dom ~b_label:l ~target
                                 p.Ir.p_dst
                               <> `Unsafe)
                             b.Ir.phis
                        (* The repair phi needs one argument per
                           existing pred of the target plus the new
                           edge; target phis must not already have an
                           edge from this pred with a different value. *)
                        && (let tb = Ir.block fn target in
                            (not (List.mem pred tb.Ir.preds))
                            || List.for_all
                                 (fun (p : Ir.phi) ->
                                   match
                                     ( List.assoc_opt pred p.Ir.p_args,
                                       List.assoc_opt l p.Ir.p_args )
                                   with
                                   | Some existing, Some via_b ->
                                       existing = resolve_through via_b
                                   | _ -> true)
                                 tb.Ir.phis)
                      in
                      if repairs_ok then begin
                        let tb = Ir.block fn target in
                        let already_edge = List.mem pred tb.Ir.preds in
                        (* Extend the target's existing phis with the new
                           edge's value. *)
                        List.iter
                          (fun (p : Ir.phi) ->
                            match List.assoc_opt l p.Ir.p_args with
                            | Some via_b ->
                                if not (List.mem_assoc pred p.Ir.p_args) then
                                  p.Ir.p_args <-
                                    (pred, resolve_through via_b) :: p.Ir.p_args
                            | None -> ())
                          tb.Ir.phis;
                        (* Repair escaped values with new phis at the
                           target. *)
                        let subst = Hashtbl.create 4 in
                        List.iter
                          (fun (p : Ir.phi) ->
                            let x = p.Ir.p_dst in
                            let fresh = Ir.fresh_reg fn in
                            let args =
                              List.map
                                (fun tp ->
                                  if tp = pred && not already_edge then
                                    (tp, resolve_through (Ir.Reg x))
                                  else (tp, Ir.Reg x))
                                tb.Ir.preds
                            in
                            let args =
                              if already_edge then args
                              else if List.mem_assoc pred args then args
                              else (pred, resolve_through (Ir.Reg x)) :: args
                            in
                            tb.Ir.phis <-
                              tb.Ir.phis @ [ { Ir.p_dst = fresh; p_args = args } ];
                            Hashtbl.replace subst x (Ir.Reg fresh))
                          escaped;
                        (* Substitute escaped uses in target-dominated
                           blocks. *)
                        if Hashtbl.length subst > 0 then
                          Ir.iter_blocks fn (fun ob ->
                              let dominated ub = Dom.dominates dom target ub in
                              if
                                ob.Ir.b_label <> l
                                && ob.Ir.b_label <> target
                                && dominated ob.Ir.b_label
                              then begin
                                List.iter
                                  (fun (i : Ir.instr) ->
                                    i.Ir.ik <-
                                      Ir.subst_uses (Hashtbl.find_opt subst)
                                        i.Ir.ik)
                                  ob.Ir.instrs;
                                ob.Ir.term <-
                                  Ir.subst_term (Hashtbl.find_opt subst) ob.Ir.term
                              end;
                              (* Phi args contributed by dominated preds
                                 (including the target itself, whose end
                                 is past the repair phi) — except the
                                 target's own entry phis, whose args from
                                 non-dominated preds stay. *)
                              List.iter
                                (fun (p : Ir.phi) ->
                                  p.Ir.p_args <-
                                    List.map
                                      (fun (pl, o) ->
                                        if pl <> l && dominated pl then
                                          ( pl,
                                            Ir.subst_operand
                                              (Hashtbl.find_opt subst) o )
                                        else (pl, o))
                                      p.Ir.p_args)
                                ob.Ir.phis);
                        (* Instructions in the target itself (after its
                           phis) are dominated by it too. *)
                        (if Hashtbl.length subst > 0 then begin
                           List.iter
                             (fun (i : Ir.instr) ->
                               i.Ir.ik <-
                                 Ir.subst_uses (Hashtbl.find_opt subst) i.Ir.ik)
                             tb.Ir.instrs;
                           tb.Ir.term <-
                             Ir.subst_term (Hashtbl.find_opt subst) tb.Ir.term
                         end);
                        (* Finally retarget the predecessor and drop its
                           entries from the threaded block's phis. *)
                        let pb = Ir.block fn pred in
                        let redirect x = if x = l then target else x in
                        pb.Ir.term <-
                          (match pb.Ir.term with
                          | Ir.Br x -> Ir.Br (redirect x)
                          | Ir.Cbr (c, x, y) -> Ir.Cbr (c, redirect x, redirect y)
                          | Ir.Ret _ as t -> t);
                        List.iter
                          (fun (p : Ir.phi) ->
                            p.Ir.p_args <-
                              List.filter (fun (pl, _) -> pl <> pred) p.Ir.p_args)
                          b.Ir.phis;
                        Ir.recompute_preds fn;
                        incr threaded
                      end)
                  | _ -> ())
                b.Ir.preds
          | _ -> ()))
    labels;
  if !threaded > 0 then begin
    Ir.recompute_preds fn;
    Cleanup.run fn
  end;
  !threaded

let run_program (p : Ir.program) = Ir.iter_funcs (fun fn -> ignore (run fn)) p
