(** Loop unrolling (clang [LoopUnroll]; part of gcc's O3 loop work).

    Operates on single-block self-loops — the shape simple inner loops
    take after rotation and CFG cleanup. The body is duplicated with a
    fresh exit test, halving the number of taken back-edges; the copy
    keeps its source lines (so line entries duplicate, as real unrolling
    does) and its remapped debug bindings. *)

let unroll_block (fn : Ir.fn) (l : Ir.label) =
  let b = Ir.block fn l in
  match b.Ir.term with
  | Ir.Cbr (cond, t1, t2) when (t1 = l) <> (t2 = l) ->
      let exit_l = if t1 = l then t2 else t1 in
      let continue_if_true = t1 = l in
      let body_size =
        List.length
          (List.filter
             (fun (i : Ir.instr) ->
               match i.Ir.ik with Ir.Dbg _ -> false | _ -> true)
             b.Ir.instrs)
      in
      if body_size > 30 then false
      else begin
        (* ---- escape analysis, before any mutation ----
           Loop definitions used outside need a merge phi in the exit
           block, and that phi must cover EVERY exit-block predecessor:
           - the loop and its copy carry the two iterations' values;
           - a pred on a cycle through the exit (e.g. a sibling inner
             loop) carries the previous merge — the phi's own value —
             which is valid SSA only if the exit dominates that pred;
           - an entry-side pred (a loop guard's bypass edge) can never
             carry an observable value (any path from it to a use must
             re-enter this loop and re-cross the exit), so it gets a
             dead 0.
           Bail out entirely when the self-referential case would break
           dominance. *)
        let loop_defs =
          List.map (fun (p : Ir.phi) -> p.Ir.p_dst) b.Ir.phis
          @ List.concat_map
              (fun (i : Ir.instr) -> Ir.def_of_ikind i.Ir.ik)
              b.Ir.instrs
        in
        let used_outside_loop d =
          let found = ref false in
          Ir.iter_blocks fn (fun ob ->
              if ob.Ir.b_label <> l then begin
                let check r = if r = d then found := true in
                List.iter
                  (fun (q : Ir.phi) ->
                    List.iter
                      (fun (pl, o) ->
                        if pl <> l then List.iter check (Ir.operand_uses o))
                      q.Ir.p_args)
                  ob.Ir.phis;
                List.iter
                  (fun (i : Ir.instr) ->
                    List.iter check (Ir.uses_of_ikind i.Ir.ik))
                  ob.Ir.instrs;
                List.iter check (Ir.term_uses ob.Ir.term)
              end);
          !found
        in
        let escaping = List.filter used_outside_loop loop_defs in
        let exit_extra_preds =
          Ir.Label_store.fold
            (fun pl (pb : Ir.block) acc ->
              if pl <> l && List.mem exit_l (Ir.succs pb.Ir.term) then
                pl :: acc
              else acc)
            fn.Ir.blocks []
          |> List.sort compare
        in
        let reach_exit = Hashtbl.create 16 in
        let rec mark x =
          if not (Hashtbl.mem reach_exit x) then begin
            Hashtbl.replace reach_exit x ();
            match Ir.find_block fn x with
            | Some xb -> List.iter mark (Ir.succs xb.Ir.term)
            | None -> ()
          end
        in
        mark exit_l;
        let escape_plan_ok =
          escaping = [] || exit_extra_preds = []
          || begin
               Ir.recompute_preds fn;
               let dom = Dom.compute fn in
               List.for_all
                 (fun p ->
                   (not (Hashtbl.mem reach_exit p))
                   || Dom.dominates dom exit_l p)
                 exit_extra_preds
             end
        in
        if not escape_plan_ok then false
        else begin
        let map : (Ir.reg, Ir.operand) Hashtbl.t = Hashtbl.create 16 in
        (* Iteration-1 values of the phis are their back-edge arguments. *)
        List.iter
          (fun (p : Ir.phi) ->
            match List.assoc_opt l p.Ir.p_args with
            | Some v -> Hashtbl.replace map p.Ir.p_dst v
            | None -> ())
          b.Ir.phis;
        let l2 = Ir.new_block fn in
        let fresh_def r =
          let r' = Ir.fresh_reg fn in
          Hashtbl.replace map r (Ir.Reg r');
          r'
        in
        l2.Ir.instrs <-
          List.map
            (fun (i : Ir.instr) ->
              {
                Ir.ik =
                  Putil.clone_ikind ~fresh_def ~map_use:(Hashtbl.find_opt map)
                    i.Ir.ik;
                line = i.Ir.line;
              })
            b.Ir.instrs;
        let cond2 = Ir.subst_operand (Hashtbl.find_opt map) cond in
        l2.Ir.term <-
          (if continue_if_true then Ir.Cbr (cond2, l, exit_l)
           else Ir.Cbr (cond2, exit_l, l));
        l2.Ir.term_line <- b.Ir.term_line;
        l2.Ir.freq <- b.Ir.freq /. 2.0;
        b.Ir.term <-
          (if continue_if_true then Ir.Cbr (cond, l2.Ir.b_label, exit_l)
           else Ir.Cbr (cond, exit_l, l2.Ir.b_label));
        (* The loop phis' back edge now comes from the copy, carrying the
           remapped (iteration-2) values. *)
        List.iter
          (fun (p : Ir.phi) ->
            p.Ir.p_args <-
              List.map
                (fun (pl, o) ->
                  if pl = l then
                    (l2.Ir.b_label, Ir.subst_operand (Hashtbl.find_opt map) o)
                  else (pl, o))
                p.Ir.p_args)
          b.Ir.phis;
        (* The exit block gains a second incoming edge from the copy. *)
        List.iter
          (fun (p : Ir.phi) ->
            match List.assoc_opt l p.Ir.p_args with
            | Some v ->
                p.Ir.p_args <-
                  p.Ir.p_args
                  @ [ (l2.Ir.b_label, Ir.subst_operand (Hashtbl.find_opt map) v) ]
            | None -> ())
          (Ir.block fn exit_l).Ir.phis;
        (* Merge the two iterations' values of every escaping definition
           in the exit block, per the pre-mutation escape plan. *)
        let escape_subst = Hashtbl.create 4 in
        let outside_block ob =
          ob.Ir.b_label <> l && ob.Ir.b_label <> l2.Ir.b_label
        in
        List.iter
          (fun d ->
            let merged = Ir.fresh_reg fn in
            let from_copy =
              Ir.subst_operand (Hashtbl.find_opt map) (Ir.Reg d)
            in
            (Ir.block fn exit_l).Ir.phis <-
              (Ir.block fn exit_l).Ir.phis
              @ [
                  {
                    Ir.p_dst = merged;
                    p_args =
                      [ (l, Ir.Reg d); (l2.Ir.b_label, from_copy) ]
                      @ List.map
                          (fun pl ->
                            ( pl,
                              if Hashtbl.mem reach_exit pl then Ir.Reg merged
                              else Ir.Imm 0 ))
                          exit_extra_preds;
                  };
                ];
            Hashtbl.replace escape_subst d (Ir.Reg merged))
          escaping;
        if Hashtbl.length escape_subst > 0 then
          Ir.iter_blocks fn (fun ob ->
              if outside_block ob then begin
                List.iter
                  (fun (q : Ir.phi) ->
                    q.Ir.p_args <-
                      List.map
                        (fun (pl, o) ->
                          if pl = l || pl = l2.Ir.b_label then (pl, o)
                          else
                            (pl, Ir.subst_operand (Hashtbl.find_opt escape_subst) o))
                        q.Ir.p_args)
                  ob.Ir.phis;
                List.iter
                  (fun (i : Ir.instr) ->
                    i.Ir.ik <-
                      Ir.subst_uses (Hashtbl.find_opt escape_subst) i.Ir.ik)
                  ob.Ir.instrs;
                ob.Ir.term <-
                  Ir.subst_term (Hashtbl.find_opt escape_subst) ob.Ir.term
              end);
        (* Place the copy right after the original. *)
        fn.Ir.layout <-
          List.concat_map
            (fun x ->
              if x = l then [ l; l2.Ir.b_label ]
              else if x = l2.Ir.b_label then []
              else [ x ])
            fn.Ir.layout;
        Ir.recompute_preds fn;
        true
        end
      end
  | _ -> false

(** [run fn ~factor] unrolls every single-block self-loop; [factor] 4
    applies the doubling twice to the innermost candidates. *)
let run (fn : Ir.fn) ~factor =
  Ir.prune_unreachable fn;
  let times = if factor >= 4 then 2 else 1 in
  let total = ref 0 in
  for _ = 1 to times do
    let selfloops =
      List.filter
        (fun l ->
          match Ir.find_block fn l with
          | Some b -> List.mem l (Ir.succs b.Ir.term)
          | None -> false)
        fn.Ir.layout
    in
    List.iter (fun l -> if unroll_block fn l then incr total) selfloops
  done;
  !total
