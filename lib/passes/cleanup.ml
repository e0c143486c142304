(** CFG cleanup, run between passes in both pipelines (not toggleable —
    every production compiler interleaves equivalent canonicalization).

    Kept deliberately debug-friendly: merging a straight-line pair keeps
    every line; a trivial phi forwards its operand everywhere including
    debug bindings. The only loss here is dropping the debug bindings of
    an empty forwarding block that cannot be moved into a multi-pred
    successor — rare and tiny. *)

let trivial_phis (fn : Ir.fn) =
  let changed = ref true in
  while !changed do
    changed := false;
    let map = Hashtbl.create 8 in
    Ir.iter_blocks fn (fun b ->
        b.Ir.phis <-
          List.filter
            (fun (p : Ir.phi) ->
              let distinct =
                List.sort_uniq compare
                  (List.filter (fun o -> o <> Ir.Reg p.Ir.p_dst)
                     (List.map snd p.Ir.p_args))
              in
              match distinct with
              | [ one ] ->
                  Hashtbl.replace map p.Ir.p_dst one;
                  changed := true;
                  false
              | _ -> true)
            b.Ir.phis);
    if Hashtbl.length map > 0 then Putil.replace_uses fn map
  done

(* Merge [b] with its unique successor [s] when [s]'s unique predecessor
   is [b] and [s] has no phis. *)
let merge_pairs (fn : Ir.fn) =
  Ir.recompute_preds fn;
  let changed = ref true in
  while !changed do
    changed := false;
    let labels = fn.Ir.layout in
    List.iter
      (fun l ->
        match Ir.find_block fn l with
        | None -> ()
        | Some b -> (
            match b.Ir.term with
            | Ir.Br s when s <> l -> (
                match Ir.find_block fn s with
                | Some sb
                  when sb.Ir.preds = [ l ] && sb.Ir.phis = [] && s <> fn.Ir.entry
                  ->
                    b.Ir.instrs <- b.Ir.instrs @ sb.Ir.instrs;
                    b.Ir.term <- sb.Ir.term;
                    b.Ir.term_line <- sb.Ir.term_line;
                    Ir.remove_block fn s;
                    fn.Ir.layout <- List.filter (fun x -> x <> s) fn.Ir.layout;
                    (* Successors' phis referring to s now come from b. *)
                    List.iter
                      (fun succ ->
                        match Ir.find_block fn succ with
                        | Some tb ->
                            List.iter
                              (fun (p : Ir.phi) ->
                                p.Ir.p_args <-
                                  List.map
                                    (fun (pl, o) ->
                                      if pl = s then (l, o) else (pl, o))
                                    p.Ir.p_args)
                              tb.Ir.phis
                        | None -> ())
                      (Ir.succs b.Ir.term);
                    Ir.recompute_preds fn;
                    changed := true
                | _ -> ())
            | _ -> ()))
      labels
  done

(* Remove blocks that only forward ([Br t], no instructions except debug
   bindings, no phis), rerouting predecessors straight to the target. *)
let remove_forwarders (fn : Ir.fn) =
  Ir.recompute_preds fn;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        match Ir.find_block fn l with
        | None -> ()
        | Some b -> (
            let only_dbg =
              List.for_all
                (fun (i : Ir.instr) ->
                  match i.Ir.ik with Ir.Dbg _ -> true | _ -> false)
                b.Ir.instrs
            in
            match b.Ir.term with
            | Ir.Br t
              when only_dbg && b.Ir.phis = [] && t <> l && l <> fn.Ir.entry ->
                let tb = Ir.block fn t in
                (* If the target has phis, rerouting is only safe when
                   each pred gets the value the forwarder would have
                   passed — that value is the forwarder's own incoming
                   one, identical for every pred, so it is safe; but the
                   target must not already have an edge from a pred
                   (duplicate phi entries). *)
                let pred_conflict =
                  List.exists (fun p -> List.mem p tb.Ir.preds) b.Ir.preds
                  && tb.Ir.phis <> []
                in
                if not pred_conflict then begin
                  (* Move the debug bindings into the target when it has a
                     single predecessor (us); otherwise they are dropped —
                     a small real loss. *)
                  (if tb.Ir.preds = [ l ] then
                     tb.Ir.instrs <-
                       List.filter
                         (fun (i : Ir.instr) ->
                           match i.Ir.ik with Ir.Dbg _ -> true | _ -> false)
                         b.Ir.instrs
                       @ tb.Ir.instrs);
                  List.iter
                    (fun p ->
                      let pb = Ir.block fn p in
                      let redirect x = if x = l then t else x in
                      pb.Ir.term <-
                        (match pb.Ir.term with
                        | Ir.Br x -> Ir.Br (redirect x)
                        | Ir.Cbr (c, x, y) -> Ir.Cbr (c, redirect x, redirect y)
                        | Ir.Ret _ as r -> r))
                    b.Ir.preds;
                  (* Target phis: replace the edge from the forwarder with
                     edges from each pred carrying the same value. *)
                  List.iter
                    (fun (p : Ir.phi) ->
                      match List.assoc_opt l p.Ir.p_args with
                      | Some v ->
                          p.Ir.p_args <-
                            List.filter (fun (pl, _) -> pl <> l) p.Ir.p_args
                            @ List.map (fun pred -> (pred, v)) b.Ir.preds
                      | None -> ())
                    tb.Ir.phis;
                  Ir.remove_block fn l;
                  fn.Ir.layout <- List.filter (fun x -> x <> l) fn.Ir.layout;
                  Ir.recompute_preds fn;
                  changed := true
                end
            | _ -> ()))
      fn.Ir.layout
  done

(** Fold conditional branches with constant or equal-target conditions. *)
let fold_branches (fn : Ir.fn) =
  Ir.iter_blocks fn (fun b ->
      match b.Ir.term with
      | Ir.Cbr (Ir.Imm c, l1, l2) ->
          let dead = if c <> 0 then l2 else l1 in
          let live = if c <> 0 then l1 else l2 in
          (* Remove the dead edge's phi entries. *)
          (match Ir.find_block fn dead with
          | Some db when dead <> live ->
              List.iter
                (fun (p : Ir.phi) ->
                  p.Ir.p_args <-
                    List.filter (fun (pl, _) -> pl <> b.Ir.b_label) p.Ir.p_args)
                db.Ir.phis
          | _ -> ());
          b.Ir.term <- Ir.Br live
      | Ir.Cbr (c, l1, l2) when l1 = l2 ->
          ignore c;
          b.Ir.term <- Ir.Br l1
      | _ -> ())

(* Phis never consumed by real code are structural residue of SSA
   construction and pass rewrites; every compiler sweeps them outside
   any toggleable pass. Debug bindings referencing them go optimized-out
   (this loss belongs to whichever pass orphaned the phi). *)
let dead_phis (fn : Ir.fn) =
  let changed = ref true in
  let killed = Ir.Dense_set.create fn.Ir.next_reg in
  while !changed do
    changed := false;
    let counts = Putil.use_counts fn in
    Ir.iter_blocks fn (fun b ->
        b.Ir.phis <-
          List.filter
            (fun (p : Ir.phi) ->
              if Putil.use_count counts p.Ir.p_dst > 0 then true
              else begin
                Ir.Dense_set.add killed p.Ir.p_dst;
                changed := true;
                false
              end)
            b.Ir.phis)
  done;
  Putil.kill_bindings fn (Ir.Dense_set.mem killed)

(* Debug bindings whose register no longer has a definition anywhere in
   the function — its block was pruned as unreachable, or a pass deleted
   the value without rewriting debug uses — go optimized-out, the same
   way LLVM turns the dbg.value users of a deleted instruction into
   undef. Real uses of such registers would be a pass bug (the verifier
   rejects them); debug uses are the supported, lossy case. *)
let orphaned_dbg (fn : Ir.fn) =
  let defined = Ir.Dense_set.create fn.Ir.next_reg in
  let define = Ir.Dense_set.add defined in
  List.iter (fun (r, _) -> define r) fn.Ir.f_params;
  Ir.iter_blocks fn (fun b ->
      List.iter (fun (p : Ir.phi) -> define p.Ir.p_dst) b.Ir.phis;
      List.iter
        (fun (i : Ir.instr) -> List.iter define (Ir.def_of_ikind i.Ir.ik))
        b.Ir.instrs);
  Ir.iter_blocks fn (fun b ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.Ir.ik with
          | Ir.Dbg (v, Some o)
            when List.exists
                   (fun r -> not (Ir.Dense_set.mem defined r))
                   (Ir.operand_uses o) ->
              i.Ir.ik <- Ir.Dbg (v, None)
          | _ -> ())
        b.Ir.instrs)

(** The full cleanup: run to a fixpoint of the component rewrites. *)
let run (fn : Ir.fn) =
  fold_branches fn;
  Ir.prune_unreachable fn;
  trivial_phis fn;
  remove_forwarders fn;
  merge_pairs fn;
  trivial_phis fn;
  dead_phis fn;
  Ir.prune_unreachable fn;
  orphaned_dbg fn

let run_program (p : Ir.program) = Ir.iter_funcs run p
