(** Test-only reference implementations of the inter-pass cleanup and
    of SSA construction, in their straightforward form: every cleanup
    component rebuilds the lists it filters on every call, predecessors
    are recomputed before every use, and promotion finds slots and phis
    through hash tables and list searches. The library versions must
    produce structurally equal IR; [test_reference.ml] checks that at
    every intermediate state of the pipeline. The [Ir] and [Putil]
    helpers these call that the library implements differently are
    copied here too, so the reference does not move when the library
    does. Nothing outside the test suite uses this module. *)

(** [Ir]'s CFG helpers. *)
module Ir_ref = struct
  let recompute_preds fn =
    Ir.Label_store.iter (fun _ b -> b.Ir.preds <- []) fn.Ir.blocks;
    List.iter
      (fun l ->
        List.iter
          (fun s ->
            let sb = Ir.block fn s in
            sb.Ir.preds <- l :: sb.Ir.preds)
          (Ir.succs (Ir.block fn l).Ir.term))
      fn.Ir.layout;
    Ir.Label_store.iter (fun _ b -> b.Ir.preds <- List.rev b.Ir.preds) fn.Ir.blocks

  let reachable fn =
    let seen = Ir.Dense_set.create fn.Ir.next_label in
    let rec go l =
      if not (Ir.Dense_set.mem seen l) then begin
        Ir.Dense_set.add seen l;
        List.iter go (Ir.succs (Ir.block fn l).Ir.term)
      end
    in
    go fn.Ir.entry;
    seen

  let prune_unreachable fn =
    let live = reachable fn in
    fn.Ir.layout <- List.filter (Ir.Dense_set.mem live) fn.Ir.layout;
    Ir.Label_store.iter
      (fun l _ -> if not (Ir.Dense_set.mem live l) then Ir.remove_block fn l)
      fn.Ir.blocks;
    recompute_preds fn;
    Ir.Label_store.iter
      (fun _ b ->
        List.iter
          (fun p -> p.Ir.p_args <- List.filter (fun (l, _) -> List.mem l b.Ir.preds) p.Ir.p_args)
          b.Ir.phis)
      fn.Ir.blocks
end

(** [Putil]'s use counts. *)
module Putil_ref = struct
  let use_counts (fn : Ir.fn) =
    let counts = Bytes.make fn.Ir.next_reg '\000' in
    let bump r =
      let c = Bytes.get counts r in
      if c < '\002' then Bytes.set counts r (Char.chr (Char.code c + 1))
    in
    Ir.iter_blocks fn (fun b ->
        List.iter
          (fun (p : Ir.phi) ->
            List.iter (fun (_, o) -> List.iter bump (Ir.operand_uses o)) p.Ir.p_args)
          b.Ir.phis;
        List.iter
          (fun (i : Ir.instr) -> List.iter bump (Ir.real_uses_of_ikind i.Ir.ik))
          b.Ir.instrs;
        List.iter bump (Ir.term_uses b.Ir.term));
    counts

  let use_count = Putil.use_count
end

module Cleanup = struct
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
    Ir_ref.recompute_preds fn;
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
                      Ir_ref.recompute_preds fn;
                      changed := true
                  | _ -> ())
              | _ -> ()))
        labels
    done

  (* Remove blocks that only forward ([Br t], no instructions except debug
     bindings, no phis), rerouting predecessors straight to the target. *)
  let remove_forwarders (fn : Ir.fn) =
    Ir_ref.recompute_preds fn;
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
                    Ir_ref.recompute_preds fn;
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
      let counts = Putil_ref.use_counts fn in
      Ir.iter_blocks fn (fun b ->
          b.Ir.phis <-
            List.filter
              (fun (p : Ir.phi) ->
                if Putil_ref.use_count counts p.Ir.p_dst > 0 then true
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
    Ir_ref.prune_unreachable fn;
    trivial_phis fn;
    remove_forwarders fn;
    merge_pairs fn;
    trivial_phis fn;
    dead_phis fn;
    Ir_ref.prune_unreachable fn;
    orphaned_dbg fn

  let run_program (p : Ir.program) = Ir.iter_funcs run p
end

module Mem2reg = struct
  (** Promotion of scalar frame slots to SSA registers ("into-ssa").

      This is the always-on stage both pipelines run at O1 and above (in
      clang it is performed by SROA; in gcc by into-ssa — neither compiler
      lets you opt out of SSA form). Promotion is debug-info aware: every
      promoted store becomes a [Dbg] binding carrying the stored value, and
      every inserted phi is announced with a [Dbg] binding at the head of
      its block, so immediately after promotion a debugger still sees every
      variable almost everywhere — the losses measured by the experiments
      come from the passes that run later.

      Classic algorithm: phi insertion at iterated dominance frontiers of
      the store blocks, then a dominator-tree renaming walk. Uninitialized
      slots read as 0, matching the VM's zeroed frames. *)

  module Label_set = Set.Make (Int)

  let promotable (s : Ir.slot) ~only =
    (not s.Ir.s_array) && s.Ir.s_size = 1
    && match only with None -> true | Some ids -> List.mem s.Ir.s_id ids

  (** [run ?only fn] promotes the scalar slots of [fn] (all of them by
      default, or just those whose ids appear in [only] — used by SROA to
      promote the slots it scalarized). *)
  let run ?only (fn : Ir.fn) =
    Ir_ref.prune_unreachable fn;
    let slots = List.filter (fun s -> promotable s ~only) fn.Ir.f_slots in
    if slots <> [] then begin
      let slot_ids = List.map (fun s -> s.Ir.s_id) slots in
      let is_promoted id = List.mem id slot_ids in
      let dom = Dom.compute fn in
      let df = Dom.frontiers fn dom in
      (* Blocks storing to each slot. *)
      let def_blocks = Hashtbl.create 16 in
      Ir.iter_instrs fn (fun b i ->
          match i.Ir.ik with
          | Ir.Store ({ base = Ir.Slot id; _ }, _) when is_promoted id ->
              let cur = Option.value ~default:[] (Hashtbl.find_opt def_blocks id) in
              if not (List.mem b.Ir.b_label cur) then
                Hashtbl.replace def_blocks id (b.Ir.b_label :: cur)
          | _ -> ());
      (* Iterated dominance frontier phi insertion; remember which slot a
         phi stands for so renaming can treat it as a definition. *)
      let phi_slot : (int * int, Ir.phi * Ir.var_id option) Hashtbl.t =
        Hashtbl.create 32 (* (block, slot) -> phi *)
      in
      List.iter
        (fun (s : Ir.slot) ->
          let id = s.Ir.s_id in
          let work = ref (Option.value ~default:[] (Hashtbl.find_opt def_blocks id)) in
          let placed = ref Label_set.empty in
          while !work <> [] do
            match !work with
            | [] -> ()
            | b :: rest ->
                work := rest;
                List.iter
                  (fun d ->
                    if not (Label_set.mem d !placed) then begin
                      placed := Label_set.add d !placed;
                      let phi = { Ir.p_dst = Ir.fresh_reg fn; p_args = [] } in
                      (Ir.block fn d).Ir.phis <- (Ir.block fn d).Ir.phis @ [ phi ];
                      Hashtbl.replace phi_slot (d, id) (phi, s.Ir.s_var);
                      work := d :: !work
                    end)
                  (Option.value ~default:[] (Hashtbl.find_opt df b))
          done)
        slots;
      (* Renaming walk over the dominator tree. *)
      let current : (int, Ir.operand) Hashtbl.t = Hashtbl.create 16 in
      let subst : (Ir.reg, Ir.operand) Hashtbl.t = Hashtbl.create 64 in
      let resolve o =
        (* Chase load-substitutions so stacks always hold final operands. *)
        let rec go o depth =
          match o with
          | Ir.Reg r when depth < 64 -> (
              match Hashtbl.find_opt subst r with
              | Some o' -> go o' (depth + 1)
              | None -> o)
          | _ -> o
        in
        go o 0
      in
      let rec walk label saved =
        let b = Ir.block fn label in
        let saved = ref saved in
        let set_current id v =
          saved := (id, Hashtbl.find_opt current id) :: !saved;
          Hashtbl.replace current id v
        in
        (* Phis inserted for slots define their slot; announce the binding
           for the debugger. *)
        let dbg_for_phis =
          List.filter_map
            (fun (s : Ir.slot) ->
              match Hashtbl.find_opt phi_slot (label, s.Ir.s_id) with
              | Some (phi, var) ->
                  set_current s.Ir.s_id (Ir.Reg phi.Ir.p_dst);
                  Option.map
                    (fun v ->
                      { Ir.ik = Ir.Dbg (v, Some (Ir.Reg phi.Ir.p_dst)); line = None })
                    var
              | None -> None)
            slots
        in
        let new_instrs =
          List.filter_map
            (fun (i : Ir.instr) ->
              let ik = Ir.subst_uses (fun r -> Hashtbl.find_opt subst r) i.Ir.ik in
              i.Ir.ik <- ik;
              match ik with
              | Ir.Store ({ base = Ir.Slot id; _ }, v) when is_promoted id ->
                  let v = resolve v in
                  set_current id v;
                  let var =
                    List.find_map
                      (fun (s : Ir.slot) ->
                        if s.Ir.s_id = id then s.Ir.s_var else None)
                      slots
                  in
                  (match var with
                  | Some vid ->
                      (* The store becomes a debug binding on the same line. *)
                      i.Ir.ik <- Ir.Dbg (vid, Some v);
                      Some i
                  | None -> None)
              | Ir.Load (r, { base = Ir.Slot id; _ }) when is_promoted id ->
                  let v =
                    Option.value ~default:(Ir.Imm 0) (Hashtbl.find_opt current id)
                  in
                  Hashtbl.replace subst r v;
                  None
              | _ -> Some i)
            b.Ir.instrs
        in
        b.Ir.instrs <- dbg_for_phis @ new_instrs;
        b.Ir.term <- Ir.subst_term (fun r -> Hashtbl.find_opt subst r) b.Ir.term;
        (* Feed successor phis along each edge. *)
        List.iter
          (fun succ ->
            List.iter
              (fun (s : Ir.slot) ->
                match Hashtbl.find_opt phi_slot (succ, s.Ir.s_id) with
                | Some (phi, _) ->
                    let v =
                      Option.value ~default:(Ir.Imm 0)
                        (Hashtbl.find_opt current s.Ir.s_id)
                    in
                    phi.Ir.p_args <- phi.Ir.p_args @ [ (label, v) ]
                | None -> ())
              slots)
          (Ir.succs b.Ir.term);
        List.iter (fun c -> walk c []) (Dom.children dom label);
        (* Restore the slot environment on the way out. *)
        List.iter
          (fun (id, old) ->
            match old with
            | Some v -> Hashtbl.replace current id v
            | None -> Hashtbl.remove current id)
          !saved
      in
      walk fn.Ir.entry [];
      (* A second full substitution pass: uses in blocks visited before
         their defining loads (impossible under dominance, but phi argument
         rewriting above may have captured pre-substitution registers). *)
      Ir.apply_subst fn (fun r -> Hashtbl.find_opt subst r);
      fn.Ir.f_slots <-
        List.filter (fun (s : Ir.slot) -> not (is_promoted s.Ir.s_id)) fn.Ir.f_slots
    end
end
