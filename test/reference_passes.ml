(** Test-only reference implementations in their straightforward form.
    The inter-pass cleanup rebuilds the lists it filters on every call
    and recomputes predecessors before every use; SSA construction finds
    slots and phis through hash tables and list searches; CSE numbers
    values by printed keys held in an association list per dominator
    path; jump threading recomputes the dominator tree for every
    (block, predecessor) pair and rescans the function for every
    condition; tail merging runs a fixed eight rounds over printed
    instructions; the snapshot digest hashes printed text. The library
    versions must produce structurally equal results (equal digests
    exactly when these are equal); [test_reference.ml] checks that at
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

module Cse = struct
  (** Common-subexpression elimination with string value keys: the
      local scope is a hash table per block, the dominator scope an
      association list per dominator path, searched linearly. *)

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

  let addr_key (a : Ir.addr) =
    Printf.sprintf "%s[%s]" (Ir.base_to_string a.Ir.base)
      (Ir.operand_to_string a.Ir.index)

  let stored_bases (fn : Ir.fn) =
    let tbl = Hashtbl.create 16 in
    Ir.iter_instrs fn (fun _ i ->
        match i.Ir.ik with
        | Ir.Store (a, _) -> Hashtbl.replace tbl a.Ir.base ()
        | _ -> ());
    tbl

  let has_calls_or_io (fn : Ir.fn) =
    let found = ref false in
    Ir.iter_instrs fn (fun _ i ->
        match i.Ir.ik with
        | Ir.Call _ | Ir.Input _ | Ir.Output _ -> found := true
        | _ -> ());
    !found

  (** Local (per-block) CSE with redundant-load elimination. *)
  let run_local ?(pure_calls = fun _ -> false) (fn : Ir.fn) =
    let removed = ref 0 in
    Ir.iter_blocks fn (fun b ->
        let values = Hashtbl.create 32 in
        let loads = Hashtbl.create 16 in
        let subst = Hashtbl.create 8 in
        let resolve o =
          match o with
          | Ir.Reg r -> (
              match Hashtbl.find_opt subst r with Some o' -> o' | None -> o)
          | Ir.Imm _ -> o
        in
        b.Ir.instrs <-
          List.filter
            (fun (i : Ir.instr) ->
              i.Ir.ik <- Ir.subst_uses (fun r -> Hashtbl.find_opt subst r) i.Ir.ik;
              ignore resolve;
              match i.Ir.ik with
              | Ir.Store (a, _) ->
                  (* Conservative: any store invalidates remembered loads
                     from the same base; unknown index kills the base. *)
                  Hashtbl.iter
                    (fun k (base, _) ->
                      if base = a.Ir.base then Hashtbl.remove loads k)
                    (Hashtbl.copy loads);
                  true
              | Ir.Call (_, f, _) when not (pure_calls f) ->
                  Hashtbl.reset loads;
                  true
              | Ir.Load (d, a) -> (
                  let k = addr_key a in
                  match Hashtbl.find_opt loads k with
                  | Some (_, prev) ->
                      Hashtbl.replace subst d (Ir.Reg prev);
                      incr removed;
                      false
                  | None ->
                      Hashtbl.replace loads k (a.Ir.base, d);
                      true)
              | ik when Putil.pure_ikind ~pure_calls ik -> (
                  match (value_key ik, Ir.def_of_ikind ik) with
                  | Some key, [ d ] -> (
                      match Hashtbl.find_opt values key with
                      | Some prev ->
                          Hashtbl.replace subst d (Ir.Reg prev);
                          incr removed;
                          false
                      | None ->
                          Hashtbl.replace values key d;
                          true)
                  | _ -> true)
              | _ -> true)
            b.Ir.instrs;
        if Hashtbl.length subst > 0 then Putil.replace_uses fn subst);
    !removed

  (** Dominator-scoped value numbering. *)
  let run_global ?(pure_calls = fun _ -> false) (fn : Ir.fn) =
    Ir.prune_unreachable fn;
    let removed = ref 0 in
    let dom = Dom.compute fn in
    let stored = stored_bases fn in
    let impure_fn = has_calls_or_io fn in
    let subst = Hashtbl.create 16 in
    (* Scoped hash table: an association list stack per dominator path. *)
    let rec walk label (scope : (string * Ir.reg) list) =
      let b = Ir.block fn label in
      let scope = ref scope in
      b.Ir.instrs <-
        List.filter
          (fun (i : Ir.instr) ->
            i.Ir.ik <- Ir.subst_uses (fun r -> Hashtbl.find_opt subst r) i.Ir.ik;
            let numberable =
              match i.Ir.ik with
              | Ir.Load (_, a) ->
                  (* Loads participate only when nothing in the function can
                     change the loaded memory. *)
                  (not (Hashtbl.mem stored a.Ir.base)) && not impure_fn
              | Ir.Call (_, f, _) -> pure_calls f
              | ik -> Putil.pure_ikind ~pure_calls:(fun _ -> false) ik
            in
            if not numberable then true
            else
              let key =
                match i.Ir.ik with
                | Ir.Load (_, a) -> Some ("load:" ^ addr_key a)
                | Ir.Call (_, f, args) ->
                    Some
                      (Printf.sprintf "call:%s(%s)" f
                         (String.concat "," (List.map Ir.operand_to_string args)))
                | ik -> value_key ik
              in
              match (key, Ir.def_of_ikind i.Ir.ik) with
              | Some key, [ d ] -> (
                  match List.assoc_opt key !scope with
                  | Some prev ->
                      Hashtbl.replace subst d (Ir.Reg prev);
                      incr removed;
                      false
                  | None ->
                      scope := (key, d) :: !scope;
                      true)
              | _ -> true)
          b.Ir.instrs;
      b.Ir.term <- Ir.subst_term (fun r -> Hashtbl.find_opt subst r) b.Ir.term;
      List.iter (fun c -> walk c !scope) (Dom.children dom label)
    in
    walk fn.Ir.entry [];
    (* Phi arguments may still reference removed registers. *)
    Putil.replace_uses fn subst;
    !removed

  let run_local_program ?pure_calls (p : Ir.program) =
    Ir.iter_funcs (fun fn -> ignore (run_local ?pure_calls fn)) p

  let run_global_program ?pure_calls (p : Ir.program) =
    Ir.iter_funcs (fun fn -> ignore (run_global ?pure_calls fn)) p
end

module Jump_threading = struct
  (** Jump threading that recomputes the dominator tree for every
      (threadable block, predecessor) pair, scans the whole function for
      each branch condition's comparison, and recomputes predecessors
      before every dominating-fact query. *)

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
end

module Mach_passes = struct
  (** Tail merging that always runs eight rounds, re-filters and
      reverses both blocks' instructions for every pair, and compares
      instructions by their printed form. *)

  (* The printed instruction, with a vector op's lanes in full (the
     printer shows only the operator and the width). *)
  let tail_key (i : Mach.minstr) =
    match i.Mach.mk with
    | Mach.Mvec (op, lanes) ->
        Printf.sprintf "vec.%s {%s}" (Ir.binop_name op)
          (String.concat "; "
             (Array.to_list
                (Array.map
                   (fun (d, a, b) ->
                     Printf.sprintf "%s=%s,%s" (Mach.mloc_to_string d)
                       (Mach.mval_to_string a) (Mach.mval_to_string b))
                   lanes)))
    | mk -> Mach.mkind_to_string mk

  let tail_merge (m : Mach.mfn) =
    (* Pairs of blocks with the same terminator whose instruction suffixes
       coincide: move the common suffix into a fresh block both jump to.
       The fresh block takes the FIRST block's lines; the second copy's
       line entries are gone. *)
    let same_term a b =
      match (a, b) with
      | Mach.Mjmp x, Mach.Mjmp y -> x = y
      | Mach.Mret None, Mach.Mret None -> true
      | Mach.Mret (Some x), Mach.Mret (Some y) -> x = y
      | _ -> false
    in
    let labels = m.Mach.mf_layout in
    let merged = ref false in
    List.iteri
      (fun ai a_l ->
        List.iteri
          (fun bi b_l ->
            if (not !merged) && bi > ai then begin
              match (Ir.Label_store.find_opt m.Mach.mf_blocks a_l,
                     Ir.Label_store.find_opt m.Mach.mf_blocks b_l) with
              | Some a, Some b when same_term a.Mach.mterm b.Mach.mterm ->
                  let ra =
                    List.rev
                      (List.filter
                         (fun (i : Mach.minstr) ->
                           match i.Mach.mk with Mach.Mdbg _ -> false | _ -> true)
                         a.Mach.mins)
                  and rb =
                    List.rev
                      (List.filter
                         (fun (i : Mach.minstr) ->
                           match i.Mach.mk with Mach.Mdbg _ -> false | _ -> true)
                         b.Mach.mins)
                  in
                  let rec common acc (xs : Mach.minstr list) (ys : Mach.minstr list)
                      =
                    match (xs, ys) with
                    | x :: xs', y :: ys' when tail_key x = tail_key y ->
                        common (x :: acc) xs' ys'
                    | _ -> acc
                  in
                  let suffix = common [] ra rb in
                  let k = List.length suffix in
                  if k >= 2 then begin
                    merged := true;
                    (* New label reusing a fresh id. *)
                    let fresh =
                      1
                      + Ir.Label_store.fold
                          (fun l _ acc -> max l acc)
                          m.Mach.mf_blocks 0
                    in
                    let nb =
                      {
                        Mach.mb_label = fresh;
                        mins = suffix;
                        mterm = a.Mach.mterm;
                        mterm_line = a.Mach.mterm_line;
                        mb_prob = 1.0;
                        mb_freq = a.Mach.mb_freq +. b.Mach.mb_freq;
                      }
                    in
                    Ir.Label_store.replace m.Mach.mf_blocks fresh nb;
                    let chop (blk : Mach.mblock) =
                      (* Remove the last k real instructions (and any Mdbg
                         interleaved after the cut keeps its place). *)
                      let rec drop n acc = function
                        | [] -> List.rev acc
                        | (i : Mach.minstr) :: rest -> (
                            match i.Mach.mk with
                            | Mach.Mdbg _ when n > 0 -> drop n acc rest
                            | _ when n > 0 -> drop (n - 1) acc rest
                            | _ -> drop 0 (i :: acc) rest)
                      in
                      blk.Mach.mins <- List.rev (drop k [] (List.rev blk.Mach.mins));
                      blk.Mach.mterm <- Mach.Mjmp fresh
                    in
                    chop a;
                    chop b;
                    m.Mach.mf_layout <- m.Mach.mf_layout @ [ fresh ]
                  end
              | _ -> ()
            end)
          labels)
      labels

  let tail_merge_all (m : Mach.mfn) =
    (* Iterate a few times; each call merges at most one pair. *)
    for _ = 1 to 8 do
      tail_merge m
    done
end

module Snapshot = struct
  (** The program digest over printed text: every function printed with
      {!Ir.fn_to_string} plus the fields that printer omits, in name order,
      then the globals. *)

  let digest_program (p : Ir.program) : string =
    let buf = Buffer.create 4096 in
    List.iter
      (fun n ->
        let fn = Hashtbl.find p.Ir.funcs n in
        Buffer.add_string buf
          (Printf.sprintf "fn %s line=%d entry=L%d next=%d,%d,%d pure=%b ai=%b\n"
             fn.Ir.f_name fn.Ir.f_line fn.Ir.entry fn.Ir.next_reg fn.Ir.next_label
             fn.Ir.next_slot fn.Ir.is_pure fn.Ir.always_inline);
        List.iter
          (fun (s : Ir.slot) ->
            Buffer.add_string buf
              (Printf.sprintf "slot%d array=%b\n" s.Ir.s_id s.Ir.s_array))
          fn.Ir.f_slots;
        Buffer.add_string buf (Ir.fn_to_string fn);
        List.iter
          (fun l ->
            let b = Ir.block fn l in
            Buffer.add_string buf
              (Printf.sprintf "L%d freq=%h prob=%h preds=%s\n" l b.Ir.freq b.Ir.prob
                 (String.concat "," (List.map string_of_int b.Ir.preds))))
          fn.Ir.layout)
      (Ir.Snapshot.sorted_names p);
    List.iter
      (fun (g : Ir.global_def) ->
        Buffer.add_string buf
          (Printf.sprintf "global %s size=%d init=%d\n" g.Ir.g_name g.Ir.g_size
             g.Ir.g_init))
      p.Ir.prog_globals;
    Digest.to_hex (Digest.string (Buffer.contents buf))
end
