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
    slots read as 0, matching the VM's zeroed frames.

    The walk visits every instruction of every block, so its tables are
    direct-indexed: per-slot arrays (promoted?, variable, current value)
    sized by [fn.next_slot], and per label the phis placed there as
    (slot, phi, variable) in the order of the promoted slots — the order
    the phis sit in the block and receive their edge arguments. *)

module Label_set = Set.Make (Int)

let promotable (s : Ir.slot) ~only =
  (not s.Ir.s_array) && s.Ir.s_size = 1
  && match only with None -> true | Some ids -> List.mem s.Ir.s_id ids

(** [run ?only fn] promotes the scalar slots of [fn] (all of them by
    default, or just those whose ids appear in [only] — used by SROA to
    promote the slots it scalarized). *)
let run ?only (fn : Ir.fn) =
  Ir.prune_unreachable fn;
  let slots = List.filter (fun s -> promotable s ~only) fn.Ir.f_slots in
  if slots <> [] then begin
    let promoted = Ir.Dense_set.create fn.Ir.next_slot in
    let var_of = Array.make fn.Ir.next_slot None in
    List.iter
      (fun (s : Ir.slot) ->
        Ir.Dense_set.add promoted s.Ir.s_id;
        var_of.(s.Ir.s_id) <- s.Ir.s_var)
      slots;
    let is_promoted = Ir.Dense_set.mem promoted in
    let dom = Dom.compute fn in
    let df = Dom.frontiers fn dom in
    (* Blocks storing to each slot. *)
    let def_blocks = Array.make fn.Ir.next_slot [] in
    Ir.iter_instrs fn (fun b i ->
        match i.Ir.ik with
        | Ir.Store ({ base = Ir.Slot id; _ }, _) when is_promoted id ->
            let cur = def_blocks.(id) in
            if not (List.mem b.Ir.b_label cur) then
              def_blocks.(id) <- b.Ir.b_label :: cur
        | _ -> ());
    (* Iterated dominance frontier phi insertion; remember which slot a
       phi stands for so renaming can treat it as a definition. Each
       label's list is built newest first, then put in slot order. *)
    let phis_at = Array.make fn.Ir.next_label [] in
    List.iter
      (fun (s : Ir.slot) ->
        let id = s.Ir.s_id in
        let work = ref def_blocks.(id) in
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
                    phis_at.(d) <- (id, phi, s.Ir.s_var) :: phis_at.(d);
                    work := d :: !work
                  end)
                (Option.value ~default:[] (Hashtbl.find_opt df b))
        done)
      slots;
    Array.iteri (fun l placed -> phis_at.(l) <- List.rev placed) phis_at;
    (* Renaming walk over the dominator tree. *)
    let current = Array.make fn.Ir.next_slot None in
    let subst : (Ir.reg, Ir.operand) Hashtbl.t = Hashtbl.create 64 in
    let substituted r = Hashtbl.find_opt subst r in
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
        saved := (id, current.(id)) :: !saved;
        current.(id) <- Some v
      in
      (* Phis inserted for slots define their slot; announce the binding
         for the debugger. *)
      let dbg_for_phis =
        List.filter_map
          (fun (id, (phi : Ir.phi), var) ->
            set_current id (Ir.Reg phi.Ir.p_dst);
            Option.map
              (fun v ->
                { Ir.ik = Ir.Dbg (v, Some (Ir.Reg phi.Ir.p_dst)); line = None })
              var)
          phis_at.(label)
      in
      let new_instrs =
        List.filter_map
          (fun (i : Ir.instr) ->
            let ik = Ir.subst_uses substituted i.Ir.ik in
            i.Ir.ik <- ik;
            match ik with
            | Ir.Store ({ base = Ir.Slot id; _ }, v) when is_promoted id -> (
                let v = resolve v in
                set_current id v;
                match var_of.(id) with
                | Some vid ->
                    (* The store becomes a debug binding on the same line. *)
                    i.Ir.ik <- Ir.Dbg (vid, Some v);
                    Some i
                | None -> None)
            | Ir.Load (r, { base = Ir.Slot id; _ }) when is_promoted id ->
                let v =
                  match current.(id) with Some v -> v | None -> Ir.Imm 0
                in
                Hashtbl.replace subst r v;
                None
            | _ -> Some i)
          b.Ir.instrs
      in
      b.Ir.instrs <- dbg_for_phis @ new_instrs;
      b.Ir.term <- Ir.subst_term substituted b.Ir.term;
      (* Feed successor phis along each edge. *)
      Ir.iter_succs
        (fun succ ->
          List.iter
            (fun (id, (phi : Ir.phi), _) ->
              let v = match current.(id) with Some v -> v | None -> Ir.Imm 0 in
              phi.Ir.p_args <- phi.Ir.p_args @ [ (label, v) ])
            phis_at.(succ))
        b.Ir.term;
      List.iter (fun c -> walk c []) (Dom.children dom label);
      (* Restore the slot environment on the way out. *)
      List.iter (fun (id, old) -> current.(id) <- old) !saved
    in
    walk fn.Ir.entry [];
    (* A second full substitution pass: uses in blocks visited before
       their defining loads (impossible under dominance, but phi argument
       rewriting above may have captured pre-substitution registers). *)
    Ir.apply_subst fn substituted;
    fn.Ir.f_slots <-
      List.filter (fun (s : Ir.slot) -> not (is_promoted s.Ir.s_id)) fn.Ir.f_slots
  end
