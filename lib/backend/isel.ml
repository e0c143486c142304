(** Instruction selection: out-of-SSA conversion, register allocation and
    one-to-one translation of IR instructions into machine instructions.

    Out-of-SSA first splits critical edges (avoiding the lost-copy
    problem), then lowers each phi into copies at the end of its
    predecessors; parallel copies that read their own destinations are
    sequentialized through fresh temporaries (the swap problem). Copies
    whose source and destination were coalesced to the same location are
    deleted during translation. *)

(* ------------------------------------------------------------------ *)
(* Out-of-SSA                                                          *)

let split_critical_edges (fn : Ir.fn) =
  Ir.recompute_preds fn;
  let edges = ref [] in
  Ir.iter_blocks fn (fun b ->
      let ss = Ir.succs b.Ir.term in
      if List.length ss > 1 then
        List.iter
          (fun s ->
            let sb = Ir.block fn s in
            if List.length sb.Ir.preds > 1 && sb.Ir.phis <> [] then
              edges := (b.Ir.b_label, s) :: !edges)
          ss);
  List.iter
    (fun (p, s) ->
      let mid = Ir.new_block fn in
      mid.Ir.term <- Ir.Br s;
      let pb = Ir.block fn p in
      (* Redirect only the (p, s) edge. *)
      (pb.Ir.term <-
         (match pb.Ir.term with
         | Ir.Cbr (c, l1, l2) ->
             let l1 = if l1 = s then mid.Ir.b_label else l1 in
             let l2 = if l2 = s then mid.Ir.b_label else l2 in
             Ir.Cbr (c, l1, l2)
         | t -> t));
      (* Retarget the phi arguments of s coming from p. *)
      List.iter
        (fun (phi : Ir.phi) ->
          phi.Ir.p_args <-
            List.map
              (fun (l, o) -> if l = p then (mid.Ir.b_label, o) else (l, o))
              phi.Ir.p_args)
        (Ir.block fn s).Ir.phis)
    !edges;
  Ir.recompute_preds fn

(** Lower phis to copies in predecessors. After this no block has phis
    and registers may be defined more than once. *)
let out_of_ssa (fn : Ir.fn) =
  split_critical_edges fn;
  Ir.iter_blocks fn (fun b ->
      if b.Ir.phis <> [] then begin
        let dsts = List.map (fun (p : Ir.phi) -> p.Ir.p_dst) b.Ir.phis in
        List.iter
          (fun pred ->
            let moves =
              List.filter_map
                (fun (p : Ir.phi) ->
                  match List.assoc_opt pred p.Ir.p_args with
                  | Some o -> Some (p.Ir.p_dst, o)
                  | None -> None)
                b.Ir.phis
            in
            (* A copy is "hazardous" when some source is also one of the
               destinations being written on this edge. *)
            let hazardous =
              List.exists
                (fun (_, o) ->
                  match o with Ir.Reg r -> List.mem r dsts | Ir.Imm _ -> false)
                moves
            in
            let copy_instrs =
              if hazardous then
                let temped =
                  List.map (fun (d, o) -> (d, o, Ir.fresh_reg fn)) moves
                in
                List.map
                  (fun (_, o, t) -> { Ir.ik = Ir.Mov (t, o); line = None })
                  temped
                @ List.map
                    (fun (d, _, t) ->
                      { Ir.ik = Ir.Mov (d, Ir.Reg t); line = None })
                    temped
              else
                List.filter_map
                  (fun (d, o) ->
                    if o = Ir.Reg d then None
                    else Some { Ir.ik = Ir.Mov (d, o); line = None })
                  moves
            in
            let pb = Ir.block fn pred in
            pb.Ir.instrs <- pb.Ir.instrs @ copy_instrs)
          b.Ir.preds;
        b.Ir.phis <- []
      end)

(* ------------------------------------------------------------------ *)
(* Translation                                                         *)

let translate_fn (fn : Ir.fn) (opts : Mach.opts) : Mach.mfn =
  Ir.prune_unreachable fn;
  out_of_ssa fn;
  let alloc =
    Regalloc.allocate fn ~coalesce:opts.Mach.coalesce
      ~share_spill_slots:opts.Mach.share_spill_slots
  in
  let loc r =
    match Hashtbl.find_opt alloc.Regalloc.loc_of r with
    | Some l -> l
    | None ->
        (* A register that never appears in allocatable code (e.g. only
           referenced from a debug binding whose definition was removed):
           the scratch register, which the allocator never hands out. *)
        Mach.Preg Mach.num_regs
  in
  let mval = function Ir.Reg r -> Mach.Loc (loc r) | Ir.Imm n -> Mach.Cst n in
  let maddr (a : Ir.addr) : Mach.maddr =
    let mbase =
      match a.Ir.base with
      | Ir.Slot s -> Mach.Mframe s
      | Ir.Global g -> Mach.Mglobal g
    in
    { Mach.mbase; mindex = mval a.Ir.index }
  in
  let mkind (ik : Ir.ikind) : Mach.mkind option =
    match ik with
    | Ir.Bin (op, d, a, b) -> Some (Mach.Mbin (op, loc d, mval a, mval b))
    | Ir.Un (op, d, a) -> Some (Mach.Mun (op, loc d, mval a))
    | Ir.Mov (d, o) ->
        let v = mval o in
        if v = Mach.Loc (loc d) then None (* coalesced copy *)
        else Some (Mach.Mmov (loc d, v))
    | Ir.Load (d, a) -> Some (Mach.Mload (loc d, maddr a))
    | Ir.Store (a, v) -> Some (Mach.Mstore (maddr a, mval v))
    | Ir.Call (d, f, args) ->
        Some (Mach.Mcall (Option.map loc d, f, List.map mval args))
    | Ir.Input d -> Some (Mach.Minput (loc d))
    | Ir.Eof d -> Some (Mach.Meof (loc d))
    | Ir.Output v -> Some (Mach.Moutput (mval v))
    | Ir.Select (d, c, a, b) ->
        Some (Mach.Mselect (loc d, mval c, mval a, mval b))
    | Ir.Vec (op, lanes) ->
        Some
          (Mach.Mvec
             (op, Array.map (fun (d, a, b) -> (loc d, mval a, mval b)) lanes))
    | Ir.Dbg (v, Some (Ir.Reg r)) -> Some (Mach.Mdbg (v, Some (Mach.Dloc (loc r))))
    | Ir.Dbg (v, Some (Ir.Imm n)) -> Some (Mach.Mdbg (v, Some (Mach.Dconst n)))
    | Ir.Dbg (v, None) -> Some (Mach.Mdbg (v, None))
  in
  let mterm = function
    | Ir.Ret o -> Mach.Mret (Option.map mval o)
    | Ir.Br l -> Mach.Mjmp l
    | Ir.Cbr (c, l1, l2) -> Mach.Mcbr (mval c, l1, l2)
  in
  let blocks = Ir.Label_store.create fn.Ir.next_label in
  Ir.iter_blocks fn (fun b ->
      let mins =
        List.filter_map
          (fun (i : Ir.instr) ->
            Option.map
              (fun mk -> { Mach.mk; mline = i.Ir.line })
              (mkind i.Ir.ik))
          b.Ir.instrs
      in
      Ir.Label_store.replace blocks b.Ir.b_label
        {
          Mach.mb_label = b.Ir.b_label;
          mins;
          mterm = mterm b.Ir.term;
          mterm_line = b.Ir.term_line;
          mb_prob = b.Ir.prob;
          mb_freq = b.Ir.freq;
        });
  {
    Mach.mf_name = fn.Ir.f_name;
    mf_line = fn.Ir.f_line;
    mf_blocks = blocks;
    mf_entry = fn.Ir.entry;
    mf_layout = fn.Ir.layout;
    mf_param_locs = List.map (fun (r, _) -> loc r) fn.Ir.f_params;
    mf_frame =
      List.map
        (fun (s : Ir.slot) ->
          {
            Mach.fs_id = s.Ir.s_id;
            fs_size = s.Ir.s_size;
            fs_var = s.Ir.s_var;
            fs_array = s.Ir.s_array;
          })
        fn.Ir.f_slots;
    mf_spill_words = alloc.Regalloc.spill_words;
    mf_shrink_wrapped = false;
  }
