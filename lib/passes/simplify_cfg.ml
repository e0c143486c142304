(** clang's [SimplifyCFG]: the cleanup canonicalizations plus the two
    transformations responsible for its debug cost in the paper —
    common-instruction hoisting from the two targets of a conditional
    branch (the second copy's line entries vanish) and single-instruction
    speculation that turns tiny diamonds into selects (branch lines
    vanish). *)

(* Hoist identical leading instructions of both branch targets into the
   predecessor. The copies compute the same value, so the second
   target's register is substituted by the first's; the hoisted
   instruction keeps the first copy's line, the other line is lost. *)
let hoist_common (fn : Ir.fn) =
  Ir.recompute_preds fn;
  let hoisted = ref 0 in
  Ir.iter_blocks fn (fun head ->
      match head.Ir.term with
      | Ir.Cbr (_, t_l, f_l) when t_l <> f_l -> (
          match (Ir.find_block fn t_l, Ir.find_block fn f_l) with
          | Some t, Some f
            when t.Ir.preds = [ head.Ir.b_label ]
                 && f.Ir.preds = [ head.Ir.b_label ]
                 && t.Ir.phis = [] && f.Ir.phis = [] ->
              let progress = ref true in
              while !progress do
                progress := false;
                let first_real (b : Ir.block) =
                  List.find_opt
                    (fun (i : Ir.instr) ->
                      match i.Ir.ik with Ir.Dbg _ -> false | _ -> true)
                    b.Ir.instrs
                in
                match (first_real t, first_real f) with
                | Some it, Some jf -> (
                    match
                      ( Putil.value_key it.Ir.ik,
                        Putil.value_key jf.Ir.ik,
                        Ir.def_of_ikind it.Ir.ik,
                        Ir.def_of_ikind jf.Ir.ik )
                    with
                    | Some ka, Some kb, [ da ], [ db ]
                      when ka = kb && Putil.pure_ikind it.Ir.ik ->
                        (* Move the first copy up; alias the second. *)
                        t.Ir.instrs <-
                          List.filter (fun i -> i != it) t.Ir.instrs;
                        f.Ir.instrs <-
                          List.filter (fun i -> i != jf) f.Ir.instrs;
                        head.Ir.instrs <- head.Ir.instrs @ [ it ];
                        let subst = Hashtbl.create 1 in
                        Hashtbl.replace subst db (Ir.Reg da);
                        Putil.replace_uses fn subst;
                        incr hoisted;
                        progress := true
                    | _ -> ())
                | _ -> ()
              done
          | _ -> ())
      | _ -> ());
  !hoisted

(** [run fn] — cleanup + hoisting + single-instruction speculation. *)
let run (fn : Ir.fn) =
  Cleanup.run fn;
  let h = hoist_common fn in
  let s = If_conversion.run ~max_arm:1 fn in
  Cleanup.run fn;
  h + s

let run_program (p : Ir.program) =
  Ir.iter_funcs (fun fn -> ignore (run fn)) p
