(** If-conversion (gcc [if-conversion]): small pure diamonds and triangles
    become straight-line code with [Select]s.

    The branch disappears (good when it is poorly predicted — the cost
    model charges taken branches), and the then/else statements are
    hoisted into the head block. Hoisted instructions drop their lines and
    the conditional debug bindings inside the branches cannot be kept
    (they would assert the wrong value on the other path); when both arms
    bound the same variable to the two select inputs, the variable is
    re-bound to the select result. *)

let default_max_arm_instrs = 3

let arm_convertible ~max_arm (b : Ir.block) =
  b.Ir.phis = []
  && List.length
       (List.filter
          (fun (i : Ir.instr) ->
            match i.Ir.ik with Ir.Dbg _ -> false | _ -> true)
          b.Ir.instrs)
     <= max_arm
  && List.for_all
       (fun (i : Ir.instr) ->
         match i.Ir.ik with
         | Ir.Dbg _ -> true
         | Ir.Load _ -> false (* do not widen memory traffic *)
         | ik -> Putil.pure_ikind ik)
       b.Ir.instrs

(* Debug bindings of an arm, keyed by variable. *)
let arm_bindings (b : Ir.block) =
  List.filter_map
    (fun (i : Ir.instr) ->
      match i.Ir.ik with Ir.Dbg (v, Some o) -> Some (v, o) | _ -> None)
    b.Ir.instrs

let real_instrs (b : Ir.block) =
  List.filter
    (fun (i : Ir.instr) ->
      match i.Ir.ik with Ir.Dbg _ -> false | _ -> true)
    b.Ir.instrs

let run ?(max_arm = default_max_arm_instrs) (fn : Ir.fn) =
  Ir.prune_unreachable fn;
  Ir.recompute_preds fn;
  let converted = ref 0 in
  List.iter
    (fun head_l ->
      match Ir.find_block fn head_l with
      | None -> ()
      | Some head -> (
          match head.Ir.term with
          | Ir.Cbr (cond, t_l, f_l) when t_l <> f_l -> (
              let t = Ir.block fn t_l and f = Ir.block fn f_l in
              let diamond =
                t.Ir.preds = [ head_l ] && f.Ir.preds = [ head_l ]
                && t.Ir.term = Ir.Br (match f.Ir.term with Ir.Br j -> j | _ -> -1)
                && arm_convertible ~max_arm t && arm_convertible ~max_arm f
              in
              let triangle_then =
                t.Ir.preds = [ head_l ]
                && t.Ir.term = Ir.Br f_l
                && arm_convertible ~max_arm t
              in
              match
                (if diamond then `Diamond
                 else if triangle_then then `Triangle
                 else `No)
              with
              | `Diamond ->
                  let join_l = match t.Ir.term with Ir.Br j -> j | _ -> assert false in
                  let join = Ir.block fn join_l in
                  if List.sort compare join.Ir.preds = List.sort compare [ t_l; f_l ]
                  then begin
                    (* Hoist both arms (lines dropped), then turn each
                       join phi into a select. *)
                    let hoist (arm : Ir.block) =
                      List.iter (fun (i : Ir.instr) -> i.Ir.line <- None)
                        (real_instrs arm);
                      head.Ir.instrs <- head.Ir.instrs @ real_instrs arm
                    in
                    hoist t;
                    hoist f;
                    let tb = arm_bindings t and fb = arm_bindings f in
                    let selects = ref [] in
                    List.iter
                      (fun (p : Ir.phi) ->
                        let vt =
                          Option.value ~default:(Ir.Imm 0)
                            (List.assoc_opt t_l p.Ir.p_args)
                        in
                        let vf =
                          Option.value ~default:(Ir.Imm 0)
                            (List.assoc_opt f_l p.Ir.p_args)
                        in
                        head.Ir.instrs <-
                          head.Ir.instrs
                          @ [
                              {
                                Ir.ik = Ir.Select (p.Ir.p_dst, cond, vt, vf);
                                line = None;
                              };
                            ];
                        (* Re-bind variables that both arms bound to the
                           select inputs. *)
                        List.iter
                          (fun (v, o) ->
                            if o = vt && List.assoc_opt v fb = Some vf then
                              selects :=
                                {
                                  Ir.ik = Ir.Dbg (v, Some (Ir.Reg p.Ir.p_dst));
                                  line = None;
                                }
                                :: !selects)
                          tb)
                      join.Ir.phis;
                    head.Ir.instrs <- head.Ir.instrs @ List.rev !selects;
                    join.Ir.phis <- [];
                    head.Ir.term <- Ir.Br join_l;
                    Ir.remove_block fn t_l;
                    Ir.remove_block fn f_l;
                    fn.Ir.layout <-
                      List.filter (fun x -> x <> t_l && x <> f_l) fn.Ir.layout;
                    Ir.recompute_preds fn;
                    incr converted
                  end
              | `Triangle ->
                  (* head -> t -> f and head -> f. *)
                  let join = f in
                  if
                    List.sort compare join.Ir.preds
                    = List.sort compare [ head_l; t_l ]
                  then begin
                    List.iter (fun (i : Ir.instr) -> i.Ir.line <- None)
                      (real_instrs t);
                    head.Ir.instrs <- head.Ir.instrs @ real_instrs t;
                    List.iter
                      (fun (p : Ir.phi) ->
                        let vt =
                          Option.value ~default:(Ir.Imm 0)
                            (List.assoc_opt t_l p.Ir.p_args)
                        in
                        let vh =
                          Option.value ~default:(Ir.Imm 0)
                            (List.assoc_opt head_l p.Ir.p_args)
                        in
                        head.Ir.instrs <-
                          head.Ir.instrs
                          @ [
                              {
                                Ir.ik = Ir.Select (p.Ir.p_dst, cond, vt, vh);
                                line = None;
                              };
                            ])
                      join.Ir.phis;
                    join.Ir.phis <- [];
                    head.Ir.term <- Ir.Br f_l;
                    Ir.remove_block fn t_l;
                    fn.Ir.layout <- List.filter (fun x -> x <> t_l) fn.Ir.layout;
                    Ir.recompute_preds fn;
                    incr converted
                  end
              | `No -> ())
          | _ -> ()))
    fn.Ir.layout;
  if !converted > 0 then Cleanup.run fn;
  !converted

let run_program ?max_arm (p : Ir.program) =
  Ir.iter_funcs (fun fn -> ignore (run ?max_arm fn)) p
