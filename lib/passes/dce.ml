(** Dead code elimination.

    Deletes pure instructions (and phis) whose results are never used by
    real code. A debug binding does not keep a value alive — this is the
    canonical way compilers lose variables, and the reason gcc's -Og
    carves exceptions into its DCE (see the paper's refs [12], [13]).
    Bindings to deleted values are marked optimized-out. *)

let run ?(pure_calls = fun _ -> false) (fn : Ir.fn) =
  let changed = ref true in
  let dead_total = Hashtbl.create 16 in
  while !changed do
    changed := false;
    let counts = Putil.use_counts fn in
    let used r = Putil.use_count counts r > 0 in
    Ir.iter_blocks fn (fun b ->
        b.Ir.phis <-
          List.filter
            (fun (p : Ir.phi) ->
              if used p.Ir.p_dst then true
              else begin
                Hashtbl.replace dead_total p.Ir.p_dst ();
                changed := true;
                false
              end)
            b.Ir.phis;
        b.Ir.instrs <-
          List.filter
            (fun (i : Ir.instr) ->
              let defs = Ir.def_of_ikind i.Ir.ik in
              if
                Putil.pure_ikind ~pure_calls i.Ir.ik
                && not (List.exists used defs)
              then begin
                List.iter (fun d -> Hashtbl.replace dead_total d ()) defs;
                changed := true;
                false
              end
              else true)
            b.Ir.instrs)
  done;
  Putil.kill_bindings fn (Hashtbl.mem dead_total);
  Hashtbl.length dead_total

let run_program ?pure_calls (p : Ir.program) =
  Ir.iter_funcs (fun fn -> ignore (run ?pure_calls fn)) p
