(** Branch probability and block frequency estimation
    (gcc [guess-branch-probability]).

    Purely analytical — it changes no code — but several consumers read
    its outputs: block placement chains by edge probability, the inliner
    weighs callsite hotness, and if-conversion avoids heavily-biased
    diamonds. Disabling it resets every probability to 0.5 and every
    frequency to 1, degrading all of those decisions; the debug effect
    measured for this pass in the paper is exactly this kind of indirect
    consequence.

    Heuristics (in gcc's spirit): back edges are taken with probability
    0.9; edges to return-only blocks are cold; equality comparisons are
    unlikely true; everything else is 0.5. Frequencies multiply 8x per
    loop-nest level. *)

let run (fn : Ir.fn) =
  Ir.prune_unreachable fn;
  let dom = Dom.compute fn in
  let loops = Loops.find fn dom in
  Ir.iter_blocks fn (fun b ->
      (match b.Ir.term with
      | Ir.Cbr (cond, l1, l2) ->
          let back l = Dom.dominates dom l b.Ir.b_label in
          let returns l =
            match (Ir.block fn l).Ir.term with Ir.Ret _ -> true | _ -> false
          in
          let p =
            if back l1 && not (back l2) then 0.9
            else if back l2 && not (back l1) then 0.1
            else if returns l1 && not (returns l2) then 0.25
            else if returns l2 && not (returns l1) then 0.75
            else
              (* Equality tests are usually false (gcc's opcode
                 heuristic). *)
              match cond with
              | Ir.Reg r ->
                  let defined_as_eq =
                    let found = ref false in
                    Ir.iter_instrs fn (fun _ i ->
                        match i.Ir.ik with
                        | Ir.Bin (Ir.Ceq, d, _, _) when d = r -> found := true
                        | _ -> ());
                    !found
                  in
                  if defined_as_eq then 0.3 else 0.5
              | Ir.Imm c -> if c <> 0 then 1.0 else 0.0
          in
          b.Ir.prob <- p
      | Ir.Br _ | Ir.Ret _ -> b.Ir.prob <- 1.0);
      b.Ir.freq <- 8.0 ** float_of_int (Loops.depth loops b.Ir.b_label))

let run_program (p : Ir.program) = Ir.iter_funcs run p
