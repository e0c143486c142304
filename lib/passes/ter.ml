(** Temporary expression replacement (gcc [tree-ter]).

    gcc's TER forwards single-use SSA temporaries into their consumer when
    both sit in the same block with nothing in between that could change
    the result, rebuilding expression trees before RTL expansion. The
    effect we reproduce mechanically: the forwarded temporary stops being
    a separately steppable statement (its line entry disappears — it is
    now part of the consumer's expression) and its live range collapses
    to a point (less register pressure, the performance win). We realize
    it by moving each such definition directly in front of its single
    consumer and stripping its line. *)

let run (fn : Ir.fn) =
  let moved = ref 0 in
  let counts = Putil.use_counts fn in
  Ir.iter_blocks fn (fun b ->
      (* Position of each instruction and the single intra-block use of
         each single-use def. *)
      let arr = Array.of_list b.Ir.instrs in
      let n = Array.length arr in
      let pos_of_use : (Ir.reg, int) Hashtbl.t = Hashtbl.create 16 in
      for k = 0 to n - 1 do
        List.iter
          (fun r ->
            (* Only the first (and for single-use defs, only) use
               matters. *)
            if not (Hashtbl.mem pos_of_use r) then Hashtbl.replace pos_of_use r k)
          (Ir.real_uses_of_ikind arr.(k).Ir.ik)
      done;
      (* Decide, for each pure single-use def, whether its consumer is
         later in this block with no side-effecting instruction in
         between (loads must additionally not cross stores or calls). *)
      let target = Array.make n (-1) in
      for k = 0 to n - 1 do
        match (Ir.def_of_ikind arr.(k).Ir.ik, arr.(k).Ir.ik) with
        | [ d ], ik when Putil.pure_ikind ik -> (
            match Hashtbl.find_opt pos_of_use d with
            | Some u
              when u > k && Putil.use_count counts d = 1 ->
                let safe = ref true in
                (match ik with
                | Ir.Load _ ->
                    for j = k + 1 to u - 1 do
                      match arr.(j).Ir.ik with
                      | Ir.Store _ | Ir.Call _ | Ir.Input _ | Ir.Output _ ->
                          safe := false
                      | _ -> ()
                    done
                | _ -> ());
                if !safe then target.(k) <- u
            | _ -> ())
        | _ -> ()
      done;
      if Array.exists (fun t -> t >= 0) target then begin
        incr moved;
        (* Rebuild the block with forwarded defs placed right before
           their consumer. *)
        let buckets = Hashtbl.create 8 in
        for k = 0 to n - 1 do
          if target.(k) >= 0 then begin
            let cur =
              Option.value ~default:[] (Hashtbl.find_opt buckets target.(k))
            in
            Hashtbl.replace buckets target.(k) (cur @ [ arr.(k) ]);
            arr.(k).Ir.line <- None
          end
        done;
        let out = ref [] in
        for k = 0 to n - 1 do
          (match Hashtbl.find_opt buckets k with
          | Some fwd -> out := List.rev_append fwd !out
          | None -> ());
          if target.(k) < 0 then out := arr.(k) :: !out
        done;
        b.Ir.instrs <- List.rev !out
      end);
  !moved

let run_program (p : Ir.program) = Ir.iter_funcs (fun fn -> ignore (run fn)) p
