(** Debug-trace pruning (Section IV): after [afl-cmin]-style
    minimization, drop inputs that step no source line not already
    stepped by inputs processed before them. Inputs with the most unique
    stepped lines go first — the paper's fast set-cover approximation.
    Each input runs in a session of its own, all on the one load. *)

let prune (prog : Vm.loaded) ~entry (corpus : int list list) =
  let with_lines =
    List.map
      (fun input ->
        let t = Debugger.trace prog ~entry ~inputs:[ input ] in
        (input, Debugger.stepped_lines t))
      corpus
  in
  let sorted =
    List.sort
      (fun (_, a) (_, b) -> compare (List.length b) (List.length a))
      with_lines
  in
  let covered = Hashtbl.create 256 in
  List.filter_map
    (fun (input, lines) ->
      let adds = List.exists (fun l -> not (Hashtbl.mem covered l)) lines in
      if adds then begin
        List.iter (fun l -> Hashtbl.replace covered l ()) lines;
        Some input
      end
      else None)
    sorted
