(** Coverage-preserving corpus minimization — the [afl-cmin] analog.

    Greedy set cover over edge coverage: process inputs by decreasing
    coverage, keep an input only if it contributes an edge not yet
    covered by the kept set. The kept subset covers exactly the same
    edges as the full corpus. Edges are the VM's edge ids, so the
    covered set is a flag per id. *)

(* ------------------------------------------------------------------ *)
(* Generic delta-debugging list reduction                              *)

(** [shrink_list ~still_interesting items] greedily reduces [items] to a
    smaller list for which [still_interesting] holds — classic
    ddmin-style chunk removal with halving granularity, used by the
    differential oracle to shrink a failing synthetic program to a
    reportable reproducer. [still_interesting items] must be true on
    entry; the result also satisfies it. Deterministic: no randomness,
    chunks are tried front to back. *)
let shrink_list ~(still_interesting : 'a list -> bool) (items : 'a list) :
    'a list =
  let remove_chunk l ~start ~len =
    List.filteri (fun i _ -> i < start || i >= start + len) l
  in
  let rec at_granularity cur chunk =
    if chunk < 1 then cur
    else begin
      let n = List.length cur in
      let rec sweep cur start shrunk =
        if start >= List.length cur then (cur, shrunk)
        else
          let cand = remove_chunk cur ~start ~len:chunk in
          if List.length cand < List.length cur && still_interesting cand then
            sweep cand start true
          else sweep cur (start + chunk) shrunk
      in
      let cur, shrunk = sweep cur 0 false in
      if shrunk && chunk <= n then at_granularity cur chunk
      else at_granularity cur (chunk / 2)
    end
  in
  let n = List.length items in
  if n = 0 then items else at_granularity items (max 1 (n / 2))

(* ------------------------------------------------------------------ *)
(* Coverage-preserving corpus minimization                             *)

type stats = { kept : int list list; original : int; reduction_pct : float }

let minimize (prog : Vm.loaded) ~entry (corpus : int list list) : stats =
  let with_cov =
    List.map
      (fun input ->
        let res = Fuzzer.run_input prog ~entry input in
        (input, Fuzzer.edges_of res))
      corpus
  in
  let sorted =
    List.sort
      (fun (_, a) (_, b) -> compare (List.length b) (List.length a))
      with_cov
  in
  let covered = Array.make (Array.length (Vm.edge_table prog.Vm.binary)) false in
  let kept =
    List.filter_map
      (fun (input, edges) ->
        let adds = List.exists (fun e -> not covered.(e)) edges in
        if adds then begin
          List.iter (fun e -> covered.(e) <- true) edges;
          Some input
        end
        else None)
      sorted
  in
  let original = List.length corpus in
  let reduction =
    if original = 0 then 0.0
    else
      float_of_int (original - List.length kept)
      /. float_of_int original *. 100.0
  in
  { kept; original; reduction_pct = reduction }
