(** Test-only reference copies of the fuzz loop and of [Cmin.minimize]
    as they were before coverage moved onto edge ids: a run's hit counts
    are a (src, dst) -> count hash table, novelty is checked against a
    table of seen edges and a table of seen (src, dst, bucket) triples,
    and cmin sorts each input's (src, dst) pairs. A run's id-indexed
    counts are read back as (src, dst) keys through [Vm.edge_table], so
    only the bookkeeping differs from the library. The library versions
    must give the same corpora, edge counts and kept lists;
    [test_fuzz.ml] checks that. Nothing outside the test suite uses this
    module. *)

(* AFL-style logarithmic hit-count buckets. *)
let bucket n =
  if n <= 3 then n
  else if n <= 7 then 4
  else if n <= 15 then 8
  else if n <= 31 then 16
  else if n <= 127 then 32
  else 128

(* One coverage run's hit counts, keyed by (src, dst). *)
let edge_counts table prog ~entry input =
  let res = Fuzzer.run_input prog ~entry input in
  let edges = Hashtbl.create 256 in
  Array.iteri
    (fun id n -> if n > 0 then Hashtbl.replace edges table.(id) n)
    res.Vm.edges;
  edges

let fuzz (prog : Vm.loaded) ~entry ~(seeds : int list list) ~budget ~seed :
    Fuzzer.result =
  let table = Vm.edge_table prog.Vm.binary in
  let rng = Util.Rng.create seed in
  let global_edges : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let global_buckets : (int * int * int, unit) Hashtbl.t = Hashtbl.create 2048 in
  let corpus = ref [] in
  let execs = ref 0 in
  let try_input data =
    incr execs;
    let edges = edge_counts table prog ~entry data in
    let novel = ref false in
    Hashtbl.iter
      (fun ((src, dst) as e) count ->
        if not (Hashtbl.mem global_edges e) then begin
          Hashtbl.replace global_edges e ();
          novel := true
        end;
        let bk = (src, dst, bucket count) in
        if not (Hashtbl.mem global_buckets bk) then begin
          Hashtbl.replace global_buckets bk ();
          novel := true
        end)
      edges;
    if !novel then
      corpus :=
        { Fuzzer.data; edge_count = Hashtbl.length edges } :: !corpus
  in
  let base_seeds = if seeds = [] then [ []; [ 0 ]; [ 1; 2; 3 ] ] else seeds in
  List.iter try_input base_seeds;
  while !execs < budget do
    let parent =
      match !corpus with
      | [] -> []
      | c -> (Util.Rng.choose_list rng c).Fuzzer.data
    in
    try_input (Fuzzer.mutate rng parent)
  done;
  {
    Fuzzer.corpus = List.rev !corpus;
    total_execs = !execs;
    edges_found = Hashtbl.length global_edges;
  }

let minimize (prog : Vm.loaded) ~entry (corpus : int list list) : Cmin.stats =
  let table = Vm.edge_table prog.Vm.binary in
  let with_cov =
    List.map
      (fun input ->
        let edges = edge_counts table prog ~entry input in
        (input, List.sort compare (Hashtbl.fold (fun e _ acc -> e :: acc) edges [])))
      corpus
  in
  let sorted =
    List.sort
      (fun (_, a) (_, b) -> compare (List.length b) (List.length a))
      with_cov
  in
  let covered = Hashtbl.create 1024 in
  let kept =
    List.filter_map
      (fun (input, edges) ->
        let adds = List.exists (fun e -> not (Hashtbl.mem covered e)) edges in
        if adds then begin
          List.iter (fun e -> Hashtbl.replace covered e ()) edges;
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
  { Cmin.kept; original; reduction_pct = reduction }
