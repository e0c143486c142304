(** A small coverage-guided mutational fuzzer, standing in for the
    OSS-Fuzz campaigns the paper mines for inputs (Section IV).

    Inputs are integer vectors (what [input()] consumes). Coverage is
    the VM's control-transfer edge set over the O0 binary: a coverage
    run returns a hit count per edge id ({!Vm.edge_table}), AFL's
    coverage map without collisions. The loop is AFL-shaped: pick a
    corpus entry, mutate it (bit/arith/havoc/splice), keep the child in
    the queue if it exercises a new edge {e or} drives some edge into an
    unseen hit-count bucket (AFL's novelty rule — this is why real
    queues hold thousands of inputs that coverage-preserving
    minimization later cuts by ~97%). Novelty is one bitmask of reached
    buckets per edge id, so a run is checked without hashing. Fully
    deterministic under the given seed. *)

(* AFL-style logarithmic hit-count buckets, one bit each: 1, 2, 3,
   4–7, 8–15, 16–31, 32–127 and 128 or more hits. *)
let bucket_bit n =
  if n <= 3 then 1 lsl (n - 1)
  else if n <= 7 then 8
  else if n <= 15 then 16
  else if n <= 31 then 32
  else if n <= 127 then 64
  else 128

type corpus_entry = { data : int list; edge_count : int }

type result = {
  corpus : corpus_entry list;  (** inputs that each contributed coverage *)
  total_execs : int;
  edges_found : int;
}

let run_input prog ~entry input =
  Vm.exec prog ~entry ~input
    { Vm.default_opts with coverage = true; max_instrs = 300_000 }

(** The ids of the edges a coverage run hit, ascending — which is the
    (src, dst) order of {!Vm.edge_table}. *)
let edges_of (res : Vm.result) =
  let acc = ref [] in
  for id = Array.length res.Vm.edges - 1 downto 0 do
    if res.Vm.edges.(id) > 0 then acc := id :: !acc
  done;
  !acc

let mutate rng (data : int list) =
  let arr = Array.of_list data in
  let n = Array.length arr in
  let pick_value () =
    match Util.Rng.int rng 6 with
    | 0 -> Util.Rng.int_in rng (-4) 16
    | 1 -> Util.Rng.int_in rng 0 255
    | 2 -> 1 lsl Util.Rng.int rng 16
    | 3 -> -(1 lsl Util.Rng.int rng 16)
    | 4 -> Util.Rng.int_in rng (-1000) 1000
    | _ -> Util.Rng.bits rng mod 100000
  in
  match Util.Rng.int rng 5 with
  | 0 when n > 0 ->
      (* Overwrite one element. *)
      let i = Util.Rng.int rng n in
      arr.(i) <- pick_value ();
      Array.to_list arr
  | 1 when n > 0 ->
      (* Arithmetic tweak. *)
      let i = Util.Rng.int rng n in
      arr.(i) <- arr.(i) + Util.Rng.int_in rng (-8) 8;
      Array.to_list arr
  | 2 ->
      (* Insert. *)
      let i = if n = 0 then 0 else Util.Rng.int rng (n + 1) in
      let l = Array.to_list arr in
      let rec ins k = function
        | rest when k = 0 -> pick_value () :: rest
        | [] -> [ pick_value () ]
        | x :: rest -> x :: ins (k - 1) rest
      in
      ins i l
  | 3 when n > 1 ->
      (* Delete. *)
      let i = Util.Rng.int rng n in
      List.filteri (fun k _ -> k <> i) (Array.to_list arr)
  | _ ->
      (* Havoc: several overwrites plus possible extension. *)
      let extra = Util.Rng.int rng 4 in
      let l = Array.to_list arr @ List.init extra (fun _ -> pick_value ()) in
      List.map
        (fun x -> if Util.Rng.chance rng 1 3 then pick_value () else x)
        l

(* Inputs keyed by their whole contents: [Hashtbl.hash] reads only a
   list's first few elements, and a campaign's mutants share prefixes. *)
module Inputs = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash l = List.fold_left (fun h x -> (h * 31) + x) 17 l land max_int
end)

(** [fuzz prog ~entry ~seeds ~budget ~seed] tries [budget] candidate
    inputs on the loaded binary ([total_execs] counts them). A candidate
    the campaign has already tried is not run again: a run is a pure
    function of its input, so a repeat reaches no new bucket. The table
    of tried inputs lives for one campaign. *)
let fuzz (prog : Vm.loaded) ~entry ~(seeds : int list list) ~budget ~seed =
  let rng = Util.Rng.create seed in
  (* Per edge id, the buckets its hit count has reached in any run so
     far; nonzero exactly when the edge has been seen. *)
  let reached = Array.make (Array.length (Vm.edge_table prog.Vm.binary)) 0 in
  let edges_found = ref 0 in
  let corpus = ref [] in
  let execs = ref 0 in
  let tried = Inputs.create 1024 in
  let run data =
    let counts = (run_input prog ~entry data).Vm.edges in
    let novel = ref false and hit = ref 0 in
    for id = 0 to Array.length counts - 1 do
      let n = counts.(id) in
      if n > 0 then begin
        incr hit;
        let seen = reached.(id) and b = bucket_bit n in
        if seen land b = 0 then begin
          if seen = 0 then incr edges_found;
          reached.(id) <- seen lor b;
          novel := true
        end
      end
    done;
    if !novel then corpus := { data; edge_count = !hit } :: !corpus
  in
  let try_input data =
    incr execs;
    if not (Inputs.mem tried data) then begin
      Inputs.add tried data ();
      run data
    end
  in
  let base_seeds = if seeds = [] then [ []; [ 0 ]; [ 1; 2; 3 ] ] else seeds in
  List.iter try_input base_seeds;
  while !execs < budget do
    let parent =
      match !corpus with
      | [] -> []
      | c -> (Util.Rng.choose_list rng c).data
    in
    try_input (mutate rng parent)
  done;
  {
    corpus = List.rev !corpus;
    total_execs = !execs;
    edges_found = !edges_found;
  }
