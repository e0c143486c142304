(** Machine-level passes, run between instruction selection and emission.

    - {!schedule}: post-RA list scheduling (gcc [schedule-insns2]).
      Separates producer-consumer pairs to dodge the VM's hazard
      penalties and hoists loads; instructions that end up displaced from
      their original order lose their line attribution, which is why this
      pass sits near the top of the paper's O2/O3 rankings.
    - {!sink}: machine code sinking (clang [Machine code sinking]) —
      moves a computation used in only one successor into it.
    - {!tail_merge}: identical block tails merged (gcc [crossjumping],
      clang's Control Flow Optimizer); the surviving copy keeps one set
      of line entries.
    - {!place_blocks}: frequency-driven block chaining (gcc
      [reorder-blocks], clang [Branch Prob BB Placement]); fall-through
      jumps disappear together with their line entries.
    - {!shrink_wrap}: marks functions whose entry can exit without
      touching the frame, deferring the frame cost and narrowing
      frame-resident variable ranges. *)

(* ------------------------------------------------------------------ *)
(* Post-RA list scheduling                                             *)

let instr_deps (a : Mach.mkind) (b : Mach.mkind) =
  (* Must [b] stay after [a]? RAW / WAR / WAW on locations, any pair of
     memory-or-effect instructions, and debug bindings pinned to their
     defining instruction (handled by the caller). *)
  let wa = Mach.writes a and ra = Mach.reads a in
  let wb = Mach.writes b and rb = Mach.reads b in
  let inter xs ys = List.exists (fun x -> List.mem x ys) xs in
  inter wa rb (* RAW *) || inter ra wb (* WAR *) || inter wa wb (* WAW *)
  || (Mach.touches_memory a && Mach.touches_memory b)
  || (Mach.has_side_effect a && Mach.has_side_effect b)

let schedule_block ~keep_lines (b : Mach.mblock) =
  let arr = Array.of_list b.Mach.mins in
  let n = Array.length arr in
  if n > 2 && n <= 200 then begin
    (* Dependence edges; Mdbg depends on the previous real instruction
       (it must stay glued after its def). *)
    let deps = Array.make n [] in
    for i = 0 to n - 1 do
      for j = 0 to i - 1 do
        let pinned_dbg =
          match arr.(i).Mach.mk with Mach.Mdbg _ -> j = i - 1 | _ -> false
        in
        let dbg_barrier =
          (* Real instructions must not move before a preceding Mdbg that
             they would unglue... only ordering wrt writes matters: a
             binding to location L must stay before the next write of L. *)
          match (arr.(j).Mach.mk, arr.(i).Mach.mk) with
          | Mach.Mdbg (_, Some (Mach.Dloc l)), mk -> List.mem l (Mach.writes mk)
          | _ -> false
        in
        if pinned_dbg || dbg_barrier || instr_deps arr.(j).Mach.mk arr.(i).Mach.mk
        then deps.(i) <- j :: deps.(i)
      done
    done;
    (* Greedy list scheduling: at each step pick the ready instruction,
       preferring (1) loads (start them early), (2) anything that does
       not read what the previously scheduled instruction wrote,
       (3) original order. *)
    let scheduled = Array.make n false in
    let order = ref [] in
    let last_writes = ref [] in
    for _slot = 0 to n - 1 do
      let ready =
        List.filter
          (fun i ->
            (not scheduled.(i)) && List.for_all (fun j -> scheduled.(j)) deps.(i))
          (List.init n (fun i -> i))
      in
      let score i =
        let mk = arr.(i).Mach.mk in
        let is_load = match mk with Mach.Mload _ -> 0 | _ -> 1 in
        let hazard =
          if List.exists (fun l -> List.mem l !last_writes) (Mach.reads mk) then 1
          else 0
        in
        (hazard, is_load, i)
      in
      match
        List.sort (fun a b -> compare (score a) (score b)) ready
      with
      | best :: _ ->
          scheduled.(best) <- true;
          order := best :: !order;
          (match arr.(best).Mach.mk with
          | Mach.Mdbg _ -> ()
          | mk -> last_writes := Mach.writes mk)
      | [] -> ()
    done;
    let order = Array.of_list (List.rev !order) in
    if Array.length order = n then begin
      (* Instructions whose relative rank changed lose their line —
         unless the target preserves locations on motion (LLVM). *)
      if not keep_lines then begin
        let rank = Array.make n 0 in
        Array.iteri (fun pos i -> rank.(i) <- pos) order;
        for i = 0 to n - 1 do
          match arr.(i).Mach.mk with
          | Mach.Mdbg _ -> ()
          | _ -> if rank.(i) <> i then arr.(i).Mach.mline <- None
        done
      end;
      b.Mach.mins <- Array.to_list (Array.map (fun i -> arr.(i)) order)
    end
  end

let schedule ?(keep_lines = false) (m : Mach.mfn) =
  List.iter (fun l -> schedule_block ~keep_lines (Mach.mblock m l)) m.Mach.mf_layout

(* ------------------------------------------------------------------ *)
(* Machine sinking                                                     *)

let mpreds (m : Mach.mfn) =
  let preds = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace preds l []) m.Mach.mf_layout;
  List.iter
    (fun l ->
      let b = Mach.mblock m l in
      List.iter
        (fun s ->
          match Hashtbl.find_opt preds s with
          | Some ps -> Hashtbl.replace preds s (l :: ps)
          | None -> Hashtbl.replace preds s [ l ])
        (Mach.msuccs b.Mach.mterm))
    m.Mach.mf_layout;
  preds

let sink (m : Mach.mfn) =
  let preds = mpreds m in
  let single_pred t of_l =
    match Hashtbl.find_opt preds t with
    | Some [ p ] -> p = of_l
    | _ -> false
  in
  (* Move an instruction writing a location read only in one successor —
     and not live along the other edge — down into that successor. We
     approximate "not live elsewhere" very conservatively: the location
     must be read by the target block before any write, read by no other
     block before a write, and the instruction must be pure and its
     operands must not be rewritten between its position and the end of
     its block. *)
  let first_access_reads l (b : Mach.mblock) =
    let rec go = function
      | [] -> `Neither
      | (i : Mach.minstr) :: rest -> (
          match i.Mach.mk with
          | Mach.Mdbg _ -> go rest
          | mk ->
              if List.mem l (Mach.reads mk) then `Reads
              else if List.mem l (Mach.writes mk) then `Writes
              else go rest)
    in
    match go b.Mach.mins with
    | (`Reads | `Writes) as r -> r
    | `Neither -> (
        match b.Mach.mterm with
        | Mach.Mcbr (c, _, _) when List.mem l (Mach.mval_reads c) -> `Reads
        | Mach.Mret (Some v) when List.mem l (Mach.mval_reads v) -> `Reads
        | _ -> `Neither)
  in
  List.iter
    (fun bl ->
      let b = Mach.mblock m bl in
      match b.Mach.mterm with
      | Mach.Mcbr (_, t1, t2) when t1 <> t2 ->
          let b1 = Mach.mblock m t1 and b2 = Mach.mblock m t2 in
          (* Only sink when each successor has a single predecessor-like
             shape: approximated by the successor not being the entry and
             the instruction's destination being written before read in
             the other successor. *)
          let moved = ref [] in
          let rec scan kept = function
            | [] -> List.rev kept
            | (i : Mach.minstr) :: rest -> (
                match i.Mach.mk with
                | Mach.Mbin (_, d, _, _) | Mach.Mun (_, d, _) | Mach.Mmov (d, _)
                  when (not (Mach.has_side_effect i.Mach.mk))
                       && (not
                             (List.exists
                                (fun (r : Mach.minstr) ->
                                  List.exists
                                    (fun w ->
                                      List.mem w (Mach.reads i.Mach.mk)
                                      || List.mem w (Mach.writes i.Mach.mk))
                                    (Mach.writes r.Mach.mk)
                                  || List.mem d (Mach.reads r.Mach.mk))
                                rest))
                       &&
                       (match b.Mach.mterm with
                       | Mach.Mcbr (c, _, _) ->
                           not (List.mem d (Mach.mval_reads c))
                       | _ -> true) -> (
                    (* d unused in the rest of this block and not read by
                       the terminator: a sinking candidate. *)
                    match (first_access_reads d b1, first_access_reads d b2) with
                    | `Reads, `Writes when single_pred t1 bl ->
                        moved := (t1, i) :: !moved;
                        scan kept rest
                    | `Writes, `Reads when single_pred t2 bl ->
                        moved := (t2, i) :: !moved;
                        scan kept rest
                    | _ -> scan (i :: kept) rest)
                | _ -> scan (i :: kept) rest)
          in
          b.Mach.mins <- scan [] b.Mach.mins;
          List.iter
            (fun (target, (i : Mach.minstr)) ->
              i.Mach.mline <- None;
              let tb = Mach.mblock m target in
              tb.Mach.mins <- i :: tb.Mach.mins)
            !moved
      | _ -> ())
    m.Mach.mf_layout

(* ------------------------------------------------------------------ *)
(* Tail merging (crossjumping)                                         *)

(* One round: merge the first pair of blocks, in layout order, with the
   same terminator whose instruction suffixes coincide. Returns whether
   it merged. *)
let tail_merge (m : Mach.mfn) =
  (* Move the common suffix into a fresh block both jump to. The fresh
     block takes the FIRST block's lines; the second copy's line entries
     are gone. *)
  let same_term a b =
    match (a, b) with
    | Mach.Mjmp x, Mach.Mjmp y -> x = y
    | Mach.Mret None, Mach.Mret None -> true
    | Mach.Mret (Some x), Mach.Mret (Some y) -> x = y
    | _ -> false
  in
  (* Each block's real instructions, last first, taken once a round:
     nothing changes before the round's one merge. *)
  let blocks =
    List.filter_map
      (fun l ->
        Option.map
          (fun (b : Mach.mblock) ->
            ( b,
              List.rev
                (List.filter
                   (fun (i : Mach.minstr) ->
                     match i.Mach.mk with Mach.Mdbg _ -> false | _ -> true)
                   b.Mach.mins) ))
          (Ir.Label_store.find_opt m.Mach.mf_blocks l))
      m.Mach.mf_layout
  in
  let rec common acc (xs : Mach.minstr list) (ys : Mach.minstr list) =
    match (xs, ys) with
    | x :: xs', y :: ys' when x.Mach.mk = y.Mach.mk -> common (x :: acc) xs' ys'
    | _ -> acc
  in
  let merge (a : Mach.mblock) (b : Mach.mblock) suffix =
    let k = List.length suffix in
    (* New label reusing a fresh id. *)
    let fresh =
      1 + Ir.Label_store.fold (fun l _ acc -> max l acc) m.Mach.mf_blocks 0
    in
    let nb =
      {
        Mach.mb_label = fresh;
        mins = suffix;
        mterm = a.Mach.mterm;
        mterm_line = a.Mach.mterm_line;
        mb_prob = 1.0;
        mb_freq = a.Mach.mb_freq +. b.Mach.mb_freq;
      }
    in
    Ir.Label_store.replace m.Mach.mf_blocks fresh nb;
    let chop (blk : Mach.mblock) =
      (* Remove the last k real instructions (and any Mdbg
         interleaved after the cut keeps its place). *)
      let rec drop n acc = function
        | [] -> List.rev acc
        | (i : Mach.minstr) :: rest -> (
            match i.Mach.mk with
            | Mach.Mdbg _ when n > 0 -> drop n acc rest
            | _ when n > 0 -> drop (n - 1) acc rest
            | _ -> drop 0 (i :: acc) rest)
      in
      blk.Mach.mins <- List.rev (drop k [] (List.rev blk.Mach.mins));
      blk.Mach.mterm <- Mach.Mjmp fresh
    in
    chop a;
    chop b;
    m.Mach.mf_layout <- m.Mach.mf_layout @ [ fresh ]
  in
  let rec first_pair = function
    | [] -> None
    | (a, ra) :: rest -> (
        let mergeable (b, rb) =
          if same_term a.Mach.mterm b.Mach.mterm then
            let suffix = common [] ra rb in
            if List.compare_length_with suffix 2 >= 0 then Some (b, suffix)
            else None
          else None
        in
        match List.find_map mergeable rest with
        | Some (b, suffix) -> Some (a, b, suffix)
        | None -> first_pair rest)
  in
  match first_pair blocks with
  | Some (a, b, suffix) ->
      merge a b suffix;
      true
  | None -> false

let tail_merge_all (m : Mach.mfn) =
  (* A few rounds, one merge each; a round that merges nothing leaves
     the function as it was, so every later round would too. *)
  let rec rounds n = if n > 0 && tail_merge m then rounds (n - 1) in
  rounds 8

(* ------------------------------------------------------------------ *)
(* Block placement                                                     *)

let place_blocks (m : Mach.mfn) =
  let preds = mpreds m in
  (* Greedy chaining: start from the entry, repeatedly append the most
     probable unplaced successor; then continue with the hottest
     unplaced block. Cold blocks drift to the end; fall-through edges
     replace taken jumps. *)
  let placed = Hashtbl.create 16 in
  let order = ref [] in
  let place l =
    if not (Hashtbl.mem placed l) then begin
      Hashtbl.replace placed l ();
      order := l :: !order
    end
  in
  let best_successor l =
    let b = Mach.mblock m l in
    match b.Mach.mterm with
    | Mach.Mjmp t when not (Hashtbl.mem placed t) -> Some t
    | Mach.Mcbr (_, t1, t2) ->
        let p1 = b.Mach.mb_prob and p2 = 1.0 -. b.Mach.mb_prob in
        let cand =
          List.filter
            (fun (t, _) -> not (Hashtbl.mem placed t))
            [ (t1, p1); (t2, p2) ]
        in
        (match List.sort (fun (_, a) (_, b) -> compare b a) cand with
        | (t, _) :: _ -> Some t
        | [] -> None)
    | _ -> None
  in
  let rec chain l =
    place l;
    match best_successor l with Some next -> chain next | None -> ()
  in
  chain m.Mach.mf_entry;
  (* Remaining blocks: hottest first, each starting a new chain. *)
  let rec drain () =
    let remaining =
      List.filter (fun l -> not (Hashtbl.mem placed l)) m.Mach.mf_layout
    in
    match
      List.sort
        (fun a b ->
          compare (Mach.mblock m b).Mach.mb_freq (Mach.mblock m a).Mach.mb_freq)
        remaining
    with
    | [] -> ()
    | l :: _ ->
        chain l;
        drain ()
  in
  drain ();
  m.Mach.mf_layout <- List.rev !order;
  (* A block stitched after a non-predecessor (a chain break: control
     never falls into it from above) loses the statement anchor of its
     first instruction — reordering breaks the contiguity the line
     table's is_stmt heuristics rely on (gcc's bbro behaviour; see
     DESIGN.md). *)
  let rec strip = function
    | a :: (b :: _ as rest) ->
        let b_preds = Option.value ~default:[] (Hashtbl.find_opt preds b) in
        (if not (List.mem a b_preds) then
           let blk = Mach.mblock m b in
           match
             List.find_opt
               (fun (i : Mach.minstr) ->
                 match i.Mach.mk with Mach.Mdbg _ -> false | _ -> true)
               blk.Mach.mins
           with
           | Some i -> i.Mach.mline <- None
           | None -> ());
        strip rest
    | _ -> ()
  in
  strip (List.tl m.Mach.mf_layout |> fun t -> List.hd m.Mach.mf_layout :: t)

(* ------------------------------------------------------------------ *)
(* Shrink wrapping                                                     *)

let shrink_wrap (m : Mach.mfn) =
  (* Profitable when the entry block itself touches no frame word and
     can reach a return without ever touching the frame. *)
  let entry = Mach.mblock m m.Mach.mf_entry in
  let entry_clean =
    List.for_all
      (fun (i : Mach.minstr) -> not (Mach.touches_frame i.Mach.mk))
      entry.Mach.mins
    && List.for_all
         (function Mach.Pslot _ -> false | Mach.Preg _ -> true)
         m.Mach.mf_param_locs
  in
  let has_frame = m.Mach.mf_frame <> [] || m.Mach.mf_spill_words > 0 in
  if entry_clean && has_frame then begin
    (* Some path from entry must avoid the frame entirely for the
       deferral to pay off. *)
    let rec frame_free l visited =
      if List.mem l visited then false
      else
        let b = Mach.mblock m l in
        let clean =
          List.for_all
            (fun (i : Mach.minstr) -> not (Mach.touches_frame i.Mach.mk))
            b.Mach.mins
        in
        clean
        &&
        match b.Mach.mterm with
        | Mach.Mret _ -> true
        | t -> List.exists (fun s -> frame_free s (l :: visited)) (Mach.msuccs t)
    in
    if entry_clean && frame_free m.Mach.mf_entry [] then
      m.Mach.mf_shrink_wrapped <- true
  end

(* ------------------------------------------------------------------ *)

(** The machine passes selected in [opts], in execution order, as
    [(name, pass)] pairs — the names match what a sanitizer or tracer
    wants to report. *)
let passes (opts : Mach.opts) : (string * (Mach.mfn -> unit)) list =
  List.concat
    [
      (if opts.Mach.sink then [ ("mach-sink", sink) ] else []);
      (if opts.Mach.schedule then
         [
           ( "mach-schedule",
             schedule ~keep_lines:opts.Mach.sched_keep_lines );
         ]
       else []);
      (if opts.Mach.tail_merge then [ ("mach-tail-merge", tail_merge_all) ]
       else []);
      (if opts.Mach.place_blocks then [ ("mach-place-blocks", place_blocks) ]
       else []);
      (if opts.Mach.shrink_wrap then [ ("mach-shrink-wrap", shrink_wrap) ]
       else []);
    ]

(** Apply the machine passes selected in [opts]. Callers that want a
    boundary hook iterate {!passes} themselves (the toolchain driver
    does, firing its [Instrument.t] after each pass). *)
let run (m : Mach.mfn) (opts : Mach.opts) =
  List.iter (fun (_, pass) -> pass m) (passes opts)
