(** CFG cleanup, run between passes in both pipelines (not toggleable —
    every production compiler interleaves equivalent canonicalization).

    Kept deliberately debug-friendly: merging a straight-line pair keeps
    every line; a trivial phi forwards its operand everywhere including
    debug bindings. The only loss here is dropping the debug bindings of
    an empty forwarding block that cannot be moved into a multi-pred
    successor — rare and tiny. *)

(* A phi is trivial when it has exactly one distinct operand besides
   its own register. The test walks the argument list in place: most
   calls find no trivial phi, and then nothing is allocated. *)
let operand_equal a b =
  match (a, b) with
  | Ir.Reg x, Ir.Reg y | Ir.Imm x, Ir.Imm y -> x = y
  | _ -> false

let is_self dst = function Ir.Reg r -> r = dst | Ir.Imm _ -> false

let rec all_match dst o = function
  | [] -> true
  | (_, o') :: rest ->
      (is_self dst o' || operand_equal o o') && all_match dst o rest

let rec trivial_args dst = function
  | [] -> false
  | (_, o) :: rest ->
      if is_self dst o then trivial_args dst rest else all_match dst o rest

let is_trivial (p : Ir.phi) = trivial_args p.Ir.p_dst p.Ir.p_args

(* The operand a trivial phi forwards. Equal operands can be distinct
   heap values, and every rewritten use shares the one picked here; the
   pick decides how much of the IR is shared, which [Snapshot] sizes
   count, so it is the one [List.sort_uniq compare] keeps. *)
let forwarded (p : Ir.phi) =
  match
    List.sort_uniq compare
      (List.filter (fun o -> o <> Ir.Reg p.Ir.p_dst) (List.map snd p.Ir.p_args))
  with
  | [ one ] -> one
  | _ -> invalid_arg "Cleanup.forwarded: phi is not trivial"

(* Each round removes every phi that is trivial on entry to the round,
   then forwards their operands to all uses at once. *)
let rec trivial_phis (fn : Ir.fn) =
  let map = ref None in
  Ir.iter_blocks fn (fun b ->
      if List.exists is_trivial b.Ir.phis then begin
        let m =
          match !map with
          | Some m -> m
          | None ->
              let m = Hashtbl.create 8 in
              map := Some m;
              m
        in
        b.Ir.phis <-
          List.filter
            (fun (p : Ir.phi) ->
              if is_trivial p then begin
                Hashtbl.replace m p.Ir.p_dst (forwarded p);
                false
              end
              else true)
            b.Ir.phis
      end);
  match !map with
  | Some m ->
      Putil.replace_uses fn m;
      trivial_phis fn
  | None -> ()

(* Merge [b] with its unique successor [s] when [s]'s unique predecessor
   is [b] and [s] has no phis. Expects current predecessor lists (see
   [run]) and keeps them current; answers whether it merged anything. *)
let merge_pairs (fn : Ir.fn) =
  let merged = ref false in
  let changed = ref true in
  while !changed do
    changed := false;
    let labels = fn.Ir.layout in
    List.iter
      (fun l ->
        match Ir.find_block fn l with
        | None -> ()
        | Some b -> (
            match b.Ir.term with
            | Ir.Br s when s <> l && s <> fn.Ir.entry -> (
                match Ir.find_block fn s with
                | Some ({ Ir.preds = [ p ]; phis = []; _ } as sb) when p = l ->
                    b.Ir.instrs <- b.Ir.instrs @ sb.Ir.instrs;
                    b.Ir.term <- sb.Ir.term;
                    b.Ir.term_line <- sb.Ir.term_line;
                    Ir.remove_block fn s;
                    fn.Ir.layout <- List.filter (fun x -> x <> s) fn.Ir.layout;
                    (* Successors' phis referring to s now come from b. *)
                    List.iter
                      (fun succ ->
                        match Ir.find_block fn succ with
                        | Some tb ->
                            List.iter
                              (fun (p : Ir.phi) ->
                                p.Ir.p_args <-
                                  List.map
                                    (fun (pl, o) ->
                                      if pl = s then (l, o) else (pl, o))
                                    p.Ir.p_args)
                              tb.Ir.phis
                        | None -> ())
                      (Ir.succs b.Ir.term);
                    Ir.recompute_preds fn;
                    merged := true;
                    changed := true
                | _ -> ())
            | _ -> ()))
      labels
  done;
  !merged

let is_dbg (i : Ir.instr) = match i.Ir.ik with Ir.Dbg _ -> true | _ -> false

(* Remove blocks that only forward ([Br t], no instructions except debug
   bindings, no phis), rerouting predecessors straight to the target.
   Expects current predecessor lists (see [run]) and keeps them current;
   answers whether it removed anything. *)
let remove_forwarders (fn : Ir.fn) =
  let removed = ref false in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        match Ir.find_block fn l with
        | None -> ()
        | Some b -> (
            match b with
            | { Ir.term = Ir.Br t; phis = []; instrs; _ }
              when t <> l && l <> fn.Ir.entry && List.for_all is_dbg instrs ->
                let tb = Ir.block fn t in
                (* If the target has phis, rerouting is only safe when
                   each pred gets the value the forwarder would have
                   passed — that value is the forwarder's own incoming
                   one, identical for every pred, so it is safe; but the
                   target must not already have an edge from a pred
                   (duplicate phi entries). *)
                let pred_conflict =
                  List.exists (fun p -> List.mem p tb.Ir.preds) b.Ir.preds
                  && tb.Ir.phis <> []
                in
                if not pred_conflict then begin
                  (* Move the debug bindings into the target when it has a
                     single predecessor (us); otherwise they are dropped —
                     a small real loss. *)
                  (if tb.Ir.preds = [ l ] then
                     tb.Ir.instrs <- List.filter is_dbg b.Ir.instrs @ tb.Ir.instrs);
                  List.iter
                    (fun p ->
                      let pb = Ir.block fn p in
                      let redirect x = if x = l then t else x in
                      pb.Ir.term <-
                        (match pb.Ir.term with
                        | Ir.Br x -> Ir.Br (redirect x)
                        | Ir.Cbr (c, x, y) -> Ir.Cbr (c, redirect x, redirect y)
                        | Ir.Ret _ as r -> r))
                    b.Ir.preds;
                  (* Target phis: replace the edge from the forwarder with
                     edges from each pred carrying the same value. *)
                  List.iter
                    (fun (p : Ir.phi) ->
                      match List.assoc_opt l p.Ir.p_args with
                      | Some v ->
                          p.Ir.p_args <-
                            List.filter (fun (pl, _) -> pl <> l) p.Ir.p_args
                            @ List.map (fun pred -> (pred, v)) b.Ir.preds
                      | None -> ())
                    tb.Ir.phis;
                  Ir.remove_block fn l;
                  fn.Ir.layout <- List.filter (fun x -> x <> l) fn.Ir.layout;
                  Ir.recompute_preds fn;
                  removed := true;
                  changed := true
                end
            | _ -> ()))
      fn.Ir.layout
  done;
  !removed

(** Fold conditional branches with constant or equal-target conditions. *)
let fold_branches (fn : Ir.fn) =
  Ir.iter_blocks fn (fun b ->
      match b.Ir.term with
      | Ir.Cbr (Ir.Imm c, l1, l2) ->
          let dead = if c <> 0 then l2 else l1 in
          let live = if c <> 0 then l1 else l2 in
          (* Remove the dead edge's phi entries. *)
          (match Ir.find_block fn dead with
          | Some db when dead <> live ->
              List.iter
                (fun (p : Ir.phi) ->
                  p.Ir.p_args <-
                    List.filter (fun (pl, _) -> pl <> b.Ir.b_label) p.Ir.p_args)
                db.Ir.phis
          | _ -> ());
          b.Ir.term <- Ir.Br live
      | Ir.Cbr (c, l1, l2) when l1 = l2 ->
          ignore c;
          b.Ir.term <- Ir.Br l1
      | _ -> ())

(* Phis never consumed by real code are structural residue of SSA
   construction and pass rewrites; every compiler sweeps them outside
   any toggleable pass. Debug bindings referencing them go optimized-out
   (this loss belongs to whichever pass orphaned the phi). A function
   without phis is left untouched without counting uses; a round
   rebuilds only the phi lists that lose a phi. *)
let dead_phis (fn : Ir.fn) =
  let has_phis l =
    match (Ir.block fn l).Ir.phis with [] -> false | _ :: _ -> true
  in
  if List.exists has_phis fn.Ir.layout then begin
    let killed = Ir.Dense_set.create fn.Ir.next_reg in
    let any_killed = ref false in
    let changed = ref true in
    while !changed do
      changed := false;
      let counts = Putil.use_counts fn in
      let dead (p : Ir.phi) = Putil.use_count counts p.Ir.p_dst = 0 in
      Ir.iter_blocks fn (fun b ->
          if List.exists dead b.Ir.phis then begin
            b.Ir.phis <-
              List.filter
                (fun (p : Ir.phi) ->
                  if dead p then begin
                    Ir.Dense_set.add killed p.Ir.p_dst;
                    false
                  end
                  else true)
                b.Ir.phis;
            any_killed := true;
            changed := true
          end)
    done;
    if !any_killed then Putil.kill_bindings fn (Ir.Dense_set.mem killed)
  end

(* Debug bindings whose register no longer has a definition anywhere in
   the function — its block was pruned as unreachable, or a pass deleted
   the value without rewriting debug uses — go optimized-out, the same
   way LLVM turns the dbg.value users of a deleted instruction into
   undef. Real uses of such registers would be a pass bug (the verifier
   rejects them); debug uses are the supported, lossy case. The scan
   that collects definitions also notes whether any binding was seen
   before its register's definition; when none was, every bound
   register is defined and the rewriting scan is skipped. *)
let orphaned_dbg (fn : Ir.fn) =
  let defined = Ir.Dense_set.create fn.Ir.next_reg in
  let define = Ir.Dense_set.add defined in
  let ahead = ref false in
  let define_param (r, _) = define r in
  let define_phi (p : Ir.phi) = define p.Ir.p_dst in
  let define_instr (i : Ir.instr) =
    match i.Ir.ik with
    | Ir.Dbg (_, Some (Ir.Reg r)) ->
        if not (Ir.Dense_set.mem defined r) then ahead := true
    | ik -> Ir.iter_defs define ik
  in
  List.iter define_param fn.Ir.f_params;
  Ir.iter_blocks fn (fun b ->
      List.iter define_phi b.Ir.phis;
      List.iter define_instr b.Ir.instrs);
  if !ahead then
    Ir.iter_instrs fn (fun _ i ->
        match i.Ir.ik with
        | Ir.Dbg (v, Some (Ir.Reg r)) when not (Ir.Dense_set.mem defined r) ->
            i.Ir.ik <- Ir.Dbg (v, None)
        | _ -> ())

(** The full cleanup: run to a fixpoint of the component rewrites.

    Every call runs every component on the current IR; a component with
    nothing to do returns without rebuilding anything. What is known
    between components:
    - Only [fold_branches], [remove_forwarders] and [merge_pairs] change
      the CFG (edges, blocks, layout, phi argument labels). The phi
      components remove phis and substitute operands; no edge moves.
    - The first prune recomputes predecessors after the pass that ran
      before this call. They stay current through [trivial_phis], and
      [remove_forwarders] and [merge_pairs] recompute them after each
      rewrite, so neither recomputes them on entry.
    - When neither of those two rewrote anything, the first prune and
      [trivial_phis] already left the function as the second ones would
      leave it: every block reachable, every phi argument from a current
      predecessor, no trivial phi. Both are then skipped. *)
let run (fn : Ir.fn) =
  fold_branches fn;
  Ir.prune_unreachable fn;
  trivial_phis fn;
  let removed = remove_forwarders fn in
  let merged = merge_pairs fn in
  let rewired = removed || merged in
  if rewired then trivial_phis fn;
  dead_phis fn;
  if rewired then Ir.prune_unreachable fn;
  orphaned_dbg fn

let run_program (p : Ir.program) = Ir.iter_funcs run p
