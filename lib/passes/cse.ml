(** Common-subexpression elimination, in two strengths:

    - {!run_local} — clang's [EarlyCSE]: per-block value numbering of pure
      operations plus local redundant-load elimination;
    - {!run_global} — clang's [GVN] and gcc's [tree-fre] /
      [tree-dominator-opts]: dominator-scoped value numbering (an
      expression computed in a dominator is reused), with load reuse
      restricted to bases never stored through in the function.

    A removed instruction's uses (and debug bindings) are re-pointed at
    the surviving value, so variable values survive; the line entry of the
    removed instruction does not — the classic CSE debug signature. *)

let stored_bases (fn : Ir.fn) =
  let tbl = Hashtbl.create 16 in
  Ir.iter_instrs fn (fun _ i ->
      match i.Ir.ik with
      | Ir.Store (a, _) -> Hashtbl.replace tbl a.Ir.base ()
      | _ -> ());
  tbl

let has_calls_or_io (fn : Ir.fn) =
  let found = ref false in
  Ir.iter_instrs fn (fun _ i ->
      match i.Ir.ik with
      | Ir.Call _ | Ir.Input _ | Ir.Output _ -> found := true
      | _ -> ());
  !found

(** Local (per-block) CSE with redundant-load elimination. *)
let run_local ?(pure_calls = fun _ -> false) (fn : Ir.fn) =
  let removed = ref 0 in
  Ir.iter_blocks fn (fun b ->
      let values = Hashtbl.create 32 in
      let loads = Hashtbl.create 16 in
      let subst = Hashtbl.create 8 in
      b.Ir.instrs <-
        List.filter
          (fun (i : Ir.instr) ->
            i.Ir.ik <- Ir.subst_uses (fun r -> Hashtbl.find_opt subst r) i.Ir.ik;
            match i.Ir.ik with
            | Ir.Store (a, _) ->
                (* Conservative: any store invalidates remembered loads
                   from the same base; unknown index kills the base. *)
                Hashtbl.filter_map_inplace
                  (fun (k : Ir.addr) d ->
                    if k.Ir.base = a.Ir.base then None else Some d)
                  loads;
                true
            | Ir.Call (_, f, _) when not (pure_calls f) ->
                Hashtbl.reset loads;
                true
            | Ir.Load (d, a) -> (
                match Hashtbl.find_opt loads a with
                | Some prev ->
                    Hashtbl.replace subst d (Ir.Reg prev);
                    incr removed;
                    false
                | None ->
                    Hashtbl.replace loads a d;
                    true)
            | ik when Putil.pure_ikind ~pure_calls ik -> (
                match (Putil.value_key ik, Ir.def_of_ikind ik) with
                | Some key, [ d ] -> (
                    match Hashtbl.find_opt values key with
                    | Some prev ->
                        Hashtbl.replace subst d (Ir.Reg prev);
                        incr removed;
                        false
                    | None ->
                        Hashtbl.replace values key d;
                        true)
                | _ -> true)
            | _ -> true)
          b.Ir.instrs;
      if Hashtbl.length subst > 0 then Putil.replace_uses fn subst);
  !removed

(** Dominator-scoped value numbering. *)
let run_global ?(pure_calls = fun _ -> false) (fn : Ir.fn) =
  Ir.prune_unreachable fn;
  let removed = ref 0 in
  let dom = Dom.compute fn in
  let stored = stored_bases fn in
  let impure_fn = has_calls_or_io fn in
  let subst = Hashtbl.create 16 in
  (* The values computed on the current dominator path. A key is added
     only when absent, so nothing is shadowed: when a block's dominator
     subtree is done, the keys it added are removed. *)
  let visible = Hashtbl.create 64 in
  let rec walk label =
    let b = Ir.block fn label in
    let added = ref [] in
    b.Ir.instrs <-
      List.filter
        (fun (i : Ir.instr) ->
          i.Ir.ik <- Ir.subst_uses (fun r -> Hashtbl.find_opt subst r) i.Ir.ik;
          let key =
            match i.Ir.ik with
            | Ir.Load (_, a) ->
                (* Loads participate only when nothing in the function can
                   change the loaded memory. *)
                if Hashtbl.mem stored a.Ir.base || impure_fn then None
                else Some (Putil.Kload a)
            | Ir.Call (_, f, args) ->
                if pure_calls f then Some (Putil.Kcall (f, args)) else None
            | ik -> Putil.value_key ik
          in
          match (key, Ir.def_of_ikind i.Ir.ik) with
          | Some key, [ d ] -> (
              match Hashtbl.find_opt visible key with
              | Some prev ->
                  Hashtbl.replace subst d (Ir.Reg prev);
                  incr removed;
                  false
              | None ->
                  Hashtbl.add visible key d;
                  added := key :: !added;
                  true)
          | _ -> true)
        b.Ir.instrs;
    b.Ir.term <- Ir.subst_term (fun r -> Hashtbl.find_opt subst r) b.Ir.term;
    List.iter walk (Dom.children dom label);
    List.iter (Hashtbl.remove visible) !added
  in
  walk fn.Ir.entry;
  (* Phi arguments may still reference removed registers. *)
  Putil.replace_uses fn subst;
  !removed

let run_local_program ?pure_calls (p : Ir.program) =
  Ir.iter_funcs (fun fn -> ignore (run_local ?pure_calls fn)) p

let run_global_program ?pure_calls (p : Ir.program) =
  Ir.iter_funcs (fun fn -> ignore (run_global ?pure_calls fn)) p
