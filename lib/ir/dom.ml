(** Dominator tree and dominance frontiers.

    Implements the Cooper–Harvey–Kennedy iterative algorithm over the
    reverse postorder; simple and fast enough for our function sizes.
    Used by mem2reg (phi placement), GVN and the dominator-based
    optimizations. *)

type t = {
  idom : int array;
      (** immediate dominator by label; entry maps to itself, [-1] marks
          a label outside the tree (unreachable, or not a block) *)
  order : int list;  (** reverse postorder of reachable blocks *)
  children : int list array;  (** dominator-tree children by label *)
}

let compute (fn : Ir.fn) =
  Ir.recompute_preds fn;
  let order = Ir.rpo fn in
  let n = fn.Ir.next_label in
  let index = Array.make n (-1) in
  List.iteri (fun i l -> index.(l) <- i) order;
  let idom = Array.make n (-1) in
  idom.(fn.Ir.entry) <- fn.Ir.entry;
  let intersect a b =
    (* Walk both fingers up by RPO index until they meet. *)
    let rec go a b =
      if a = b then a
      else if index.(a) > index.(b) then go idom.(a) b
      else go a idom.(b)
    in
    go a b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        if l <> fn.Ir.entry then begin
          let processed =
            List.filter (fun p -> idom.(p) >= 0) (Ir.block fn l).Ir.preds
          in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(l) <> new_idom then begin
                idom.(l) <- new_idom;
                changed := true
              end
        end)
      order
  done;
  let children = Array.make n [] in
  (* Backwards over the order, so consing leaves each list in order. *)
  List.iter
    (fun l ->
      if l <> fn.Ir.entry && idom.(l) >= 0 then
        children.(idom.(l)) <- l :: children.(idom.(l)))
    (List.rev order);
  { idom; order; children }

let in_range a l = l >= 0 && l < Array.length a

(** Is [l] in the dominator tree, that is, a block reachable from the
    entry? *)
let reachable t l = in_range t.idom l && t.idom.(l) >= 0

let idom t l =
  if reachable t l && t.idom.(l) <> l then Some t.idom.(l) else None

let children t l = if in_range t.children l then t.children.(l) else []

(** [dominates t a b] — does [a] dominate [b] (reflexively)? *)
let dominates t a b =
  let rec up l = if l = a then true else match idom t l with Some p -> up p | None -> false in
  up b

(** Dominance frontier of every reachable block (the classic
    runner-to-idom walk from each join point's predecessors). *)
let frontiers (fn : Ir.fn) t =
  let df = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace df l []) t.order;
  List.iter
    (fun l ->
      let preds = List.filter (reachable t) (Ir.block fn l).Ir.preds in
      if reachable t l && List.length preds >= 2 then
        List.iter
          (fun p ->
            let runner = ref p in
            let continue_walk = ref true in
            while !continue_walk do
              if !runner = t.idom.(l) then continue_walk := false
              else begin
                let cur =
                  Option.value ~default:[] (Hashtbl.find_opt df !runner)
                in
                if not (List.mem l cur) then
                  Hashtbl.replace df !runner (l :: cur);
                match idom t !runner with
                | Some up -> runner := up
                | None -> continue_walk := false
              end
            done)
          preds)
    t.order;
  df
