(** Debug-information quality metrics — the four methods of Section II.

    All methods produce the same triple:

    - {e availability of variables} — how much of the variable information
      a baseline debugging experience offers survives in the optimized
      binary;
    - {e line coverage} — the fraction of baseline-steppable lines still
      steppable;
    - their {e product}, the paper's headline score.

    Methods:
    - [dynamic] (Assaiante et al.): availability per stepped line as the
      ratio of variables visible in the optimized vs unoptimized session.
      The O0 baseline over-reports (frame variables are "visible" before
      first assignment — a DWARF artifact), so this underestimates.
    - [static] (Stinnett & Kell): compares debug-symbol coverage of each
      variable against its statically computed definition range, with all
      statement lines (dead code included) as the line baseline. Counts
      symbols that never materialize in a session, so it overestimates.
    - [static_dbg]: the static method with both baselines restricted to
      lines actually stepped at O0 (the refinement of Table I).
    - [hybrid] (this paper): the dynamic method with both traces cleaned
      against static definition ranges, removing the O0 artifact. *)

type score = { availability : float; line_coverage : float; product : float }

let make_score availability line_coverage =
  { availability; line_coverage; product = availability *. line_coverage }

type inputs = {
  defranges : Minic.Defranges.t;
  unopt_trace : Debugger.trace;
  opt_trace : Debugger.trace;
  unopt_bin : Emit.binary;
  opt_bin : Emit.binary;
}

(* ------------------------------------------------------------------ *)
(* Dynamic and hybrid                                                  *)

let statically_defined (defranges : Minic.Defranges.t) (v : Ir.var_id) line =
  Minic.Defranges.in_def_range defranges ~func:v.Ir.origin ~var:v.Ir.name ~line

(* Availability over the lines stepped in both sessions; a line whose
   baseline set is empty contributes nothing (no variables to lose). *)
let availability_of_traces ~clean ~(defranges : Minic.Defranges.t) unopt opt =
  let ratios = ref [] in
  Hashtbl.iter
    (fun line base_vars ->
      match Hashtbl.find_opt opt.Debugger.stepped line with
      | None -> ()
      | Some opt_vars ->
          let filter vars =
            if clean then
              Debugger.Var_set.filter
                (fun v -> statically_defined defranges v line)
                vars
            else vars
          in
          let base = filter base_vars in
          let present = filter opt_vars in
          let n_base = Debugger.Var_set.cardinal base in
          if n_base > 0 then begin
            let n_present =
              Debugger.Var_set.cardinal (Debugger.Var_set.inter present base)
            in
            ratios := (float_of_int n_present /. float_of_int n_base) :: !ratios
          end)
    unopt.Debugger.stepped;
  match !ratios with [] -> 1.0 | rs -> Util.Stats.mean rs

let line_coverage_of_traces unopt opt =
  let base = Debugger.stepped_lines unopt in
  if base = [] then 1.0
  else
    let covered =
      List.filter (fun l -> Hashtbl.mem opt.Debugger.stepped l) base
    in
    float_of_int (List.length covered) /. float_of_int (List.length base)

let dynamic (m : inputs) =
  make_score
    (availability_of_traces ~clean:false ~defranges:m.defranges m.unopt_trace
       m.opt_trace)
    (line_coverage_of_traces m.unopt_trace m.opt_trace)

let hybrid (m : inputs) =
  make_score
    (availability_of_traces ~clean:true ~defranges:m.defranges m.unopt_trace
       m.opt_trace)
    (line_coverage_of_traces m.unopt_trace m.opt_trace)

(* ------------------------------------------------------------------ *)
(* Static and static-dbg                                               *)

module Int_set = Minic.Defranges.Int_set

(* Lines of [v]'s static definition range that carry a statement. *)
let static_range defranges (r : Minic.Defranges.var_range) =
  match r.Minic.Defranges.def_start with
  | None -> Int_set.empty
  | Some d ->
      let stmts =
        Minic.Defranges.statement_lines defranges ~func:r.Minic.Defranges.func
      in
      Int_set.filter
        (fun l -> l >= d && l <= r.Minic.Defranges.scope_end)
        stmts

(* The optimized binary's debug info indexed once for the per-variable
   queries below: the line-table addresses of each line, and each
   variable's ranges (all of its location-list entries). *)
type debug_index = {
  addrs_of_line : (int, int list) Hashtbl.t;
  ranges_of_var : (Ir.var_id, Dwarfish.range list) Hashtbl.t;
}

let index_debug (d : Dwarfish.t) =
  let addrs_of_line = Hashtbl.create 256 in
  List.iter
    (fun (e : Dwarfish.line_entry) ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt addrs_of_line e.Dwarfish.line)
      in
      Hashtbl.replace addrs_of_line e.Dwarfish.line (e.Dwarfish.addr :: prev))
    d.Dwarfish.line_table;
  let ranges_of_var = Hashtbl.create 64 in
  List.iter
    (fun (vi : Dwarfish.var_info) ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt ranges_of_var vi.Dwarfish.vi_var)
      in
      Hashtbl.replace ranges_of_var vi.Dwarfish.vi_var (prev @ vi.Dwarfish.vi_ranges))
    d.Dwarfish.vars;
  { addrs_of_line; ranges_of_var }

let static_with ~index ~restrict (m : inputs) =
  let limit set =
    match restrict with
    | None -> set
    | Some stepped -> Int_set.filter (fun l -> Int_set.mem l stepped) set
  in
  (* Availability, Stinnett-Kell style: measured over binary addresses
     attributed (by the line table) to lines inside the variable's
     definition range. Code the optimizer deleted has no addresses and
     silently leaves the denominator, and unusable (entry-value) entries
     count as coverage — the two channels of static overestimation. *)
  let ratios =
    List.filter_map
      (fun (r : Minic.Defranges.var_range) ->
        let v = { Ir.origin = r.Minic.Defranges.func; name = r.Minic.Defranges.var } in
        let want_lines = limit (static_range m.defranges r) in
        if Int_set.is_empty want_lines then None
        else begin
          let ranges =
            Option.value ~default:[] (Hashtbl.find_opt index.ranges_of_var v)
          in
          let covers addr =
            List.exists
              (fun (rg : Dwarfish.range) ->
                addr >= rg.Dwarfish.lo && addr < rg.Dwarfish.hi)
              ranges
          in
          let total = ref 0 and covered = ref 0 in
          Int_set.iter
            (fun line ->
              List.iter
                (fun addr ->
                  incr total;
                  if covers addr then incr covered)
                (Option.value ~default:[] (Hashtbl.find_opt index.addrs_of_line line)))
            want_lines;
          if !total = 0 then None
          else Some (float_of_int !covered /. float_of_int !total)
        end)
      m.defranges.Minic.Defranges.vars
  in
  let availability = match ratios with [] -> 1.0 | rs -> Util.Stats.mean rs in
  (* Line coverage: steppable lines of the optimized binary over all
     statement lines (or the restricted set). *)
  let all_stmt_lines =
    Hashtbl.fold
      (fun _ lines acc -> Int_set.union lines acc)
      m.defranges.Minic.Defranges.stmt_lines Int_set.empty
  in
  let baseline = limit all_stmt_lines in
  let steppable = Int_set.of_list m.opt_trace.Debugger.steppable in
  let line_coverage =
    if Int_set.is_empty baseline then 1.0
    else
      float_of_int (Int_set.cardinal (Int_set.inter steppable baseline))
      /. float_of_int (Int_set.cardinal baseline)
  in
  make_score availability line_coverage

let static_of ~index (m : inputs) = static_with ~index ~restrict:None m

let static_dbg_of ~index (m : inputs) =
  let stepped = Int_set.of_list (Debugger.stepped_lines m.unopt_trace) in
  static_with ~index ~restrict:(Some stepped) m

let static (m : inputs) = static_of ~index:(index_debug m.opt_bin.Emit.debug) m

let static_dbg (m : inputs) =
  static_dbg_of ~index:(index_debug m.opt_bin.Emit.debug) m

(* ------------------------------------------------------------------ *)

type all_methods = {
  m_static : score;
  m_static_dbg : score;
  m_dynamic : score;
  m_hybrid : score;
}

let all (m : inputs) =
  let index = index_debug m.opt_bin.Emit.debug in
  {
    m_static = static_of ~index m;
    m_static_dbg = static_dbg_of ~index m;
    m_dynamic = dynamic m;
    m_hybrid = hybrid m;
  }
