(** Dynamic value-soundness oracle: everything the debugger displays
    must be the truth.

    The paper's availability metrics count *whether* a variable is
    visible; this oracle checks *what* the debugger would print. It runs
    the reference AST interpreter with a statement observer (recording
    every visible local at the first execution of each source line) and
    in parallel replays the binary under the debugger protocol
    (recording every debug-info-materializable variable at the first
    hit of each line), then compares the two views variable by
    variable.

    At O0 the views must agree exactly — statements execute in source
    order and the stop lands before the statement's first instruction,
    so a disagreement means the debug information lies (a stale
    location-list entry, a mis-scoped slot, a wrong line attribution).
    The test suite enforces an empty mismatch list for every suite
    program and for random synthetic programs. At optimized levels the
    comparison is reported but not a soundness bound: code motion
    legitimately makes the debugger show a value from before/after the
    interpreter's observation point (this is exactly the "wrong values"
    phenomenon the authors' companion work studies in production
    compilers). *)

type oval = Vint of int | Varr of int list

let oval_to_string = function
  | Vint n -> string_of_int n
  | Varr l -> "{" ^ String.concat ", " (List.map string_of_int l) ^ "}"

type mismatch = {
  mm_line : int;
  mm_func : string;
  mm_var : string;
  mm_debugger : oval;
  mm_interp : oval;
}

type report = {
  rp_lines : int;  (** lines observed by both sides *)
  rp_values : int;  (** variable values compared *)
  rp_mismatches : mismatch list;
}

(* ------------------------------------------------------------------ *)
(* Interpreter side                                                    *)

(* First observation of each line: enclosing function and a deep copy
   of every visible local (cells mutate; snapshot immediately). *)
let interp_snapshots (ast : Minic.Ast.program) ~entry ~input =
  let seen : (int, string * (string, oval) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let observe ~fname ~line visible =
    if not (Hashtbl.mem seen line) then begin
      let env = Hashtbl.create 8 in
      List.iter
        (fun (name, cell) ->
          Hashtbl.replace env name
            (match cell with
            | Minic.Interp.Scalar r -> Vint !r
            | Minic.Interp.Array a -> Varr (Array.to_list a)))
        visible;
      Hashtbl.replace seen line (fname, env)
    end
  in
  (try ignore (Minic.Interp.run ~observer:observe ast ~entry ~input)
   with Minic.Interp.Step_limit -> ());
  seen

(* ------------------------------------------------------------------ *)
(* Debugger side                                                       *)

let materialize_oval (st : Vm.state) (vi_is_array : bool)
    (where : Dwarfish.location) : oval option =
  match st.Vm.frames with
  | [] -> None
  | f :: _ -> (
      match where with
      | Dwarfish.Const n -> Some (Vint n)
      | Dwarfish.In_reg k ->
          if k >= 0 && k < Array.length st.Vm.pregs then
            Some (Vint st.Vm.pregs.(k))
          else None
      | Dwarfish.In_slot o ->
          if o < 0 || o >= Array.length f.Vm.fr_mem then None
          else if vi_is_array then
            let size =
              List.find_map
                (fun (_, off, size) -> if off = o then Some size else None)
                f.Vm.fr_fi.Emit.fi_slot_offset
            in
            Option.map
              (fun size ->
                Varr
                  (List.init
                     (min size (Array.length f.Vm.fr_mem - o))
                     (fun i -> f.Vm.fr_mem.(o + i))))
              size
          else Some (Vint f.Vm.fr_mem.(o)))

(* Replay the binary, stopping (conceptually) at the first hit of every
   line-table line, and materialize what the debug info exposes. *)
let debugger_snapshots (bin : Emit.binary) ~entry ~input =
  let line_at = Hashtbl.create 64 in
  List.iter
    (fun (e : Dwarfish.line_entry) ->
      if not (Hashtbl.mem line_at e.Dwarfish.addr) then
        Hashtbl.replace line_at e.Dwarfish.addr e.Dwarfish.line)
    bin.Emit.debug.Dwarfish.line_table;
  let is_array =
    let t = Hashtbl.create 16 in
    List.iter
      (fun (vi : Dwarfish.var_info) ->
        if vi.Dwarfish.vi_is_array then
          Hashtbl.replace t vi.Dwarfish.vi_var ())
      bin.Emit.debug.Dwarfish.vars;
    fun v -> Hashtbl.mem t v
  in
  let seen : (int, string * (string, oval) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let st = Vm.init_state bin ~entry ~args:[] ~input in
  let observe () =
    match Hashtbl.find_opt line_at st.Vm.pc with
    | Some line when not (Hashtbl.mem seen line) -> (
        match st.Vm.frames with
        | [] -> ()
        | f :: _ ->
            let fn = f.Vm.fr_fi.Emit.fi_name in
            let env = Hashtbl.create 8 in
            List.iter
              (fun ((v : Ir.var_id), where) ->
                if v.Ir.origin = fn then
                  match materialize_oval st (is_array v) where with
                  | Some value -> Hashtbl.replace env v.Ir.name value
                  | None -> ())
              (Dwarfish.available_at bin.Emit.debug st.Vm.pc);
            Hashtbl.replace seen line (fn, env))
    | _ -> ()
  in
  (try
     while not st.Vm.halted do
       observe ();
       try Vm.step st Vm.default_opts None with Exit -> ()
     done
   with Vm.Budget_exhausted -> ());
  seen

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

(** [check ast ~config ~roots ~entry ~input] compiles and compares the
    two views. Function-header lines are excluded: their addresses are
    the prologue, which the debugger protocol skips (gdb's break-after-
    prologue), so values there are not yet meaningful. *)
let check (ast : Minic.Ast.program) ~(config : Config.t) ~roots ~entry ~input
    : report =
  let bin = Toolchain.compile ast ~config ~roots in
  let header_lines =
    List.map (fun (f : Minic.Ast.func) -> f.Minic.Ast.fline) ast.Minic.Ast.funcs
  in
  let interp = interp_snapshots ast ~entry ~input in
  let dbg = debugger_snapshots bin ~entry ~input in
  let lines = ref 0 and values = ref 0 in
  let mismatches = ref [] in
  Hashtbl.iter
    (fun line (dbg_fn, dbg_env) ->
      if not (List.mem line header_lines) then
        match Hashtbl.find_opt interp line with
        | Some (int_fn, int_env) when int_fn = dbg_fn ->
            incr lines;
            Hashtbl.iter
              (fun name dval ->
                match Hashtbl.find_opt int_env name with
                | Some ival ->
                    incr values;
                    if ival <> dval then
                      mismatches :=
                        {
                          mm_line = line;
                          mm_func = dbg_fn;
                          mm_var = name;
                          mm_debugger = dval;
                          mm_interp = ival;
                        }
                        :: !mismatches
                | None -> ())
              dbg_env
        | _ -> ())
    dbg;
  {
    rp_lines = !lines;
    rp_values = !values;
    rp_mismatches =
      List.sort
        (fun a b -> compare (a.mm_line, a.mm_var) (b.mm_line, b.mm_var))
        !mismatches;
  }

let mismatch_to_string m =
  Printf.sprintf "line %d (%s): %s shows %s, truth is %s" m.mm_line m.mm_func
    m.mm_var
    (oval_to_string m.mm_debugger)
    (oval_to_string m.mm_interp)

let report_to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "value oracle: %d line(s), %d value(s) compared, %d mismatch(es)\n"
       r.rp_lines r.rp_values
       (List.length r.rp_mismatches));
  List.iter
    (fun m -> Buffer.add_string buf ("  " ^ mismatch_to_string m ^ "\n"))
    r.rp_mismatches;
  Buffer.contents buf
