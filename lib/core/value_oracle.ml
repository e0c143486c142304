(** Dynamic value-soundness oracle: everything the debugger displays
    must be the truth.

    The paper's availability metrics count *whether* a variable is
    visible; this oracle checks *what* the debugger would print. It runs
    the reference AST interpreter with a statement observer (recording
    every visible local at the first execution of each source line) and
    runs the binary in one debugger session under the paper's trace
    protocol ({!Session.first_hits}: a temporary breakpoint on every
    line, recording every variable the debug info can read at each
    line's first hit), then compares the two views variable by
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

type oval = Session.value = Vint of int | Varr of int list

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
(* Comparison                                                          *)

(** [check ast bin ~entry ~input] compares the two views of [bin], a
    compile of [ast]. Function-header lines are excluded: their
    addresses are the prologue, which the debugger protocol skips (gdb's
    break-after-prologue), so values there are not yet meaningful. *)
let check (ast : Minic.Ast.program) (bin : Emit.binary) ~entry ~input : report =
  let header_lines =
    List.map (fun (f : Minic.Ast.func) -> f.Minic.Ast.fline) ast.Minic.Ast.funcs
  in
  let interp = interp_snapshots ast ~entry ~input in
  let lines = ref 0 and values = ref 0 in
  let mismatches = ref [] in
  List.iter
    (fun { Session.hit_line = line; hit_func = fn; hit_values } ->
      match Hashtbl.find_opt interp line with
      | Some (int_fn, int_env)
        when int_fn = fn && not (List.mem line header_lines) ->
          incr lines;
          (* The stopped function's own variables, by name. *)
          let shown = Hashtbl.create 8 in
          List.iter
            (fun ((v : Ir.var_id), value) ->
              if v.Ir.origin = fn then Hashtbl.replace shown v.Ir.name value)
            hit_values;
          Hashtbl.iter
            (fun name dval ->
              match Hashtbl.find_opt int_env name with
              | Some ival ->
                  incr values;
                  if ival <> dval then
                    mismatches :=
                      {
                        mm_line = line;
                        mm_func = fn;
                        mm_var = name;
                        mm_debugger = dval;
                        mm_interp = ival;
                      }
                      :: !mismatches
              | None -> ())
            shown
      | _ -> ())
    (Session.first_hits bin ~entry ~input);
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
