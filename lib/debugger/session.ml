(** Interactive debugger sessions driven by command scripts — the
    analog of the paper's methodology of driving gdb in batch mode
    (Section III-A runs gdb under Python scripting; this module is the
    same idea over our VM).

    A session owns a paused VM and executes gdb-flavoured commands:

    {v
    break 12          arm every code address of line 12 (multi-location)
    break 12 if i > 3 conditional breakpoint on a debug-visible variable
    tbreak 12         same, cleared on first hit
    delete 12         remove the breakpoint on line 12
    run 3,1,4         (re)start with these input() values
    continue | c      resume until the next breakpoint or exit
    step | s          run to the next different source line (enters calls)
    next | n          like step, but skip over calls
    finish            run until the current function returns
    print x | p x     materialize a variable from the debug info
    watch x           software watchpoint: stop when x's value changes
    unwatch x         remove the watchpoint
    info watchpoints  watched variables and their last values
    info locals       every variable the debug info can see here
    info line         current line and function
    info breakpoints  armed breakpoints
    backtrace | bt    the call stack
    v}

    Every command returns its output lines; [script] replays a whole
    command list and returns the transcript, so sessions are easy to
    test and to diff across optimization levels — which is exactly what
    the paper does to attribute losses. *)

type cond = {
  c_var : string;
  c_op : string;  (** ==, !=, <, <=, >, >= *)
  c_value : int;
}

type bp = {
  bp_line : int;
  bp_addrs : int list;
  bp_temporary : bool;
  bp_cond : cond option;
}

type watchpoint = {
  wp_name : string;
  mutable wp_last : string;
  mutable wp_depth : int;
      (** frame depth the watch was set at: sampling happens only there
          (a callee cannot change the frame-local view), and leaving the
          frame deletes the watchpoint, as gdb does *)
}

type t = {
  bin : Emit.binary;
  entry : string;
  mutable breakpoints : bp list;
  mutable watchpoints : watchpoint list;
  mutable st : Vm.state option;  (** [None] until [run] / after exit *)
  mutable running : bool;
}

let create (bin : Emit.binary) ~entry =
  {
    bin;
    entry;
    breakpoints = [];
    watchpoints = [];
    st = None;
    running = false;
  }

(* ------------------------------------------------------------------ *)
(* Inspection helpers                                                  *)

let cur_line (s : t) (st : Vm.state) =
  if st.Vm.pc >= 0 && st.Vm.pc < Array.length s.bin.Emit.line_of then
    s.bin.Emit.line_of.(st.Vm.pc)
  else None

let cur_func (s : t) (st : Vm.state) =
  match st.Vm.frames with
  | f :: _ -> f.Vm.fr_fi.Emit.fi_name
  | [] ->
      if st.Vm.pc >= 0 && st.Vm.pc < Array.length s.bin.Emit.fn_of_addr then
        s.bin.Emit.funcs.(s.bin.Emit.fn_of_addr.(st.Vm.pc)).Emit.fi_name
      else "?"

let slot_size (fi : Emit.func_info) offset =
  List.find_map
    (fun (_, o, size) -> if o = offset then Some size else None)
    fi.Emit.fi_slot_offset

(* Materialize a variable's value from its DWARF-like location, exactly
   as the debugger would: registers from the register file, slots from
   the current frame, constants from the entry itself. *)
let materialize (st : Vm.state) (where : Dwarfish.location) ~is_array =
  match st.Vm.frames with
  | [] -> "<no frame>"
  | f :: _ -> (
      match where with
      | Dwarfish.Const n -> string_of_int n
      | Dwarfish.In_reg k ->
          if k >= 0 && k < Array.length st.Vm.pregs then
            string_of_int st.Vm.pregs.(k)
          else "<bad register>"
      | Dwarfish.In_slot o ->
          if o < 0 || o >= Array.length f.Vm.fr_mem then "<bad slot>"
          else if is_array then
            let size =
              match slot_size f.Vm.fr_fi o with
              | Some s -> min s (Array.length f.Vm.fr_mem - o)
              | None -> 1
            in
            let words =
              List.init (min size 8) (fun i ->
                  string_of_int f.Vm.fr_mem.(o + i))
            in
            "{"
            ^ String.concat ", " words
            ^ (if size > 8 then ", ..." else "")
            ^ "}"
          else string_of_int f.Vm.fr_mem.(o))

let visible_vars (s : t) (st : Vm.state) =
  let avail = Dwarfish.available_at s.bin.Emit.debug st.Vm.pc in
  let is_array v =
    List.exists
      (fun (vi : Dwarfish.var_info) -> vi.Dwarfish.vi_var = v && vi.Dwarfish.vi_is_array)
      s.bin.Emit.debug.Dwarfish.vars
  in
  List.map (fun (v, where) -> (v, where, is_array v)) avail

(* The in-scope candidate a debugger shows for [name] here: the current
   function's own variable of that name, else the first visible one;
   [None] when the location lists do not cover this address. *)
let pick_visible (s : t) (st : Vm.state) name =
  let fn = cur_func s st in
  let candidates =
    List.filter (fun (v, _, _) -> v.Ir.name = name) (visible_vars s st)
  in
  match List.find_opt (fun (v, _, _) -> v.Ir.origin = fn) candidates with
  | Some c -> Some c
  | None -> ( match candidates with c :: _ -> Some c | [] -> None)

(* The value a debugger would display for [name] here: the in-scope
   candidate's materialization, or a placeholder. Used by conditions
   and by (software) watchpoints, which re-sample after every
   instruction. *)
let sample_value (s : t) (st : Vm.state) name =
  match pick_visible s st name with
  | Some (_, where, is_array) -> materialize st where ~is_array
  | None -> "<not visible>"

(* All variables the debug info mentions anywhere inside the current
   function — used to distinguish "optimized out here" from "no such
   symbol". *)
let vars_of_current_func (s : t) (st : Vm.state) =
  match st.Vm.frames with
  | [] -> []
  | f :: _ ->
      let lo = f.Vm.fr_fi.Emit.fi_entry and hi = f.Vm.fr_fi.Emit.fi_end in
      List.filter_map
        (fun (vi : Dwarfish.var_info) ->
          if
            List.exists
              (fun (r : Dwarfish.range) -> r.Dwarfish.lo >= lo && r.Dwarfish.lo < hi)
              vi.Dwarfish.vi_ranges
          then Some vi.Dwarfish.vi_var
          else None)
        s.bin.Emit.debug.Dwarfish.vars

let stop_report (s : t) (st : Vm.state) =
  let fn = cur_func s st in
  match cur_line s st with
  | Some l -> Printf.sprintf "stopped at %s, line %d" fn l
  | None -> Printf.sprintf "stopped at %s, address %d (no line)" fn st.Vm.pc

let exit_report (st : Vm.state) =
  Printf.sprintf "[program exited; output: [%s]]"
    (String.concat "; " (List.map string_of_int (List.rev st.Vm.out_rev)))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

exception Stop of string list

(* Condition evaluation: a condition that cannot be evaluated (variable
   optimized out at the stop site) stops with a note, like gdb's "Error
   in testing breakpoint condition" behaviour. *)
let eval_cond (s : t) (st : Vm.state) (c : cond) =
  match int_of_string_opt (sample_value s st c.c_var) with
  | None -> `Unevaluable
  | Some v ->
      let holds =
        match c.c_op with
        | "==" -> v = c.c_value
        | "!=" -> v <> c.c_value
        | "<" -> v < c.c_value
        | "<=" -> v <= c.c_value
        | ">" -> v > c.c_value
        | ">=" -> v >= c.c_value
        | _ -> false
      in
      if holds then `Stop else `Skip

let hit_breakpoint (s : t) (st : Vm.state) pc =
  match
    List.find_opt (fun b -> List.mem pc b.bp_addrs) s.breakpoints
  with
  | None -> None
  | Some b -> (
      let consume note =
        if b.bp_temporary then
          s.breakpoints <- List.filter (fun x -> x != b) s.breakpoints;
        Some (b, note)
      in
      match b.bp_cond with
      | None -> consume None
      | Some c -> (
          match eval_cond s st c with
          | `Stop -> consume None
          | `Skip -> None
          | `Unevaluable ->
              consume
                (Some
                   (Printf.sprintf
                      "note: condition %s %s %d could not be evaluated (%s = %s)"
                      c.c_var c.c_op c.c_value c.c_var
                      (sample_value s st c.c_var)))))

(* The lines a breakpoint stop prints, wherever it is hit: the
   condition note, if any, then the stop. *)
let breakpoint_report (s : t) (st : Vm.state) (b, note) =
  Option.to_list note
  @ [
      Printf.sprintf "%s %d, %s"
        (if b.bp_temporary then "temporary breakpoint" else "breakpoint")
        b.bp_line (stop_report s st);
    ]

(* Run until [stop_here] says stop, a breakpoint is hit, or the program
   exits. [skip_bp_line] suppresses breakpoint stops while still on that
   source line, so stepping off a breakpointed multi-location line does
   not immediately re-trigger it (gdb's behaviour). *)
let resume ?skip_bp_line (s : t) (st : Vm.state) ~stop_here =
  let opts = Vm.default_opts in
  (* Breakpoints re-arm once execution leaves [skip_bp_line] at the
     starting frame depth or shallower: a loop coming back to the line
     stops again, but a call made *from* the line (and the line's
     post-call locations) does not re-trigger it. *)
  let armed = ref (skip_bp_line = None) in
  let depth0 = List.length st.Vm.frames in
  try
    while not st.Vm.halted do
      (try Vm.step st opts None with Exit -> ());
      if st.Vm.halted then raise (Stop [ exit_report st ]);
      if
        (not !armed)
        && cur_line s st <> skip_bp_line
        && List.length st.Vm.frames <= depth0
      then armed := true;
      (match if !armed then hit_breakpoint s st st.Vm.pc else None with
      | Some hit -> raise (Stop (breakpoint_report s st hit))
      | None -> ());
      (* Software watchpoints: re-sample after every instruction, like
         gdb without hardware debug registers. Sampling is frame-scoped:
         skipped inside callees, and leaving the owning frame deletes
         the watchpoint. *)
      let depth_now = List.length st.Vm.frames in
      List.iter
        (fun w ->
          if depth_now < w.wp_depth then begin
            s.watchpoints <- List.filter (fun x -> x != w) s.watchpoints;
            raise
              (Stop
                 [
                   Printf.sprintf
                     "watchpoint on %s deleted (program left its frame)"
                     w.wp_name;
                   stop_report s st;
                 ])
          end
          else if depth_now = w.wp_depth then begin
            let now = sample_value s st w.wp_name in
            if now <> w.wp_last then begin
              let old = w.wp_last in
              w.wp_last <- now;
              raise
                (Stop
                   [
                     Printf.sprintf "watchpoint: %s" w.wp_name;
                     Printf.sprintf "  old = %s" old;
                     Printf.sprintf "  new = %s" now;
                     stop_report s st;
                   ])
            end
          end)
        s.watchpoints;
      if stop_here st then raise (Stop [ stop_report s st ])
    done;
    [ exit_report st ]
  with
  | Stop lines -> lines
  | Vm.Budget_exhausted ->
      s.running <- false;
      [ "[program timed out]" ]
  | Vm.Runtime_error m ->
      s.running <- false;
      [ "[runtime error: " ^ m ^ "]" ]

let finish_stop (s : t) (st : Vm.state) lines =
  if st.Vm.halted then begin
    s.running <- false;
    s.st <- None
  end;
  lines

let require_running (s : t) f =
  match s.st with
  | Some st when s.running && not st.Vm.halted -> f st
  | _ -> [ "the program is not running (use: run [inputs])" ]

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)

let addrs_of_line (s : t) line =
  let rec collect = function
    | [] -> []
    | (e : Dwarfish.line_entry) :: rest ->
        (if e.Dwarfish.line = line then [ e.Dwarfish.addr ] else [])
        @ collect rest
  in
  collect s.bin.Emit.debug.Dwarfish.line_table

let cmd_break ?cond (s : t) line ~temporary =
  match addrs_of_line s line with
  | [] ->
      [
        Printf.sprintf
          "no code at line %d (line not in the binary's line table)" line;
      ]
  | addrs ->
      s.breakpoints <-
        { bp_line = line; bp_addrs = addrs; bp_temporary = temporary;
          bp_cond = cond }
        :: List.filter (fun b -> b.bp_line <> line) s.breakpoints;
      [
        Printf.sprintf "%s at line %d (%d location%s)%s"
          (if temporary then "temporary breakpoint" else "breakpoint")
          line (List.length addrs)
          (if List.length addrs = 1 then "" else "s")
          (match cond with
          | Some c -> Printf.sprintf " if %s %s %d" c.c_var c.c_op c.c_value
          | None -> "");
      ]

let cmd_watch (s : t) name =
  let known =
    List.exists
      (fun (vi : Dwarfish.var_info) -> vi.Dwarfish.vi_var.Ir.name = name)
      s.bin.Emit.debug.Dwarfish.vars
  in
  if not known then
    [ Printf.sprintf "no symbol \"%s\" in the debug info" name ]
  else begin
    let baseline, depth =
      match s.st with
      | Some st when s.running ->
          (sample_value s st name, List.length st.Vm.frames)
      | _ -> ("<not visible>", 1)
    in
    s.watchpoints <-
      { wp_name = name; wp_last = baseline; wp_depth = depth }
      :: List.filter (fun w -> w.wp_name <> name) s.watchpoints;
    [ Printf.sprintf "watchpoint on %s (software: checked every instruction)" name ]
  end

let cmd_unwatch (s : t) name =
  let before = List.length s.watchpoints in
  s.watchpoints <- List.filter (fun w -> w.wp_name <> name) s.watchpoints;
  if List.length s.watchpoints < before then
    [ Printf.sprintf "deleted watchpoint on %s" name ]
  else [ Printf.sprintf "no watchpoint on %s" name ]

let cmd_info_watchpoints (s : t) =
  match s.watchpoints with
  | [] -> [ "no watchpoints" ]
  | ws ->
      List.map
        (fun w -> Printf.sprintf "%s = %s" w.wp_name w.wp_last)
        (List.sort compare (List.map (fun w -> w) ws))

let cmd_delete (s : t) line =
  let before = List.length s.breakpoints in
  s.breakpoints <- List.filter (fun b -> b.bp_line <> line) s.breakpoints;
  if List.length s.breakpoints < before then
    [ Printf.sprintf "deleted breakpoint at line %d" line ]
  else [ Printf.sprintf "no breakpoint at line %d" line ]

let cmd_run (s : t) input =
  let st = Vm.init_state s.bin ~entry:s.entry ~args:[] ~input in
  s.st <- Some st;
  s.running <- true;
  List.iter
    (fun w ->
      w.wp_last <- sample_value s st w.wp_name;
      w.wp_depth <- List.length st.Vm.frames)
    s.watchpoints;
  (* Stop before executing the entry address if it carries a breakpoint. *)
  match hit_breakpoint s st st.Vm.pc with
  | Some hit -> breakpoint_report s st hit
  | None -> finish_stop s st (resume s st ~stop_here:(fun _ -> false))

let cmd_continue (s : t) =
  require_running s (fun st ->
      finish_stop s st
        (resume ?skip_bp_line:(cur_line s st) s st ~stop_here:(fun _ -> false)))

let cmd_step (s : t) ~over =
  require_running s (fun st ->
      let line0 = cur_line s st in
      let depth0 = List.length st.Vm.frames in
      let stop_here (st : Vm.state) =
        let depth = List.length st.Vm.frames in
        let at_line = cur_line s st in
        at_line <> None && at_line <> line0
        && (not over || depth <= depth0)
        (* entering a deeper frame with step lands on its first line *)
      in
      finish_stop s st (resume ?skip_bp_line:line0 s st ~stop_here))

let cmd_finish (s : t) =
  require_running s (fun st ->
      let depth0 = List.length st.Vm.frames in
      if depth0 <= 1 then [ "cannot finish the outermost frame" ]
      else
        let stop_here (st : Vm.state) = List.length st.Vm.frames < depth0 in
        finish_stop s st (resume s st ~stop_here))

let cmd_print (s : t) name =
  require_running s (fun st ->
      match pick_visible s st name with
      | Some (v, where, is_array) ->
          [
            Printf.sprintf "%s = %s" v.Ir.name
              (materialize st where ~is_array);
          ]
      | None ->
          if
            List.exists
              (fun (v : Ir.var_id) -> v.Ir.name = name)
              (vars_of_current_func s st)
          then [ Printf.sprintf "%s = <optimized out>" name ]
          else
            [ Printf.sprintf "no symbol \"%s\" in current context" name ])

let cmd_info_locals (s : t) =
  require_running s (fun st ->
      let fn = cur_func s st in
      match visible_vars s st with
      | [] -> [ "no locals visible here" ]
      | vars ->
          List.map
            (fun ((v : Ir.var_id), where, is_array) ->
              Printf.sprintf "%s%s = %s"
                (if v.Ir.origin = fn then "" else v.Ir.origin ^ "::")
                v.Ir.name
                (materialize st where ~is_array))
            (List.sort compare vars))

let cmd_info_line (s : t) =
  require_running s (fun st ->
      match cur_line s st with
      | Some l -> [ Printf.sprintf "line %d in %s" l (cur_func s st) ]
      | None -> [ Printf.sprintf "no line for address %d" st.Vm.pc ])

let cmd_info_breakpoints (s : t) =
  match s.breakpoints with
  | [] -> [ "no breakpoints" ]
  | bps ->
      List.map
        (fun b ->
          Printf.sprintf "line %-5d %-9s %d location%s%s" b.bp_line
            (if b.bp_temporary then "temporary" else "keep")
            (List.length b.bp_addrs)
            (if List.length b.bp_addrs = 1 then "" else "s")
            (match b.bp_cond with
            | Some c -> Printf.sprintf "  if %s %s %d" c.c_var c.c_op c.c_value
            | None -> ""))
        (List.sort (fun a b -> compare a.bp_line b.bp_line) bps)

let cmd_backtrace (s : t) =
  require_running s (fun st ->
      (* A caller frame is suspended at the call site: the instruction
         before the return address recorded in the frame above it. *)
      let callee_ret = ref None in
      List.mapi
        (fun i (f : Vm.frame) ->
          let where =
            if i = 0 then
              match cur_line s st with
              | Some l -> Printf.sprintf " at line %d" l
              | None -> ""
            else
              match !callee_ret with
              | Some ret_pc
                when ret_pc > 0 && ret_pc <= Array.length s.bin.Emit.line_of
                -> (
                  match s.bin.Emit.line_of.(ret_pc - 1) with
                  | Some l -> Printf.sprintf " at line %d (call site)" l
                  | None -> "")
              | _ -> ""
          in
          callee_ret := Some f.Vm.fr_ret_pc;
          Printf.sprintf "#%d %s%s" i f.Vm.fr_fi.Emit.fi_name where)
        st.Vm.frames)

(* ------------------------------------------------------------------ *)
(* Parsing and dispatch                                                *)

let parse_ints str =
  if String.trim str = "" then []
  else
    String.split_on_char ',' str
    |> List.map (fun x -> int_of_string (String.trim x))

let exec (s : t) command : string list =
  let words =
    String.split_on_char ' ' (String.trim command)
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [] -> []
  | [ ("break" | "b") ; l ] -> (
      match int_of_string_opt l with
      | Some line -> cmd_break s line ~temporary:false
      | None -> [ "usage: break <line> [if <var> <op> <int>]" ])
  | [ ("break" | "b"); l; "if"; var; op; value ] -> (
      match
        ( int_of_string_opt l,
          List.mem op [ "=="; "!="; "<"; "<="; ">"; ">=" ],
          int_of_string_opt value )
      with
      | Some line, true, Some v ->
          cmd_break s line ~temporary:false
            ~cond:{ c_var = var; c_op = op; c_value = v }
      | _ -> [ "usage: break <line> [if <var> <op> <int>]" ])
  | [ "tbreak"; l ] -> (
      match int_of_string_opt l with
      | Some line -> cmd_break s line ~temporary:true
      | None -> [ "usage: tbreak <line>" ])
  | [ "delete"; l ] -> (
      match int_of_string_opt l with
      | Some line -> cmd_delete s line
      | None -> [ "usage: delete <line>" ])
  | "run" :: rest -> (
      match parse_ints (String.concat "" rest) with
      | input -> cmd_run s input
      | exception _ -> [ "usage: run [i1,i2,...]" ])
  | [ ("continue" | "c") ] -> cmd_continue s
  | [ ("step" | "s") ] -> cmd_step s ~over:false
  | [ ("next" | "n") ] -> cmd_step s ~over:true
  | [ "finish" ] -> cmd_finish s
  | [ ("print" | "p"); name ] -> cmd_print s name
  | [ "watch"; name ] -> cmd_watch s name
  | [ "unwatch"; name ] -> cmd_unwatch s name
  | [ "info"; "watchpoints" ] -> cmd_info_watchpoints s
  | [ "info"; "locals" ] -> cmd_info_locals s
  | [ "info"; "line" ] -> cmd_info_line s
  | [ "info"; "breakpoints" ] -> cmd_info_breakpoints s
  | [ ("backtrace" | "bt") ] -> cmd_backtrace s
  | [ "quit" ] ->
      s.running <- false;
      s.st <- None;
      [ "quit" ]
  | _ -> [ "unknown command: " ^ command ]

(** [script bin ~entry commands] replays a batch script (the gdb -x
    analog) and returns the full transcript: each command echoed with a
    ["(dbg) "] prompt, followed by its output. *)
let script (bin : Emit.binary) ~entry commands =
  let s = create bin ~entry in
  let buf = Buffer.create 1024 in
  List.iter
    (fun c ->
      Buffer.add_string buf ("(dbg) " ^ c ^ "\n");
      List.iter
        (fun l -> Buffer.add_string buf (l ^ "\n"))
        (exec s c))
    commands;
  Buffer.contents buf
