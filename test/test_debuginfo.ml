(** Property tests over emitted debug information: structural invariants
    that every binary, at every configuration, must satisfy. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain
module ME = Debugtuner.Measure_engine

let all_configs =
  List.concat_map
    (fun comp ->
      List.map (fun l -> C.make comp l) (C.standard_levels comp))
    [ C.Gcc; C.Clang ]
  @ [ C.make C.Gcc C.O0 ]

let check_invariants (bin : Emit.binary) =
  let code_len = Array.length bin.Emit.code in
  (* Line-table entries point at real addresses, sorted. *)
  let rec sorted = function
    | (a : Dwarfish.line_entry) :: (b :: _ as rest) ->
        a.Dwarfish.addr <= b.Dwarfish.addr && sorted rest
    | _ -> true
  in
  if not (sorted bin.Emit.debug.Dwarfish.line_table) then
    failwith "line table unsorted";
  List.iter
    (fun (e : Dwarfish.line_entry) ->
      if e.Dwarfish.addr < 0 || e.Dwarfish.addr >= code_len then
        failwith "line entry out of code range";
      if e.Dwarfish.line <= 0 then failwith "non-positive line")
    bin.Emit.debug.Dwarfish.line_table;
  (* Function regions tile the address space. *)
  Array.iteri
    (fun i (fi : Emit.func_info) ->
      if fi.Emit.fi_entry > fi.Emit.fi_end then failwith "inverted function";
      if i > 0 then begin
        let prev = bin.Emit.funcs.(i - 1) in
        if prev.Emit.fi_end <> fi.Emit.fi_entry then
          failwith "functions not contiguous"
      end)
    bin.Emit.funcs;
  (* Location ranges are well-formed and inside the code. *)
  List.iter
    (fun (vi : Dwarfish.var_info) ->
      List.iter
        (fun (r : Dwarfish.range) ->
          if r.Dwarfish.lo >= r.Dwarfish.hi then failwith "empty range";
          if r.Dwarfish.lo < 0 || r.Dwarfish.hi > code_len then
            failwith "range outside code")
        vi.Dwarfish.vi_ranges)
    bin.Emit.debug.Dwarfish.vars;
  (* Every variable range lies within one function's region (debug info
     never spans functions). *)
  List.iter
    (fun (vi : Dwarfish.var_info) ->
      List.iter
        (fun (r : Dwarfish.range) ->
          let containing =
            Array.to_list bin.Emit.funcs
            |> List.filter (fun (fi : Emit.func_info) ->
                   r.Dwarfish.lo >= fi.Emit.fi_entry
                   && r.Dwarfish.hi <= fi.Emit.fi_end)
          in
          if containing = [] then failwith "range spans functions")
        vi.Dwarfish.vi_ranges)
    bin.Emit.debug.Dwarfish.vars

let qcheck_invariants =
  QCheck.Test.make ~name:"debug info structurally valid on random programs"
    ~count:20
    QCheck.(int_range 1 30_000)
    (fun seed ->
      let src = Synth.generate ~seed in
      let ast = Minic.Typecheck.parse_and_check src in
      List.for_all
        (fun cfg ->
          let ast = ast in
          let bin = T.compile ast ~config:cfg ~roots:[ "main" ] in
          check_invariants bin;
          true)
        all_configs)

let test_suite_invariants () =
  List.iter
    (fun (p : Suite_types.sprogram) ->
      let ast = Suite_types.ast p in
      List.iter
        (fun cfg ->
          let bin = T.compile ast ~config:cfg ~roots:(Suite_types.roots p) in
          check_invariants bin)
        all_configs)
    Programs.all

let test_o0_lines_cover_every_statement () =
  (* At O0 every executed statement line must be steppable. *)
  let p = Programs.find "wasm3" in
  let ast = Suite_types.ast p in
  let bin = T.compile ast ~config:(C.make C.Gcc C.O0) ~roots:(Suite_types.roots p) in
  let dr = Minic.Defranges.analyze ast in
  let steppable = Dwarfish.steppable_lines bin.Emit.debug in
  List.iter
    (fun (f : Minic.Ast.func) ->
      Minic.Defranges.Int_set.iter
        (fun line ->
          Alcotest.(check bool)
            (Printf.sprintf "line %d steppable at O0" line)
            true (List.mem line steppable))
        (Minic.Defranges.statement_lines dr ~func:f.Minic.Ast.fname))
    ast.Minic.Ast.funcs

let test_optimization_shrinks_debug_monotonically () =
  (* Hybrid product at Og must be >= O3 on every suite program (gcc). *)
  let engine = ME.create () in
  List.iter
    (fun name ->
      let prepared = Debugtuner.Evaluation.prepare (Programs.find name) in
      let product lvl = ME.product engine prepared (C.make C.Gcc lvl) in
      Alcotest.(check bool)
        (name ^ ": Og at least as debuggable as O3")
        true
        (product C.Og >= product C.O3 -. 1e-9))
    [ "zlib"; "libexif"; "lighttpd" ]

let test_available_at_respects_usability () =
  let p = Programs.find "libpng" in
  let ast = Suite_types.ast p in
  let bin = T.compile ast ~config:(C.make C.Gcc C.O2) ~roots:(Suite_types.roots p) in
  (* No variable reported available may rest on an unusable range. *)
  Array.iteri
    (fun addr _ ->
      List.iter
        (fun ((v : Ir.var_id), _) ->
          let ranges = Dwarfish.var_ranges bin.Emit.debug v in
          let usable_covers =
            List.exists
              (fun (r : Dwarfish.range) ->
                r.Dwarfish.usable && addr >= r.Dwarfish.lo && addr < r.Dwarfish.hi)
              ranges
          in
          Alcotest.(check bool) "availability implies usable range" true
            usable_covers)
        (Dwarfish.available_at bin.Emit.debug addr))
    bin.Emit.code

(* [Dwarfish.Vars] leaves the [vars] that one [add_var] per range, in
   the same order, would leave — down to which [var_id] value (the
   first one added) each variable keeps and which range values its
   list holds, since [Emit.full_digest] marshals them with sharing. *)
let qcheck_vars_to_list =
  QCheck.Test.make ~name:"Vars.to_list = one add_var per range" ~count:200
    QCheck.(
      list (triple (int_range 0 7) bool (pair (int_range 0 50) (int_range 1 10))))
    (fun adds ->
      (* A fresh [var_id] value per add: equal by content, never shared. *)
      let var i =
        {
          Ir.origin = (if i mod 2 = 0 then "f" else "g");
          name = "v" ^ string_of_int (i / 2);
        }
      in
      let range (lo, len) =
        {
          Dwarfish.lo;
          hi = lo + len;
          where = Dwarfish.In_reg (lo mod 8);
          usable = lo mod 3 <> 0;
        }
      in
      let one_by_one = Dwarfish.empty () and gathered = Dwarfish.Vars.create () in
      List.iter
        (fun (i, is_array, r) ->
          let v = var i and r = range r in
          Dwarfish.add_var one_by_one ~var:v ~is_array [ r ];
          Dwarfish.Vars.add gathered ~var:v ~is_array r)
        adds;
      let built = Dwarfish.Vars.to_list gathered in
      built = one_by_one.Dwarfish.vars
      && List.for_all2
           (fun (a : Dwarfish.var_info) (b : Dwarfish.var_info) ->
             a.Dwarfish.vi_var == b.Dwarfish.vi_var
             && List.for_all2 ( == ) a.Dwarfish.vi_ranges b.Dwarfish.vi_ranges)
           built one_by_one.Dwarfish.vars)

let tests =
  [
    QCheck_alcotest.to_alcotest qcheck_invariants;
    Alcotest.test_case "suite binaries structurally valid" `Quick
      test_suite_invariants;
    Alcotest.test_case "O0 steppability complete" `Quick
      test_o0_lines_cover_every_statement;
    Alcotest.test_case "debug quality monotone Og>=O3" `Quick
      test_optimization_shrinks_debug_monotonically;
    Alcotest.test_case "available_at usability" `Quick
      test_available_at_respects_usability;
    QCheck_alcotest.to_alcotest qcheck_vars_to_list;
  ]
