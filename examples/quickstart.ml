(* Quickstart: compile a MiniC program at O0 and O2, run both, extract
   debug traces, and compute the paper's debug-information metrics.

     dune exec examples/quickstart.exe

   This walks the public API end to end:
   parse -> compile (Toolchain) -> execute (Vm) -> trace (Debugger) ->
   measure (Metrics). *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain

let source =
  {|
int checksum(int seed) {
  int acc = seed;
  int i = 0;
  while (i < 8) {
    int term = (acc << 1) ^ i;
    acc = acc + term % 97;
    i = i + 1;
  }
  return acc;
}

int main() {
  int total = 0;
  while (!eof()) {
    int v = input();
    total = total + checksum(v);
  }
  output(total);
  return 0;
}
|}

let () =
  print_endline "== DebugTuner quickstart ==\n";
  (* 1. Parse and semantically check the program. *)
  let ast = Minic.Typecheck.parse_and_check source in
  let roots = [ "main" ] in

  (* 2. Compile the unoptimized baseline and an optimized build. *)
  let o0 = T.compile ast ~config:(C.make C.Gcc C.O0) ~roots in
  let o2 = T.compile ast ~config:(C.make C.Gcc C.O2) ~roots in
  Printf.printf "code size: %d instructions at O0, %d at O2\n"
    (Array.length o0.Emit.code) (Array.length o2.Emit.code);

  (* 3. Run both on the same input: identical output, different cost. *)
  let input = [ 3; 14; 15; 92; 65 ] in
  let r0 = Vm.run o0 ~entry:"main" ~input Vm.default_opts in
  let r2 = Vm.run o2 ~entry:"main" ~input Vm.default_opts in
  assert (r0.Vm.output = r2.Vm.output);
  Printf.printf "output: [%s]  (identical at both levels)\n"
    (String.concat "; " (List.map string_of_int r0.Vm.output));
  Printf.printf "cost: %d cycles at O0, %d at O2  (speedup %.2fx)\n\n"
    r0.Vm.cost r2.Vm.cost
    (float_of_int r0.Vm.cost /. float_of_int r2.Vm.cost);

  (* 4. Debug sessions: temporary breakpoint on every line-table line. *)
  let t0 = Debugger.trace (Vm.load o0) ~entry:"main" ~inputs:[ input ] in
  let t2 = Debugger.trace (Vm.load o2) ~entry:"main" ~inputs:[ input ] in
  Printf.printf "debugger stepped %d lines at O0, %d at O2\n"
    (List.length (Debugger.stepped_lines t0))
    (List.length (Debugger.stepped_lines t2));
  List.iter
    (fun line ->
      let vars set =
        Debugger.vars_at set line
        |> Debugger.Var_set.elements
        |> List.map (fun (v : Ir.var_id) -> v.Ir.name)
        |> String.concat ","
      in
      Printf.printf "  line %2d: O0 shows {%s}  O2 shows {%s}\n" line (vars t0)
        (vars t2))
    (Debugger.stepped_lines t0);

  (* 5. The four metric methods of the paper's Section II. *)
  let m =
    Metrics.all
      {
        Metrics.defranges = Minic.Defranges.analyze ast;
        unopt_trace = t0;
        opt_trace = t2;
        unopt_bin = o0;
        opt_bin = o2;
      }
  in
  let show name (s : Metrics.score) =
    Printf.printf "  %-10s availability=%.4f line-coverage=%.4f product=%.4f\n"
      name s.Metrics.availability s.Metrics.line_coverage s.Metrics.product
  in
  print_endline "\nmetrics for the O2 build (vs the O0 baseline):";
  show "static" m.Metrics.m_static;
  show "static-dbg" m.Metrics.m_static_dbg;
  show "dynamic" m.Metrics.m_dynamic;
  show "hybrid" m.Metrics.m_hybrid;
  print_endline "\nThe hybrid product is the paper's headline score."
