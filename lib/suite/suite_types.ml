(** Test-suite program descriptions.

    A program is MiniC source text plus one or more harnesses — entry
    functions that read the test input with [input()]/[eof()], mirroring
    OSS-Fuzz fuzz targets. [h_seeds] are the hand-written seed inputs a
    project ships with its fuzzers. *)

type harness = {
  h_name : string;
  h_entry : string;  (** entry function; takes no parameters *)
  h_seeds : int list list;
}

type sprogram = {
  p_name : string;
  p_source : string;
  p_harnesses : harness list;
}

(** Parse and check a program, and check that it defines every harness
    entry. A malformed source raises [Minic]'s own [Parser.Error],
    [Lexer.Error] or [Typecheck.Error]; a missing entry fails with
    ["MiniC source must define <entry>()"]. Suite sources are part of
    the repository and always pass; a source a client sent is first
    parsed here, wherever its AST is first needed. *)
let ast (p : sprogram) =
  let ast = Minic.Typecheck.parse_and_check p.p_source in
  List.iter
    (fun h ->
      if Minic.Ast.find_func ast h.h_entry = None then
        failwith (Printf.sprintf "MiniC source must define %s()" h.h_entry))
    p.p_harnesses;
  ast

let roots (p : sprogram) = List.map (fun h -> h.h_entry) p.p_harnesses
