(** Tests for [Ir.Snapshot] and the resumable pipeline driver
    ([Toolchain.start] / [advance] / [resume]): a resumed compilation
    must be byte-identical ([Emit.binary.full_digest]) to a
    straight-line [Toolchain.compile]; checkpoints must be forkable and
    mutation-isolated; snapshot digests must be independent of
    [Hashtbl] iteration order — including after the inliner runs, whose
    caller order used to follow bucket order. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain

let ast_of ~seed = Minic.Typecheck.parse_and_check (Synth.generate ~seed)
let roots = [ "main" ]

let digest (bin : Emit.binary) = bin.Emit.full_digest

let check_same name a b = Alcotest.(check string) name (digest a) (digest b)

(* ------------------------------------------------------------------ *)
(* Straight-line vs resumed compilation                                *)

let test_resume_identity () =
  List.iter
    (fun (seed, config) ->
      let ast = ast_of ~seed in
      let label = Printf.sprintf "seed %d, %s" seed (C.name config) in
      let straight = T.compile ast ~config ~roots in
      let cp0 = T.start ast ~config ~roots in
      Alcotest.(check int) (label ^ ": root index") 0 (T.checkpoint_index cp0);
      check_same (label ^ ": resume from root") straight
        (T.resume ~from:cp0 config);
      let n = T.pipeline_length config in
      if n > 0 then begin
        let mid = T.advance ~upto:(n / 2) cp0 config in
        check_same (label ^ ": resume from middle") straight
          (T.resume ~from:mid config);
        let full = T.advance ~upto:n mid config in
        Alcotest.(check int) (label ^ ": full index") n
          (T.checkpoint_index full);
        check_same (label ^ ": resume past last pass") straight
          (T.resume ~from:full config)
      end)
    [
      (1, C.make C.Gcc C.O2);
      (1, C.make C.Clang C.O3);
      (2, C.make C.Gcc C.O1);
      (3, C.make C.Gcc C.O0);
    ]

(* A checkpoint is never consumed: several configurations of one family
   can fork from the same snapshot, and an earlier resume must not
   perturb a later one. *)
let test_checkpoint_forkable () =
  let ast = ast_of ~seed:4 in
  let base = C.make C.Gcc C.O2 in
  let nodce = C.make ~disabled:[ "dce" ] C.Gcc C.O2 in
  let cp0 = T.start ast ~config:base ~roots in
  let from_cp0 config = T.resume ~from:cp0 config in
  check_same "disabled-dce fork" (T.compile ast ~config:nodce ~roots)
    (from_cp0 nodce);
  check_same "baseline fork after sibling resume"
    (T.compile ast ~config:base ~roots)
    (from_cp0 base);
  check_same "same fork twice" (from_cp0 base) (from_cp0 base)

(* ------------------------------------------------------------------ *)
(* Mutation isolation                                                  *)

let test_snapshot_isolation () =
  let ast = ast_of ~seed:5 in
  let prog = Lower.lower_program ast in
  let snap = Ir.Snapshot.capture prog in
  let d0 = Ir.Snapshot.digest snap in
  (* Mutating the captured program must not leak into the snapshot. *)
  Hashtbl.iter (fun _ fn -> Mem2reg.run fn) prog.Ir.funcs;
  Cleanup.run_program prog;
  Alcotest.(check string) "digest survives source mutation" d0
    (Ir.Snapshot.digest snap);
  (* Mutating one restored copy must not leak into a second restore. *)
  let r1 = Ir.Snapshot.restore snap in
  Hashtbl.iter (fun _ fn -> Mem2reg.run fn) r1.Ir.funcs;
  Cleanup.run_program r1;
  let r2 = Ir.Snapshot.restore snap in
  Alcotest.(check string) "second restore unaffected" d0
    (Ir.Snapshot.digest (Ir.Snapshot.capture r2));
  Alcotest.(check bool) "size estimate positive" true
    (Ir.Snapshot.size_bytes snap > 0)

(* ------------------------------------------------------------------ *)
(* Iteration-order independence                                        *)

(* The same functions inserted into [funcs] in a different order land in
   different buckets; nothing downstream may observe it. *)
let reversed_funcs (p : Ir.program) =
  let fns =
    Hashtbl.fold (fun name fn acc -> (name, fn) :: acc) p.Ir.funcs []
    |> List.sort compare |> List.rev
  in
  let funcs = Hashtbl.create 16 in
  List.iter (fun (name, fn) -> Hashtbl.replace funcs name fn) fns;
  { p with Ir.funcs = funcs }

let test_digest_order_independence () =
  let ast = ast_of ~seed:6 in
  let prog = Lower.lower_program ast in
  Alcotest.(check bool) "several functions" true
    (Hashtbl.length prog.Ir.funcs > 1);
  Alcotest.(check string) "insertion order invisible"
    (Ir.Snapshot.digest (Ir.Snapshot.capture prog))
    (Ir.Snapshot.digest (Ir.Snapshot.capture (reversed_funcs prog)))

(* Regression for the inliner's caller order: it used to iterate
   [prog.funcs] in bucket order, so two insertion orders of the same
   program could inline in different sequences and diverge. Run the
   whole gcc -O2 IR pipeline over both orders and require identical
   results. *)
let run_ir_pipeline config prog =
  let env =
    {
      T.prog;
      roots;
      pure = (fun _ -> false);
      profile = None;
      enabled = C.enabled config;
    }
  in
  Hashtbl.iter (fun _ fn -> Mem2reg.run fn) prog.Ir.funcs;
  Cleanup.run_program prog;
  List.iter
    (fun e ->
      match e with
      | T.Ir_pass (name, f) when C.enabled config name ->
          f env;
          Cleanup.run_program prog
      | T.Ir_pass _ | T.Backend_flag _ -> ())
    (T.pipeline config)

let test_pipeline_order_regression () =
  let config = C.make C.Gcc C.O2 in
  List.iter
    (fun seed ->
      let ast = ast_of ~seed in
      let a = Lower.lower_program ast in
      let b = reversed_funcs (Lower.lower_program ast) in
      run_ir_pipeline config a;
      run_ir_pipeline config b;
      Alcotest.(check string)
        (Printf.sprintf "seed %d: pipeline result order-independent" seed)
        (Ir.Snapshot.digest (Ir.Snapshot.capture a))
        (Ir.Snapshot.digest (Ir.Snapshot.capture b)))
    [ 7; 8; 9 ]

(* ------------------------------------------------------------------ *)
(* Checkpoint metadata and misuse                                      *)

let test_checkpoint_guards () =
  let ast = ast_of ~seed:10 in
  let gcc = C.make C.Gcc C.O2 in
  let clang = C.make C.Clang C.O2 in
  let cp = T.start ast ~config:gcc ~roots in
  Alcotest.(check bool) "digest non-empty" true
    (String.length (T.checkpoint_digest cp) > 0);
  Alcotest.check_raises "family mismatch"
    (Invalid_argument
       "Toolchain.resume: checkpoint belongs to another pipeline family")
    (fun () -> ignore (T.resume ~from:cp clang : Emit.binary));
  Alcotest.check_raises "rewind refused"
    (Invalid_argument "Toolchain.advance: upto precedes the checkpoint")
    (fun () ->
      ignore (T.advance ~upto:1 (T.advance ~upto:3 cp gcc) gcc : T.checkpoint))

let tests =
  [
    Alcotest.test_case "resume = straight-line compile" `Quick
      test_resume_identity;
    Alcotest.test_case "checkpoints fork" `Quick test_checkpoint_forkable;
    Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
    Alcotest.test_case "digest order-independence" `Quick
      test_digest_order_independence;
    Alcotest.test_case "pipeline order regression" `Quick
      test_pipeline_order_regression;
    Alcotest.test_case "checkpoint guards" `Quick test_checkpoint_guards;
  ]
