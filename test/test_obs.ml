(** Tests for the observability layer ([Obs] + [Instrument]): span
    nesting and self-time attribution, the zero-cost disabled path
    (no observable allocation, byte-identical artifacts), Chrome
    trace_event export round-tripping through the validator, and the
    per-pass profile deltas telescoping to the whole-compile deltas
    reported by [Toolchain.pipeline_trace]. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain

(* Every test installs and tears down its own session; a leaked session
   would poison the digest-identity test, so bracket defensively. *)
let with_session f =
  ignore (Obs.stop ());
  Obs.start ();
  Fun.protect ~finally:(fun () -> ignore (Obs.stop ())) f

let stop_exn () =
  match Obs.stop () with
  | Some s -> s
  | None -> Alcotest.fail "expected an active session"

let spin () =
  (* Busy loop long enough to register on the monotonic clock. *)
  let t0 = Obs.Clock.now_ns () in
  while Int64.sub (Obs.Clock.now_ns ()) t0 < 100_000L do
    ()
  done

(* ------------------------------------------------------------------ *)
(* Span nesting and self time                                          *)

let test_span_nesting () =
  ignore (Obs.stop ());
  Obs.start ();
  Obs.Span.wrap "outer" (fun () ->
      spin ();
      Obs.Span.wrap "inner" (fun () -> spin ()));
  let s = stop_exn () in
  let evs = Obs.events s in
  Alcotest.(check int) "two events" 2 (List.length evs);
  let names = List.map (fun e -> e.Obs.ev_name) evs in
  (* wrap records at completion: inner closes before outer. *)
  Alcotest.(check (list string)) "emission order" [ "inner"; "outer" ] names;
  (* Timestamps are monotone relative to session start. *)
  List.iter
    (fun e -> Alcotest.(check bool) "ts >= 0" true (e.Obs.ev_ts >= 0L))
    evs;
  let rows = Obs.self_times s in
  let find n = List.find (fun r -> r.Obs.sr_name = n) rows in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check bool) "inner nested inside outer" true
    (outer.Obs.sr_total_ns >= inner.Obs.sr_total_ns);
  (* Self time excludes the nested span but never goes negative. *)
  Alcotest.(check bool) "outer self = total - inner" true
    (outer.Obs.sr_self_ns
    <= Int64.sub outer.Obs.sr_total_ns inner.Obs.sr_total_ns);
  Alcotest.(check bool) "self non-negative" true
    (List.for_all (fun r -> r.Obs.sr_self_ns >= 0L) rows)

let test_span_wrap_reraises () =
  ignore (Obs.stop ());
  Obs.start ();
  (try Obs.Span.wrap "boom" (fun () -> failwith "boom") with Failure _ -> ());
  let s = stop_exn () in
  (* The span is still recorded, and the document still validates. *)
  Alcotest.(check int) "span recorded despite raise" 1
    (List.length (Obs.events s));
  match Obs.validate_chrome (Obs.to_chrome_json s) with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m

let test_counters () =
  ignore (Obs.stop ());
  (* Disabled: counting is a no-op, not an error. *)
  Obs.count "never";
  Obs.start ();
  Obs.count "a";
  Obs.count ~n:41 "a";
  Obs.count "b";
  Alcotest.(check (list (pair string int)))
    "live counters" [ ("a", 42); ("b", 1) ] (Obs.current_counters ());
  let s = stop_exn () in
  Alcotest.(check (list (pair string int)))
    "stopped counters" [ ("a", 42); ("b", 1) ] (Obs.counters s);
  Alcotest.(check (list (pair string int)))
    "no live counters after stop" [] (Obs.current_counters ())

(* ------------------------------------------------------------------ *)
(* The disabled path                                                   *)

let test_disabled_allocates_nothing () =
  ignore (Obs.stop ());
  let f = fun () -> 17 in
  (* Warm up so any one-time setup is out of the measurement. *)
  ignore (Obs.Span.wrap "warm" f);
  Obs.count "warm";
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Obs.Span.wrap "off" f);
    Obs.count "off";
    ignore (Obs.enabled ())
  done;
  let words = Gc.minor_words () -. before in
  (* 30k API entries: allow a few words of slack (Gc.minor_words itself
     boxes its float result) but nothing per-call. *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled path allocated %.0f words" words)
    true (words < 256.0)

let test_disabled_binaries_byte_identical () =
  let p = Programs.find "zlib" in
  let ast = Suite_types.ast p in
  let roots = Suite_types.roots p in
  let cfg = C.make C.Gcc C.O2 in
  ignore (Obs.stop ());
  let plain = T.compile ast ~config:cfg ~roots in
  let traced =
    with_session (fun () -> T.compile ast ~config:cfg ~roots)
  in
  Alcotest.(check string) "same machine code" plain.Emit.text_digest
    traced.Emit.text_digest;
  Alcotest.(check string) "same full artifact (debug info included)"
    plain.Emit.full_digest traced.Emit.full_digest

(* ------------------------------------------------------------------ *)
(* Chrome export and validation                                        *)

let compile_session () =
  let p = Programs.find "zlib" in
  let ast = Suite_types.ast p in
  ignore (Obs.stop ());
  Obs.start ();
  ignore (T.compile ast ~config:(C.make C.Gcc C.O2) ~roots:(Suite_types.roots p));
  stop_exn ()

let test_chrome_roundtrip () =
  let s = compile_session () in
  let js = Obs.to_chrome_json s in
  match Obs.validate_chrome js with
  | Error m -> Alcotest.fail m
  | Ok v ->
      Alcotest.(check bool) "events checked" true (v.Obs.v_events > 0);
      (* Every profiled pass shows up as at least one named span. *)
      List.iter
        (fun pr ->
          match List.assoc_opt pr.Obs.pr_pass v.Obs.v_spans with
          | Some n when n >= 1 -> ()
          | _ -> Alcotest.failf "no span for pass %s" pr.Obs.pr_pass)
        (Obs.profiles s);
      (* Phases are spans of their own and survive validation too. *)
      List.iter
        (fun phase ->
          match List.assoc_opt ("phase:" ^ phase) v.Obs.v_spans with
          | Some n when n >= 1 -> ()
          | _ -> Alcotest.failf "no span for phase %s" phase)
        [ "ir"; "backend"; "emit" ]

let test_chrome_rejects_corruption () =
  let s = compile_session () in
  let js = Obs.to_chrome_json s in
  let corrupt =
    (* Break the first ph marker: "ph":"X" -> "ph":"Q". *)
    let needle = {|"ph":"X"|} in
    let rec find i =
      if i + String.length needle > String.length js then
        Alcotest.fail "no X event to corrupt"
      else if String.sub js i (String.length needle) = needle then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub js 0 i ^ {|"ph":"Q"|}
    ^ String.sub js
        (i + String.length needle)
        (String.length js - i - String.length needle)
  in
  (match Obs.validate_chrome corrupt with
  | Ok _ -> Alcotest.fail "validator accepted a bad ph"
  | Error _ -> ());
  match Obs.validate_chrome (String.sub js 0 (String.length js / 2)) with
  | Ok _ -> Alcotest.fail "validator accepted truncated JSON"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Per-pass deltas telescope to the whole-compile deltas               *)

let test_deltas_telescope () =
  let p = Programs.find "zlib" in
  let ast = Suite_types.ast p in
  let roots = Suite_types.roots p in
  let cfg = C.make C.Gcc C.O2 in
  ignore (Obs.stop ());
  Obs.start ();
  ignore (T.compile ast ~config:cfg ~roots);
  let s = stop_exn () in
  let trace = T.pipeline_trace ast ~config:cfg ~roots in
  let ir_names =
    List.filter_map
      (fun (name, _) ->
        if Filename.check_suffix name " (backend)" then None else Some name)
      trace
  in
  let sum f =
    List.fold_left
      (fun acc pr ->
        if List.mem pr.Obs.pr_pass ir_names then acc + f pr.Obs.pr_delta
        else acc)
      0 (Obs.profiles s)
  in
  let first = snd (List.hd trace) in
  let last = snd (List.nth trace (List.length trace - 1)) in
  Alcotest.(check int) "instr deltas telescope"
    (last.T.st_instrs - first.T.st_instrs)
    (sum (fun d -> d.Instrument.c_instrs));
  Alcotest.(check int) "line deltas telescope"
    (last.T.st_lines - first.T.st_lines)
    (sum (fun d -> d.Instrument.c_lines))

let test_vm_counters () =
  let p = Programs.find "zlib" in
  let ast = Suite_types.ast p in
  let bin = T.compile ast ~config:(C.make C.Gcc C.O0) ~roots:(Suite_types.roots p) in
  let h = List.hd p.Suite_types.p_harnesses in
  ignore (Obs.stop ());
  Obs.start ();
  let r = Vm.run bin ~entry:h.Suite_types.h_entry ~input:[ 1; 2; 3 ] Vm.default_opts in
  let s = stop_exn () in
  let ctrs = Obs.counters s in
  Alcotest.(check (option int)) "one run" (Some 1) (List.assoc_opt "vm/runs" ctrs);
  Alcotest.(check (option int)) "instr counter matches result"
    (Some r.Vm.instrs)
    (List.assoc_opt "vm/instrs" ctrs);
  Alcotest.(check bool) "vm span recorded" true
    (List.exists (fun e -> e.Obs.ev_name = "vm:run") (Obs.events s))

(* ------------------------------------------------------------------ *)
(* The inter-pass cleanup is a row of its own                          *)

let test_cleanup_row () =
  let p = Programs.find "zlib" in
  let ast = Suite_types.ast p in
  let roots = Suite_types.roots p in
  let cfg = C.make C.Gcc C.O2 in
  ignore (Obs.stop ());
  let plain = T.compile ast ~config:cfg ~roots in
  Obs.start ();
  let traced = T.compile ast ~config:cfg ~roots in
  let s = stop_exn () in
  Alcotest.(check string) "traced binary byte-identical" plain.Emit.full_digest
    traced.Emit.full_digest;
  (* One cleanup after mem2reg, one after every executed IR pass. *)
  let ir_passes =
    List.filter
      (fun (name, _) ->
        name <> "lower" && name <> "mem2reg"
        && not (Filename.check_suffix name " (backend)"))
      (T.pipeline_trace ast ~config:cfg ~roots)
  in
  let expected = List.length ir_passes + 1 in
  (match List.find_opt (fun r -> r.Obs.sr_name = "cleanup") (Obs.self_times s) with
  | Some r -> Alcotest.(check int) "self-time row calls" expected r.Obs.sr_calls
  | None -> Alcotest.fail "no cleanup row in the self-time report");
  let profs = Obs.profiles s in
  let cleanup =
    match List.find_opt (fun pr -> pr.Obs.pr_pass = "cleanup") profs with
    | Some pr -> pr
    | None -> Alcotest.fail "no cleanup row in the per-pass profiles"
  in
  Alcotest.(check int) "profile row calls" expected cleanup.Obs.pr_calls;
  (* Cleanup's time left the passes it ran after: the pass spans cover
     exactly the pass rows plus the cleanup row. A phase span contains
     its passes, so it is left out too. *)
  let span_ns =
    List.fold_left
      (fun acc e ->
        let name = e.Obs.ev_name in
        if name = "cleanup" || String.starts_with ~prefix:"phase:" name then acc
        else Int64.add acc e.Obs.ev_dur)
      0L (Obs.events s)
  in
  let profile_ns = List.fold_left (fun acc pr -> Int64.add acc pr.Obs.pr_ns) 0L profs in
  Alcotest.(check int64) "pass spans = pass rows + cleanup row" span_ns profile_ns;
  Alcotest.(check bool) "cleanup took time" true (cleanup.Obs.pr_ns > 0L)

(* ------------------------------------------------------------------ *)
(* Decoding spans                                                      *)

let decoded_binaries s =
  List.sort compare
    (List.filter_map
       (fun e ->
         if e.Obs.ev_name = "vm:decode" then
           List.assoc_opt "binary" e.Obs.ev_args
         else None)
       (Obs.events s))

let traced ctx req =
  with_session (fun () ->
      let r = Api.execute ctx req in
      (r, stop_exn ()))

(* A decode is a [vm:decode] span of its own, outside [vm:run], and a
   decoded program lives only as long as the call that runs it: a traced
   cold Measure view of zlib at gcc-O2 decodes the two binaries it runs
   (the O0 build its preparation fuzzes and the gcc-O2 build it traces)
   on each of two fresh contexts, after an untraced run of the same
   request in the same process, and a repeat on one context decodes
   nothing. Tracing leaves the response alone, [obs/] rows aside. *)
let test_decode_spans () =
  let module ME = Debugtuner.Measure_engine in
  let zlib = Programs.find "zlib" and config = C.make C.Gcc C.O2 in
  let req =
    Api.Request.Compile
      {
        c_subject = Api.Request.Named "zlib";
        c_config = config;
        c_profile = None;
        c_sanitize = false;
        c_view = Api.Request.Measure;
      }
  in
  let untraced = Api.execute (Api.create_ctx ()) req in
  List.iter
    (fun what ->
      let ctx = Api.create_ctx () in
      let cold, s = traced ctx req in
      let eng = ctx.Api.engine in
      Alcotest.(check (list string))
        (what ^ ": one vm:decode per distinct binary")
        (List.sort compare
           [
             (ME.prepare eng zlib).Debugtuner.Evaluation.o0_bin.Emit.full_digest;
             (ME.compile_packed eng zlib config).ME.pk_full_digest;
           ])
        (decoded_binaries s);
      let _, s = traced ctx req in
      Alcotest.(check (list string))
        (what ^ ": a repeat decodes nothing") [] (decoded_binaries s);
      Alcotest.(check string) "same text" untraced.Api.Response.text
        cold.Api.Response.text;
      Alcotest.(check (list (pair string int)))
        "same rows, obs/ aside" untraced.Api.Response.stats
        (List.filter
           (fun (n, _) -> not (String.starts_with ~prefix:"obs/" n))
           cold.Api.Response.stats))
    [ "first context"; "second context" ]

(* Each engine job that runs binaries loads each of them once: a cold
   request decodes exactly as many binaries as it prepares, measures
   and costs, however many inputs each one runs. A cold corpus job, run
   twice on fresh store-less contexts, and a cold [Bench Cost]. *)
let test_decodes_per_job () =
  let job =
    Api.Request.Experiments
      {
        e_job =
          Api.Job.make ~configs:[ C.make C.Gcc C.O2 ] ~seed:5 ~corpus:6 ();
      }
  and cost =
    Api.Request.Bench
      {
        b_subject = Api.Request.Named "zlib";
        b_config = C.make C.Gcc C.O2;
        b_action = Api.Request.Cost;
      }
  in
  List.iter
    (fun (what, req) ->
      let r, s = traced (Api.create_ctx ()) req in
      let row name =
        Option.value ~default:0 (List.assoc_opt name r.Api.Response.stats)
      in
      let jobs =
        row "engine/prepare/misses" + row "engine/measure/misses"
        + row "engine/bench-cost/misses"
      in
      Alcotest.(check bool) (what ^ " ran jobs") true (jobs > 0);
      Alcotest.(check int)
        (what ^ ": vm:decode spans = prepare + measure + bench-cost misses")
        jobs
        (List.length (decoded_binaries s)))
    [ ("corpus job", job); ("corpus job again", job); ("bench cost", cost) ]

let tests =
  [
    Alcotest.test_case "span nesting and self time" `Quick test_span_nesting;
    Alcotest.test_case "wrap records on raise" `Quick test_span_wrap_reraises;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "disabled path allocates nothing" `Quick
      test_disabled_allocates_nothing;
    Alcotest.test_case "disabled tracing is byte-identical" `Quick
      test_disabled_binaries_byte_identical;
    Alcotest.test_case "chrome JSON round-trips the validator" `Quick
      test_chrome_roundtrip;
    Alcotest.test_case "validator rejects corruption" `Quick
      test_chrome_rejects_corruption;
    Alcotest.test_case "per-pass deltas telescope" `Quick
      test_deltas_telescope;
    Alcotest.test_case "vm counters" `Quick test_vm_counters;
    Alcotest.test_case "cleanup is its own row" `Quick test_cleanup_row;
    Alcotest.test_case "decoding is its own span" `Quick test_decode_spans;
    Alcotest.test_case "one decode per engine job" `Quick test_decodes_per_job;
  ]
