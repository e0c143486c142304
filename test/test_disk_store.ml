(** The persistent artifact store (Engine.Disk_store): entries must
    survive process boundaries (modelled as fresh handles), corruption
    of any kind must be detected, evicted, counted and recomputed —
    never trusted — and a warm engine must serve a whole workload from
    disk with byte-identical results. *)

module C = Debugtuner.Config
module ME = Debugtuner.Measure_engine
module Ev = Debugtuner.Evaluation
module DS = Engine.Disk_store

let temp_dir =
  let seq = ref 0 in
  fun () ->
    incr seq;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dtstore-test-%d-%d" (Unix.getpid ()) !seq)
    in
    (try Sys.mkdir d 0o755 with Sys_error _ -> ());
    d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    try Sys.rmdir path with Sys_error _ -> ()
  end
  else try Sys.remove path with Sys_error _ -> ()

let with_dir f =
  let d = temp_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf d with _ -> ()) (fun () -> f d)

(* Every published entry file under the store's objects/ tree. *)
let entry_files dir =
  let objects = Filename.concat dir "objects" in
  let out = ref [] in
  let ls d = try Sys.readdir d with Sys_error _ -> [||] in
  Array.iter
    (fun cache ->
      let cdir = Filename.concat objects cache in
      Array.iter
        (fun shard ->
          let sdir = Filename.concat cdir shard in
          Array.iter
            (fun f -> out := Filename.concat sdir f :: !out)
            (ls sdir))
        (ls cdir))
    (ls objects);
  List.sort compare !out

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let counter store name =
  match List.assoc_opt ("store/" ^ name) (DS.counters store) with
  | Some v -> v
  | None -> 0

(* ------------------------------------------------------------------ *)

let test_roundtrip_and_persistence () =
  with_dir @@ fun d ->
  let s1 = DS.create ~schema:"s" ~dir:d () in
  Alcotest.(check (option string)) "empty miss" None (DS.get s1 ~cache:"c" ~key:"k");
  DS.put s1 ~cache:"c" ~key:"k" "payload-1";
  Alcotest.(check (option string))
    "roundtrip" (Some "payload-1")
    (DS.get s1 ~cache:"c" ~key:"k");
  (* A fresh handle on the same directory models a new process. *)
  let s2 = DS.create ~schema:"s" ~dir:d () in
  Alcotest.(check (option string))
    "persists across handles" (Some "payload-1")
    (DS.get s2 ~cache:"c" ~key:"k");
  Alcotest.(check int) "one entry" 1 (DS.entry_count s2);
  Alcotest.(check bool) "sized" true (DS.size_bytes s2 > 0);
  (* Binary payloads (NULs, newlines) survive the framing. *)
  let blob = String.init 257 (fun i -> Char.chr (i mod 256)) in
  DS.put s2 ~cache:"c" ~key:"blob" blob;
  Alcotest.(check (option string))
    "binary payload" (Some blob)
    (DS.get s2 ~cache:"c" ~key:"blob");
  Alcotest.(check int) "clear removes all" 2 (DS.clear s2);
  Alcotest.(check (list string)) "directory empty" [] (entry_files d)

let test_memo_write_through () =
  with_dir @@ fun d ->
  let s1 = DS.create ~schema:"s" ~dir:d () in
  let m1 = Engine.Memo.create ~store:s1 ~name:"square" () in
  let calls = ref 0 in
  let produce x () = incr calls; x * x in
  Alcotest.(check int) "computed" 9 (Engine.Memo.find_or_add m1 "3" (produce 3));
  Alcotest.(check int) "memory hit" 9 (Engine.Memo.find_or_add m1 "3" (produce 3));
  Alcotest.(check int) "one computation" 1 !calls;
  (* Fresh memo + fresh store handle: the value comes back from disk
     without running the producer. *)
  let s2 = DS.create ~schema:"s" ~dir:d () in
  let m2 = Engine.Memo.create ~store:s2 ~name:"square" () in
  Alcotest.(check int) "disk hit" 9 (Engine.Memo.find_or_add m2 "3" (produce 3));
  Alcotest.(check int) "still one computation" 1 !calls;
  Alcotest.(check int) "store counted the hit" 1 (counter s2 "square/hits")

let corrupt_one mutate =
  with_dir @@ fun d ->
  let s1 = DS.create ~schema:"s" ~dir:d () in
  DS.put s1 ~cache:"c" ~key:"k" "the payload bytes";
  let path =
    match entry_files d with [ p ] -> p | l -> Alcotest.failf "%d entries" (List.length l)
  in
  mutate path;
  (* A fresh handle (no memory of the entry) must detect the damage,
     evict the file, count it, and report a miss. *)
  let s2 = DS.create ~schema:"s" ~dir:d () in
  Alcotest.(check (option string)) "damaged = miss" None (DS.get s2 ~cache:"c" ~key:"k");
  Alcotest.(check bool) "evicted from disk" false (Sys.file_exists path);
  (* Recompute path: a new put/get works as if nothing happened. *)
  DS.put s2 ~cache:"c" ~key:"k" "the payload bytes";
  Alcotest.(check (option string))
    "recomputed" (Some "the payload bytes")
    (DS.get s2 ~cache:"c" ~key:"k");
  s2

let test_corrupt_truncated () =
  let s =
    corrupt_one (fun path ->
        let full = read_file path in
        write_file path (String.sub full 0 (String.length full / 2)))
  in
  Alcotest.(check int) "counted corrupt" 1 (counter s "c/corrupt")

let test_corrupt_bit_flip () =
  let s =
    corrupt_one (fun path ->
        let full = read_file path in
        let b = Bytes.of_string full in
        let i = Bytes.length b - 1 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
        write_file path (Bytes.to_string b))
  in
  Alcotest.(check int) "counted corrupt" 1 (counter s "c/corrupt")

let test_stale_version_bump () =
  let s =
    corrupt_one (fun path ->
        let full = read_file path in
        let nl = String.index full '\n' in
        let header = String.sub full 0 nl in
        let rest = String.sub full nl (String.length full - nl) in
        match String.split_on_char ' ' header with
        | magic :: ver :: fields ->
            let bumped = string_of_int (int_of_string ver + 1) in
            write_file path (String.concat " " (magic :: bumped :: fields) ^ rest)
        | _ -> Alcotest.fail "unparseable header")
  in
  Alcotest.(check int) "counted stale" 1 (counter s "c/stale")

let test_stale_schema_mismatch () =
  with_dir @@ fun d ->
  let old = DS.create ~schema:"debugtuner-v1" ~dir:d () in
  DS.put old ~cache:"c" ~key:"k" "old-schema payload";
  (* The same directory opened under a new schema stamp: the entry is
     stale, never decoded. *)
  let s = DS.create ~schema:"debugtuner-v2" ~dir:d () in
  Alcotest.(check (option string)) "stale = miss" None (DS.get s ~cache:"c" ~key:"k");
  Alcotest.(check int) "counted stale" 1 (counter s "c/stale");
  Alcotest.(check (list string)) "evicted" [] (entry_files d)

(* The schema stamp is the build stamp: recomputed here from the files
   the stamp rule reads (test/dune declares the same globs as deps, so
   dune copies them to ../lib from this executable's directory), under
   the same paths, in the same order and framing as stamp/gen.ml. *)
let test_schema_is_build_stamp () =
  let lib = Filename.concat (Filename.dirname Sys.executable_name) "../lib" in
  let rec walk rel =
    List.concat_map
      (fun name ->
        let rel = rel ^ "/" ^ name in
        let path = Filename.concat lib rel in
        if Sys.is_directory path then
          if name.[0] = '.' then [] else walk rel
        else if
          name = "dune"
          || Filename.check_suffix name ".ml"
          || Filename.check_suffix name ".mli"
        then [ ("../lib" ^ rel, path) ]
        else [])
      (Array.to_list (Sys.readdir (Filename.concat lib rel)))
  in
  let files = List.sort compare (walk "") in
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun (name, path) ->
      let text = read_file path in
      Printf.bprintf b "%s\n%d\n%s" name (String.length text) text)
    files;
  Alcotest.(check bool) "reads lib/vm/vm.ml and lib/core/dune" true
    (List.mem_assoc "../lib/vm/vm.ml" files
    && List.mem_assoc "../lib/core/dune" files);
  Alcotest.(check string) "stamp of lib/"
    (Digest.to_hex (Digest.string (Buffer.contents b)))
    Build_stamp.digest;
  Alcotest.(check string) "schema" (Build_stamp.digest ^ "/" ^ Sys.ocaml_version)
    ME.cache_schema

let test_garbage_entry_is_miss () =
  with_dir @@ fun d ->
  let s = DS.create ~schema:"s" ~dir:d () in
  DS.put s ~cache:"c" ~key:"k" "good";
  let path = List.hd (entry_files d) in
  (* A half-written file published under an entry name (a crashed writer
     without atomic rename) must read as a miss, not an error. *)
  write_file path "not a store entry at all";
  let s2 = DS.create ~schema:"s" ~dir:d () in
  Alcotest.(check (option string)) "garbage = miss" None (DS.get s2 ~cache:"c" ~key:"k");
  (* Abandoned temp files are invisible to reads and removed by gc. *)
  write_file (Filename.concat (Filename.concat d "tmp") "999-0.tmp") "partial";
  Alcotest.(check int) "tmp not an entry" 0 (DS.entry_count s2);
  let _ = DS.clear s2 in
  Alcotest.(check bool) "tmp cleared" false
    (Sys.file_exists (Filename.concat (Filename.concat d "tmp") "999-0.tmp"))

let test_lru_eviction () =
  with_dir @@ fun d ->
  (* ~100-byte payloads with framing overhead: a 2000-byte bound holds
     only a handful of entries. *)
  let s = DS.create ~max_bytes:2000 ~schema:"s" ~dir:d () in
  for i = 1 to 30 do
    DS.put s ~cache:"c" ~key:(string_of_int i) (String.make 100 'x')
  done;
  Alcotest.(check bool) "bounded" true (DS.size_bytes s <= 2000);
  Alcotest.(check bool) "evicted some" true (counter s "c/evicted" > 0);
  Alcotest.(check bool) "kept some" true (DS.entry_count s > 0);
  (* gc on a healthy store drops nothing and keeps the bound. *)
  Alcotest.(check int) "gc drops nothing" 0 (DS.gc s);
  Alcotest.(check bool) "still bounded" true (DS.size_bytes s <= 2000)

let test_gc_sweeps_damage () =
  with_dir @@ fun d ->
  let s = DS.create ~schema:"s" ~dir:d () in
  for i = 1 to 4 do
    DS.put s ~cache:"c" ~key:(string_of_int i) (Printf.sprintf "payload %d" i)
  done;
  (match entry_files d with
  | p1 :: p2 :: _ ->
      write_file p1 "garbage";
      let full = read_file p2 in
      write_file p2 (String.sub full 0 (String.length full - 3))
  | _ -> Alcotest.fail "expected entries");
  let s2 = DS.create ~schema:"s" ~dir:d () in
  Alcotest.(check int) "gc dropped the two damaged" 2 (DS.gc s2);
  Alcotest.(check int) "two healthy remain" 2 (DS.entry_count s2)

let test_two_domain_race () =
  with_dir @@ fun d ->
  let s = DS.create ~schema:"s" ~dir:d () in
  let payload i = Printf.sprintf "deterministic payload for key %d" i in
  (* Two domains hammer one store handle with overlapping writes and
     reads. Writers are deterministic per key, so whichever rename wins,
     every subsequent read must be either a miss or the exact payload —
     never a torn entry (which would count as corrupt). *)
  let worker () =
    for round = 1 to 3 do
      ignore round;
      for i = 1 to 25 do
        DS.put s ~cache:"race" ~key:(string_of_int i) (payload i);
        match DS.get s ~cache:"race" ~key:(string_of_int i) with
        | None -> ()
        | Some got ->
            if got <> payload i then
              Alcotest.failf "torn read for key %d" i
      done
    done
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "no corruption seen" 0 (counter s "race/corrupt");
  Alcotest.(check int) "all entries live" 25 (DS.entry_count s);
  let s2 = DS.create ~schema:"s" ~dir:d () in
  for i = 1 to 25 do
    Alcotest.(check (option string))
      (Printf.sprintf "key %d intact" i)
      (Some (payload i))
      (DS.get s2 ~cache:"race" ~key:(string_of_int i))
  done

(* ------------------------------------------------------------------ *)
(* Two processes sharing one directory (the shard-worker scenario)     *)

(* A real second process (store_worker.exe, built next to this test
   binary) rather than fork: the runtime has spawned domains by now and
   OCaml 5 refuses to fork a multi-domain process. *)
let run_worker mode dir =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "store_worker.exe"
  in
  let pid =
    Unix.create_process exe [| exe; mode; dir |] Unix.stdin Unix.stdout
      Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> Alcotest.failf "worker exited %d" n
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Alcotest.failf "worker signal %d" n

let test_two_process_store () =
  with_dir @@ fun d ->
  let payload i = Printf.sprintf "deterministic payload for key %d" i in
  (* Parent and child processes hammer the same directory through
     separate handles — exactly how shard workers coordinate. Writers
     are deterministic per key, so every read must be a miss or the
     exact payload, never a torn entry. *)
  let hammer s =
    for round = 1 to 3 do
      for i = 1 to 25 do
        DS.put s ~cache:"mp" ~key:(string_of_int i) (payload i);
        (match DS.get s ~cache:"mp" ~key:(string_of_int i) with
        | None -> ()
        | Some got ->
            if got <> payload i then
              Alcotest.failf "torn read for key %d (round %d)" i round)
      done;
      (* concurrent maintenance must not break readers or writers *)
      ignore (DS.gc s : int)
    done
  in
  let worker = Thread.create (fun () -> run_worker "hammer" d) () in
  let s = DS.create ~schema:"s" ~dir:d () in
  hammer s;
  Thread.join worker;
  Alcotest.(check int) "no corruption seen" 0 (counter s "mp/corrupt");
  let s2 = DS.create ~schema:"s" ~dir:d () in
  for i = 1 to 25 do
    Alcotest.(check (option string))
      (Printf.sprintf "key %d intact" i)
      (Some (payload i))
      (DS.get s2 ~cache:"mp" ~key:(string_of_int i))
  done

let test_cross_process_eviction_counted () =
  with_dir @@ fun d ->
  let s = DS.create ~max_bytes:2000 ~schema:"s" ~dir:d () in
  DS.put s ~cache:"x" ~key:"victim" (String.make 100 'v');
  (* Backdate the entry so any LRU pass — ours or another process's —
     prefers it. *)
  (match entry_files d with
  | [ p ] -> Unix.utimes p 1.0 1.0
  | l -> Alcotest.failf "%d entries" (List.length l));
  (* The worker process floods the store past its bound from a separate
     handle: its LRU eviction removes the backdated victim. *)
  run_worker "flood" d;
  (* This handle published the victim; finding it gone means another
     process evicted it — reported as a miss and counted separately. *)
  Alcotest.(check (option string))
    "victim evicted by the other process" None
    (DS.get s ~cache:"x" ~key:"victim");
  Alcotest.(check int) "cross-process eviction counted" 1
    (counter s "x/evicted_ext");
  Alcotest.(check int) "not one of ours" 0 (counter s "x/evicted")

(* ------------------------------------------------------------------ *)
(* Through the measurement engine                                      *)

let small_subject =
  lazy (Ev.prepare ~fuzz_budget:8 (Synth.program ~seed:3))

let engine_configs = [ C.make C.Gcc C.O1; C.make C.Gcc C.O2 ]

let total_counter stats field =
  let suffix = match field with `Hits -> "/hits" | `Misses -> "/misses" in
  List.fold_left
    (fun acc (name, v) ->
      if String.ends_with ~suffix name then acc + v else acc)
    0
    (Util.Counters.rows stats)

let test_engine_warm_run () =
  with_dir @@ fun d ->
  let p = Lazy.force small_subject in
  let cold_store = ME.open_store ~dir:d () in
  let cold = ME.create ~store:cold_store () in
  let cold_results = List.map (fun cfg -> fst (ME.measure cold p cfg)) engine_configs in
  Alcotest.(check bool) "cold run wrote entries" true
    (counter cold_store "measure/writes" > 0);
  (* A fresh engine + fresh store handle on the same directory: the
     whole workload must be served from disk — no recomputation, and no
     tier-1 entry decoded ([engine:unpack]) — with identical results. *)
  let warm_store = ME.open_store ~dir:d () in
  let warm = ME.create ~store:warm_store () in
  ignore (Obs.stop ());
  Obs.start ();
  let warm_results =
    match List.map (fun cfg -> fst (ME.measure warm p cfg)) engine_configs with
    | results -> results
    | exception e ->
        ignore (Obs.stop ());
        raise e
  in
  Alcotest.(check (option int)) "nothing decoded" None
    (List.assoc_opt "engine/unpack" (Obs.counters (Option.get (Obs.stop ()))));
  Alcotest.(check bool) "byte-identical metrics" true (cold_results = warm_results);
  Alcotest.(check int) "zero engine misses when warm" 0
    (total_counter (ME.stats warm) `Misses);
  Alcotest.(check bool) "disk hits served the run" true
    (counter warm_store "measure/hits" > 0);
  (* The unified stats table surfaces the store counters. *)
  Alcotest.(check bool) "store rows in stats_table" true
    (List.exists
       (fun (n, _) -> String.length n >= 6 && String.sub n 0 6 = "store/")
       (ME.stats_table warm))

let test_engine_resumable () =
  with_dir @@ fun d ->
  let p = Lazy.force small_subject in
  (* An interrupted run: only the first configuration was measured. *)
  let partial = ME.create ~store:(ME.open_store ~dir:d ()) () in
  let first = fst (ME.measure partial p (List.hd engine_configs)) in
  (* The restart picks up where it stopped: the first configuration is a
     disk hit, only the second is computed. *)
  let store = ME.open_store ~dir:d () in
  let resumed = ME.create ~store () in
  let results = List.map (fun cfg -> fst (ME.measure resumed p cfg)) engine_configs in
  Alcotest.(check bool) "resumed result matches" true (List.hd results = first);
  Alcotest.(check bool) "prior work served from disk" true
    (counter store "measure/hits" >= 1);
  Alcotest.(check bool) "new work computed" true
    (total_counter (ME.stats resumed) `Misses > 0)

let test_corruption_never_changes_results () =
  with_dir @@ fun d ->
  let p = Lazy.force small_subject in
  let cfg = List.hd engine_configs in
  let clean = fst (ME.measure (ME.create ()) p cfg) in
  let cold = ME.create ~store:(ME.open_store ~dir:d ()) () in
  ignore (ME.measure cold p cfg);
  (* Damage every entry on disk; the engine must fall back to computing
     and still produce the clean result. *)
  List.iter (fun path -> write_file path "damaged beyond recognition") (entry_files d);
  let store = ME.open_store ~dir:d () in
  let eng = ME.create ~store () in
  Alcotest.(check bool) "corrupt cache never changes the result" true
    (fst (ME.measure eng p cfg) = clean);
  Alcotest.(check bool) "corruption counted" true
    (List.exists
       (fun (n, v) ->
         v > 0
         && String.length n > 8
         && String.sub n (String.length n - 8) 8 = "/corrupt")
       (DS.counters store))

(* Measurement state belongs to the engine that measures: creating an
   engine over a store must not hand that store to a store-less engine
   created after it. The benchmark is one no other test runs, so its
   binary is decoded fresh by this run. *)
let test_storeless_engine_touches_no_store () =
  with_dir @@ fun d ->
  let s = ME.open_store ~dir:d () in
  ignore (ME.create ~store:s () : ME.t);
  let b = ME.create () in
  let bench = Synth.program ~seed:90417 in
  ignore (ME.bench_cost b bench (C.make C.Gcc C.O2) : int);
  Alcotest.(check int) "the other engine's store stays empty" 0
    (DS.entry_count s);
  Alcotest.(check (list (pair string int)))
    "no vm/ or store/ rows" []
    (List.filter
       (fun (n, _) ->
         String.starts_with ~prefix:"vm/" n
         || String.starts_with ~prefix:"store/" n)
       (ME.stats_table b))

(* A planned compile probes the store once: the sweep's filter reads
   it, and publishing the fresh binary writes without reading again. *)
let test_sweep_probes_store_once () =
  with_dir @@ fun d ->
  let store = ME.open_store ~dir:d () in
  let eng = ME.create ~store () in
  let base = C.make C.Gcc C.O2 in
  ME.compile_sweep eng (Programs.find "zlib")
    (base
    :: List.map
         (fun pass -> C.make ~disabled:[ pass ] C.Gcc C.O2)
         (Debugtuner.Toolchain.pass_names base));
  let row name = List.assoc_opt name (DS.counters store) in
  Alcotest.(check bool) "the sweep wrote binaries" true
    (row "store/compile/writes" <> None);
  Alcotest.(check (option int)) "misses equal writes"
    (row "store/compile/writes") (row "store/compile/misses")

let test_oracle_warm_byte_identical () =
  with_dir @@ fun d ->
  let module DO = Diff_oracle in
  let sanitize_rows =
    List.filter (fun (n, _) -> String.starts_with ~prefix:"sanitize/" n)
  in
  let cold_store = ME.open_store ~dir:d () in
  let cold, cold_rows =
    Util.Counters.scoped (fun () ->
        DO.fuzz ~store:cold_store ~count:3 ~seed:11 ())
  in
  let cold_counters = sanitize_rows cold_rows in
  let warm_store = ME.open_store ~dir:d () in
  let warm, warm_rows =
    Util.Counters.scoped (fun () ->
        DO.fuzz ~store:warm_store ~count:3 ~seed:11 ())
  in
  let warm_counters = sanitize_rows warm_rows in
  Alcotest.(check string)
    "identical report"
    (DO.report_to_string cold)
    (DO.report_to_string warm);
  (* Warm hits replay the recorded sanitizer deltas, so even the
     counter table is identical to the cold run's. *)
  Alcotest.(check bool) "identical sanitizer counters" true
    (cold_counters = warm_counters);
  Alcotest.(check int) "every verdict from disk" 3
    (counter warm_store "oracle/hits")

let tests =
  [
    Alcotest.test_case "roundtrip + persistence" `Quick
      test_roundtrip_and_persistence;
    Alcotest.test_case "memo write-through" `Quick test_memo_write_through;
    Alcotest.test_case "corruption: truncated" `Quick test_corrupt_truncated;
    Alcotest.test_case "corruption: bit-flip" `Quick test_corrupt_bit_flip;
    Alcotest.test_case "stale: version bump" `Quick test_stale_version_bump;
    Alcotest.test_case "stale: schema mismatch" `Quick
      test_stale_schema_mismatch;
    Alcotest.test_case "schema is the build stamp" `Quick
      test_schema_is_build_stamp;
    Alcotest.test_case "garbage entries are misses" `Quick
      test_garbage_entry_is_miss;
    Alcotest.test_case "LRU eviction under a size bound" `Quick
      test_lru_eviction;
    Alcotest.test_case "gc sweeps damaged entries" `Quick test_gc_sweeps_damage;
    Alcotest.test_case "two-domain race on one store" `Quick
      test_two_domain_race;
    Alcotest.test_case "two-process race on one directory" `Quick
      test_two_process_store;
    Alcotest.test_case "cross-process eviction is counted" `Quick
      test_cross_process_eviction_counted;
    Alcotest.test_case "warm engine: zero misses, identical metrics" `Slow
      test_engine_warm_run;
    Alcotest.test_case "interrupted run resumes from the store" `Slow
      test_engine_resumable;
    Alcotest.test_case "corrupt cache never changes results" `Slow
      test_corruption_never_changes_results;
    Alcotest.test_case "a planned compile probes the store once" `Quick
      test_sweep_probes_store_once;
    Alcotest.test_case "store-less engine touches no store" `Quick
      test_storeless_engine_touches_no_store;
    Alcotest.test_case "oracle warm run byte-identical" `Slow
      test_oracle_warm_byte_identical;
  ]
