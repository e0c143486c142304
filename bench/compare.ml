(* Benchmark-regression gate for ci.sh and the CI workflow.

     compare.exe BASELINE.json COLD.json WARM.json

   All three files are `bench --json` outputs on the same workload.
   The gate fails (exit 1) when any of these hold:

     - the cold run's total wall time regressed more than
       [tolerance] (+20%) over the committed baseline;
     - the warm (populated cache) run is not at least [warm_floor]
       (3.0) times faster than the cold run;
     - the warm run's disk-store hit rate (sum of store/<x>/hits over
       hits + misses) is below [hit_floor] (0.9), or the warm run
       recorded no store activity at all;
     - the cold run's pass-prefix planner recorded no sharing at all
       (prefix/hits = 0), or its hit rate (prefix/hits over
       hits + misses) is below [prefix_floor] (0.5). The cold run is
       the one that gates: a warm run peeks everything out of the
       persistent store and plans nothing;
     - the serve scenario's warm request p50 is not at least
       [serve_floor] (10.0) times faster than its cold one-shot
       (timing rows "serve-cold-one-shot" and "serve-warm-p50" of the
       cold json — the workload must include `serve` in its --only
       list), or those rows are missing;
     - the VM scenario's fast core is not at least [vm_floor] (5.0)
       times faster than the reference core (timing rows
       "vm-reference" / "vm-fast"), or those rows are missing;
     - the shard scenario's 2-process critical path (timing rows
       "shard-1-proc" / "shard-2-proc" of the cold json — the workload
       must include `shard` in its --only list) is not at least
       [shard_floor] (1.5) times faster than the single-process run,
       or those rows are missing;
     - the search scenario's Pareto front fails to weakly dominate
       every greedy dy point, or its dominance margin (counter rows
       search/greedy_total, search/greedy_dominated and
       search/margin_ppm of the cold json — the workload must include
       `search` in its --only list) is below [search_floor] (0.0).

   Volatile numbers (absolute seconds, ratios) are printed on lines
   starting with '#', so CI determinism diffs can drop them; the
   PASS/FAIL verdict lines are stable. The files are read with
   Util.Json; a file that is not JSON is a one-line error (exit 2). *)

module J = Util.Json

let tolerance = 0.20
let warm_floor = 3.0
let hit_floor = 0.9
let prefix_floor = 0.5
let serve_floor = 10.0
let vm_floor = 5.0
let shard_floor = 1.5
let search_floor = 0.0

let read_json path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse text with
  | doc -> doc
  | exception J.Parse_error msg ->
      Printf.eprintf "%s: malformed JSON: %s\n" path msg;
      exit 2

(** The [{"name": <string>, <key>: <number>}] rows of [doc]'s array
    [table]. *)
let rows doc table key =
  match J.field table doc with
  | Some (J.Arr l) ->
      List.filter_map
        (fun r ->
          match (J.field "name" r, J.field key r) with
          | Some (J.Str name), Some (J.Num v) -> Some (name, v)
          | _ -> None)
        l
  | _ -> []

(** The counter table ("stats") as integers. *)
let counter_rows doc =
  List.map (fun (name, v) -> (name, int_of_float v)) (rows doc "stats" "value")

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let has_suffix suf s =
  let n = String.length s and m = String.length suf in
  n >= m && String.sub s (n - m) m = suf

let sum_store rows ~suffix =
  List.fold_left
    (fun acc (name, v) ->
      if has_prefix "store/" name && has_suffix suffix name then acc + v
      else acc)
    0 rows

let () =
  (match Sys.argv with
  | [| _; _; _; _ |] -> ()
  | _ ->
      prerr_endline "usage: compare.exe BASELINE.json COLD.json WARM.json";
      exit 2);
  let baseline = read_json Sys.argv.(1)
  and cold = read_json Sys.argv.(2)
  and warm = read_json Sys.argv.(3) in
  let total name doc =
    match J.field "total_seconds" doc with
    | Some (J.Num s) -> s
    | _ ->
        Printf.eprintf "%s: no total_seconds field\n" name;
        exit 2
  in
  let base_s = total "baseline" baseline
  and cold_s = total "cold" cold
  and warm_s = total "warm" warm in
  let failures = ref 0 in
  let verdict ok what detail =
    if ok then Printf.printf "PASS %s\n" what
    else begin
      incr failures;
      Printf.printf "FAIL %s\n" what
    end;
    Printf.printf "# %s\n" detail
  in
  let bound = base_s *. (1.0 +. tolerance) in
  verdict (cold_s <= bound)
    (Printf.sprintf "cold wall time within +%.0f%% of baseline"
       (tolerance *. 100.0))
    (Printf.sprintf "baseline %.3fs, cold %.3fs, bound %.3fs" base_s cold_s
       bound);
  let speedup = if warm_s > 0.0 then cold_s /. warm_s else infinity in
  verdict (speedup >= warm_floor)
    (Printf.sprintf "warm run at least %.1fx faster than cold" warm_floor)
    (Printf.sprintf "cold %.3fs, warm %.3fs, speedup %.2fx" cold_s warm_s
       speedup);
  let warm_rows = counter_rows warm in
  let hits = sum_store warm_rows ~suffix:"/hits"
  and misses = sum_store warm_rows ~suffix:"/misses" in
  let rate =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  verdict
    (hits + misses > 0 && rate >= hit_floor)
    (Printf.sprintf "warm store hit rate at least %.0f%%" (hit_floor *. 100.0))
    (Printf.sprintf "hits %d, misses %d, rate %.3f" hits misses rate);
  let cold_rows = counter_rows cold in
  let counter rows name =
    match List.assoc_opt name rows with Some v -> v | None -> 0
  in
  let p_hits = counter cold_rows "prefix/hits"
  and p_misses = counter cold_rows "prefix/misses" in
  let p_rate =
    if p_hits + p_misses = 0 then 0.0
    else float_of_int p_hits /. float_of_int (p_hits + p_misses)
  in
  verdict
    (p_hits > 0 && p_rate >= prefix_floor)
    (Printf.sprintf "cold prefix-cache hit rate at least %.0f%%"
       (prefix_floor *. 100.0))
    (Printf.sprintf "prefix hits %d, misses %d, rate %.3f, merged %d" p_hits
       p_misses p_rate
       (counter cold_rows "prefix/merged"));
  (* Daemon latency gate: a warm request against the persistent server
     must be far cheaper than the cold one-shot that pays the compile. *)
  let timings = rows cold "timings" "seconds" in
  let timing_row name = List.assoc_opt name timings in
  let serve_what =
    Printf.sprintf "serve warm p50 at least %.0fx faster than cold one-shot"
      serve_floor
  in
  (match
     ( timing_row "serve-cold-one-shot",
       timing_row "serve-warm-p50" )
   with
  | Some c, Some w ->
      let ratio = if w > 0.0 then c /. w else infinity in
      verdict (ratio >= serve_floor) serve_what
        (Printf.sprintf "cold one-shot %.3fs, warm p50 %.3fs, ratio %.1fx" c w
           ratio)
  | _ ->
      verdict false serve_what
        "serve timing rows missing from cold json (include `serve` in --only)");
  (* VM core gate: the pre-decoded direct-threaded interpreter must
     beat the reference core by a wide margin on the hot-kernel
     scenario (both rows time the same fixed iteration count, so the
     ratio is the per-run speedup). *)
  let vm_what =
    Printf.sprintf "vm fast core at least %.0fx faster than reference"
      vm_floor
  in
  (match (timing_row "vm-reference", timing_row "vm-fast") with
  | Some r, Some f ->
      let ratio = if f > 0.0 then r /. f else infinity in
      verdict (ratio >= vm_floor) vm_what
        (Printf.sprintf "reference %.3fs, fast %.3fs, speedup %.1fx" r f ratio)
  | _ ->
      verdict false vm_what
        "vm timing rows missing from cold json (include `vm` in --only)");
  (* Shard scaling gate: splitting the corpus over 2 worker processes
     must cut the critical path (the slowest shard's own wall clock —
     see the shard scenario in main.ml) by the floor. This checks the
     property the code controls — balanced slices, no duplicated work —
     independently of how many cores the CI machine has. *)
  let shard_what =
    Printf.sprintf
      "2-process shard critical path at least %.1fx faster than 1-process"
      shard_floor
  in
  (match (timing_row "shard-1-proc", timing_row "shard-2-proc") with
  | Some t1, Some t2 ->
      let ratio = if t2 > 0.0 then t1 /. t2 else infinity in
      let t4 =
        match timing_row "shard-4-proc" with Some t -> t | None -> 0.0
      in
      verdict (ratio >= shard_floor) shard_what
        (Printf.sprintf
           "1-proc %.3fs, 2-proc slowest shard %.3fs (%.2fx), 4-proc %.3fs"
           t1 t2 ratio t4)
  | _ ->
      verdict false shard_what
        "shard timing rows missing from cold json (include `shard` in --only)");
  (* Pareto dominance gate: the searched front at the pinned
     (strategy, budget, seed) must weakly dominate every greedy dy
     point, with a margin of at least [search_floor] (the greedy points
     are seeded into the search, so falling below 0 means the search
     layer *lost* configurations it was handed). The counters come
     from the search scenario of the cold run: search/greedy_total,
     search/greedy_dominated, and
     search/margin_ppm (the margin in parts-per-million, so the counter
     table stays integral). *)
  let search_what =
    Printf.sprintf
      "searched front dominates every greedy dy point (margin >= %.4f)"
      search_floor
  in
  let g_total = counter cold_rows "search/greedy_total"
  and g_dom = counter cold_rows "search/greedy_dominated"
  and margin = float_of_int (counter cold_rows "search/margin_ppm") /. 1e6 in
  if g_total = 0 then
    verdict false search_what
      "search counters missing from cold json (include `search` in --only)"
  else
    verdict
      (g_dom = g_total && margin >= search_floor)
      search_what
      (Printf.sprintf "%d/%d greedy points dominated, margin %.6f" g_dom
         g_total margin);
  if !failures > 0 then begin
    Printf.printf "bench-compare: %d check(s) FAILED\n" !failures;
    exit 1
  end;
  print_endline "bench-compare: all checks passed"
