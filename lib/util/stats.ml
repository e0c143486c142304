(** Small statistics helpers used when aggregating experiment results.

    The paper reports geometric means (and geometric standard deviations)
    of per-program metric scores; medians for SPEC run times. *)

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** Geometric mean. Zero values are clamped to [eps] so that a single
    fully-degraded program does not zero out the aggregate, mirroring how
    the paper reports scores to four decimals. *)
let geomean ?(eps = 1e-9) = function
  | [] -> nan
  | xs ->
      let log_sum =
        List.fold_left (fun acc x -> acc +. log (Float.max x eps)) 0.0 xs
      in
      exp (log_sum /. float_of_int (List.length xs))

(** Geometric standard deviation: exp of the stddev of logs. *)
let geo_stddev ?(eps = 1e-9) = function
  | [] | [ _ ] -> nan
  | xs ->
      let logs = List.map (fun x -> log (Float.max x eps)) xs in
      let m = mean logs in
      let var =
        List.fold_left (fun acc l -> acc +. ((l -. m) *. (l -. m))) 0.0 logs
        /. float_of_int (List.length logs)
      in
      exp (sqrt var)

let median = function
  | [] -> nan
  | xs ->
      let arr = Array.of_list xs in
      Array.sort compare arr;
      let n = Array.length arr in
      if n mod 2 = 1 then arr.(n / 2)
      else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0

(** [pct_delta reference value] is the percentage change of [value] over
    [reference], e.g. [pct_delta 0.25 0.27 = 8.0]. *)
let pct_delta reference value =
  if reference = 0.0 then nan else (value -. reference) /. reference *. 100.0
