(* The benchmark's own arithmetic: percentiles, span self time, open-loop
   latency and lateness, and the ramp's growing-backlog test. Pure
   functions over recorded numbers, so the tests in test_stat.ml can pin
   every rule with hand-computed fixtures. *)

(* ------------------------------------------------------------------ *)
(* Percentiles                                                          *)

(* Nearest-rank percentile of an ascending array: the value at 1-based
   rank ceil(p/100 * n). *)
let rank_of ~n p =
  let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n -. 1e-9)) in
  max 1 (min n r)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stat.percentile: no samples";
  sorted.(rank_of ~n p - 1)

let sorted_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = percentile (sorted_of l) 50.

(* Samples strictly beyond the nearest-rank position of [p]. *)
let beyond ~n p = n - rank_of ~n p

let ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

type tail = { t_pct : float option; t_value : float; t_n : int }
(** The tail a sample set supports: [t_pct = Some p] is the highest
    percentile of {!ladder} with at least ten samples beyond it;
    [None] means no such percentile exists (fewer than 20 samples),
    and [t_value] is then the median: with so few samples the maximum
    is one outlier, not a tail. [t_n] is the sample count, always
    reported alongside. *)

let tail l =
  let s = sorted_of l in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stat.tail: no samples";
  match List.find_opt (fun p -> beyond ~n p >= 10) ladder with
  | Some p -> { t_pct = Some p; t_value = percentile s p; t_n = n }
  | None -> { t_pct = None; t_value = percentile s 50.; t_n = n }

let tail_label t =
  match t.t_pct with
  | Some p -> Printf.sprintf "p%g of %d" p t.t_n
  | None -> Printf.sprintf "p50 of %d (no tail)" t.t_n

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

type span = {
  s_id : int;
  s_name : string;
  s_start : float;
  s_stop : float;
  s_parent : int;  (** [-1] for a root *)
  s_req : int;  (** request (or item) the span belongs to *)
}

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(** Self time of every span: its duration minus the part of its own
    interval that its children cover (overlapping children counted
    once). Returned as [(span, self)] in input order. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.s_parent >= 0 then
        Hashtbl.replace children s.s_parent
          ((s.s_start, s.s_stop)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.s_parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.s_id) in
      (s, s.s_stop -. s.s_start -. covered ~lo:s.s_start ~hi:s.s_stop kids))
    spans

(* ------------------------------------------------------------------ *)
(* Open-loop requests                                                   *)

type sample = {
  q_conn : int;  (** connection that carried the request *)
  q_due : float;  (** when the fixed schedule says it is sent *)
  q_free : float;  (** when its connection finished the previous request *)
  q_sent : float;  (** when the generator began sending it *)
  q_done : float;  (** when the decoded response was in hand *)
  q_ok : bool;
}

(** Latency counts from the due time, so a stall that delays later
    sends is charged to every request it delayed. A failed request
    misses any limit: its latency is infinite. *)
let latency q = if q.q_ok then q.q_done -. q.q_due else Float.infinity

(** The generator's own lateness: how long after the request could
    first go out (due, and its connection free) it actually did. *)
let lateness q = q.q_sent -. Float.max q.q_due q.q_free

(** Client-side backlog at time [t]: requests already due but not yet
    sent. *)
let backlog samples t =
  List.fold_left
    (fun acc q -> if q.q_due <= t && q.q_sent > t then acc + 1 else acc)
    0 samples

let backlog_max samples =
  List.fold_left (fun m q -> max m (backlog samples q.q_due)) 0 samples

(** Backlog growth over a step: sampled at the due times of its
    requests, the mean backlog over the last quarter minus the mean over
    the first quarter (0 below 8 requests). *)
let backlog_growth samples =
  let dues = sorted_of (List.map (fun q -> q.q_due) samples) in
  let n = Array.length dues in
  if n < 8 then 0.
  else
    let mean lo hi =
      let s = ref 0 in
      for i = lo to hi - 1 do
        s := !s + backlog samples dues.(i)
      done;
      float_of_int !s /. float_of_int (hi - lo)
    in
    let q = n / 4 in
    mean (n - q) n -. mean 0 q

(** A step's backlog grows when its {!backlog_growth} exceeds one
    request per connection and one in forty of the step's requests. A
    system keeping up drains each stall's backlog before the next; the
    transient backlog one slow request leaves stays under the second
    threshold, a few percent of overload over the step does not. *)
let backlog_grows ~conns samples =
  let n = List.length samples in
  backlog_growth samples
  > Float.max (float_of_int conns) (float_of_int n /. 40.)
