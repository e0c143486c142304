(* Hand-computed fixtures for the benchmark's own arithmetic (Stat). *)

open Perfbench_stat

let feq = Alcotest.float 1e-9
let range n = List.init n (fun i -> float_of_int (i + 1))

let percentile_rule () =
  (* 1..1000: p99 sits at rank 990 with exactly ten samples beyond it;
     p99.9 has one beyond, so p99 is the highest percentile allowed. *)
  let t = Stat.tail (range 1000) in
  Alcotest.(check (option (float 0.))) "pct" (Some 99.) t.Stat.t_pct;
  Alcotest.check feq "value" 990. t.Stat.t_value;
  Alcotest.(check int) "n" 1000 t.Stat.t_n;
  (* 999 samples: p99 is rank 990 with nine beyond — not enough; p95 is
     rank 950 with 49 beyond. *)
  let t = Stat.tail (range 999) in
  Alcotest.(check (option (float 0.))) "pct 999" (Some 95.) t.Stat.t_pct;
  Alcotest.check feq "value 999" 950. t.Stat.t_value;
  (* 20 samples: the median (rank 10) is the only percentile with ten
     beyond. 19 samples support none, so the tail falls back to the
     median (rank 10). *)
  let t = Stat.tail (range 20) in
  Alcotest.(check (option (float 0.))) "pct 20" (Some 50.) t.Stat.t_pct;
  Alcotest.check feq "value 20" 10. t.Stat.t_value;
  let t = Stat.tail (List.rev (range 19)) in
  Alcotest.(check (option (float 0.))) "pct 19" None t.Stat.t_pct;
  Alcotest.check feq "median 19" 10. t.Stat.t_value;
  Alcotest.(check string) "label" "p50 of 19 (no tail)" (Stat.tail_label t);
  (* nearest-rank median: lower middle for even counts *)
  Alcotest.check feq "median odd" 2. (Stat.median [ 3.; 1.; 2. ]);
  Alcotest.check feq "median even" 2. (Stat.median [ 4.; 1.; 3.; 2. ])

let span ~id ~parent a b =
  { Stat.s_id = id; s_name = string_of_int id; s_start = a; s_stop = b;
    s_parent = parent; s_req = 0 }

let self_time () =
  (* root [0,10]; children [1,3] and [2,5] overlap on [2,3], so they
     cover [1,5] = 4. A child running past its parent, [8,12], covers
     only [8,10] = 2 of it, so the root keeps 10 - 4 - 2 = 4. A
     grandchild [2,2.5] under [1,3] is charged to that child only
     (self 1.5). *)
  let spans =
    [
      span ~id:0 ~parent:(-1) 0. 10.;
      span ~id:1 ~parent:0 1. 3.;
      span ~id:2 ~parent:0 2. 5.;
      span ~id:3 ~parent:1 2. 2.5;
      span ~id:4 ~parent:0 8. 12.;
    ]
  in
  let self = List.map snd (Stat.self_times spans) in
  Alcotest.(check (list feq)) "self" [ 4.; 1.5; 3.; 0.5; 4. ] self;
  Alcotest.check feq "covered disjoint" 3.
    (Stat.covered ~lo:0. ~hi:10. [ (1., 2.); (4., 6.) ])

let sample ?(ok = true) ~due ~free ~sent ~fin () =
  { Stat.q_conn = 0; q_due = due; q_free = free; q_sent = sent; q_done = fin;
    q_ok = ok }

let open_loop () =
  (* connection idle at the due time: latency from due, lateness is the
     generator's own delay *)
  let q = sample ~due:1.0 ~free:0.5 ~sent:1.1 ~fin:1.4 () in
  Alcotest.check feq "latency idle" 0.4 (Stat.latency q);
  Alcotest.check feq "late idle" 0.1 (Stat.lateness q);
  (* connection busy until 1.3: the wait counts in latency, not in the
     generator's lateness *)
  let q = sample ~due:1.0 ~free:1.3 ~sent:1.32 ~fin:1.5 () in
  Alcotest.check feq "latency busy" 0.5 (Stat.latency q);
  Alcotest.check feq "late busy" 0.02 (Stat.lateness q);
  let q = sample ~ok:false ~due:1.0 ~free:0.5 ~sent:1.0 ~fin:1.01 () in
  Alcotest.(check bool) "failed misses" true (Stat.latency q = Float.infinity);
  (* backlog = due but not yet sent *)
  let qs =
    [
      sample ~due:0. ~free:0. ~sent:0. ~fin:0.5 ();
      sample ~due:0.1 ~free:0.5 ~sent:0.5 ~fin:0.6 ();
      sample ~due:0.2 ~free:0.6 ~sent:0.6 ~fin:0.7 ();
    ]
  in
  Alcotest.(check int) "backlog 0.25" 2 (Stat.backlog qs 0.25);
  Alcotest.(check int) "backlog 0.55" 1 (Stat.backlog qs 0.55);
  Alcotest.(check int) "backlog max" 2 (Stat.backlog_max qs)

let ramp_backlog () =
  let steady =
    List.init 16 (fun i ->
        let d = float_of_int i *. 0.1 in
        sample ~due:d ~free:d ~sent:d ~fin:(d +. 0.05) ())
  in
  Alcotest.(check bool) "steady" false (Stat.backlog_grows ~conns:1 steady);
  (* one connection serving every 0.2 s against a 0.1 s schedule: at the
     due time of request i, about i/2 requests wait; the first quarter
     averages 1.5 waiting, the last quarter 7.5 *)
  let growing =
    List.init 16 (fun i ->
        let d = float_of_int i *. 0.1 in
        let s = (float_of_int i *. 0.2) +. 0.01 in
        sample ~due:d ~free:s ~sent:s ~fin:(s +. 0.19) ())
  in
  Alcotest.(check bool) "growing" true (Stat.backlog_grows ~conns:1 growing);
  (* the same growth is within slack for eight connections *)
  Alcotest.(check bool) "slack" false (Stat.backlog_grows ~conns:8 growing)

let () =
  Alcotest.run "perfbench"
    [
      ( "stat",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "span self time" `Quick self_time;
          Alcotest.test_case "open-loop latency" `Quick open_loop;
          Alcotest.test_case "ramp backlog" `Quick ramp_backlog;
        ] );
    ]
