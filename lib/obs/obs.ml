(** Zero-cost-when-disabled tracing for the whole stack.

    A recording session is installed process-wide with {!start};
    while one is active, {!Span.wrap} and {!count} append spans and
    counters to it, and {!pipeline_instrument} turns the
    toolchain's {!Instrument.t} stream into per-pass spans and profiles
    (wall time plus IR/debug-info deltas). With no session installed,
    every entry point is a single [match] on [!current] returning
    immediately — no clock read, no allocation — so shipping code can
    stay instrumented unconditionally.

    Exporters: {!to_chrome_json} writes the Chrome [trace_event] format
    (load the file in [chrome://tracing] or Perfetto; spans from
    different engine workers land on their own [tid] lanes), and
    {!self_time_report} prints a sorted self-time table.
    {!validate_chrome} is the small validator the test suite and the CLI
    run over emitted traces.

    Timestamps come from bechamel's monotonic clock ([CLOCK_MONOTONIC],
    nanoseconds, no allocation). *)

module Clock = struct
  let now_ns () : int64 = Monotonic_clock.now ()
end

(* ------------------------------------------------------------------ *)
(* Events and sessions                                                 *)

(* Every event is a complete span (Chrome [ph:"X"]), recorded when it
   closes. *)
type event = {
  ev_name : string;
  ev_dur : int64;  (** duration in ns *)
  ev_ts : int64;  (** start, in ns since the session started *)
  ev_tid : int;  (** recording domain — engine workers get own lanes *)
  ev_args : (string * string) list;
}

(* Per-pass aggregate, accumulated across every compile of the session. *)
type pcell = {
  mutable pc_calls : int;
  mutable pc_ns : int64;
  mutable pc_d : Instrument.counts;
}

type pass_profile = {
  pr_pass : string;
  pr_calls : int;
  pr_ns : int64;  (** total wall time across calls *)
  pr_delta : Instrument.counts;  (** summed per-invocation deltas *)
}

type session = {
  mu : Mutex.t;
  mutable evs : event list;  (** newest first *)
  ctrs : Util.Counters.table;  (** [obs/<name>] *)
  profs : (string, pcell) Hashtbl.t;
  mutable prof_order : string list;  (** first-seen pass names, newest first *)
  s_t0 : int64;
}

let current : session option ref = ref None
let enabled () = match !current with Some _ -> true | None -> false

(** Install a fresh recording session (idempotent: an active session
    stays). *)
let start () =
  match !current with
  | Some _ -> ()
  | None ->
      current :=
        Some
          {
            mu = Mutex.create ();
            evs = [];
            ctrs = Util.Counters.create ();
            profs = Hashtbl.create 32;
            prof_order = [];
            s_t0 = Clock.now_ns ();
          }

(** Uninstall and return the active session, if any. *)
let stop () =
  match !current with
  | None -> None
  | Some s ->
      current := None;
      Some s

let tid () = (Domain.self () :> int)

let emit s ev =
  Mutex.lock s.mu;
  s.evs <- ev :: s.evs;
  Mutex.unlock s.mu

let rel s t = Int64.sub t s.s_t0

let newest s =
  Mutex.lock s.mu;
  let evs = s.evs in
  Mutex.unlock s.mu;
  evs

(* The complete spans lane [tid] recorded after the events [since]
   (an earlier value of [s.evs]), leaving out any span nested in
   another of them: [(name, duration)], oldest first. A span completes
   after the spans nested in it, so only later ones can enclose it. *)
let outermost_since s ~tid ~since =
  let rec collect acc = function
    | l when l == since -> acc
    | [] -> acc
    | e :: rest ->
        collect
          (if e.ev_tid = tid then (e.ev_ts, e.ev_dur, e.ev_name) :: acc
           else acc)
          rest
  in
  let rec outermost = function
    | [] -> []
    | (t0, d, name) :: later ->
        let encloses (u0, e, _) =
          Int64.compare u0 t0 <= 0
          && Int64.compare (Int64.add t0 d) (Int64.add u0 e) <= 0
        in
        if List.exists encloses later then outermost later
        else (name, d) :: outermost later
  in
  outermost (collect [] (newest s))

(* ------------------------------------------------------------------ *)
(* The recording API                                                   *)

module Span = struct
  (** [wrap name f] runs [f] inside a complete ([X]) span. Disabled:
      exactly [f ()]. The span is recorded even when [f] raises. *)
  let wrap ?(args = []) name f =
    match !current with
    | None -> f ()
    | Some s ->
        let t0 = Clock.now_ns () in
        Fun.protect
          ~finally:(fun () ->
            let t1 = Clock.now_ns () in
            emit s
              {
                ev_name = name;
                ev_dur = Int64.sub t1 t0;
                ev_ts = rel s t0;
                ev_tid = tid ();
                ev_args = args;
              })
          f
end

(** [count name ~n] bumps the session's [obs/<name>] counter (and with
    it the calling request's sinks). Only while a session is active,
    which keeps the disabled path allocation-free. *)
let count ?n name =
  match !current with
  | None -> ()
  | Some s -> Util.Counters.bump ~table:s.ctrs ?n ("obs/" ^ name)

(* ------------------------------------------------------------------ *)
(* Session accessors                                                   *)

(** Events in emission order (spans are appended when they close, so a
    span follows the spans nested in it). *)
let events (s : session) = List.rev s.evs

(* The table holds [obs/<name>] rows, the names request sinks see. *)
let counters (s : session) =
  List.map
    (fun (name, v) -> (String.sub name 4 (String.length name - 4), v))
    (Util.Counters.rows s.ctrs)

(** Counters of the active session ([[]] when disabled) — feeds the
    unified stats table. *)
let current_counters () =
  match !current with None -> [] | Some s -> counters s

(** Per-pass profiles in first-execution order. *)
let profiles (s : session) : pass_profile list =
  Mutex.lock s.mu;
  let out =
    List.rev_map
      (fun name ->
        let c = Hashtbl.find s.profs name in
        {
          pr_pass = name;
          pr_calls = c.pc_calls;
          pr_ns = c.pc_ns;
          pr_delta = c.pc_d;
        })
      s.prof_order
  in
  Mutex.unlock s.mu;
  out

(* ------------------------------------------------------------------ *)
(* The toolchain instrument                                            *)

(** [pipeline_instrument ()] is the tracer's view of one compilation:
    [Some] only while a session is active (so the disabled path costs
    one [match] in [Toolchain.compile]). Each phase becomes a span named
    ["phase:<name>"], emitted when the phase ends; each pass becomes a
    span whose interval runs from the previous boundary to the pass's own
    boundary, which makes span time self time by construction (the
    pipeline is sequential within a compile). Pass spans also accumulate
    into the session's per-pass profiles, with IR/debug-info deltas
    differenced against the previous boundary of the same kind (machine
    baselines reset at each function's ["isel"]).

    When the sanitizer is attached to the same compile it runs before
    the tracer, so a pass span includes that pass's boundary validation
    — the cost of checking is attributed to the pass that incurred it.

    Work [Toolchain] wraps in its own span between two boundaries (the
    inter-pass cleanup) nests inside the pass span: the self-time report
    takes it out of the pass by nesting, and the profiles do the same.
    Each such span (outermost ones only) becomes a profile row of its
    own, with zero deltas, which stay with the pass, and its time leaves
    the pass's row. *)
let pipeline_instrument () =
  match !current with
  | None -> None
  | Some s ->
      let my_tid = tid () in
      let last = ref (Clock.now_ns ()) in
      let seen = ref (newest s) in
      let last_ir = ref None in
      let last_mach = ref None in
      let bump_profile name dur d =
        Mutex.lock s.mu;
        let c =
          match Hashtbl.find_opt s.profs name with
          | Some c -> c
          | None ->
              let c =
                { pc_calls = 0; pc_ns = 0L; pc_d = Instrument.zero_counts }
              in
              Hashtbl.replace s.profs name c;
              s.prof_order <- name :: s.prof_order;
              c
        in
        c.pc_calls <- c.pc_calls + 1;
        c.pc_ns <- Int64.add c.pc_ns dur;
        c.pc_d <-
          {
            Instrument.c_instrs = c.pc_d.Instrument.c_instrs + d.Instrument.c_instrs;
            c_blocks = c.pc_d.Instrument.c_blocks + d.Instrument.c_blocks;
            c_lines = c.pc_d.Instrument.c_lines + d.Instrument.c_lines;
            c_vars = c.pc_d.Instrument.c_vars + d.Instrument.c_vars;
          };
        Mutex.unlock s.mu
      in
      let mark () =
        last := Clock.now_ns ();
        seen := newest s
      in
      (* Phases never nest: one start time is enough. *)
      let phase_t0 = ref 0L in
      Some
        {
          Instrument.on_phase_start =
            (fun _ ->
              mark ();
              phase_t0 := !last);
          on_phase_end =
            (fun name ->
              emit s
                {
                  ev_name = "phase:" ^ name;
                  ev_dur = Int64.sub (Clock.now_ns ()) !phase_t0;
                  ev_ts = rel s !phase_t0;
                  ev_tid = my_tid;
                  ev_args = [];
                });
          on_pass =
            (fun name scope ->
              let now = Clock.now_ns () in
              let nested = outermost_since s ~tid:my_tid ~since:!seen in
              let dur =
                let d = Int64.sub now !last in
                if Int64.compare d 0L < 0 then 0L else d
              in
              let cur = Instrument.counts_of_scope scope in
              let delta =
                match scope with
                | Instrument.Ir_program _ ->
                    let d =
                      match !last_ir with
                      | Some p -> Instrument.sub_counts cur p
                      | None -> Instrument.zero_counts
                    in
                    last_ir := Some cur;
                    d
                | Instrument.Mach_fn _ ->
                    (* A fresh function starts a fresh baseline: "isel"
                       is its first boundary. *)
                    let prev = if name = "isel" then None else !last_mach in
                    let d =
                      match prev with
                      | Some p -> Instrument.sub_counts cur p
                      | None -> Instrument.zero_counts
                    in
                    last_mach := Some cur;
                    d
                | Instrument.Binary _ -> Instrument.zero_counts
              in
              emit s
                {
                  ev_name = name;
                  ev_dur = dur;
                  ev_ts = rel s !last;
                  ev_tid = my_tid;
                  ev_args =
                    [
                      ("instrs", string_of_int cur.Instrument.c_instrs);
                      ("d_instrs", string_of_int delta.Instrument.c_instrs);
                      ("d_lines", string_of_int delta.Instrument.c_lines);
                      ("d_vars", string_of_int delta.Instrument.c_vars);
                    ];
                };
              let self =
                List.fold_left (fun acc (_, d) -> Int64.sub acc d) dur nested
              in
              bump_profile name
                (if Int64.compare self 0L < 0 then 0L else self)
                delta;
              List.iter
                (fun (n, d) -> bump_profile n d Instrument.zero_counts)
                nested;
              (* Re-mark after the (unattributed) counting work above. *)
              mark ());
        }

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)

let us_of_ns ns = Int64.to_float ns /. 1000.0

(** The Chrome [trace_event] JSON object ([{"traceEvents": [...]}]),
    loadable in [chrome://tracing] / Perfetto. Timestamps are
    microseconds relative to session start; every recording domain is a
    separate [tid] lane. *)
let to_chrome_json (s : session) =
  let evs =
    (* Sorted by start, so viewers that process sequentially see a
       monotonic stream. *)
    List.stable_sort
      (fun a b -> Int64.compare a.ev_ts b.ev_ts)
      (events s)
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\
     \"args\":{\"name\":\"debugtuner\"}}";
  List.iter
    (fun ev ->
      Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f"
           (Util.Json.escape ev.ev_name) ev.ev_tid (us_of_ns ev.ev_ts)
           (us_of_ns ev.ev_dur));
      if ev.ev_args <> [] then begin
        Buffer.add_string b ",\"args\":{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b
              (Printf.sprintf "\"%s\":\"%s\"" (Util.Json.escape k) (Util.Json.escape v)))
          ev.ev_args;
        Buffer.add_char b '}'
      end;
      Buffer.add_char b '}')
    evs;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Self-time report                                                    *)

type self_row = {
  sr_name : string;
  sr_calls : int;
  sr_total_ns : int64;
  sr_self_ns : int64;  (** total minus time spent in nested spans *)
}

(** Per-name self times: each span's duration minus the durations of
    spans nested directly inside it (same tid, contained interval),
    aggregated by name and sorted by self time, descending. *)
let self_times (s : session) : self_row list =
  (* Group by tid, sort by (start asc, end desc) so parents precede
     their children; a containment stack then attributes each span's
     duration to its direct parent's child-total. *)
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let l = try Hashtbl.find by_tid e.ev_tid with Not_found -> [] in
      Hashtbl.replace by_tid e.ev_tid ((e.ev_name, e.ev_ts, e.ev_dur) :: l))
    (events s);
  let rows : (string, int * int64 * int64) Hashtbl.t = Hashtbl.create 32 in
  let add name dur self =
    let calls, total, selft =
      try Hashtbl.find rows name with Not_found -> (0, 0L, 0L)
    in
    Hashtbl.replace rows name
      (calls + 1, Int64.add total dur, Int64.add selft self)
  in
  Hashtbl.iter
    (fun _tid l ->
      let sorted =
        List.sort
          (fun (_, a0, ad) (_, b0, bd) ->
            match Int64.compare a0 b0 with
            | 0 -> Int64.compare bd ad (* longer first: parent before child *)
            | c -> c)
          l
      in
      (* Stack of open ancestors: (name, end_ts, child_ns ref). *)
      let stk = ref [] in
      let close_until ts =
        let rec go () =
          match !stk with
          | (name, e, dur, children) :: rest when Int64.compare e ts <= 0 ->
              stk := rest;
              add name dur (Int64.sub dur !children);
              (match rest with
              | (_, _, _, pc) :: _ -> pc := Int64.add !pc dur
              | [] -> ());
              go ()
          | _ -> ()
        in
        go ()
      in
      List.iter
        (fun (name, t0, dur) ->
          close_until t0;
          stk := (name, Int64.add t0 dur, dur, ref 0L) :: !stk)
        sorted;
      close_until Int64.max_int)
    by_tid;
  let out =
    Hashtbl.fold
      (fun name (calls, total, self) acc ->
        { sr_name = name; sr_calls = calls; sr_total_ns = total; sr_self_ns = self }
        :: acc)
      rows []
  in
  List.sort
    (fun a b ->
      match Int64.compare b.sr_self_ns a.sr_self_ns with
      | 0 -> compare a.sr_name b.sr_name
      | c -> c)
    out

let ms ns = Int64.to_float ns /. 1e6

(** Sorted self-time text report over every recorded span. *)
let self_time_report (s : session) =
  let rows = self_times s in
  let total = List.fold_left (fun a r -> Int64.add a r.sr_self_ns) 0L rows in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "== Self-time report (%d span name(s), %.3f ms total) ==\n"
       (List.length rows) (ms total));
  Buffer.add_string b
    (Printf.sprintf "%-32s %8s %12s %12s %6s\n" "span" "calls" "total(ms)"
       "self(ms)" "self%");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-32s %8d %12.3f %12.3f %5.1f%%\n" r.sr_name r.sr_calls
           (ms r.sr_total_ns) (ms r.sr_self_ns)
           (if Int64.compare total 0L > 0 then
              100.0 *. Int64.to_float r.sr_self_ns /. Int64.to_float total
            else 0.0)))
    rows;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Chrome trace validation                                             *)

type validation = {
  v_events : int;  (** events checked (metadata excluded) *)
  v_spans : (string * int) list;
      (** per-name span counts ([B] and [X] events), sorted *)
}

(** [validate_chrome text] checks that [text] is a well-formed Chrome
    [trace_event] JSON document: a [{"traceEvents": [...]}] object (or a
    bare event array), every event an object with a string ["name"], a
    ["ph"] of B/E/X/M, a numeric [ts >= 0] and, for X, a numeric
    [dur >= 0]; and per [(pid, tid)] the B/E events (in timestamp order)
    form balanced, name-matched nesting. *)
let validate_chrome (text : string) : (validation, string) result =
  match Util.Json.parse text with
  | exception Util.Json.Parse_error msg -> Error ("malformed JSON: " ^ msg)
  | json -> (
      let events =
        match json with
        | Util.Json.Obj fields -> (
            match List.assoc_opt "traceEvents" fields with
            | Some (Util.Json.Arr evs) -> Ok evs
            | Some _ -> Error "\"traceEvents\" is not an array"
            | None -> Error "missing \"traceEvents\"")
        | Util.Json.Arr evs -> Ok evs
        | _ -> Error "top level is neither an object nor an array"
      in
      match events with
      | Error e -> Error e
      | Ok evs -> (
          let err = ref None in
          let fail_ev i msg =
            if !err = None then err := Some (Printf.sprintf "event %d: %s" i msg)
          in
          let checked = ref [] in
          List.iteri
            (fun i ev ->
              match ev with
              | Util.Json.Obj _ -> (
                  let str k = Option.bind (Util.Json.field k ev) Util.Json.str
                  and num k = Option.bind (Util.Json.field k ev) Util.Json.num in
                  match (str "name", str "ph") with
                  | None, _ -> fail_ev i "missing string \"name\""
                  | _, None -> fail_ev i "missing string \"ph\""
                  | Some name, Some ph -> (
                      match ph with
                      | "M" -> ()
                      | "B" | "E" | "X" -> (
                          let pid =
                            Option.value ~default:0.0 (num "pid")
                          and tid = Option.value ~default:0.0 (num "tid") in
                          match num "ts" with
                          | None -> fail_ev i "missing numeric \"ts\""
                          | Some ts when ts < 0.0 -> fail_ev i "negative \"ts\""
                          | Some ts -> (
                              match ph with
                              | "X" -> (
                                  match num "dur" with
                                  | None ->
                                      fail_ev i "X event missing numeric \"dur\""
                                  | Some d when d < 0.0 ->
                                      fail_ev i "negative \"dur\""
                                  | Some _ ->
                                      checked :=
                                        (pid, tid, ts, ph, name, i) :: !checked)
                              | _ ->
                                  checked :=
                                    (pid, tid, ts, ph, name, i) :: !checked))
                      | _ -> fail_ev i ("bad \"ph\": " ^ ph)))
              | _ -> fail_ev i "not an object")
            evs;
          match !err with
          | Some e -> Error e
          | None ->
              (* B/E balance per (pid, tid), in timestamp order. *)
              let lanes = Hashtbl.create 8 in
              List.iter
                (fun ((pid, tid, _, _, _, _) as e) ->
                  let key = (pid, tid) in
                  let l =
                    try Hashtbl.find lanes key with Not_found -> []
                  in
                  Hashtbl.replace lanes key (e :: l))
                !checked;
              let spans = Hashtbl.create 16 in
              let bump name =
                Hashtbl.replace spans name
                  (1 + try Hashtbl.find spans name with Not_found -> 0)
              in
              Hashtbl.iter
                (fun _ lane ->
                  let sorted =
                    List.stable_sort
                      (fun (_, _, a, _, _, ai) (_, _, b, _, _, bi) ->
                        match compare a b with 0 -> compare ai bi | c -> c)
                      (List.rev lane)
                  in
                  let stk = ref [] in
                  List.iter
                    (fun (_, _, _, ph, name, i) ->
                      match ph with
                      | "X" -> bump name
                      | "B" ->
                          bump name;
                          stk := name :: !stk
                      | "E" -> (
                          match !stk with
                          | top :: rest when top = name -> stk := rest
                          | top :: _ ->
                              fail_ev i
                                (Printf.sprintf
                                   "E \"%s\" does not match open B \"%s\"" name
                                   top)
                          | [] -> fail_ev i ("E \"" ^ name ^ "\" with no open B"))
                      | _ -> ())
                    sorted;
                  match !stk with
                  | [] -> ()
                  | top :: _ ->
                      if !err = None then
                        err := Some ("unclosed B event \"" ^ top ^ "\""))
                lanes;
              (match !err with
              | Some e -> Error e
              | None ->
                  Ok
                    {
                      v_events = List.length !checked;
                      v_spans =
                        List.sort compare
                          (Hashtbl.fold
                             (fun name c acc -> (name, c) :: acc)
                             spans []);
                    })))
