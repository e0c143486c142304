(** AutoFDO: sample-based feedback-directed optimization (paper
    Section V-C).

    The causal chain reproduced end to end:

    + compile a {e profiling binary} at some configuration;
    + run it under cost-driven PC sampling (the perf-counter stand-in);
    + map each sampled address to a source line {e through that binary's
      line table} — samples landing on addresses without line info are
      lost;
    + aggregate into a source profile (line -> count);
    + recompile at the {e standard} level with the profile driving block
      frequencies, branch probabilities and inliner hotness.

    A debug-friendlier profiling configuration (the [O2-dy] of RQ3) keeps
    more line-table entries, loses fewer samples, and therefore produces
    a truer profile — measurable as a faster final binary. *)

type collection = {
  profile : Toolchain.profile;
  samples_taken : int;
  samples_lost : int;  (** sampled addresses with no line attribution *)
}

(** [collect prog ~entry ~workloads ~period ~seed] runs the loaded
    profiling binary over the workloads with sampling on. *)
let collect (prog : Vm.loaded) ~entry ~(workloads : int list list) ~period
    ~seed : collection =
  let bin = prog.Vm.binary in
  let line_counts = Hashtbl.create 256 in
  let taken = ref 0 and lost = ref 0 in
  List.iteri
    (fun i input ->
      let res =
        Vm.exec prog ~entry ~input
          { Vm.default_opts with sample_period = Some period; seed = seed + i }
      in
      List.iter
        (fun addr ->
          incr taken;
          match
            if addr >= 0 && addr < Array.length bin.Emit.line_of then
              bin.Emit.line_of.(addr)
            else None
          with
          | Some line ->
              Hashtbl.replace line_counts line
                (1 + Option.value ~default:0 (Hashtbl.find_opt line_counts line))
          | None -> incr lost)
        res.Vm.samples)
    workloads;
  {
    profile = { Toolchain.line_counts; total_samples = !taken - !lost };
    samples_taken = !taken;
    samples_lost = !lost;
  }

type outcome = {
  final_cost : int;
  profiling_cost : int;
  lost_fraction : float;
  steppable_lines : int;  (** of the profiling binary (Table XV proxy) *)
}

(** Total VM cost of a loaded binary over the workloads. *)
let workload_cost (prog : Vm.loaded) ~entry workloads =
  List.fold_left
    (fun acc input -> acc + (Vm.exec prog ~entry ~input Vm.default_opts).Vm.cost)
    0 workloads

(** [run_autofdo src ~roots ~entry ~workloads ~profiling_config
    ~final_config] performs one full AutoFDO iteration and measures the
    final binary on the same workloads. *)
let run_autofdo (src : Minic.Ast.program) ~roots ~entry ~workloads
    ~(profiling_config : Config.t) ~(final_config : Config.t) ?(period = 211)
    ?(seed = 7) () : outcome =
  let profiling_bin = Toolchain.compile src ~config:profiling_config ~roots in
  let profiling = Vm.load profiling_bin in
  let coll = collect profiling ~entry ~workloads ~period ~seed in
  let final_bin =
    Toolchain.compile
      ~options:(Toolchain.Options.make ~profile:coll.profile ())
      src ~config:final_config ~roots
  in
  let total_cost = workload_cost (Vm.load final_bin) ~entry workloads in
  let profiling_cost = workload_cost profiling ~entry workloads in
  {
    final_cost = total_cost;
    profiling_cost;
    lost_fraction =
      (if coll.samples_taken = 0 then 0.0
       else float_of_int coll.samples_lost /. float_of_int coll.samples_taken);
    steppable_lines =
      List.length (Dwarfish.steppable_lines profiling_bin.Emit.debug);
  }

(* ------------------------------------------------------------------ *)
(* Profile serialization (the llvm-profdata / create_llvm_prof text
   format analog): a versioned header, the total, then sorted
   "line: count" rows. Good profiles are inspectable and diffable;
   the paper's pipeline passes them between perf, create_llvm_prof and
   the compiler as files exactly like this. *)

exception Profile_error of string

let profile_to_string (p : Toolchain.profile) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "autofdo-profile v1\n";
  Buffer.add_string buf
    (Printf.sprintf "total: %d\n" p.Toolchain.total_samples);
  let rows =
    Hashtbl.fold (fun line count acc -> (line, count) :: acc)
      p.Toolchain.line_counts []
  in
  List.iter
    (fun (line, count) ->
      Buffer.add_string buf (Printf.sprintf "%d: %d\n" line count))
    (List.sort compare rows);
  Buffer.contents buf

let profile_of_string (text : string) : Toolchain.profile =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | header :: total_row :: rows ->
      if header <> "autofdo-profile v1" then
        raise (Profile_error ("bad header: " ^ header));
      let total =
        match String.index_opt total_row ':' with
        | Some i when String.sub total_row 0 i = "total" -> (
            let v =
              String.trim
                (String.sub total_row (i + 1) (String.length total_row - i - 1))
            in
            match int_of_string_opt v with
            | Some n when n >= 0 -> n
            | _ -> raise (Profile_error ("bad total: " ^ total_row)))
        | _ -> raise (Profile_error ("missing total row: " ^ total_row))
      in
      let line_counts = Hashtbl.create 64 in
      let sum = ref 0 in
      List.iter
        (fun row ->
          match String.index_opt row ':' with
          | None -> raise (Profile_error ("bad row: " ^ row))
          | Some i -> (
              let line = String.sub row 0 i in
              let count =
                String.trim (String.sub row (i + 1) (String.length row - i - 1))
              in
              match (int_of_string_opt line, int_of_string_opt count) with
              | Some l, Some c when l > 0 && c > 0 ->
                  if Hashtbl.mem line_counts l then
                    raise
                      (Profile_error (Printf.sprintf "duplicate line %d" l));
                  Hashtbl.replace line_counts l c;
                  sum := !sum + c
              | _ -> raise (Profile_error ("bad row: " ^ row))))
        rows;
      if !sum <> total then
        raise
          (Profile_error
             (Printf.sprintf "total %d does not match row sum %d" total !sum));
      { Toolchain.line_counts; total_samples = total }
  | _ -> raise (Profile_error "missing header")
