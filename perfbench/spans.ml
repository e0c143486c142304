(* In-memory span recorder for the traced run. Spans are kept in a list
   and written out once, at exit; the current parent is tracked per
   domain so work the benchmark issues from one domain nests correctly.
   A traced run spans two processes (the layer replay, then the job), so
   one process's spans can be loaded into the next. *)

let mu = Mutex.create ()
let recorded : Perfbench_stat.Stat.span list ref = ref []
let next_id = ref 0
let current : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])
let req = ref 0

let now = Unix.gettimeofday

let fresh_id () =
  Mutex.lock mu;
  let id = !next_id in
  incr next_id;
  Mutex.unlock mu;
  id

let parent () = match Domain.DLS.get current with p :: _ -> p | [] -> -1

let push (s : Perfbench_stat.Stat.span) =
  Mutex.lock mu;
  recorded := s :: !recorded;
  Mutex.unlock mu

let add ~id ~name ~parent start stop =
  push
    { Perfbench_stat.Stat.s_id = id; s_name = name; s_start = start;
      s_stop = stop; s_parent = parent; s_req = !req }

(** Record a finished interval as a child of the current span. *)
let record name start stop = add ~id:(fresh_id ()) ~name ~parent:(parent ()) start stop

(** Open a span around [f]; spans [f] opens nest under it. *)
let wrap name f =
  let id = fresh_id () and parent = parent () in
  let stack = Domain.DLS.get current in
  Domain.DLS.set current (id :: stack);
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      add ~id ~name ~parent t0 (now ());
      Domain.DLS.set current stack)
    f

(** Open a span that {!close} ends, for callbacks that bracket work
    without a closure (the compiler's phase events). *)
let opened : (int * string * int * float) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let open_ name =
  let id = fresh_id () and parent = parent () in
  Domain.DLS.set current (id :: Domain.DLS.get current);
  Domain.DLS.set opened ((id, name, parent, now ()) :: Domain.DLS.get opened)

let close () =
  match Domain.DLS.get opened with
  | (id, name, parent, t0) :: rest ->
      Domain.DLS.set opened rest;
      (match Domain.DLS.get current with
      | _ :: up -> Domain.DLS.set current up
      | [] -> ());
      add ~id ~name ~parent t0 (now ())
  | [] -> ()

let all () = List.rev !recorded

(* Named counts kept beside the spans (the VM's executed instructions). *)
let counts : (string, int) Hashtbl.t = Hashtbl.create 8

let count name n =
  Mutex.lock mu;
  Hashtbl.replace counts name
    (n + Option.value ~default:0 (Hashtbl.find_opt counts name));
  Mutex.unlock mu

let counted name = Option.value ~default:0 (Hashtbl.find_opt counts name)

(** Write every span, then every count, as one JSON object per line. *)
let write file =
  let oc = open_out file in
  List.iter
    (fun (s : Perfbench_stat.Stat.span) ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\"req\":%d}\n"
        s.s_id s.s_name s.s_start s.s_stop s.s_parent s.s_req)
    (all ());
  Hashtbl.iter (fun name n -> Printf.fprintf oc "{\"count\":%S,\"n\":%d}\n" name n) counts;
  close_out oc

(** Add the spans and counts another process wrote with {!write}, their
    ids shifted past every id issued here. *)
let load file =
  let module J = Api_json in
  let base = !next_id in
  let ic = open_in file in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> ()
    | l ->
        let j = J.parse l in
        let num k = Option.get (J.num (Option.get (J.field k j))) in
        let int k = int_of_float (num k) in
        (match J.field "count" j with
        | Some (J.Str name) -> count name (int "n")
        | _ ->
            let id = base + int "id" and parent = int "parent" in
            next_id := max !next_id (id + 1);
            push
              { Perfbench_stat.Stat.s_id = id;
                s_name = Option.get (J.str (Option.get (J.field "name" j)));
                s_start = num "start"; s_stop = num "end";
                s_parent = (if parent < 0 then -1 else base + parent);
                s_req = int "req" });
        go ()
  in
  go ();
  close_in ic
