(* Named counters with request-scoped sinks (see counters.mli). *)

module Names = Map.Make (String)

type table = int Atomic.t Names.t Atomic.t

let create () = Atomic.make Names.empty
let process = create ()

(* A name's cell, created by compare-and-set on first use: readers never
   block, and two domains racing to create the same name agree on the
   winner's cell. *)
let rec cell t name =
  let m = Atomic.get t in
  match Names.find name m with
  | c -> c
  | exception Not_found ->
      let c = Atomic.make 0 in
      if Atomic.compare_and_set t m (Names.add name c m) then c
      else cell t name

let add t name n = ignore (Atomic.fetch_and_add (cell t name) n : int)

let rows t =
  List.filter_map
    (fun (name, c) -> match Atomic.get c with 0 -> None | v -> Some (name, v))
    (Names.bindings (Atomic.get t))

(* The open sinks of one thread, innermost first. *)
type frame = { sink : table; up : frame option }
type scope = frame option
type sink = table

(* Each domain's [(thread id, innermost frame)] bindings. Only threads
   of the owning domain touch its cell, so no two domains contend on
   it; the compare-and-set guards against a thread switch between
   reading and writing it. *)
let frames : (int * frame) list Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make [])

let current_scope () =
  match Atomic.get (Domain.DLS.get frames) with
  | [] -> None
  | bound -> List.assoc_opt (Thread.id (Thread.self ())) bound

let within scope f =
  let bound = Domain.DLS.get frames and id = Thread.id (Thread.self ()) in
  let rec bind sc =
    let old = Atomic.get bound in
    let others = List.remove_assoc id old in
    let next = match sc with None -> others | Some fr -> (id, fr) :: others in
    if not (Atomic.compare_and_set bound old next) then bind sc
  in
  let prev = current_scope () in
  bind scope;
  Fun.protect ~finally:(fun () -> bind prev) f

let bump ?(table = process) ?(n = 1) name =
  add table name n;
  let rec forward = function
    | None -> ()
    | Some fr ->
        add fr.sink name n;
        forward fr.up
  in
  forward (current_scope ())

let create_sink = create

let with_sink s f = within (Some { sink = s; up = current_scope () }) f

let sink_rows = rows

let scoped f =
  let s = create_sink () in
  let v = with_sink s f in
  (v, sink_rows s)
