(* Print the [Build_stamp] module for the files named on the command
   line: the MD5 of each path (as given), its length and its content,
   in ascending path order. *)
let () =
  let paths = List.sort compare (List.tl (Array.to_list Sys.argv)) in
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun path ->
      let text = In_channel.with_open_bin path In_channel.input_all in
      Printf.bprintf b "%s\n%d\n%s" path (String.length text) text)
    paths;
  Printf.printf
    "(** MD5 of the %d source files under lib/, generated by stamp/gen.ml. *)\n\
     let digest = %S\n"
    (List.length paths)
    (Digest.to_hex (Digest.string (Buffer.contents b)))
