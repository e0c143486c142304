(* An alias of Util.Json: perfbench/ names it and changes only with the benchmark. *)
include Util.Json
