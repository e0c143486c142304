(** Deterministic pseudo-random number generation (splitmix64).

    Every source of randomness in the repository flows through this
    module so that experiment outputs are bit-for-bit reproducible. *)

type t

val create : int -> t
(** [create seed] — a fresh generator. *)

val copy : t -> t
(** Independent copy continuing from the same state. *)

val bits : t -> int
(** 62 uniform pseudo-random bits as a non-negative int. *)

val int : t -> int -> int
(** [int t n] draws uniformly from [0, n). Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range. *)

val bool : t -> bool

val chance : t -> int -> int -> bool
(** [chance t num den] is true with probability [num/den]. *)

val float : t -> float
(** Uniform in [0, 1). *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choose_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates permutation. *)

val split : t -> t
(** Derive an independent generator; the argument advances once. *)
