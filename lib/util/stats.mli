(** Statistics helpers for aggregating experiment results. *)

val mean : float list -> float
(** Arithmetic mean; [nan] on the empty list. *)

val geomean : ?eps:float -> float list -> float
(** Geometric mean (the paper's per-program aggregate); zeros are clamped
    to [eps]. *)

val geo_stddev : ?eps:float -> float list -> float
(** Geometric standard deviation: [exp (stddev (log xs))]. *)

val median : float list -> float

val pct_delta : float -> float -> float
(** [pct_delta reference value] — percentage change of [value] over
    [reference], e.g. [pct_delta 0.25 0.27 = 8.0]. *)
