(** The planted-clique algorithm of Theorem B.1 (Appendix B).

    For [k = omega(log^2 n)], an [O(n/k * polylog n)]-round BCAST(1)
    protocol that finds the hidden clique with probability [>= 1 - 1/n^2]
    on inputs from [A_k]:

    + each processor stays active with probability [p = log^2 n / k] and
      broadcasts the decision (1 round);
    + if more than [2 n p] processors are active, abort;
    + the subgraph induced by active processors is broadcast (at most
      [ceil(2 n p)] rounds: in edge-round [r] every processor broadcasts its
      adjacency bit to the [r]-th active vertex);
    + everyone locally computes the maximum clique [C_active] of the active
      subgraph; abort if it is smaller than [log^2 n / 2];
    + every processor broadcasts whether it is adjacent to at least a 9/10
      fraction of [C_active] (1 round); the claimed set is the output.

    All processors compute the same maximum clique from the board, so
    the simulator computes it once per run ({!Bcast.Board.common}).
    Protocol values hold no state and may be reused across runs. *)

type outcome =
  | Found of int list  (** The recovered clique, sorted. *)
  | Aborted_too_many_active
  | Aborted_small_clique

val protocol : n:int -> k:int -> outcome Bcast.protocol
(** Inputs are adjacency rows ({!Digraph.out_row}).  All processors return
    the same outcome. *)

val activation_probability : n:int -> k:int -> float
(** [p = log^2 n / k] (clamped to 1). *)

val round_budget : n:int -> k:int -> int
(** The fixed round count of {!protocol}: [2 + ceil(2 n p)]. *)

val expected_success_probability : n:int -> k:int -> float
(** The Chernoff-based lower bound from the paper's analysis (informative
    only; the experiment measures the true rate). *)
