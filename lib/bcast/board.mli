(** The broadcast board of one BCAST run.

    In the Broadcast Congested Clique every processor sees the same
    public history: the messages of all strictly earlier rounds, plus
    (when it receives) the round just completed.  The board is that
    history, stored once per run: one message per sender per round,
    appended by the runner after every processor has sent, and handed
    read-only to each processor's [receive].

    A {!t} is a {e view}: the runner's board, or a window of it that a
    combinator hands a sub-protocol ({!shift}, {!truncate}, {!lane}).
    Views are cheap descriptors over the shared rounds; none of them can
    write.  A view held across rounds grows as the runner appends, but
    only after every processor has sent, so a processor reading its
    saved view in [send] sees strictly earlier rounds, never the current
    one.

    {!common} memoizes pure functions of the board: everything every
    processor can compute from public information alone ("common
    knowledge") is computed once per run instead of once per processor.
    See docs/MODEL.md for the contract. *)

type t
(** A read-only view of one run's board. *)

type store
(** The writable board.  Only the runners ({!Bcast}, {!Unicast}) hold
    one; protocols never see it. *)

val create : n:int -> msg_bits:int -> store
(** An empty board for [n] senders of [msg_bits]-wide messages. *)

val append : store -> int array -> unit
(** Appends one round.  The board takes ownership of the array (one
    message per sender, indexed by sender); the caller must not mutate
    it afterwards.  Values are the runner's to validate. *)

val view : store -> t
(** The whole board. *)

val empty : n:int -> msg_bits:int -> t
(** A board with no rounds: what a processor holds before its first
    [receive] (a protocol run for zero rounds never gets another). *)

(** {1 Reading} *)

val n : t -> int
(** Senders per round. *)

val msg_bits : t -> int
(** Width of the messages this view shows. *)

val length : t -> int
(** Rounds visible through this view. *)

val get : t -> round:int -> sender:int -> int
(** The message [sender] broadcast in [round] (0-based within the
    view).  Raises [Invalid_argument] outside the view. *)

val round_bits : t -> round:int -> Bitvec.t
(** 1-bit views only: bit [i] is sender [i]'s message in [round] — one
    packed column of the board.  A fresh vector. *)

val sender_bits : t -> sender:int -> Bitvec.t
(** 1-bit views only: bit [r] is [sender]'s message in round [r], for
    every round of the view — one packed row of the board.  A fresh
    vector of {!length} bits. *)

(** {1 Windows} *)

val shift : t -> rounds:int -> t
(** Drops the first [rounds] rounds: round [r] of the result is round
    [r + rounds] of [t]. *)

val truncate : t -> rounds:int -> t
(** At most the first [rounds] rounds of [t].  Its length stops growing
    at [rounds], so a {!common} value keyed on it is computed once. *)

val lane : t -> pos:int -> width:int -> t
(** Bits [pos .. pos + width - 1] of every message. *)

(** {1 Common knowledge} *)

type 'a key
(** Names one memoized quantity.  Make keys once per protocol value (or
    once per module); a key holds no state. *)

val key : string -> 'a key
(** The name labels the computation's [Prof] span ([common:<name>]). *)

val common : t -> 'a key -> (t -> 'a) -> 'a
(** [common t k f] is [f t], computed at most once per run for each
    [(k, view, length t)]: later calls with the same key on the same
    window of the same board, at the same length, return the stored
    value.  [f] must be a pure function of its argument — it must not
    read processor-private state — and its result must not be mutated by
    callers, since every processor shares it.  The memo lives in the
    run's board, on the runner's domain, so it needs no synchronisation
    and dies with the run. *)
