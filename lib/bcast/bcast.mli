(** The Broadcast Congested Clique simulator.

    [n] processors with unlimited local computation; computation proceeds
    in synchronous rounds; in each round every processor broadcasts one
    [msg_bits]-wide message to all others (BCAST(1) is [msg_bits = 1],
    BCAST(log n) is [msg_bits = ceil(log2 n)]).  Within a round a processor
    cannot see the other messages of the same round — it sees the full
    transcript of strictly earlier rounds.

    Processors are spawned from a {!protocol} description with a private
    input and a private, metered randomness source; the runner collects the
    transcript, the per-processor outputs, and exact resource usage
    (rounds, broadcast bits, private random bits). *)

module Rand_counter : sig
  (** A metered randomness source.  Every derived draw is accounted in
      bits, which is how the paper's "each processor uses up to [n] random
      bits" statements are checked experimentally. *)

  (** A counter's state is unsynchronised and pinned to the domain that
      created it: any draw from another domain raises [Failure].  Parallel
      trial loops (see [Par]) therefore create counters inside the trial
      body — which [Bcast.run] does — rather than sharing them. *)
  type t

  val make : Prng.t -> t
  val deterministic : unit -> t
  (** A source that raises [Failure] on any draw — spawning protocols with
      it proves they are deterministic. *)

  val of_tape : Bitvec.t -> t
  (** A source that serves the bits of a fixed tape in order and raises
      [Failure] when the tape is exhausted.  The derandomization transform
      of Corollary 7.1 feeds a protocol its pseudo-random bits this way. *)

  val bits_used : t -> int

  val set_owner : t -> int -> unit
  (** Attributes subsequent draws to a processor id in trace events; the
      runners call this, protocol code normally should not. *)

  val bool : t -> bool
  val bits : t -> int -> int
  (** [bits r w]: [w] fresh bits as an integer, [w <= 30]. *)

  val bitvec : t -> int -> Bitvec.t
  val int_below : t -> int -> int
  (** Uniform in [0, bound); accounting charges [ceil(log2 bound)] bits per
      rejection-sampling attempt. *)

  val bits64 : t -> int64
  (** One whole 64-bit word, charged 64 bits.  Tape sources assemble the
      word from 64 tape bits LSB-first (matching {!bits}). *)

  val fill_bits64 : t -> Prng.i64buf -> pos:int -> len:int -> unit
  (** [len] words via {!Prng.Block.fill_bits64}, charged exactly
      [len * 64] bits — the same charge, words and end state as [len]
      scalar {!bits64} calls (test_bcast pins the equality). *)

  val fill_float : t -> Prng.f64buf -> pos:int -> len:int -> unit
  (** As {!fill_bits64} for uniform floats; charged [len * 64] bits, the
      charge of the underlying word draws. *)

  val bernoulli_bits : int
  (** 30 — the exact per-call charge of {!bernoulli}. *)

  val bernoulli : t -> float -> bool
  (** Charged as exactly {!bernoulli_bits} bits (fixed-precision
      threshold comparison); the implementation asserts the charge. *)
end

module Board = Board
(** The run's broadcast board: what every processor may see. *)

type 'out processor = {
  send : round:int -> int;
  (** The message to broadcast this round (must fit in [msg_bits]).
      Called exactly once per round, before {!receive} for that round. *)
  receive : round:int -> Board.t -> unit;
  (** Called once per round after every processor has sent.  The board
      holds every round so far, this one included (round [round] is its
      last); it is the same board for every processor and it is
      read-only.  A processor may keep it and read it again in later
      [send]s and in [finish]: it then shows the rounds completed so
      far, never the one being sent. *)
  finish : unit -> 'out;
  (** The processor's final output, after the last round. *)
}

type 'out protocol = {
  name : string;
  msg_bits : int;
  rounds : int;
  spawn : id:int -> n:int -> input:Bitvec.t -> rand:Rand_counter.t -> 'out processor;
}

type 'out result = {
  transcript : Transcript.t;
  outputs : 'out array;
  rounds_used : int;
  broadcast_bits : int;
  (** Total bits put on the channel: [rounds * n * msg_bits]. *)
  random_bits : int array;
  (** Private random bits consumed, per processor. *)
}

val run : 'out protocol -> inputs:Bitvec.t array -> rand:Prng.t -> 'out result
(** Executes the protocol synchronously.  [inputs] has length [n]; each
    processor's randomness source is split deterministically from [rand]. *)

val run_with_sources :
  'out protocol -> inputs:Bitvec.t array -> sources:Rand_counter.t array -> 'out result
(** Like {!run} with explicit randomness sources, one per processor (for
    example {!Rand_counter.of_tape} tapes).  The runner owns the run's
    {!Board}: it appends each round once and hands it to every
    [receive]. *)

val run_deterministic : 'out protocol -> inputs:Bitvec.t array -> 'out result
(** Like {!run} but processors get a {!Rand_counter.deterministic} source. *)

val msg_bits_for_log_n : int -> int
(** [ceil (log2 n)], the BCAST(log n) message width. *)

(** {1 Combinators} *)

val map_output : ('a -> 'b) -> 'a protocol -> 'b protocol

val with_rounds : int -> 'a protocol -> 'a protocol
(** Override the round budget (e.g. to truncate a protocol, as the
    time-hierarchy experiment does). *)

val sequential : 'a protocol -> 'b protocol -> ('a * 'b) protocol
(** Run the first protocol's rounds, then the second's, on the same
    inputs; outputs are paired.  The phases are independent (the second
    protocol cannot read the first's conclusions — for data-dependent
    chaining write a single protocol): the first sees the board
    truncated to its rounds, the second the board shifted past them.
    [msg_bits] must agree. *)

val parallel_pair : 'a protocol -> 'b protocol -> ('a * 'b) protocol
(** Run both protocols simultaneously by packing their messages side by
    side: [msg_bits = b1 + b2], [rounds = max r1 r2] (a finished
    protocol's lane carries zeros).  Each side sees only its own lane of
    the board, truncated to its own rounds.  Models the standard
    bandwidth-for-rounds tradeoff. *)
