(** Deterministic multicore fan-out for Monte-Carlo trial loops.

    Every experiment table and lower-bound distinguisher in this repository
    is driven by loops of independent trials.  This module fans such loops
    out across OCaml 5 [Domain]s while keeping the {e determinism contract}
    every experiment relies on:

    - trial [t] always draws from [Prng.split g t], never from a stream
      shared with other trials;
    - results are collected into a trial-indexed array and reduced in
      fixed trial order.

    Consequently the output of {!map_trials} / {!map_reduce} is
    byte-identical for a given seed {e regardless of the domain count} —
    [BCC_DOMAINS=1] and [BCC_DOMAINS=8] produce the same tables.  Only
    wall-clock changes.

    {2 Domain count}

    The pool size is, in decreasing priority: the value given to
    {!set_domain_count}; the [BCC_DOMAINS] environment variable
    ({!Env_knob.domains}: an integer in [1, 64], anything else raises
    {!Env_knob.Invalid}); [Domain.recommended_domain_count ()] capped at
    8.  Size 1 means no domains are ever spawned and all combinators
    degrade to plain loops.

    {2 Observability caveats}

    The trace sink ({!Trace}) is sequential-only: when a sink is installed,
    all combinators fall back to the sequential path (results are unchanged
    — only the parallelism is given up) so that event sequence numbers stay
    meaningful.  The metrics registry is mutex-guarded and safe to update
    from trial bodies.  A {!Bcast.Rand_counter} must stay on the domain
    that created it; counters created inside a trial body (as
    [Bcast.run] does) are fine.  See [docs/PARALLELISM.md]. *)

val domain_count : unit -> int
(** The pool size currently in effect (see above). *)

val set_domain_count : int -> unit
(** Overrides the pool size (clamped to [1, 64]).  An existing pool of a
    different size is shut down; the next parallel call re-creates it. *)

val parallel_trials_active : unit -> bool
(** [true] while the calling domain is executing a trial body scheduled by
    this module — used to detect (and sequentialise) nested calls. *)

val map_trials : Prng.t -> trials:int -> (trial:int -> Prng.t -> 'a) -> 'a array
(** [map_trials g ~trials f] computes [f ~trial:t (Prng.split g t)] for
    every [t] in [0, trials) — in parallel when a pool is available — and
    returns the results in trial order.  [g] itself is never advanced.
    Trial bodies must not share unsynchronised mutable state (each body
    gets its own generator; the in-repo samplers and protocols qualify).
    Exceptions raised by a body are re-raised in the caller. *)

val map_reduce :
  Prng.t ->
  trials:int ->
  init:'acc ->
  f:(trial:int -> Prng.t -> 'a) ->
  reduce:('acc -> 'a -> 'acc) ->
  'acc
(** [map_trials] followed by a sequential in-order fold, so non-commutative
    reductions (float sums!) stay deterministic. *)

val map_array : ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map, for work that carries its own seeds
    (e.g. independent simulator replicas).  Same caveats as
    {!map_trials}. *)

val lane_scratch : (unit -> 'a) -> unit -> 'a
(** [lane_scratch create] returns a thunk yielding a per-domain scratch
    value, created by [create] on each domain's first use and reused on
    every later call from that domain.  Intended for kernel work buffers
    whose contents are fully overwritten on each use: reuse can then
    never leak state between trials, and no synchronisation is needed
    because no two domains ever see the same value. *)

val shutdown : unit -> unit
(** Joins and discards the shared pool's worker domains (a no-op when none
    are running).  Called automatically at exit; tests that count domains
    may call it directly. *)
