(* End-to-end benchmark: three verified workloads, one per process.

   A run makes repeated passes over the same instances, each after its
   own set-up (pool start plus one warm-up instance), and reports each
   instance's best time and the median set-up.  Within a pass, instances
   run in a closed loop: one caller, each instance started when the
   previous one has been checked.  Instance [i] draws every input from
   [Prng.split (Prng.create seed) i], so the seed fixes the inputs and
   the library sees only the generated inputs.

   [--trace 0] reports the end-to-end metrics with no instrumentation.
   [--trace 1] spends a third of the budget on an untraced pass, then reruns
   the same instances with spans around every call this file makes into
   a library layer, and reports the per-layer split.  README.md says why
   each workload exists and which layer metric should move which
   end-to-end metric.  Run through run.py, which builds this program. *)

(* The [Par] pool size of every workload.  A second domain made no
   instance faster on a 2-core shared host (sparse-planted took 1.3-1.6 s
   per instance with one domain or two) and added its scheduling noise. *)
let pool = 1

(* ------------------------------------------------------------ /proc *)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* A [kB] field of /proc/self/status, e.g. VmHWM (peak RSS). *)
let status_kb field =
  let lines = String.split_on_char '\n' (read_file "/proc/self/status") in
  let line = List.find (String.starts_with ~prefix:(field ^ ":")) lines in
  Scanf.sscanf line "%_s@: %d kB" Fun.id

(* Minor and major page faults from /proc/self/stat (fields 10 and 12;
   the command name may hold spaces, so count from its closing paren). *)
let faults () =
  let s = read_file "/proc/self/stat" in
  let after = String.rindex s ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub s after (String.length s - after))) in
  (int_of_string f.(7), int_of_string f.(9))

let mb_of_kb kb = float_of_int kb /. 1024.0

(* ----------------------------------------------------------- tracing *)

type span =
  | Graph_sample
  | Clique_recover
  | Bcast_run
  | Bcast_spawn
  | Bcast_send
  | Bcast_receive
  | Bcast_finish
  | Prg_sample
  | Verify

let slot = function
  | Graph_sample -> 0
  | Clique_recover -> 1
  | Bcast_run -> 2
  | Bcast_spawn -> 3
  | Bcast_send -> 4
  | Bcast_receive -> 5
  | Bcast_finish -> 6
  | Prg_sample -> 7
  | Verify -> 8

(* Per-layer accumulators, summed over the instances of one pass.  With
   [on = false] every wrapper below is a direct call. *)
type trace = {
  on : bool;
  ns : int array;  (** span time, indexed by {!slot} *)
  mutable graph_edges : int;
  mutable graph_minor_words : float;
  mutable graph_major_collections : int;
  mutable graph_minor_faults : int;
  mutable graph_major_faults : int;
  mutable graph_rss_after_kb : int list;
  mutable bcast_minor_words : float;
  mutable bcast_rounds : int;
  mutable bcast_broadcast_bits : int;
  mutable bcast_random_bits : int;
}

let make_trace on =
  {
    on;
    ns = Array.make 9 0;
    graph_edges = 0;
    graph_minor_words = 0.0;
    graph_major_collections = 0;
    graph_minor_faults = 0;
    graph_major_faults = 0;
    graph_rss_after_kb = [];
    bcast_minor_words = 0.0;
    bcast_rounds = 0;
    bcast_broadcast_bits = 0;
    bcast_random_bits = 0;
  }

let charge tr s dt = tr.ns.(slot s) <- tr.ns.(slot s) + dt

let span tr s f =
  if not tr.on then f ()
  else begin
    let t0 = Prof.now_ns () in
    let r = f () in
    charge tr s (Prof.now_ns () - t0);
    r
  end

(* The [graph] layer: one span around the sampler call (on sparse-planted
   that call also builds the CSR), with GC and page-fault deltas taken
   outside the timed interval.  Minor words are the calling domain's
   ([Gc.minor_words] is exact there; [Gc.quick_stat]'s lags until the
   next minor collection). *)
let sample_graph tr edges f =
  if not tr.on then f ()
  else begin
    let minflt0, majflt0 = faults () in
    let gc0 = Gc.quick_stat () and w0 = Gc.minor_words () in
    let t0 = Prof.now_ns () in
    let g = f () in
    charge tr Graph_sample (Prof.now_ns () - t0);
    let w1 = Gc.minor_words () and gc1 = Gc.quick_stat () in
    let minflt1, majflt1 = faults () in
    tr.graph_edges <- tr.graph_edges + edges g;
    tr.graph_minor_words <- tr.graph_minor_words +. (w1 -. w0);
    tr.graph_major_collections <-
      tr.graph_major_collections + (gc1.Gc.major_collections - gc0.Gc.major_collections);
    tr.graph_minor_faults <- tr.graph_minor_faults + (minflt1 - minflt0);
    tr.graph_major_faults <- tr.graph_major_faults + (majflt1 - majflt0);
    tr.graph_rss_after_kb <- status_kb "VmRSS" :: tr.graph_rss_after_kb;
    g
  end

(* The [bcast] layer: the simulator run, with the protocol's closures
   wrapped so their time can be told apart from the simulator's own. *)
let wrap tr (proto : 'o Bcast.protocol) : 'o Bcast.protocol =
  let timed s f =
    let t0 = Prof.now_ns () in
    let r = f () in
    charge tr s (Prof.now_ns () - t0);
    r
  in
  {
    proto with
    spawn =
      (fun ~id ~n ~input ~rand ->
        let p = timed Bcast_spawn (fun () -> proto.spawn ~id ~n ~input ~rand) in
        {
          Bcast.send = (fun ~round -> timed Bcast_send (fun () -> p.send ~round));
          receive = (fun ~round msgs -> timed Bcast_receive (fun () -> p.receive ~round msgs));
          finish = (fun () -> timed Bcast_finish p.finish);
        });
  }

let run_bcast tr proto ~inputs ~rand =
  if not tr.on then Bcast.run proto ~inputs ~rand
  else begin
    let w0 = Gc.minor_words () in
    let t0 = Prof.now_ns () in
    let r = Bcast.run (wrap tr proto) ~inputs ~rand in
    charge tr Bcast_run (Prof.now_ns () - t0);
    tr.bcast_minor_words <- tr.bcast_minor_words +. (Gc.minor_words () -. w0);
    tr.bcast_rounds <- tr.bcast_rounds + r.Bcast.rounds_used;
    tr.bcast_broadcast_bits <- tr.bcast_broadcast_bits + r.Bcast.broadcast_bits;
    tr.bcast_random_bits <- tr.bcast_random_bits + Array.fold_left ( + ) 0 r.Bcast.random_bits;
    r
  end

(* ---------------------------------------------------------- workloads *)

(* Every instance returns whether its output passed the reference check
   (the [verify] layer); that verdict feeds [failed]. *)
type workload = {
  name : string;
  count : int;
      (** instances per pass, 1.5-2.5 s of them: fixed, so that every
          pass and every version of the library runs the same inputs *)
  settle : bool;
      (** collect the heap at the start of each instance, inside its
          timer, so peak RSS is one instance's working set and repeats.
          Without it, planted-bcast's peak after one pass was 56 MB or
          68 MB, by where the major GC's cycle fell; it differed even
          between two copies of the same executable on one seed. *)
  warm : trace -> Prng.t -> bool;  (** one instance at the warm-up size *)
  instance : trace -> Prng.t -> int -> bool;
}

let rows graph n = Array.init n (Digraph.out_row graph)
let sorted l = List.sort_uniq Int.compare l

(* planted-bcast: Theorem B.1's protocol on A_k.  The protocol value
   caches the common-knowledge clique of one run, so it is made fresh for
   every instance. *)
let planted ~n ~k tr g _i =
  let graph, clique =
    sample_graph tr (fun (d, _) -> Digraph.edge_count d) (fun () -> Planted.sample_planted g ~n ~k)
  in
  let r = run_bcast tr (Planted_clique_algo.protocol ~n ~k) ~inputs:(rows graph n) ~rand:g in
  span tr Verify (fun () ->
      let want = sorted clique in
      Clique.is_clique graph want
      && Array.for_all
           (function
             | Planted_clique_algo.Found found -> List.equal Int.equal found want
             | _ -> false)
           r.Bcast.outputs)

(* sparse-planted: p = n^{-1/2}, k = 16 n^{1/4} (e31's scale-free margin),
   sampled and CSR-built in one sharded call, then top-degree recovery. *)
module R = Clique.Recover (Graph_backend.Sparse_backend)

let sparse ~n tr g _i =
  let fn = float_of_int n in
  let p = 1.0 /. Float.sqrt fn in
  let k = int_of_float (Float.round (16.0 *. (fn ** 0.25))) in
  let graph, clique =
    sample_graph tr
      (fun (s, _) -> Sparse.edge_count s)
      (fun () -> Sparse.sample_planted_sharded g ~n ~p ~k)
  in
  let recovered = span tr Clique_recover (fun () -> R.degree_recover graph ~k) in
  span tr Verify (fun () ->
      let want = sorted clique in
      (* Directed entries: 2 Binomial(C(n,2), p) plus the overlay's
         expected excess; 6 sigma. *)
      let pairs = fn *. (fn -. 1.0) /. 2.0 in
      let kf = float_of_int k in
      let mean = (2.0 *. pairs *. p) +. (kf *. (kf -. 1.0) *. (1.0 -. p)) in
      let sigma = 2.0 *. Float.sqrt (pairs *. p *. (1.0 -. p)) in
      List.equal Int.equal recovered want
      && List.for_all
           (fun u -> List.for_all (fun v -> u = v || Sparse.has_edge graph u v) want)
           want
      && Float.abs (float_of_int (Sparse.edge_count graph) -. mean) < 6.0 *. sigma)

(* prg-seed-attack: Theorem 8.1's attack on Theorem 1.3's PRG.  A pseudo
   input is accepted by every processor, a uniform one rejected. *)
let prg (params : Full_prg.params) tr g _i =
  let (pseudo, secret), random =
    span tr Prg_sample (fun () ->
        let ps = Full_prg.sample_inputs_pseudo g params in
        (ps, Full_prg.sample_inputs_rand g params))
  in
  let attack = Seed_attack.protocol ~k:params.Full_prg.k in
  let on_pseudo = run_bcast tr attack ~inputs:pseudo ~rand:g in
  let on_random = run_bcast tr attack ~inputs:random ~rand:g in
  span tr Verify (fun () ->
      let k = params.Full_prg.k in
      Array.for_all Fun.id on_pseudo.Bcast.outputs
      && Array.for_all not on_random.Bcast.outputs
      && Array.for_all
           (fun x -> Bitvec.equal x (Full_prg.expand secret (Bitvec.sub x ~pos:0 ~len:k)))
           pseudo)

let workloads =
  [
    {
      name = "planted-bcast";
      count = 24;
      settle = true;
      warm = (fun tr g -> planted ~n:256 ~k:110 tr g 0);
      instance = planted ~n:512 ~k:160;
    };
    {
      name = "sparse-planted";
      count = 2;
      settle = true;
      warm = (fun tr g -> sparse ~n:20_000 tr g 0);
      instance = sparse ~n:100_000;
    };
    {
      name = "prg-seed-attack";
      count = 256;
      settle = false;
      warm = (fun tr g -> prg { Full_prg.n = 64; k = 20; m = 48 } tr g 0);
      instance = prg { Full_prg.n = 64; k = 20; m = 48 };
    };
  ]

(* -------------------------------------------------------------- runs *)

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Pool start plus one warm-up instance, on a fresh pool: whether the
   warm-up verified, and its seconds. *)
let setup w g =
  Par.shutdown ();
  Gc.compact ();
  Prof.time (fun () ->
      Par.set_domain_count pool;
      w.warm (make_trace false) g)

type pass = {
  times : float array;  (** seconds per instance, in instance order *)
  failed : int;
}

type length = Budget of float | Count of int

(* Runs instances 0, 1, ... until the budget has passed, or exactly
   [Count] instances. *)
let run_pass w tr root length =
  let times = ref [] and failed = ref 0 and i = ref 0 in
  let start = Prof.now_ns () in
  let more () =
    match length with
    | Count c -> !i < c
    | Budget s -> float_of_int (Prof.now_ns () - start) < s *. 1e9
  in
  while more () do
    let g = Prng.split root !i in
    let verified, s =
      Prof.time (fun () ->
          if w.settle then Gc.full_major ();
          try w.instance tr g !i
          with e ->
            Printf.eprintf "%s instance %d raised %s\n%!" w.name !i (Printexc.to_string e);
            false)
    in
    if not verified then begin
      incr failed;
      Printf.eprintf "%s instance %d failed its reference check\n%!" w.name !i
    end;
    times := s :: !times;
    incr i
  done;
  { times = Array.of_list (List.rev !times); failed = !failed }

(* Best of many short passes over the same [w.count] instances, each
   after its own set-up.  A further pass starts while the longest pass so
   far still fits in the budget, so a run ends within it.  Each instance
   keeps its fastest time.  The host's speed drifts
   for minutes at a time under other tenants' load; many samples of each
   instance spread across the run make the result depend on the run's
   fastest stretches, not on where the drift happened to sit.  Workloads
   with slow instances get fewer, longer passes.

   Peak RSS is read after the first pass, which runs the same allocations
   in every run of a seed.  Later passes rerun the same instances, but
   their peak is not theirs alone: on sparse-planted it jumped by 120 MB
   at a pass that varied from run to run, as the C allocator's dynamic
   mmap threshold rose and freed Bigarray buffers stayed resident. *)
let min_passes = 3

let best_of w root ~budget_s =
  let warm_root = Prng.split root (-1) in
  let setups = ref [] and warm_ok = ref true in
  let pass r =
    let ok, s = setup w (Prng.split warm_root r) in
    setups := s :: !setups;
    if not ok then warm_ok := false;
    run_pass w (make_trace false) root (Count w.count)
  in
  let start = Prof.now_ns () in
  let first = pass 0 in
  let peak_kb = status_kb "VmHWM" in
  let best = ref first and passes = ref 1 in
  let longest = ref (Prof.now_ns () - start) in
  while !passes < min_passes || Prof.now_ns () - start + !longest < int_of_float (budget_s *. 1e9) do
    let t0 = Prof.now_ns () in
    let p = pass !passes in
    longest := max !longest (Prof.now_ns () - t0);
    best := { times = Array.map2 Float.min !best.times p.times; failed = !best.failed + p.failed };
    incr passes
  done;
  (!best, !passes, Array.of_list !setups, !warm_ok, peak_kb)

let metric value unit = Artifact.Obj [ ("value", Artifact.Float value); ("unit", Artifact.String unit) ]

let end_to_end (best : pass) ~passes setups ~peak_kb =
  let n = float_of_int (Array.length best.times) in
  [
    ("instances_per_s", metric (n /. Array.fold_left ( +. ) 0.0 best.times) "1/s");
    ("instance_p50_s", metric (median best.times) "s");
    ("peak_rss_mb", metric (mb_of_kb peak_kb) "MB");
    ("setup_s", metric (median setups) "s");
    ("verified_ratio", metric (1.0 -. (float_of_int best.failed /. (n *. float_of_int passes))) "ratio");
  ]

(* Leaf spans: the parts of an instance with no finer split.  [uncovered]
   is instance time no layer span holds (input marshalling, the heap
   collection of [settle]). *)
let per_layer ~name tr ~(untraced : pass) ~(traced : pass) =
  let n = Array.length traced.times in
  let fn = float_of_int n in
  let s sl = float_of_int tr.ns.(slot sl) /. 1e9 in
  let per x = x /. fn in
  let instance_s = Array.fold_left ( +. ) 0.0 traced.times in
  let closures = s Bcast_spawn +. s Bcast_send +. s Bcast_receive +. s Bcast_finish in
  let sim = s Bcast_run -. closures in
  let covered = s Graph_sample +. s Clique_recover +. s Bcast_run +. s Prg_sample +. s Verify in
  let uncovered = instance_s -. covered in
  let leaves =
    [
      ("graph.sample", s Graph_sample);
      ("clique.recover", s Clique_recover);
      ("bcast.spawn", s Bcast_spawn);
      ("bcast.send", s Bcast_send);
      ("bcast.receive", s Bcast_receive);
      ("bcast.finish", s Bcast_finish);
      ("bcast.sim", sim);
      ("prg.sample_inputs", s Prg_sample);
      ("verify.reference", s Verify);
      ("uncovered", uncovered);
    ]
  in
  let shares = List.map (fun (l, t) -> (l, t /. instance_s)) leaves in
  let unsplit = List.filter (fun (_, sh) -> sh > 0.5) shares in
  List.iter
    (fun (l, sh) ->
      Printf.eprintf "profile depth: %s holds %d%% of %s with no finer split\n%!" l
        (int_of_float (Float.round (100.0 *. sh))) name)
    unsplit;
  let rss_after =
    match tr.graph_rss_after_kb with
    | [] -> 0.0
    | l -> median (Array.of_list (List.map mb_of_kb l))
  in
  let mean_untraced = Array.fold_left ( +. ) 0.0 untraced.times /. float_of_int (Array.length untraced.times) in
  [
    ("graph.sample_s", metric (per (s Graph_sample)) "s");
    ("graph.edges", metric (per (float_of_int tr.graph_edges)) "count");
    ("graph.minor_words", metric (per tr.graph_minor_words) "words");
    ("graph.major_collections", metric (per (float_of_int tr.graph_major_collections)) "count");
    ("graph.minor_faults", metric (per (float_of_int tr.graph_minor_faults)) "count");
    ("graph.major_faults", metric (per (float_of_int tr.graph_major_faults)) "count");
    ("graph.rss_after_mb", metric rss_after "MB");
    ("clique.recover_s", metric (per (s Clique_recover)) "s");
    ("bcast.run_s", metric (per (s Bcast_run)) "s");
    ("bcast.spawn_s", metric (per (s Bcast_spawn)) "s");
    ("bcast.send_s", metric (per (s Bcast_send)) "s");
    ("bcast.receive_s", metric (per (s Bcast_receive)) "s");
    ("bcast.finish_s", metric (per (s Bcast_finish)) "s");
    ("bcast.sim_s", metric (per sim) "s");
    ("bcast.minor_words", metric (per tr.bcast_minor_words) "words");
    ("bcast.rounds", metric (per (float_of_int tr.bcast_rounds)) "count");
    ("bcast.broadcast_bits", metric (per (float_of_int tr.bcast_broadcast_bits)) "bits");
    ("bcast.random_bits", metric (per (float_of_int tr.bcast_random_bits)) "bits");
    ("prg.sample_inputs_s", metric (per (s Prg_sample)) "s");
    ("verify.reference_s", metric (per (s Verify)) "s");
    ("trace.overhead_ratio", metric (instance_s /. fn /. mean_untraced) "ratio");
    ("trace.uncovered_ratio", metric (uncovered /. instance_s) "ratio");
    ("trace.max_leaf_share", metric (List.fold_left (fun m (_, sh) -> Float.max m sh) 0.0 shares) "ratio");
    ("trace.unsplit_leaves", metric (float_of_int (List.length unsplit)) "count");
  ]

let usage () =
  prerr_endline
    "usage: e2ebench --workload NAME --seed N --seconds N --trace 0|1\n\
     workloads: planted-bcast sparse-planted prg-seed-attack";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg r = Arg.Int (fun v -> r := Some v) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", int_arg seed, "N");
      ("--seconds", int_arg seconds, "N");
      ("--trace", int_arg trace, "0|1");
    ]
    (fun _ -> usage ())
    "e2ebench";
  let seed, seconds, traced =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some (0 | 1 as tr) when t >= 1 -> (s, t, tr = 1)
    | _ -> usage ()
  in
  let w =
    match List.find_opt (fun w -> String.equal w.name !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let root = Prng.create seed in
  let budget_s = float_of_int seconds in
  let result, attempted, failed, warm_ok =
    if not traced then begin
      let best, passes, setups, warm_ok, peak_kb = best_of w root ~budget_s in
      let n = Array.length best.times in
      (end_to_end best ~passes setups ~peak_kb, passes * n, best.failed, warm_ok)
    end
    else begin
      let warm_ok, _ = setup w (Prng.split root (-1)) in
      (* The traced rerun costs up to 1.6 times the untraced pass
         (planted-bcast); a third of the budget keeps both within it. *)
      let untraced = run_pass w (make_trace false) root (Budget (budget_s /. 3.0)) in
      let tr = make_trace true in
      let count = Array.length untraced.times in
      let traced = run_pass w tr root (Count count) in
      ( per_layer ~name:w.name tr ~untraced ~traced,
        2 * count,
        untraced.failed + traced.failed,
        warm_ok )
    end
  in
  let run_info =
    Artifact.Obj
      [
        ("workload", Artifact.String w.name);
        ("seed", Artifact.Int seed);
        ("pool", Artifact.Int pool);
        ("ocaml", Artifact.String Sys.ocaml_version);
        ("samples", Artifact.Int attempted);
      ]
  in
  print_endline (Artifact.to_string (Artifact.Obj [ ("run", run_info) ]));
  print_endline
    (Artifact.to_string
       (Artifact.Obj
          [
            ("correct", Artifact.Bool (failed = 0 && warm_ok));
            ("attempted", Artifact.Int attempted);
            ("failed", Artifact.Int failed);
            ("metrics", Artifact.Obj result);
          ]))
