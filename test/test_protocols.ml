(* Tests for the concrete protocols: Theorem B.1's clique finder, the
   distinguisher suite, full-rank protocols, the seed attack, equality. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Planted_clique_algo --- *)

let run_clique_algo ~seed ~n ~k =
  let g = Prng.create seed in
  let graph, clique = Planted.sample_planted g ~n ~k in
  let inputs = Array.init n (Digraph.out_row graph) in
  let proto = Planted_clique_algo.protocol ~n ~k in
  let result = Bcast.run proto ~inputs ~rand:g in
  (result, clique)

let test_clique_algo_recovers () =
  let successes = ref 0 in
  for seed = 1 to 10 do
    let result, clique = run_clique_algo ~seed ~n:150 ~k:64 in
    (match result.Bcast.outputs.(0) with
    | Planted_clique_algo.Found found when found = clique -> incr successes
    | _ -> ())
  done;
  check_bool "recovers almost always" true (!successes >= 9)

let test_clique_algo_outputs_agree () =
  let result, _ = run_clique_algo ~seed:3 ~n:120 ~k:60 in
  let first = result.Bcast.outputs.(0) in
  Array.iter
    (fun o -> check_bool "all processors agree" true (o = first))
    result.Bcast.outputs

let test_clique_algo_round_budget () =
  let n = 150 and k = 64 in
  let proto = Planted_clique_algo.protocol ~n ~k in
  check_int "rounds match budget" (Planted_clique_algo.round_budget ~n ~k)
    proto.Bcast.rounds;
  (* O(n/k polylog n): sublinear once k is comfortably above log^2 n. *)
  check_bool "sublinear for large k" true
    (Planted_clique_algo.round_budget ~n:4096 ~k:2048 < 4096);
  (* The budget scales as 1/k. *)
  check_bool "decreasing in k" true
    (Planted_clique_algo.round_budget ~n:1024 ~k:512
     < Planted_clique_algo.round_budget ~n:1024 ~k:256)

let test_clique_algo_activation_probability () =
  let p = Planted_clique_algo.activation_probability ~n:256 ~k:64 in
  check_bool "p = log^2 n / k" true (Float.abs (p -. (64.0 /. 64.0)) < 1e-9);
  let p2 = Planted_clique_algo.activation_probability ~n:256 ~k:128 in
  check_bool "halves with k" true (Float.abs (p2 -. 0.5) < 1e-9);
  check_bool "clamped at 1" true (Planted_clique_algo.activation_probability ~n:256 ~k:8 <= 1.0)

let test_clique_algo_expected_success () =
  let p = Planted_clique_algo.expected_success_probability ~n:1024 ~k:300 in
  check_bool "analysis bound in [0,1]" true (p >= 0.0 && p <= 1.0)

let test_clique_algo_invalid_k () =
  Alcotest.check_raises "k = 0" (Invalid_argument "Planted_clique_algo: k must be positive")
    (fun () -> ignore (Planted_clique_algo.activation_probability ~n:10 ~k:0))

(* --- Distinguishers --- *)

let test_distinguisher_blind_at_small_k () =
  let g = Prng.create 21 in
  let adv =
    Distinguishers.advantage Distinguishers.max_out_degree ~n:256 ~k:4 ~calibration:40
      ~trials:40 g
  in
  check_bool "blind below threshold" true (Float.abs adv < 0.25)

let test_distinguisher_sees_large_k () =
  let g = Prng.create 22 in
  let adv =
    Distinguishers.advantage Distinguishers.total_edges ~n:256 ~k:64 ~calibration:40
      ~trials:40 g
  in
  check_bool "detects k >> sqrt(n)" true (adv > 0.5)

let test_sampled_clique_statistic () =
  let g = Prng.create 23 in
  let d = Distinguishers.sampled_subgraph_clique ~sample_size:32 in
  let graph = Planted.sample_rand g 64 in
  let s = d.Distinguishers.statistic g graph in
  check_bool "statistic positive" true (s >= 1.0);
  check_bool "bounded by sample" true (s <= 32.0)

let test_common_neighbors_statistic_bounds () =
  let g = Prng.create 24 in
  let d = Distinguishers.common_neighbors ~pairs:32 in
  let graph = Planted.sample_rand g 64 in
  let s = d.Distinguishers.statistic g graph in
  check_bool "bounded by n" true (s >= 0.0 && s <= 64.0)

(* --- Full_rank --- *)

let test_exact_full_rank_protocol () =
  let g = Prng.create 31 in
  let n = 12 in
  let proto = Full_rank.exact_protocol ~n in
  for trial = 1 to 20 do
    let m = Full_rank.sample_uniform ~n (Prng.split g trial) in
    let inputs = Array.init n (Gf2_matrix.row m) in
    let result = Bcast.run_deterministic proto ~inputs in
    check_bool "matches truth" true
      (result.Bcast.outputs.(0) = Gf2_matrix.is_full_rank m);
    (* All processors agree. *)
    Array.iter (fun o -> check_bool "agree" true (o = result.Bcast.outputs.(0)))
      result.Bcast.outputs
  done

let test_truncated_protocol_accuracy_regime () =
  let g = Prng.create 32 in
  let n = 24 in
  let proto = Full_rank.truncated_protocol ~n ~rounds:2 in
  let acc =
    Full_rank.accuracy proto ~truth:Gf2_matrix.is_full_rank
      ~sample:(Full_rank.sample_uniform ~n) ~trials:300 g
  in
  (* Should be near 1 - Q_0 ~ 0.711, certainly below 0.99 and above 0.5. *)
  check_bool "stuck near 1 - Q_0" true (acc > 0.55 && acc < 0.9)

let test_truncated_at_n_is_exact () =
  let g = Prng.create 33 in
  let n = 10 in
  let proto = Full_rank.truncated_protocol ~n ~rounds:n in
  let acc =
    Full_rank.accuracy proto ~truth:Gf2_matrix.is_full_rank
      ~sample:(Full_rank.sample_uniform ~n) ~trials:100 g
  in
  Alcotest.(check (float 1e-9)) "exact at full rounds" 1.0 acc

let test_top_k_protocol () =
  let g = Prng.create 34 in
  let n = 12 and k = 6 in
  let proto = Full_rank.top_k_protocol ~n ~k in
  check_int "k rounds" k proto.Bcast.rounds;
  for trial = 1 to 20 do
    let m = Full_rank.sample_uniform ~n (Prng.split g trial) in
    let inputs = Array.init n (Gf2_matrix.row m) in
    let result = Bcast.run_deterministic proto ~inputs in
    check_bool "top-k truth" true
      (result.Bcast.outputs.(0) = (Gf2_matrix.rank_of_top_left m k = k))
  done

let test_rank_deficient_sampler () =
  let g = Prng.create 35 in
  for trial = 1 to 20 do
    let m = Full_rank.sample_rank_deficient ~n:10 (Prng.split g trial) in
    check_bool "never full rank" false (Gf2_matrix.is_full_rank m)
  done

let test_column_protocol_validation () =
  Alcotest.check_raises "bad rounds" (Invalid_argument "Full_rank: need 1 <= rounds <= k")
    (fun () -> ignore (Full_rank.truncated_protocol ~n:8 ~rounds:0))

(* --- Seed_attack --- *)

let test_seed_attack_breaks_prg () =
  let g = Prng.create 41 in
  let params = { Full_prg.n = 20; k = 6; m = 16 } in
  let adv = Seed_attack.advantage ~params ~trials:60 g in
  check_bool "advantage essentially 1" true (adv > 0.9)

let test_seed_attack_false_positives_rare () =
  let g = Prng.create 42 in
  let params = { Full_prg.n = 20; k = 6; m = 16 } in
  let fp = Seed_attack.false_positive_rate ~params ~trials:100 g in
  check_bool "rare" true (fp < 0.05)

let test_seed_attack_rounds () =
  check_int "k+1 rounds" 7 (Seed_attack.rounds ~k:6);
  let proto = Seed_attack.protocol ~k:6 in
  check_int "protocol rounds" 7 proto.Bcast.rounds

let test_rank_test_blind_within_k () =
  let g = Prng.create 43 in
  let params = { Full_prg.n = 24; k = 8; m = 20 } in
  let proto = Seed_attack.rank_test_protocol ~rounds:6 in
  let gap =
    Advantage.protocol_gap proto
      ~sample_yes:(fun g -> fst (Full_prg.sample_inputs_pseudo g params))
      ~sample_no:(fun g -> Full_prg.sample_inputs_rand g params)
      ~trials:80 g
  in
  check_bool "blind below k rounds" true (Float.abs gap < 0.15)

let test_rank_test_breaks_beyond_k () =
  let g = Prng.create 44 in
  let params = { Full_prg.n = 24; k = 8; m = 20 } in
  let proto = Seed_attack.rank_test_protocol ~rounds:(params.Full_prg.k + 1) in
  let gap =
    Advantage.protocol_gap proto
      ~sample_yes:(fun g -> fst (Full_prg.sample_inputs_pseudo g params))
      ~sample_no:(fun g -> Full_prg.sample_inputs_rand g params)
      ~trials:80 g
  in
  check_bool "breaks at k+1 rounds" true (gap > 0.9)

(* --- Equality --- *)

let test_equality_deterministic () =
  let m = 6 in
  let proto = Equality.deterministic_protocol ~m in
  let x = Bitvec.of_string "101010" in
  let equal_inputs = Array.make 4 x in
  let r1 = Bcast.run_deterministic proto ~inputs:equal_inputs in
  check_bool "accepts equal" true r1.Bcast.outputs.(0);
  let unequal = Array.map Bitvec.copy equal_inputs in
  Bitvec.flip unequal.(2) 0;
  let r2 = Bcast.run_deterministic proto ~inputs:unequal in
  check_bool "rejects unequal" false r2.Bcast.outputs.(0)

let test_fingerprint_one_sided () =
  let m = 10 in
  let proto = Equality.fingerprint_protocol ~m ~repetitions:2 in
  let x = Prng.bitvec (Prng.create 51) m in
  let inputs = Array.make 5 x in
  for t = 1 to 20 do
    let result = Bcast.run proto ~inputs ~rand:(Prng.create (300 + t)) in
    check_bool "always accepts equal" true result.Bcast.outputs.(0)
  done

let test_fingerprint_error_rate () =
  let m = 10 and repetitions = 3 in
  let proto = Equality.fingerprint_protocol ~m ~repetitions in
  let g = Prng.create 52 in
  let inputs = Array.init 5 (fun _ -> Prng.bitvec g m) in
  let false_accepts = ref 0 in
  let trials = 200 in
  for t = 1 to trials do
    let result = Bcast.run proto ~inputs ~rand:(Prng.create (400 + t)) in
    if result.Bcast.outputs.(0) then incr false_accepts
  done;
  (* Error <= 2^-repetitions per differing pair; with 5 random inputs it is
     far smaller, but just check it is clearly below 1/2. *)
  check_bool "error well below 1/2" true
    (float_of_int !false_accepts /. float_of_int trials < 0.3)

let test_public_coin_equality () =
  let base = Equality.fingerprint_public_coin ~n:3 ~m:6 ~repetitions:2 in
  let g = Prng.create 53 in
  let coins = Prng.bitvec g base.Newman.coin_bits in
  let x = Prng.bitvec g 6 in
  check_bool "equal accepted" true
    (base.Newman.run ~coins ~inputs:(Array.make 3 x));
  check_int "coin budget" 12 base.Newman.coin_bits

let test_all_equal () =
  let x = Bitvec.of_string "11" in
  check_bool "equal" true (Equality.all_equal [| x; Bitvec.copy x |]);
  check_bool "unequal" false (Equality.all_equal [| x; Bitvec.of_string "10" |])

(* --- qcheck --- *)

let prop_clique_algo_outcome_valid =
  QCheck.Test.make ~name:"B.1 outcome is a clique when Found" ~count:8 QCheck.small_int
    (fun seed ->
      let g = Prng.create (1000 + seed) in
      let n = 100 and k = 50 in
      let graph, _ = Planted.sample_planted g ~n ~k in
      let inputs = Array.init n (Digraph.out_row graph) in
      let proto = Planted_clique_algo.protocol ~n ~k in
      let result = Bcast.run proto ~inputs ~rand:g in
      match result.Bcast.outputs.(0) with
      | Planted_clique_algo.Found c -> Digraph.is_bidirectional_clique graph c
      | Planted_clique_algo.Aborted_too_many_active
      | Planted_clique_algo.Aborted_small_clique -> true)

let prop_equality_deterministic_correct =
  QCheck.Test.make ~name:"deterministic equality always correct" ~count:40
    QCheck.small_int (fun seed ->
      let g = Prng.create seed in
      let m = 5 in
      let inputs =
        if seed mod 2 = 0 then Array.make 3 (Prng.bitvec g m)
        else Array.init 3 (fun _ -> Prng.bitvec g m)
      in
      let proto = Equality.deterministic_protocol ~m in
      let result = Bcast.run_deterministic proto ~inputs in
      result.Bcast.outputs.(0) = Equality.all_equal inputs)

(* --- board protocols vs their copy-loop oracles (test/oracle_bcast.ml) --- *)

(* Runs the library protocol and its oracle on the same inputs and the
   same randomness — per-processor splits of [seed], or the given
   per-processor tapes ([Rand_counter.of_tape]) — and checks outputs,
   transcript key and resource charges agree.  Returns the outputs. *)
let check_matches_oracle ~name ~seed ?tapes (proto : 'o Bcast.protocol)
    (oracle : 'o Oracle_bcast.protocol) inputs =
  let lib, ora =
    match tapes with
    | None ->
        ( Bcast.run proto ~inputs ~rand:(Prng.create seed),
          Oracle_bcast.run oracle ~inputs ~rand:(Prng.create seed) )
    | Some tapes ->
        let sources () = Array.map Bcast.Rand_counter.of_tape tapes in
        ( Bcast.run_with_sources proto ~inputs ~sources:(sources ()),
          Oracle_bcast.run_with_sources oracle ~inputs ~sources:(sources ()) )
  in
  let label what =
    Printf.sprintf "%s seed %d%s: %s" name seed (if tapes = None then "" else " (tape)") what
  in
  check_bool (label "outputs") true (lib.Bcast.outputs = ora.Oracle_bcast.outputs);
  Alcotest.(check string) (label "transcript key") ora.Oracle_bcast.key
    (Transcript.key lib.Bcast.transcript);
  Alcotest.(check (array int)) (label "random bits") ora.Oracle_bcast.random_bits
    lib.Bcast.random_bits;
  check_int (label "broadcast bits") ora.Oracle_bcast.broadcast_bits lib.Bcast.broadcast_bits;
  lib.Bcast.outputs

let oracle_seeds = [ 1; 2; 42 ]

(* Per-processor tapes of [bits] uniform bits, split from [seed]. *)
let random_tapes ~seed ~n bits =
  Array.init n (fun i -> Prng.bitvec (Prng.split (Prng.create seed) i) bits)

let test_seed_attack_matches_oracle () =
  let params = { Full_prg.n = 24; k = 8; m = 16 } in
  let verdicts = ref [] in
  List.iter
    (fun seed ->
      let g = Prng.create seed in
      let pseudo, _ = Full_prg.sample_inputs_pseudo g params in
      let random = Full_prg.sample_inputs_rand g params in
      List.iter
        (fun inputs ->
          let run ?tapes () =
            check_matches_oracle ~name:"seed-attack" ~seed ?tapes
              (Seed_attack.protocol ~k:8) (Oracle_bcast.seed_attack ~k:8) inputs
          in
          let tapes = random_tapes ~seed ~n:24 16 in
          verdicts := (run ()).(0) :: (run ~tapes ()).(0) :: !verdicts;
          List.iter
            (fun rounds ->
              ignore
                (check_matches_oracle ~name:"rank-test" ~seed
                   (Seed_attack.rank_test_protocol ~rounds) (Oracle_bcast.rank_test ~rounds)
                   inputs))
            [ 4; 8; 9; 16 ])
        [ pseudo; random ])
    oracle_seeds;
  check_bool "both verdicts exercised" true (List.mem true !verdicts && List.mem false !verdicts)

let test_planted_clique_matches_oracle () =
  let kinds = Hashtbl.create 3 in
  List.iter
    (fun seed ->
      let g = Prng.create seed in
      (* Planted (Found) and null (Aborted_small_clique) inputs; an
         all-zero tape wins every activation coin, which overflows the
         active cap at p < 1/2 (Aborted_too_many_active). *)
      List.iter
        (fun (n, k, planted) ->
          let graph =
            if planted then fst (Planted.sample_planted g ~n ~k) else Planted.sample_rand g n
          in
          let inputs = Array.init n (Digraph.out_row graph) in
          let proto = Planted_clique_algo.protocol ~n ~k in
          let oracle = Oracle_bcast.planted_clique ~n ~k in
          List.iter
            (fun tapes ->
              match (check_matches_oracle ~name:"planted-clique" ~seed ?tapes proto oracle inputs).(0) with
              | Planted_clique_algo.Found _ -> Hashtbl.replace kinds "found" ()
              | Aborted_small_clique -> Hashtbl.replace kinds "small" ()
              | Aborted_too_many_active -> Hashtbl.replace kinds "too many" ())
            [ None; Some (random_tapes ~seed ~n 30); Some (Array.make n (Bitvec.create 30)) ])
        [ (128, 64, true); (128, 64, false); (128, 100, true) ])
    oracle_seeds;
  check_int "every outcome exercised" 3 (Hashtbl.length kinds)

let test_degree_matches_oracle () =
  List.iter
    (fun seed ->
      let n = 40 in
      let graph, _ = Planted.sample_planted (Prng.create seed) ~n ~k:12 in
      let inputs = Array.init n (Digraph.out_row graph) in
      List.iter
        (fun tapes ->
          ignore
            (check_matches_oracle ~name:"degree" ~seed ?tapes
               (Distinguisher_protocols.degree_protocol ~n) (Oracle_bcast.degree ~n) inputs))
        [ None; Some (random_tapes ~seed ~n 8) ])
    oracle_seeds

let test_connectivity_matches_oracle () =
  List.iter
    (fun seed ->
      let n = 12 in
      let graph = Gnp.sample (Prng.create seed) ~n ~p:0.15 in
      let inputs = Array.init n (Digraph.out_row graph) in
      let cfg = Connectivity.default_config ~n ~seed in
      List.iter
        (fun tapes ->
          let out =
            check_matches_oracle ~name:"connectivity" ~seed ?tapes
              (Connectivity.protocol cfg) (Oracle_bcast.connectivity cfg) inputs
          in
          check_int "matches BFS" (Connectivity.exact_components graph) out.(0))
        [ None; Some (random_tapes ~seed ~n 8) ])
    oracle_seeds

let () =
  Alcotest.run "protocols"
    [
      ( "board oracle",
        [
          Alcotest.test_case "seed attack + rank test" `Quick test_seed_attack_matches_oracle;
          Alcotest.test_case "planted clique" `Quick test_planted_clique_matches_oracle;
          Alcotest.test_case "degree summary" `Quick test_degree_matches_oracle;
          Alcotest.test_case "connectivity" `Quick test_connectivity_matches_oracle;
        ] );
      ( "planted clique (B.1)",
        [
          Alcotest.test_case "recovers the clique" `Slow test_clique_algo_recovers;
          Alcotest.test_case "outputs agree" `Quick test_clique_algo_outputs_agree;
          Alcotest.test_case "round budget" `Quick test_clique_algo_round_budget;
          Alcotest.test_case "activation probability" `Quick test_clique_algo_activation_probability;
          Alcotest.test_case "expected success bound" `Quick test_clique_algo_expected_success;
          Alcotest.test_case "invalid k" `Quick test_clique_algo_invalid_k;
        ] );
      ( "distinguishers",
        [
          Alcotest.test_case "blind at small k" `Quick test_distinguisher_blind_at_small_k;
          Alcotest.test_case "sees large k" `Quick test_distinguisher_sees_large_k;
          Alcotest.test_case "sampled clique statistic" `Quick test_sampled_clique_statistic;
          Alcotest.test_case "common neighbors bounds" `Quick test_common_neighbors_statistic_bounds;
        ] );
      ( "full rank",
        [
          Alcotest.test_case "exact protocol" `Quick test_exact_full_rank_protocol;
          Alcotest.test_case "truncated accuracy" `Quick test_truncated_protocol_accuracy_regime;
          Alcotest.test_case "truncated at n exact" `Quick test_truncated_at_n_is_exact;
          Alcotest.test_case "top-k protocol" `Quick test_top_k_protocol;
          Alcotest.test_case "rank-deficient sampler" `Quick test_rank_deficient_sampler;
          Alcotest.test_case "validation" `Quick test_column_protocol_validation;
        ] );
      ( "seed attack",
        [
          Alcotest.test_case "breaks the PRG" `Quick test_seed_attack_breaks_prg;
          Alcotest.test_case "false positives rare" `Quick test_seed_attack_false_positives_rare;
          Alcotest.test_case "round count" `Quick test_seed_attack_rounds;
          Alcotest.test_case "rank test blind within k" `Quick test_rank_test_blind_within_k;
          Alcotest.test_case "rank test breaks beyond k" `Quick test_rank_test_breaks_beyond_k;
        ] );
      ( "equality",
        [
          Alcotest.test_case "deterministic" `Quick test_equality_deterministic;
          Alcotest.test_case "fingerprint one-sided" `Quick test_fingerprint_one_sided;
          Alcotest.test_case "fingerprint error rate" `Quick test_fingerprint_error_rate;
          Alcotest.test_case "public coin" `Quick test_public_coin_equality;
          Alcotest.test_case "all_equal" `Quick test_all_equal;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [ prop_clique_algo_outcome_valid; prop_equality_deterministic_correct ] );
    ]
