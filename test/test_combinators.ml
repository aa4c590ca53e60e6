(* Tests for protocol combinators, Fourier influences, and CSV export. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let count_ones_protocol ~rounds =
  (* Broadcast input bit r in round r; output = total ones seen. *)
  {
    Bcast.name = "count-ones";
    msg_bits = 1;
    rounds;
    spawn =
      (fun ~id:_ ~n:_ ~input ~rand:_ ->
        let total = ref 0 in
        {
          Bcast.send = (fun ~round -> if Bitvec.get input round then 1 else 0);
          receive =
            (fun ~round board ->
              for sender = 0 to Bcast.Board.n board - 1 do
                total := !total + Bcast.Board.get board ~round ~sender
              done);
          finish = (fun () -> !total);
        });
  }

let max_bit_protocol =
  (* One round: broadcast bit 0; output = max seen. *)
  {
    Bcast.name = "max-bit";
    msg_bits = 1;
    rounds = 1;
    spawn =
      (fun ~id:_ ~n:_ ~input ~rand:_ ->
        let best = ref 0 in
        {
          Bcast.send = (fun ~round:_ -> if Bitvec.get input 0 then 1 else 0);
          receive =
            (fun ~round board ->
              for sender = 0 to Bcast.Board.n board - 1 do
                best := max !best (Bcast.Board.get board ~round ~sender)
              done);
          finish = (fun () -> !best);
        });
  }

let inputs3 = Array.map Bitvec.of_string [| "101"; "011"; "110" |]

let test_sequential () =
  let proto = Bcast.sequential (count_ones_protocol ~rounds:2) max_bit_protocol in
  check_int "rounds add" 3 proto.Bcast.rounds;
  let r = Bcast.run_deterministic proto ~inputs:inputs3 in
  let count, best = r.Bcast.outputs.(0) in
  (* Round 0 bits: 1,0,1; round 1: 0,1,1 -> 4 ones. max bit0 = 1. *)
  check_int "first output" 4 count;
  check_int "second output" 1 best

let test_sequential_width_mismatch () =
  let wide = { max_bit_protocol with Bcast.msg_bits = 2 } in
  Alcotest.check_raises "width" (Invalid_argument "Bcast.sequential: msg_bits mismatch")
    (fun () -> ignore (Bcast.sequential max_bit_protocol wide))

let test_parallel_pair () =
  let proto = Bcast.parallel_pair (count_ones_protocol ~rounds:2) max_bit_protocol in
  check_int "rounds max" 2 proto.Bcast.rounds;
  check_int "width sums" 2 proto.Bcast.msg_bits;
  let r = Bcast.run_deterministic proto ~inputs:inputs3 in
  let count, best = r.Bcast.outputs.(0) in
  check_int "lane 1 unchanged" 4 count;
  check_int "lane 2 unchanged" 1 best;
  (* Transcript carries the packed values. *)
  check_int "messages per run" 6 (Transcript.length r.Bcast.transcript)

let test_parallel_pair_matches_solo () =
  (* Each lane's output equals its standalone run. *)
  let solo1 = Bcast.run_deterministic (count_ones_protocol ~rounds:2) ~inputs:inputs3 in
  let solo2 = Bcast.run_deterministic max_bit_protocol ~inputs:inputs3 in
  let both =
    Bcast.run_deterministic
      (Bcast.parallel_pair (count_ones_protocol ~rounds:2) max_bit_protocol)
      ~inputs:inputs3
  in
  Array.iteri
    (fun i (a, b) ->
      check_int "lane1" solo1.Bcast.outputs.(i) a;
      check_int "lane2" solo2.Bcast.outputs.(i) b)
    both.Bcast.outputs

let test_parallel_width_limit () =
  let wide = { max_bit_protocol with Bcast.msg_bits = 16 } in
  Alcotest.check_raises "combined width"
    (Invalid_argument "Bcast.parallel_pair: combined width > 30") (fun () ->
      ignore (Bcast.parallel_pair wide { wide with Bcast.msg_bits = 15 }))

(* A protocol that sends [value ~id ~round] and outputs everything its
   board shows at [finish]: (msg_bits, rows of messages by round). *)
let recorder ~msg_bits ~rounds value =
  {
    Bcast.name = "recorder";
    msg_bits;
    rounds;
    spawn =
      (fun ~id ~n ~input:_ ~rand:_ ->
        let board = ref (Bcast.Board.empty ~n ~msg_bits) in
        let ok = ref true in
        {
          Bcast.send = (fun ~round -> value ~id ~round);
          receive =
            (fun ~round b ->
              (* The view's last round is the one just received. *)
              if Bcast.Board.length b <> round + 1 then ok := false;
              board := b);
          finish =
            (fun () ->
              let b = !board in
              ( !ok,
                Bcast.Board.msg_bits b,
                Array.init (Bcast.Board.length b) (fun round ->
                    Array.init n (fun sender -> Bcast.Board.get b ~round ~sender)) ));
        });
  }

let expected ~n ~rounds value =
  Array.init rounds (fun round -> Array.init n (fun id -> value ~id ~round))

let test_sequential_views () =
  let n = 3 in
  let v1 ~id ~round = (id + round) mod 4 and v2 ~id ~round = (3 * id + round + 1) mod 4 in
  let proto =
    Bcast.sequential (recorder ~msg_bits:2 ~rounds:2 v1) (recorder ~msg_bits:2 ~rounds:3 v2)
  in
  let r = Bcast.run_deterministic proto ~inputs:(Array.init n (fun _ -> Bitvec.create 1)) in
  Array.iter
    (fun ((ok1, w1, seen1), (ok2, w2, seen2)) ->
      check_bool "first: round-aligned" true ok1;
      check_bool "second: shifted round numbers" true ok2;
      check_int "widths" 2 w1;
      check_int "widths" 2 w2;
      check_bool "first sees only its own rounds" true (seen1 = expected ~n ~rounds:2 v1);
      check_bool "second sees only its own rounds" true (seen2 = expected ~n ~rounds:3 v2))
    r.Bcast.outputs

let test_parallel_pair_views () =
  let n = 4 in
  let v1 ~id ~round = (id + round) mod 2 and v2 ~id ~round = (id * 5 + round) mod 8 in
  let proto =
    Bcast.parallel_pair (recorder ~msg_bits:1 ~rounds:2 v1) (recorder ~msg_bits:3 ~rounds:4 v2)
  in
  let r = Bcast.run_deterministic proto ~inputs:(Array.init n (fun _ -> Bitvec.create 1)) in
  Array.iter
    (fun ((ok1, w1, seen1), (ok2, w2, seen2)) ->
      check_bool "lanes round-aligned" true (ok1 && ok2);
      check_int "lane 1 width" 1 w1;
      check_int "lane 2 width" 3 w2;
      (* The finished lane stops at its own round budget. *)
      check_bool "lane 1 masked and truncated" true (seen1 = expected ~n ~rounds:2 v1);
      check_bool "lane 2 shifted" true (seen2 = expected ~n ~rounds:4 v2))
    r.Bcast.outputs

(* --- influences --- *)

let test_influence_dictator () =
  let f = Boolfun.dictator 5 2 in
  checkf "own coordinate" 1.0 (Fourier.influence f 2);
  checkf "other coordinate" 0.0 (Fourier.influence f 0);
  checkf "total" 1.0 (Fourier.total_influence f)

let test_influence_parity () =
  (* Every coordinate of a full parity flips the output. *)
  let f = Boolfun.parity 4 [ 0; 1; 2; 3 ] in
  for i = 0 to 3 do
    checkf "parity influence" 1.0 (Fourier.influence f i)
  done;
  checkf "total = n" 4.0 (Fourier.total_influence f)

let test_influence_constant () =
  checkf "constants are immune" 0.0 (Fourier.total_influence (Boolfun.const 6 true))

let test_spectral_identity () =
  let g = Prng.create 5 in
  List.iter
    (fun f ->
      checkf "combinatorial = spectral" (Fourier.total_influence f)
        (Fourier.spectral_total_influence f))
    [ Boolfun.majority 7; Boolfun.random g 7; Boolfun.dictator 7 3;
      Boolfun.parity 7 [ 1; 4 ]; Boolfun.threshold 7 2 ]

let test_majority_influence_shape () =
  (* Majority influences are equal across coordinates and total
     Theta(sqrt n). *)
  let f = Boolfun.majority 9 in
  let i0 = Fourier.influence f 0 in
  for i = 1 to 8 do
    checkf "symmetric" i0 (Fourier.influence f i)
  done;
  let total = Fourier.total_influence f in
  check_bool "Theta(sqrt n)" true (total > 1.0 && total < 2.0 *. Float.sqrt 9.0)

(* --- CSV --- *)

let test_csv_roundtrip_shape () =
  let t = Experiments.e1_lemma_1_10 ~seed:1 () in
  let csv = Experiments.to_csv t in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "rows + header" (List.length t.Experiments.rows + 1) (List.length lines);
  (match lines with
  | header :: _ ->
      check_int "columns" (List.length t.Experiments.columns)
        (List.length (String.split_on_char ',' header))
  | [] -> Alcotest.fail "empty csv")

let test_csv_escaping () =
  let t =
    {
      Experiments.id = "x";
      title = "t";
      columns = [ "a"; "b" ];
      rows = [ [ "plain"; "has,comma" ]; [ "has\"quote"; "fine" ] ];
      notes = [];
    }
  in
  let csv = Experiments.to_csv t in
  check_bool "comma quoted" true
    (String.length csv > 0
    && (let lines = String.split_on_char '\n' csv in
        List.nth lines 1 = "plain,\"has,comma\""
        && List.nth lines 2 = "\"has\"\"quote\",fine"))

let () =
  Alcotest.run "combinators"
    [
      ( "protocol combinators",
        [
          Alcotest.test_case "sequential" `Quick test_sequential;
          Alcotest.test_case "sequential width" `Quick test_sequential_width_mismatch;
          Alcotest.test_case "parallel pair" `Quick test_parallel_pair;
          Alcotest.test_case "parallel matches solo" `Quick test_parallel_pair_matches_solo;
          Alcotest.test_case "sequential views" `Quick test_sequential_views;
          Alcotest.test_case "parallel pair views" `Quick test_parallel_pair_views;
          Alcotest.test_case "parallel width limit" `Quick test_parallel_width_limit;
        ] );
      ( "influences",
        [
          Alcotest.test_case "dictator" `Quick test_influence_dictator;
          Alcotest.test_case "parity" `Quick test_influence_parity;
          Alcotest.test_case "constant" `Quick test_influence_constant;
          Alcotest.test_case "spectral identity" `Quick test_spectral_identity;
          Alcotest.test_case "majority shape" `Quick test_majority_influence_shape;
        ] );
      ( "csv",
        [
          Alcotest.test_case "shape" `Quick test_csv_roundtrip_shape;
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
        ] );
    ]
