(* Tests for the BCAST simulator: transcripts, the runner, randomness
   accounting, and the sequential-turn model. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Transcript --- *)

let entry turn round sender value = { Transcript.turn; round; sender; value }

let test_transcript_append () =
  let t = Transcript.empty ~msg_bits:1 in
  check_int "empty" 0 (Transcript.length t);
  let t = Transcript.append t (entry 0 0 0 1) in
  let t = Transcript.append t (entry 1 0 1 0) in
  check_int "two entries" 2 (Transcript.length t);
  check_int "bit length" 2 (Transcript.bit_length t);
  let e = Transcript.entry t 0 in
  check_int "first sender" 0 e.Transcript.sender;
  check_int "first value" 1 e.Transcript.value

let test_transcript_value_range () =
  let t = Transcript.empty ~msg_bits:2 in
  let t = Transcript.append t (entry 0 0 0 3) in
  check_int "max value ok" 1 (Transcript.length t);
  Alcotest.check_raises "too large"
    (Invalid_argument "Transcript.append: message value out of range") (fun () ->
      ignore (Transcript.append t (entry 1 0 1 4)))

let test_transcript_persistence () =
  (* Functional append: the original is unchanged. *)
  let t0 = Transcript.empty ~msg_bits:1 in
  let t1 = Transcript.append t0 (entry 0 0 0 1) in
  check_int "t0 still empty" 0 (Transcript.length t0);
  check_int "t1 has one" 1 (Transcript.length t1)

let test_transcript_keys () =
  let t1 =
    Transcript.append (Transcript.empty ~msg_bits:1) (entry 0 0 0 1)
  in
  let t2 =
    Transcript.append (Transcript.empty ~msg_bits:1) (entry 0 0 0 1)
  in
  let t3 =
    Transcript.append (Transcript.empty ~msg_bits:1) (entry 0 0 0 0)
  in
  check_string "equal keys" (Transcript.key t1) (Transcript.key t2);
  check_bool "different keys" true (Transcript.key t1 <> Transcript.key t3)

let test_transcript_selectors () =
  let t = Transcript.empty ~msg_bits:1 in
  let t = Transcript.append t (entry 0 0 0 1) in
  let t = Transcript.append t (entry 1 0 1 0) in
  let t = Transcript.append t (entry 2 1 0 1) in
  Alcotest.(check (list (pair int int)))
    "round 0" [ (0, 1); (1, 0) ]
    (Transcript.messages_of_round t 0);
  Alcotest.(check (list (pair int int)))
    "sender 0" [ (0, 1); (2, 1) ]
    (Transcript.messages_of_sender t 0);
  let p = Transcript.prefix t 2 in
  check_int "prefix" 2 (Transcript.length p)

(* The flat buffer keeps [append] persistent: branching off an older
   transcript, or off a prefix, never disturbs the newer one. *)
let test_transcript_branching () =
  let t0 = Transcript.empty ~msg_bits:4 in
  let t2 = Transcript.append (Transcript.append t0 (entry 0 0 0 3)) (entry 1 0 1 4) in
  let t3 = Transcript.append t2 (entry 2 1 0 5) in
  let b3 = Transcript.append t2 (entry 2 1 0 9) in
  let p1 = Transcript.append (Transcript.prefix t3 1) (entry 1 0 1 7) in
  let t4 = Transcript.append t3 (entry 3 1 1 6) in
  check_string "t3 kept" "4|0:3|1:4|0:5" (Transcript.key t3);
  check_string "branch" "4|0:3|1:4|0:9" (Transcript.key b3);
  check_string "prefix branch" "4|0:3|1:7" (Transcript.key p1);
  check_string "t4 grew" "4|0:3|1:4|0:5|1:6" (Transcript.key t4);
  check_string "t2 untouched" "4|0:3|1:4" (Transcript.key t2);
  check_int "entry O(1) read" 5 (Transcript.entry t4 2).Transcript.value;
  (* Growth past the initial capacity keeps every entry. *)
  let big = ref t0 in
  for i = 0 to 999 do
    big := Transcript.append !big (entry i (i / 10) (i mod 10) (i mod 16))
  done;
  for i = 0 to 999 do
    let e = Transcript.entry !big i in
    check_bool "entry round-trips" true
      (e = { Transcript.turn = i; round = i / 10; sender = i mod 10; value = i mod 16 })
  done;
  check_string "pp format"
    "turn 0 (round 0): processor 0 -> 3\nturn 1 (round 0): processor 1 -> 4\n"
    (Format.asprintf "%a" Transcript.pp t2)

(* --- Board --- *)

let board_of rounds =
  let store = Bcast.Board.create ~n:(Array.length rounds.(0)) ~msg_bits:3 in
  Array.iter (fun r -> Bcast.Board.append store (Array.copy r)) rounds;
  Bcast.Board.view store

let test_board_reads () =
  let b = board_of [| [| 1; 6; 0 |]; [| 7; 2; 5 |] |] in
  check_int "length" 2 (Bcast.Board.length b);
  check_int "get" 5 (Bcast.Board.get b ~round:1 ~sender:2);
  let low = Bcast.Board.lane b ~pos:0 ~width:1 in
  check_string "round_bits = low bits of round 1" "101"
    (Bitvec.to_string (Bcast.Board.round_bits low ~round:1));
  check_string "sender_bits = sender 2's low bits" "01"
    (Bitvec.to_string (Bcast.Board.sender_bits low ~sender:2));
  let high = Bcast.Board.lane b ~pos:1 ~width:2 in
  check_int "lane masks and shifts" 3 (Bcast.Board.get high ~round:0 ~sender:1);
  check_int "lane width" 2 (Bcast.Board.msg_bits high);
  (* Lanes compose: bit 1 of the high lane is bit 2 of the message. *)
  let bit2 = Bcast.Board.lane high ~pos:1 ~width:1 in
  check_int "nested lane" 1 (Bcast.Board.get bit2 ~round:1 ~sender:2);
  check_int "nested lane" 0 (Bcast.Board.get bit2 ~round:0 ~sender:0);
  let later = Bcast.Board.shift b ~rounds:1 in
  check_int "shift" 7 (Bcast.Board.get later ~round:0 ~sender:0);
  check_int "truncate" 1 (Bcast.Board.length (Bcast.Board.truncate b ~rounds:1));
  Alcotest.check_raises "outside the view" (Invalid_argument "Board: round outside the view")
    (fun () -> ignore (Bcast.Board.get later ~round:1 ~sender:0));
  Alcotest.check_raises "packed reads need 1-bit views"
    (Invalid_argument "Board.round_bits: 1-bit views only") (fun () ->
      ignore (Bcast.Board.round_bits b ~round:0))

(* [common] runs its function once per key per board length (so once per
   round here), however many processors ask, and separately for each
   key and each window. *)
let test_board_common_once_per_round () =
  let n = 5 and rounds = 4 in
  let calls = Hashtbl.create 4 in
  let count name =
    Hashtbl.replace calls name (1 + Option.value ~default:0 (Hashtbl.find_opt calls name))
  in
  let sum_key = Bcast.Board.key "sum" and max_key = Bcast.Board.key "max" in
  let first_key = Bcast.Board.key "first" in
  let total b =
    let t = ref 0 in
    for round = 0 to Bcast.Board.length b - 1 do
      for sender = 0 to Bcast.Board.n b - 1 do
        t := !t + Bcast.Board.get b ~round ~sender
      done
    done;
    !t
  in
  let proto =
    {
      Bcast.name = "common-counter";
      msg_bits = 2;
      rounds;
      spawn =
        (fun ~id ~n:_ ~input:_ ~rand:_ ->
          let board = ref (Bcast.Board.empty ~n ~msg_bits:2) in
          let seen = ref [] in
          {
            Bcast.send = (fun ~round -> (id + round) mod 4);
            receive =
              (fun ~round:_ b ->
                board := b;
                let s = Bcast.Board.common b sum_key (fun b -> count "sum"; total b) in
                let m = Bcast.Board.common b max_key (fun b -> count "max"; Bcast.Board.length b) in
                let f =
                  Bcast.Board.common (Bcast.Board.truncate b ~rounds:1) first_key (fun b ->
                      count "first"; total b)
                in
                seen := (s, m, f) :: !seen);
            finish =
              (fun () ->
                (* Same length as the last receive: a memo hit. *)
                ignore (Bcast.Board.common !board sum_key (fun b -> count "sum"; total b));
                List.rev !seen);
          });
    }
  in
  let inputs = Array.init n (fun _ -> Bitvec.create 1) in
  let r = Bcast.run_deterministic proto ~inputs in
  check_int "sum: once per round" rounds (Hashtbl.find calls "sum");
  check_int "max: once per round" rounds (Hashtbl.find calls "max");
  check_int "fixed window: once per run" 1 (Hashtbl.find calls "first");
  Array.iter
    (fun seen -> check_bool "every processor saw the same values" true (seen = r.Bcast.outputs.(0)))
    r.Bcast.outputs;
  let _, _, first_round = List.hd r.Bcast.outputs.(0) in
  check_int "values are the board's" (0 + 1 + 2 + 3 + 0) first_round

(* --- Rand_counter --- *)

let test_rand_counter_counts () =
  let r = Bcast.Rand_counter.make (Prng.create 1) in
  ignore (Bcast.Rand_counter.bool r);
  check_int "1 bit" 1 (Bcast.Rand_counter.bits_used r);
  ignore (Bcast.Rand_counter.bits r 7);
  check_int "8 bits" 8 (Bcast.Rand_counter.bits_used r);
  ignore (Bcast.Rand_counter.bitvec r 20);
  check_int "28 bits" 28 (Bcast.Rand_counter.bits_used r)

let test_rand_counter_deterministic_raises () =
  let r = Bcast.Rand_counter.deterministic () in
  Alcotest.check_raises "raises"
    (Failure "Rand_counter: deterministic processor drew randomness") (fun () ->
      ignore (Bcast.Rand_counter.bool r))

let test_rand_counter_tape () =
  let tape = Bitvec.of_string "1011" in
  let r = Bcast.Rand_counter.of_tape tape in
  check_bool "bit 0" true (Bcast.Rand_counter.bool r);
  check_bool "bit 1" false (Bcast.Rand_counter.bool r);
  check_bool "bit 2" true (Bcast.Rand_counter.bool r);
  check_bool "bit 3" true (Bcast.Rand_counter.bool r);
  Alcotest.check_raises "exhausted" (Failure "Rand_counter: tape exhausted") (fun () ->
      ignore (Bcast.Rand_counter.bool r))

let test_rand_counter_int_below () =
  let r = Bcast.Rand_counter.make (Prng.create 3) in
  for _ = 1 to 200 do
    let v = Bcast.Rand_counter.int_below r 5 in
    check_bool "range" true (v >= 0 && v < 5)
  done;
  check_int "bound 1 free" 0 (Bcast.Rand_counter.int_below r 1)

(* Regression: int_below charges exactly ceil(log2 bound) bits per
   rejection-sampling attempt.  A fixed tape makes the attempts visible:
   bound 5 draws 3-bit values, "111" = 7 is rejected, "001" = 4 accepted. *)
let test_int_below_charge_per_attempt () =
  let r = Bcast.Rand_counter.of_tape (Bitvec.of_string "111001") in
  check_int "second attempt accepted" 4 (Bcast.Rand_counter.int_below r 5);
  check_int "3 bits per attempt, 2 attempts" 6 (Bcast.Rand_counter.bits_used r);
  (* Power-of-two bound: every 3-bit value is below 8, so one attempt. *)
  let r = Bcast.Rand_counter.of_tape (Bitvec.of_string "101") in
  check_int "value" 5 (Bcast.Rand_counter.int_below r 8);
  check_int "single attempt" 3 (Bcast.Rand_counter.bits_used r);
  (* bound 2 is a single 1-bit draw. *)
  let r = Bcast.Rand_counter.of_tape (Bitvec.of_string "1") in
  check_int "coin" 1 (Bcast.Rand_counter.int_below r 2);
  check_int "one bit" 1 (Bcast.Rand_counter.bits_used r)

(* Regression: bernoulli charges exactly [bernoulli_bits] = 30 bits per
   call, independent of p and of the outcome. *)
let test_bernoulli_charge () =
  check_int "documented charge" 30 Bcast.Rand_counter.bernoulli_bits;
  let r = Bcast.Rand_counter.make (Prng.create 17) in
  ignore (Bcast.Rand_counter.bernoulli r 0.3);
  check_int "one call" Bcast.Rand_counter.bernoulli_bits
    (Bcast.Rand_counter.bits_used r);
  ignore (Bcast.Rand_counter.bernoulli r 0.0);
  ignore (Bcast.Rand_counter.bernoulli r 1.0);
  check_int "every call, any p" (3 * Bcast.Rand_counter.bernoulli_bits)
    (Bcast.Rand_counter.bits_used r);
  (* Extreme probabilities are decided, never free. *)
  let r = Bcast.Rand_counter.make (Prng.create 18) in
  check_bool "p=0 false" false (Bcast.Rand_counter.bernoulli r 0.0);
  check_bool "p=1 true" true (Bcast.Rand_counter.bernoulli r 1.0);
  check_int "still charged" (2 * Bcast.Rand_counter.bernoulli_bits)
    (Bcast.Rand_counter.bits_used r);
  (* An all-zero tape draws threshold value 0: true for any p > 0. *)
  let r = Bcast.Rand_counter.of_tape (Bitvec.create 30) in
  check_bool "zero tape" true (Bcast.Rand_counter.bernoulli r 0.0001);
  check_int "tape charged" 30 (Bcast.Rand_counter.bits_used r)

(* Batched fills: a fill of [len] is charged exactly len x 64 bits — the
   charge of the [len] scalar bits64 draws it replaces — and on a Stream
   source produces the identical words and end state. *)
let test_fill_charges_match_scalar () =
  let len = 37 in
  let rs = Bcast.Rand_counter.make (Prng.create 51) in
  let rb = Bcast.Rand_counter.make (Prng.create 51) in
  let scalar = Array.init len (fun _ -> Bcast.Rand_counter.bits64 rs) in
  let buf = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout len in
  Bcast.Rand_counter.fill_bits64 rb buf ~pos:0 ~len;
  check_int "block charge = scalar charge"
    (Bcast.Rand_counter.bits_used rs)
    (Bcast.Rand_counter.bits_used rb);
  check_int "charge is len x 64" (len * 64) (Bcast.Rand_counter.bits_used rb);
  let same = ref true in
  for i = 0 to len - 1 do
    if not (Int64.equal buf.{i} scalar.(i)) then same := false
  done;
  check_bool "same words" true !same;
  check_bool "same end state" true
    (Int64.equal (Bcast.Rand_counter.bits64 rs) (Bcast.Rand_counter.bits64 rb));
  let fbuf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 5 in
  Bcast.Rand_counter.fill_float rb fbuf ~pos:0 ~len:5;
  check_int "fill_float charge" ((len + 1 + 5) * 64)
    (Bcast.Rand_counter.bits_used rb);
  Bcast.Rand_counter.fill_bits64 rb buf ~pos:0 ~len:0;
  check_int "len=0 free" ((len + 1 + 5) * 64) (Bcast.Rand_counter.bits_used rb);
  Alcotest.check_raises "negative len"
    (Invalid_argument "Rand_counter.fill_bits64: len >= 0") (fun () ->
      Bcast.Rand_counter.fill_bits64 rb buf ~pos:0 ~len:(-1))

let test_fill_tape_word_assembly () =
  (* A tape word is 64 tape bits LSB-first, matching [bits]: a tape whose
     first set bit is at index 1 yields the word 2. *)
  let tape = Bitvec.create 128 in
  Bitvec.set tape 1 true;
  Bitvec.set tape 65 true;
  let r = Bcast.Rand_counter.of_tape tape in
  check_bool "word 0" true (Int64.equal 2L (Bcast.Rand_counter.bits64 r));
  let buf = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 1 in
  Bcast.Rand_counter.fill_bits64 r buf ~pos:0 ~len:1;
  check_bool "word 1 via fill" true (Int64.equal 2L buf.{0});
  check_int "tape charged" 128 (Bcast.Rand_counter.bits_used r);
  Alcotest.check_raises "exhausted" (Failure "Rand_counter: tape exhausted")
    (fun () -> Bcast.Rand_counter.fill_bits64 r buf ~pos:0 ~len:1);
  (* fill_float decodes the top 53 bits, Prng.float's decode: an all-one
     word is (2^53 - 1) / 2^53. *)
  let ones = Bitvec.create 64 in
  for i = 0 to 63 do
    Bitvec.set ones i true
  done;
  let rf = Bcast.Rand_counter.of_tape ones in
  let fbuf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 1 in
  Bcast.Rand_counter.fill_float rf fbuf ~pos:0 ~len:1;
  check_bool "float decode" true
    (Float.equal fbuf.{0}
       (float_of_int ((1 lsl 53) - 1) /. 9007199254740992.0))

let test_fill_deterministic_raises () =
  let r = Bcast.Rand_counter.deterministic () in
  let buf = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 1 in
  Alcotest.check_raises "fill on deterministic"
    (Failure "Rand_counter: deterministic processor drew randomness") (fun () ->
      Bcast.Rand_counter.fill_bits64 r buf ~pos:0 ~len:1)

(* --- Bcast runner --- *)

(* Everyone broadcasts its input bit for round r; output = count of 1s seen. *)
let sum_protocol ~rounds =
  {
    Bcast.name = "sum";
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

let test_run_basic () =
  let inputs = Array.map Bitvec.of_string [| "10"; "11"; "01" |] in
  let result = Bcast.run_deterministic (sum_protocol ~rounds:2) ~inputs in
  (* Round 0 bits: 1,1,0; round 1 bits: 0,1,1 -> total 4 for everyone. *)
  Array.iter (fun o -> check_int "sum" 4 o) result.Bcast.outputs;
  check_int "rounds" 2 result.Bcast.rounds_used;
  check_int "broadcast bits" 6 result.Bcast.broadcast_bits;
  check_int "transcript length" 6 (Transcript.length result.Bcast.transcript)

let test_transcript_contents () =
  let inputs = Array.map Bitvec.of_string [| "1"; "0" |] in
  let result = Bcast.run_deterministic (sum_protocol ~rounds:1) ~inputs in
  let entries = Transcript.entries result.Bcast.transcript in
  Alcotest.(check (list (pair int int)))
    "senders and values"
    [ (0, 1); (1, 0) ]
    (List.map (fun e -> (e.Transcript.sender, e.Transcript.value)) entries)

let test_run_random_bits_accounted () =
  let proto =
    {
      Bcast.name = "coin-flipper";
      msg_bits = 1;
      rounds = 3;
      spawn =
        (fun ~id:_ ~n:_ ~input:_ ~rand ->
          {
            Bcast.send = (fun ~round:_ -> if Bcast.Rand_counter.bool rand then 1 else 0);
            receive = (fun ~round:_ _ -> ());
            finish = (fun () -> ());
          });
    }
  in
  let inputs = Array.init 4 (fun _ -> Bitvec.create 1) in
  let result = Bcast.run proto ~inputs ~rand:(Prng.create 5) in
  Array.iter (fun b -> check_int "3 bits each" 3 b) result.Bcast.random_bits

let test_run_reproducible () =
  let proto =
    {
      Bcast.name = "coins";
      msg_bits = 1;
      rounds = 4;
      spawn =
        (fun ~id:_ ~n:_ ~input:_ ~rand ->
          {
            Bcast.send = (fun ~round:_ -> if Bcast.Rand_counter.bool rand then 1 else 0);
            receive = (fun ~round:_ _ -> ());
            finish = (fun () -> ());
          });
    }
  in
  let inputs = Array.init 3 (fun _ -> Bitvec.create 1) in
  let r1 = Bcast.run proto ~inputs ~rand:(Prng.create 9) in
  let r2 = Bcast.run proto ~inputs ~rand:(Prng.create 9) in
  check_string "same transcript" (Transcript.key r1.Bcast.transcript)
    (Transcript.key r2.Bcast.transcript)

let test_same_round_isolation () =
  (* A processor must not see round-r messages when sending in round r:
     everyone echoes the previous round's message from processor 0. *)
  let proto =
    {
      Bcast.name = "echo";
      msg_bits = 1;
      rounds = 2;
      spawn =
        (fun ~id ~n:_ ~input:_ ~rand:_ ->
          let last_seen = ref 0 in
          {
            Bcast.send =
              (fun ~round -> if round = 0 then (if id = 0 then 1 else 0) else !last_seen);
            receive = (fun ~round board -> last_seen := Bcast.Board.get board ~round ~sender:0);
            finish = (fun () -> !last_seen);
          });
    }
  in
  let inputs = Array.init 3 (fun _ -> Bitvec.create 1) in
  let result = Bcast.run_deterministic proto ~inputs in
  (* Round 0: proc 0 sends 1. Round 1: everyone echoes 1. *)
  let round1 = Transcript.messages_of_round result.Bcast.transcript 1 in
  List.iter (fun (_, v) -> check_int "echoed" 1 v) round1

let test_map_output () =
  let proto = Bcast.map_output (fun s -> s * 10) (sum_protocol ~rounds:1) in
  let inputs = Array.map Bitvec.of_string [| "1"; "1" |] in
  let result = Bcast.run_deterministic proto ~inputs in
  check_int "mapped" 20 result.Bcast.outputs.(0)

let test_with_rounds () =
  let proto = Bcast.with_rounds 1 (sum_protocol ~rounds:2) in
  let inputs = Array.map Bitvec.of_string [| "11"; "11" |] in
  let result = Bcast.run_deterministic proto ~inputs in
  check_int "truncated" 1 result.Bcast.rounds_used

let test_msg_bits_for_log_n () =
  check_int "n=2" 1 (Bcast.msg_bits_for_log_n 2);
  check_int "n=3" 2 (Bcast.msg_bits_for_log_n 3);
  check_int "n=8" 3 (Bcast.msg_bits_for_log_n 8);
  check_int "n=9" 4 (Bcast.msg_bits_for_log_n 9)

let test_no_processors () =
  Alcotest.check_raises "empty" (Invalid_argument "Bcast.run: no processors") (fun () ->
      ignore (Bcast.run_deterministic (sum_protocol ~rounds:1) ~inputs:[||]))

(* --- Turn model --- *)

let xor_protocol n =
  (* Processor i broadcasts the parity of its input; later processors xor in
     what they heard so far. *)
  Turn_model.of_round_protocol ~n ~rounds:1 (fun ~id:_ ~input ~history ->
      let own = Bitvec.popcount input land 1 = 1 in
      Array.fold_left (fun acc b -> acc <> b) own history)

let test_turn_model_run () =
  let proto = xor_protocol 3 in
  let inputs = Array.map Bitvec.of_string [| "110"; "100"; "111" |] in
  let tr = Turn_model.run proto ~inputs in
  check_int "turn count" 3 (Array.length tr);
  (* t0: parity(110)=0 -> false. t1: parity(100)=1 xor false = true.
     t2: parity(111)=1 xor (false xor true) = false. *)
  Alcotest.(check (array bool)) "bits" [| false; true; false |] tr

let test_turn_model_key () =
  check_string "key" "010" (Turn_model.transcript_key [| false; true; false |])

let test_exact_transcript_dist () =
  (* One processor, input uniform over {0,1}: the broadcast-bit distribution
     is uniform. *)
  let proto =
    { Turn_model.n = 1; turns = 1;
      next_bit = (fun ~id:_ ~input ~history:_ -> Bitvec.get input 0) }
  in
  let input_dist =
    Dist.uniform [ [| Bitvec.of_string "0" |]; [| Bitvec.of_string "1" |] ]
  in
  let d = Turn_model.exact_transcript_dist proto input_dist in
  Alcotest.(check (float 1e-9)) "half" 0.5 (Dist.prob d "1")

let test_consistent_inputs () =
  let proto =
    { Turn_model.n = 2; turns = 4;
      next_bit = (fun ~id:_ ~input ~history:_ -> Bitvec.get input 0) }
  in
  let candidates = [ Bitvec.of_string "01"; Bitvec.of_string "11" ] in
  (* Processor 0 spoke at turn 0 with bit 0 of its input.  History says it
     broadcast 'true'. *)
  let consistent =
    Turn_model.consistent_inputs proto ~id:0
      ~history:[| true; false; true; false |]
      ~upto_turn:2 candidates
  in
  check_int "only the 1-prefixed input" 1 (List.length consistent);
  (* With upto_turn 0 nothing is constrained. *)
  let all =
    Turn_model.consistent_inputs proto ~id:0 ~history:[| true |] ~upto_turn:0 candidates
  in
  check_int "unconstrained" 2 (List.length all)

let test_sampled_matches_exact () =
  let proto = xor_protocol 2 in
  let g = Prng.create 17 in
  let sample g = [| Prng.bitvec g 2; Prng.bitvec g 2 |] in
  let sampled = Turn_model.sampled_transcript_dist proto ~sample ~samples:20000 g in
  (* Exact: enumerate the 16 joint inputs. *)
  let inputs =
    List.concat_map
      (fun a -> List.map (fun b ->
           [| Bitvec.of_int ~width:2 a; Bitvec.of_int ~width:2 b |])
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let exact = Turn_model.exact_transcript_dist proto (Dist.uniform inputs) in
  check_bool "TV small" true (Dist.tv_distance sampled exact < 0.03)

let test_acceptance_probability () =
  let proto = xor_protocol 2 in
  let inputs =
    List.concat_map
      (fun a -> List.map (fun b ->
           [| Bitvec.of_int ~width:2 a; Bitvec.of_int ~width:2 b |])
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let p =
    Turn_model.acceptance_probability proto
      ~accept:(fun tr -> tr.(0))
      (Dist.uniform inputs)
  in
  Alcotest.(check (float 1e-9)) "first bit balanced" 0.5 p

(* --- qcheck --- *)

let prop_prefix_consistency =
  QCheck.Test.make ~name:"truncated protocol produces transcript prefixes" ~count:60
    QCheck.small_int (fun seed ->
      let g = Prng.create seed in
      let proto = xor_protocol 3 in
      let inputs = Array.init 3 (fun _ -> Prng.bitvec g 3) in
      let full = Turn_model.run proto ~inputs in
      let short = Turn_model.run { proto with Turn_model.turns = 2 } ~inputs in
      Array.length short = 2 && short.(0) = full.(0) && short.(1) = full.(1))

let prop_exact_dist_mass =
  QCheck.Test.make ~name:"exact transcript distribution has unit mass" ~count:30
    QCheck.small_int (fun seed ->
      let g = Prng.create seed in
      let proto = xor_protocol 2 in
      let inputs =
        List.init 8 (fun _ -> [| Prng.bitvec g 2; Prng.bitvec g 2 |])
      in
      let d = Turn_model.exact_transcript_dist proto (Dist.uniform inputs) in
      let mass =
        List.fold_left (fun acc k -> acc +. Dist.prob d k) 0.0 (Dist.support d)
      in
      Float.abs (mass -. 1.0) < 1e-9)

let prop_transcript_key_faithful =
  QCheck.Test.make ~name:"transcript keys distinguish different bit strings" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 1 12) bool) (list_of_size (Gen.int_range 1 12) bool))
    (fun (a, b) ->
      let ka = Turn_model.transcript_key (Array.of_list a) in
      let kb = Turn_model.transcript_key (Array.of_list b) in
      (a = b) = (ka = kb))

let prop_run_deterministic_in_inputs =
  QCheck.Test.make ~name:"turn model runs are deterministic" ~count:50 QCheck.small_int
    (fun seed ->
      let g = Prng.create seed in
      let proto = xor_protocol 3 in
      let inputs = Array.init 3 (fun _ -> Prng.bitvec g 3) in
      Turn_model.run proto ~inputs = Turn_model.run proto ~inputs)

let () =
  Alcotest.run "bcast"
    [
      ( "transcript",
        [
          Alcotest.test_case "append" `Quick test_transcript_append;
          Alcotest.test_case "value range" `Quick test_transcript_value_range;
          Alcotest.test_case "persistence" `Quick test_transcript_persistence;
          Alcotest.test_case "keys" `Quick test_transcript_keys;
          Alcotest.test_case "selectors" `Quick test_transcript_selectors;
          Alcotest.test_case "branching appends" `Quick test_transcript_branching;
        ] );
      ( "board",
        [
          Alcotest.test_case "reads and windows" `Quick test_board_reads;
          Alcotest.test_case "common once per key per round" `Quick
            test_board_common_once_per_round;
        ] );
      ( "rand_counter",
        [
          Alcotest.test_case "counts bits" `Quick test_rand_counter_counts;
          Alcotest.test_case "deterministic raises" `Quick test_rand_counter_deterministic_raises;
          Alcotest.test_case "tape source" `Quick test_rand_counter_tape;
          Alcotest.test_case "int_below" `Quick test_rand_counter_int_below;
          Alcotest.test_case "int_below charge per attempt" `Quick
            test_int_below_charge_per_attempt;
          Alcotest.test_case "bernoulli exact charge" `Quick test_bernoulli_charge;
          Alcotest.test_case "fill charges = scalar charges" `Quick
            test_fill_charges_match_scalar;
          Alcotest.test_case "fill tape word assembly" `Quick
            test_fill_tape_word_assembly;
          Alcotest.test_case "fill deterministic raises" `Quick
            test_fill_deterministic_raises;
        ] );
      ( "runner",
        [
          Alcotest.test_case "basic run" `Quick test_run_basic;
          Alcotest.test_case "transcript contents" `Quick test_transcript_contents;
          Alcotest.test_case "random bits accounted" `Quick test_run_random_bits_accounted;
          Alcotest.test_case "reproducible" `Quick test_run_reproducible;
          Alcotest.test_case "same round isolation" `Quick test_same_round_isolation;
          Alcotest.test_case "map_output" `Quick test_map_output;
          Alcotest.test_case "with_rounds" `Quick test_with_rounds;
          Alcotest.test_case "msg_bits_for_log_n" `Quick test_msg_bits_for_log_n;
          Alcotest.test_case "no processors" `Quick test_no_processors;
        ] );
      ( "turn model",
        [
          Alcotest.test_case "run" `Quick test_turn_model_run;
          Alcotest.test_case "key" `Quick test_turn_model_key;
          Alcotest.test_case "exact transcript dist" `Quick test_exact_transcript_dist;
          Alcotest.test_case "consistent inputs" `Quick test_consistent_inputs;
          Alcotest.test_case "sampled matches exact" `Quick test_sampled_matches_exact;
          Alcotest.test_case "acceptance probability" `Quick test_acceptance_probability;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_prefix_consistency;
            prop_exact_dist_mass;
            prop_transcript_key_faithful;
            prop_run_deterministic_in_inputs;
          ] );
    ]
