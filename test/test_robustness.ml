(* Failure-injection tests and newer substrate completeness: a protocol
   misbehaving must fail loudly, never silently corrupt a run; plus GF(2)
   inverse/determinant and the AMS F2 protocol. *)

let check_bool = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* --- failure injection: the simulator rejects protocol misbehaviour --- *)

let constant_protocol value ~msg_bits =
  {
    Bcast.name = "constant";
    msg_bits;
    rounds = 1;
    spawn =
      (fun ~id:_ ~n:_ ~input:_ ~rand:_ ->
        {
          Bcast.send = (fun ~round:_ -> value);
          receive = (fun ~round:_ _ -> ());
          finish = (fun () -> ());
        });
  }

let test_overwide_message_rejected () =
  let inputs = Array.init 3 (fun _ -> Bitvec.create 1) in
  Alcotest.check_raises "message exceeds msg_bits"
    (Invalid_argument "Transcript.append: message value out of range") (fun () ->
      ignore (Bcast.run_deterministic (constant_protocol 2 ~msg_bits:1) ~inputs))

let test_negative_message_rejected () =
  let inputs = Array.init 3 (fun _ -> Bitvec.create 1) in
  Alcotest.check_raises "negative message"
    (Invalid_argument "Transcript.append: message value out of range") (fun () ->
      ignore (Bcast.run_deterministic (constant_protocol (-1) ~msg_bits:4) ~inputs))

let test_unicast_outbox_size_enforced () =
  let proto =
    {
      Unicast.name = "bad-outbox";
      msg_bits = 1;
      rounds = 1;
      spawn =
        (fun ~id:_ ~n:_ ~input:_ ~rand:_ ->
          {
            Unicast.send = (fun ~round:_ -> Array.make 2 0 (* wrong size *));
            receive = (fun ~round:_ _ -> ());
            finish = (fun () -> ());
          });
    }
  in
  let inputs = Array.init 3 (fun _ -> Bitvec.create 1) in
  Alcotest.check_raises "outbox size" (Invalid_argument "Unicast.run: outbox size mismatch")
    (fun () -> ignore (Unicast.run_deterministic proto ~inputs))

let test_tape_overdraw_fails_loudly () =
  (* A derandomized protocol that draws more bits than the PRG supplies
     must raise, not silently reuse bits. *)
  let greedy =
    {
      Bcast.name = "greedy";
      msg_bits = 1;
      rounds = 1;
      spawn =
        (fun ~id:_ ~n:_ ~input:_ ~rand ->
          {
            Bcast.send =
              (fun ~round:_ ->
                (* Draw far beyond the m = 8 tape. *)
                let acc = ref 0 in
                for _ = 1 to 100 do
                  if Bcast.Rand_counter.bool rand then incr acc
                done;
                !acc land 1);
            receive = (fun ~round:_ _ -> ());
            finish = (fun () -> ());
          });
    }
  in
  let p = { Full_prg.n = 4; k = 4; m = 8 } in
  let proto = Derandomize.transform p greedy in
  let inputs = Array.init 4 (fun _ -> Bitvec.create 1) in
  Alcotest.check_raises "tape exhausted" (Failure "Rand_counter: tape exhausted")
    (fun () -> ignore (Bcast.run proto ~inputs ~rand:(Prng.create 1)))

let test_deterministic_runner_rejects_randomized () =
  let coin =
    {
      Bcast.name = "coin";
      msg_bits = 1;
      rounds = 1;
      spawn =
        (fun ~id:_ ~n:_ ~input:_ ~rand ->
          {
            Bcast.send = (fun ~round:_ -> if Bcast.Rand_counter.bool rand then 1 else 0);
            receive = (fun ~round:_ _ -> ());
            finish = (fun () -> ());
          });
    }
  in
  let inputs = Array.init 2 (fun _ -> Bitvec.create 1) in
  Alcotest.check_raises "deterministic source"
    (Failure "Rand_counter: deterministic processor drew randomness") (fun () ->
      ignore (Bcast.run_deterministic coin ~inputs))

let test_input_count_mismatch () =
  (* Protocols validating the processor count reject wrong-size runs. *)
  let proto = Full_rank.exact_protocol ~n:8 in
  let inputs = Array.init 5 (fun _ -> Bitvec.create 8) in
  Alcotest.check_raises "count mismatch"
    (Invalid_argument "Full_rank: processor count mismatch") (fun () ->
      ignore (Bcast.run_deterministic proto ~inputs))

(* --- GF(2) inverse and determinant --- *)

let test_determinant () =
  check_bool "identity" true (Gf2_matrix.determinant (Gf2_matrix.identity 5));
  check_bool "zero" false (Gf2_matrix.determinant (Gf2_matrix.create ~rows:3 ~cols:3))

let test_inverse_roundtrip () =
  let g = Prng.create 2 in
  let found = ref 0 in
  for trial = 1 to 40 do
    let m = Gf2_matrix.random (Prng.split g trial) ~rows:8 ~cols:8 in
    match Gf2_matrix.inverse m with
    | None -> check_bool "singular iff not full rank" false (Gf2_matrix.is_full_rank m)
    | Some inv ->
        incr found;
        check_bool "M * M^-1 = I" true
          (Gf2_matrix.equal (Gf2_matrix.mul m inv) (Gf2_matrix.identity 8));
        check_bool "M^-1 * M = I" true
          (Gf2_matrix.equal (Gf2_matrix.mul inv m) (Gf2_matrix.identity 8))
  done;
  (* About 29% of random matrices are invertible: expect several. *)
  check_bool "found invertible samples" true (!found > 3)

let test_inverse_identity () =
  match Gf2_matrix.inverse (Gf2_matrix.identity 6) with
  | Some inv -> check_bool "I^-1 = I" true (Gf2_matrix.equal inv (Gf2_matrix.identity 6))
  | None -> Alcotest.fail "identity must be invertible"

(* --- F2 moment protocol --- *)

let test_f2_exact_known () =
  (* Two processors sharing one item: frequencies (2, 1, 0): F2 = 5. *)
  let inputs = [| Bitvec.of_string "110"; Bitvec.of_string "100" |] in
  checkf "F2" 5.0 (F2_moment.exact_f2 inputs)

let test_f2_estimator_unbiased_direction () =
  let g = Prng.create 3 in
  let n = 10 and d = 32 in
  let inputs = Array.init n (fun i -> Prng.bitvec (Prng.split g i) d) in
  let cfg = { F2_moment.d; repetitions = 400; seed = 9 } in
  let err = F2_moment.relative_error cfg inputs (Prng.split g 100) in
  check_bool "relative error reasonable at r=400" true (err < 0.35)

let test_f2_outputs_agree () =
  let g = Prng.create 4 in
  let d = 16 in
  let inputs = Array.init 6 (fun i -> Prng.bitvec (Prng.split g i) d) in
  let cfg = { F2_moment.d; repetitions = 10; seed = 5 } in
  let result = Bcast.run (F2_moment.protocol cfg) ~inputs ~rand:g in
  Array.iter
    (fun o -> checkf "all processors agree" result.Bcast.outputs.(0) o)
    result.Bcast.outputs;
  Alcotest.(check int) "rounds = repetitions" 10 result.Bcast.rounds_used

let test_f2_more_reps_helps () =
  (* Average relative error should shrink with repetitions. *)
  let g = Prng.create 6 in
  let d = 24 and n = 8 in
  let mean_err reps =
    let total = ref 0.0 in
    for t = 1 to 12 do
      let gi = Prng.split g ((reps * 100) + t) in
      let inputs = Array.init n (fun i -> Prng.bitvec (Prng.split gi i) d) in
      let cfg = { F2_moment.d; repetitions = reps; seed = t } in
      total := !total +. F2_moment.relative_error cfg inputs gi
    done;
    !total /. 12.0
  in
  check_bool "r=100 beats r=2" true (mean_err 100 < mean_err 2)

let test_f2_validation () =
  Alcotest.check_raises "bad universe" (Invalid_argument "F2_moment: universe must be nonempty")
    (fun () -> ignore (F2_moment.protocol { F2_moment.d = 0; repetitions = 1; seed = 1 }))

(* --- environment knobs: one parser, out-of-range values rejected --- *)

(* Runs [f] with [name] set to [value], restoring the previous value
   (empty counts as unset for every knob). *)
let with_env name value f =
  let old = Option.value (Sys.getenv_opt name) ~default:"" in
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> Unix.putenv name old) f

let rejects name value read =
  with_env name value (fun () ->
      match read () with
      | _ -> Alcotest.failf "%s=%S accepted" name value
      | exception Env_knob.Invalid msg ->
          check_bool (Printf.sprintf "%s=%S: message names the knob" name value) true
            (String.length msg > String.length name
            && String.sub msg 0 (String.length name) = name))

let test_env_knob_parser () =
  List.iter (fun v -> rejects "BCC_DOMAINS" v Env_knob.domains) [ "abc"; "-3"; "0"; "999"; "4x" ];
  List.iter (fun v -> rejects "BCC_E31_N" v Env_knob.e31_n) [ "abc"; "12"; "4095"; "2000000" ];
  let accepts name value read want =
    with_env name value (fun () ->
        Alcotest.(check (option int)) (Printf.sprintf "%s=%S" name value) want (read ()))
  in
  accepts "BCC_DOMAINS" "" Env_knob.domains None;
  accepts "BCC_DOMAINS" "1" Env_knob.domains (Some 1);
  accepts "BCC_DOMAINS" " 64 " Env_knob.domains (Some 64);
  accepts "BCC_E31_N" "4096" Env_knob.e31_n (Some 4096);
  accepts "BCC_E31_N" "" Env_knob.e31_n None

(* The CLI boundary: a bad knob is a one-line message and the documented
   exit status, not cmdliner's 125 "internal error". *)
let test_cli_rejects_bad_knobs () =
  let err_file = Filename.temp_file "knob" ".err" in
  List.iter
    (fun env ->
      let cmd =
        Printf.sprintf "%s ../bin/bcc_cli.exe --list > /dev/null 2> %s" env
          (Filename.quote err_file)
      in
      Alcotest.(check int) env Env_knob.exit_code (Sys.command cmd);
      let err = In_channel.with_open_text err_file In_channel.input_all in
      Alcotest.(check int) (env ^ ": one line") 1
        (List.length (String.split_on_char '\n' (String.trim err))))
    [ "BCC_DOMAINS=abc"; "BCC_DOMAINS=-3"; "BCC_DOMAINS=999"; "BCC_E31_N=12" ];
  Sys.remove err_file;
  Alcotest.(check int) "a valid knob runs" 0
    (Sys.command "BCC_DOMAINS=2 ../bin/bcc_cli.exe --list > /dev/null")

(* Unwritable output paths: every file-writing option ends in one line
   naming the path and exit 123 (cmdliner's "errors reported on standard
   error"), not an uncaught Unix_error or Sys_error (exit 125).  A path
   under a regular file is unwritable for any user; the run and prof
   cases fail in mkdir (Unix_error), the trace case in open (Sys_error). *)
let test_cli_unwritable_outputs () =
  let file = Filename.temp_file "bcc_out" ".txt" in
  let err_file = Filename.temp_file "bcc_out" ".err" in
  let bad = Filename.concat file "x" in
  List.iter
    (fun args ->
      let cmd =
        Printf.sprintf "../bin/bcc_cli.exe %s > /dev/null 2> %s" args
          (Filename.quote err_file)
      in
      Alcotest.(check int) args 123 (Sys.command cmd);
      let err = String.trim (In_channel.with_open_text err_file In_channel.input_all) in
      Alcotest.(check int) (args ^ ": one line") 1
        (List.length (String.split_on_char '\n' err));
      check_bool (args ^ ": names the path") true
        (String.starts_with ~prefix:("bcc_cli: cannot write " ^ bad) err))
    [
      "run e1 --artifacts " ^ Filename.quote bad;
      "trace equality-det --seed 7 --out " ^ Filename.quote bad;
      "trace equality-det --seed 7 --jsonl -o " ^ Filename.quote bad;
      "prof e1 --out " ^ Filename.quote bad;
    ];
  Sys.remove file;
  Sys.remove err_file

(* Out-of-range numeric options: one line and cmdliner's 124 (a `Msg
   error), before anything runs — never silently accepted. *)
let test_cli_rejects_bad_counts () =
  let err_file = Filename.temp_file "bcc_arg" ".err" in
  List.iter
    (fun (args, message) ->
      let cmd =
        Printf.sprintf "../bin/bcc_cli.exe %s > /dev/null 2> %s" args
          (Filename.quote err_file)
      in
      Alcotest.(check int) args 124 (Sys.command cmd);
      let err = String.trim (In_channel.with_open_text err_file In_channel.input_all) in
      Alcotest.(check string) (args ^ ": message") ("bcc_cli: " ^ message) err)
    [
      ("prof --top=-1 e1", "--top must be >= 0");
      ("metrics --replicas=0 e1", "--replicas must be >= 1");
    ];
  Sys.remove err_file

let () =
  Alcotest.run "robustness"
    [
      ( "failure injection",
        [
          Alcotest.test_case "overwide message" `Quick test_overwide_message_rejected;
          Alcotest.test_case "negative message" `Quick test_negative_message_rejected;
          Alcotest.test_case "unicast outbox" `Quick test_unicast_outbox_size_enforced;
          Alcotest.test_case "tape overdraw" `Quick test_tape_overdraw_fails_loudly;
          Alcotest.test_case "deterministic runner" `Quick test_deterministic_runner_rejects_randomized;
          Alcotest.test_case "input count mismatch" `Quick test_input_count_mismatch;
        ] );
      ( "gf2 inverse",
        [
          Alcotest.test_case "determinant" `Quick test_determinant;
          Alcotest.test_case "inverse roundtrip" `Quick test_inverse_roundtrip;
          Alcotest.test_case "identity" `Quick test_inverse_identity;
        ] );
      ( "f2 moment",
        [
          Alcotest.test_case "exact known" `Quick test_f2_exact_known;
          Alcotest.test_case "estimator accuracy" `Quick test_f2_estimator_unbiased_direction;
          Alcotest.test_case "outputs agree" `Quick test_f2_outputs_agree;
          Alcotest.test_case "repetitions help" `Quick test_f2_more_reps_helps;
          Alcotest.test_case "validation" `Quick test_f2_validation;
        ] );
      ( "env knobs",
        [
          Alcotest.test_case "parser rejects out of range" `Quick test_env_knob_parser;
          Alcotest.test_case "cli exit code" `Quick test_cli_rejects_bad_knobs;
        ] );
      ( "output paths",
        [
          Alcotest.test_case "unwritable paths exit 123" `Quick
            test_cli_unwritable_outputs;
          Alcotest.test_case "bad counts exit 124" `Quick test_cli_rejects_bad_counts;
        ] );
    ]
