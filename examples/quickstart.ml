(* Quickstart: the Broadcast Congested Clique simulator in five minutes.

   Builds a tiny BCAST(1) protocol from scratch, runs it, inspects the
   transcript and resource accounting, and takes one sample from each of
   the paper's input distributions.

     dune exec examples/quickstart.exe
*)

let () = Format.printf "== bcclique quickstart ==@.@."

(* 1. A protocol: every processor broadcasts the parity of its input row,
   and outputs how many parities were odd. *)
let parity_count_protocol : int Bcast.protocol =
  {
    Bcast.name = "parity-count";
    msg_bits = 1;
    rounds = 1;
    spawn =
      (fun ~id:_ ~n:_ ~input ~rand:_ ->
        let odd = ref 0 in
        {
          Bcast.send = (fun ~round:_ -> Bitvec.popcount input land 1);
          receive =
            (fun ~round board ->
              for sender = 0 to Bcast.Board.n board - 1 do
                odd := !odd + Bcast.Board.get board ~round ~sender
              done);
          finish = (fun () -> !odd);
        });
  }

let () =
  let g = Prng.create 1 in
  let n = 6 in
  let inputs = Array.init n (fun _ -> Prng.bitvec g n) in
  let result = Bcast.run parity_count_protocol ~inputs ~rand:g in
  Format.printf "1. ran %S with %d processors@." parity_count_protocol.Bcast.name n;
  Format.printf "   every processor computed the same count: %d odd rows@."
    result.Bcast.outputs.(0);
  Format.printf "   transcript (%d broadcasts, %d bits on the channel):@."
    (Transcript.length result.Bcast.transcript)
    result.Bcast.broadcast_bits;
  Format.printf "   @[%a@]@.@." Transcript.pp result.Bcast.transcript

(* 2. The paper's input distributions. *)
let () =
  let g = Prng.create 2 in
  let n = 8 and k = 4 in
  let graph, clique = Planted.sample_planted g ~n ~k in
  Format.printf "2. a sample of A_k (n=%d, k=%d): planted clique at {%s}@." n k
    (String.concat ", " (List.map string_of_int clique));
  Format.printf "   adjacency matrix (row i = processor i's private input):@.";
  Format.printf "   @[%a@]@." Digraph.pp graph;
  Format.printf "   max clique found locally: {%s}@.@."
    (String.concat ", " (List.map string_of_int (Clique.max_clique graph)))

(* 3. The PRG of Theorem 1.3, in one call. *)
let () =
  let params = { Full_prg.n = 8; k = 6; m = 16 } in
  let proto = Full_prg.construction_protocol params in
  let inputs = Array.init params.Full_prg.n (fun _ -> Bitvec.create 1) in
  let result = Bcast.run proto ~inputs ~rand:(Prng.create 3) in
  Format.printf "3. the PRG of Theorem 1.3 (n=%d, k=%d, m=%d):@." params.Full_prg.n
    params.Full_prg.k params.Full_prg.m;
  Format.printf "   construction took %d rounds; each processor spent <= %d random bits@."
    result.Bcast.rounds_used
    (Full_prg.seed_bits_per_processor params);
  Array.iteri
    (fun i o -> Format.printf "   processor %d's %d pseudo-random bits: %a@." i
        (Bitvec.length o) Bitvec.pp o)
    result.Bcast.outputs;
  let joint = Gf2_matrix.of_rows result.Bcast.outputs in
  Format.printf "   joint rank %d <= k = %d  (the secret low-rank structure)@."
    (Gf2_matrix.rank joint) params.Full_prg.k;
  Format.printf "   ...which no protocol with <= %d rounds can see (Theorem 5.4).@."
    (Full_prg.fooling_rounds params)
