let extend ~x ~b =
  if Bitvec.length x <> Bitvec.length b then invalid_arg "Toy_prg.extend: length mismatch";
  let r = Bitvec.create (Bitvec.length x + 1) in
  Bitvec.blit ~src:x ~src_pos:0 ~dst:r ~dst_pos:0 ~len:(Bitvec.length x);
  Bitvec.set r (Bitvec.length x) (Bitvec.dot x b);
  r

let sample_ub g ~b = extend ~x:(Prng.bitvec g (Bitvec.length b)) ~b

let sample_inputs_pseudo g ~n ~k =
  let b = Prng.bitvec g k in
  (Array.init n (fun _ -> sample_ub g ~b), b)

let sample_inputs_rand g ~n ~k = Array.init n (fun _ -> Prng.bitvec g (k + 1))

let construction_protocol ~k =
  {
    Bcast.name = Printf.sprintf "toy-prg-construction(k=%d)" k;
    msg_bits = 1;
    rounds = k;
    spawn =
      (fun ~id ~n ~input:_ ~rand ->
        (* The private seed [x]; drawn up front so the bit accounting shows
           exactly k bits plus the contributed shares. *)
        let x = Bcast.Rand_counter.bitvec rand k in
        let board = ref (Bcast.Board.empty ~n ~msg_bits:1) in
        {
          Bcast.send =
            (fun ~round ->
              if round mod n = id then if Bcast.Rand_counter.bool rand then 1 else 0
              else 0);
          receive = (fun ~round:_ bd -> board := bd);
          finish =
            (fun () ->
              (* Bit [r] of the public [b] is the share processor [r mod n]
                 broadcast in round [r]. *)
              let b = Bitvec.create k in
              for r = 0 to min k (Bcast.Board.length !board) - 1 do
                if Bcast.Board.get !board ~round:r ~sender:(r mod n) = 1 then
                  Bitvec.set b r true
              done;
              extend ~x ~b);
        });
  }
