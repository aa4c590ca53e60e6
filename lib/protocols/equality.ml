let all_equal inputs =
  Array.for_all (fun x -> Bitvec.equal x inputs.(0)) inputs

let deterministic_protocol ~m =
  let key = Bcast.Board.key "equality.rows" in
  {
    Bcast.name = Printf.sprintf "equality-deterministic(m=%d)" m;
    msg_bits = 1;
    rounds = m;
    spawn =
      (fun ~id:_ ~n ~input ~rand:_ ->
        let board = ref (Bcast.Board.empty ~n ~msg_bits:1) in
        {
          Bcast.send = (fun ~round -> if Bitvec.get input round then 1 else 0);
          receive = (fun ~round:_ b -> board := b);
          finish =
            (fun () ->
              (* Everyone's broadcast rows agree: one check per run. *)
              Bcast.Board.common !board key (fun b ->
                  all_equal (Array.init n (fun sender -> Bcast.Board.sender_bits b ~sender))));
        });
  }

let fingerprint_public_coin ~n ~m ~repetitions =
  {
    Newman.name = Printf.sprintf "equality-fingerprint(m=%d,c=%d)" m repetitions;
    coin_bits = repetitions * m;
    run =
      (fun ~coins ~inputs ->
        if Array.length inputs <> n then invalid_arg "Equality: wrong processor count";
        let ok = ref true in
        for rep = 0 to repetitions - 1 do
          let r = Bitvec.sub coins ~pos:(rep * m) ~len:m in
          let first = Bitvec.dot inputs.(0) r in
          Array.iter (fun x -> if Bitvec.dot x r <> first then ok := false) inputs
        done;
        !ok);
  }

let fingerprint_protocol ~m ~repetitions =
  let coin_rounds = repetitions * m in
  let coins_key = Bcast.Board.key "equality.coins" in
  {
    Bcast.name = Printf.sprintf "equality-fingerprint-bcast(m=%d,c=%d)" m repetitions;
    msg_bits = 1;
    rounds = coin_rounds + repetitions;
    spawn =
      (fun ~id ~n ~input ~rand ->
        let board = ref (Bcast.Board.empty ~n ~msg_bits:1) in
        (* Processor 0's published coins: common knowledge once the coin
           rounds are on the board. *)
        let coins () =
          let coin_board = Bcast.Board.truncate !board ~rounds:coin_rounds in
          Bcast.Board.common coin_board coins_key (fun b ->
              let c = Bitvec.create coin_rounds in
              for r = 0 to Bcast.Board.length b - 1 do
                if Bcast.Board.get b ~round:r ~sender:0 = 1 then Bitvec.set c r true
              done;
              c)
        in
        {
          Bcast.send =
            (fun ~round ->
              if round < coin_rounds then
                (* Processor 0 publishes the shared fingerprint vectors. *)
                if id = 0 then if Bcast.Rand_counter.bool rand then 1 else 0 else 0
              else begin
                let rep = round - coin_rounds in
                let r = Bitvec.sub (coins ()) ~pos:(rep * m) ~len:m in
                if Bitvec.dot input r then 1 else 0
              end);
          receive = (fun ~round:_ b -> board := b);
          finish =
            (fun () ->
              (* Every fingerprint round is unanimous. *)
              let b = !board in
              let ok = ref true in
              for round = coin_rounds to Bcast.Board.length b - 1 do
                for i = 1 to n - 1 do
                  if Bcast.Board.get b ~round ~sender:i <> Bcast.Board.get b ~round ~sender:0
                  then ok := false
                done
              done;
              !ok);
        });
  }
