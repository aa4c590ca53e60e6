let rounds ~k = k + 1

(* Every processor reaches the same verdict from the board alone, so the
   GF(2) work runs once per run through [Board.common]; processors only
   keep the board they were handed. *)
let board_protocol ~name ~rounds ~spawn_check verdict =
  let key = Bcast.Board.key name in
  {
    Bcast.name;
    msg_bits = 1;
    rounds;
    spawn =
      (fun ~id:_ ~n ~input ~rand:_ ->
        spawn_check input;
        let board = ref (Bcast.Board.empty ~n ~msg_bits:1) in
        {
          Bcast.send = (fun ~round -> if Bitvec.get input round then 1 else 0);
          receive = (fun ~round:_ b -> board := b);
          finish = (fun () -> Bcast.Board.common !board key verdict);
        });
  }

(* The [n x cols] matrix whose row [i] is sender [i]'s first [cols]
   broadcast bits.  A board cut short by [with_rounds] gives fewer
   columns, which changes neither solvability nor rank. *)
let sender_matrix board ~cols =
  let first = Bcast.Board.truncate board ~rounds:cols in
  Gf2_matrix.of_rows
    (Array.init (Bcast.Board.n board) (fun sender -> Bcast.Board.sender_bits first ~sender))

let protocol ~k =
  board_protocol
    ~name:(Printf.sprintf "seed-attack(k=%d)" k)
    ~rounds:(rounds ~k)
    ~spawn_check:(fun input ->
      if Bitvec.length input < k + 1 then
        invalid_arg "Seed_attack: inputs must have at least k+1 bits")
    (fun board ->
      (* Consistent with the PRG iff [X v = b] is solvable, where row i of
         X is processor i's seed and b_i its extra bit. *)
      let b =
        if Bcast.Board.length board > k then Bcast.Board.round_bits board ~round:k
        else Bitvec.create (Bcast.Board.n board)
      in
      Option.is_some (Gf2_matrix.solve (sender_matrix board ~cols:k) b))

let rank_test_protocol ~rounds =
  board_protocol
    ~name:(Printf.sprintf "rank-test(rounds=%d)" rounds)
    ~rounds
    ~spawn_check:(fun input ->
      if Bitvec.length input < rounds then
        invalid_arg "Seed_attack.rank_test: inputs shorter than round budget")
    (fun board ->
      Gf2_matrix.rank (sender_matrix board ~cols:rounds) < min (Bcast.Board.n board) rounds)

let declares_pseudo ~params ~inputs g =
  let proto = protocol ~k:params.Full_prg.k in
  let result = Bcast.run proto ~inputs ~rand:g in
  result.Bcast.outputs.(0)

(* Both Monte-Carlo estimates fan their trials out via [Par], one
   [Prng.split] child per trial: results depend on [g]'s seed only, not
   on the domain count, and [g] is never advanced. *)

let advantage ~params ~trials g =
  let hits_pseudo, hits_rand =
    Par.map_reduce g ~trials ~init:(0, 0)
      ~f:(fun ~trial:_ gt ->
        let pseudo, _ = Full_prg.sample_inputs_pseudo gt params in
        let hp = if declares_pseudo ~params ~inputs:pseudo gt then 1 else 0 in
        let random = Full_prg.sample_inputs_rand gt params in
        let hr = if declares_pseudo ~params ~inputs:random gt then 1 else 0 in
        (hp, hr))
      ~reduce:(fun (ap, ar) (hp, hr) -> (ap + hp, ar + hr))
  in
  float_of_int (hits_pseudo - hits_rand) /. float_of_int trials

let false_positive_rate ~params ~trials g =
  let hits =
    Par.map_reduce g ~trials ~init:0
      ~f:(fun ~trial:_ gt ->
        let random = Full_prg.sample_inputs_rand gt params in
        if declares_pseudo ~params ~inputs:random gt then 1 else 0)
      ~reduce:( + )
  in
  float_of_int hits /. float_of_int trials
