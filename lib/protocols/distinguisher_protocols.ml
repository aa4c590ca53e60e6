type degree_summary = {
  max_total_degree : int;
  total_edges : int;
  degree_variance : float;
}

let degree_protocol ~n =
  let w = Bcast.msg_bits_for_log_n (max 2 n) in
  let key = Bcast.Board.key "degree-summary" in
  (* Everyone summarises the same broadcast degrees: once per run.  A
     board with no rounds reads as all-zero degrees. *)
  let summarize board =
    let degrees =
      if Bcast.Board.length board = 0 then Array.make n 0
      else Array.init n (fun sender -> Bcast.Board.get board ~round:0 ~sender)
    in
    {
      max_total_degree = Array.fold_left max 0 degrees;
      total_edges = Array.fold_left ( + ) 0 degrees;
      degree_variance = Stats.variance (Array.map float_of_int degrees);
    }
  in
  {
    Bcast.name = Printf.sprintf "degree-summary(n=%d)" n;
    msg_bits = w;
    rounds = 1;
    spawn =
      (fun ~id:_ ~n:n' ~input ~rand:_ ->
        if n' <> n then invalid_arg "Distinguisher_protocols: processor count mismatch";
        let board = ref (Bcast.Board.empty ~n ~msg_bits:w) in
        {
          Bcast.send = (fun ~round:_ -> Bitvec.popcount input);
          receive = (fun ~round:_ b -> board := b);
          finish = (fun () -> Bcast.Board.common !board key summarize);
        });
  }

let sampled_clique_protocol ~n ~sample_size =
  if sample_size < 1 || sample_size > n then
    invalid_arg "Distinguisher_protocols.sampled_clique_protocol: bad sample size";
  let w = Bcast.msg_bits_for_log_n (max 2 n) in
  let rounds = (sample_size + w - 1) / w in
  let key = Bcast.Board.key "sampled-clique" in
  (* Everyone computes the same induced-subgraph max clique: once per
     run.  Row [i] is sampled processor [i]'s adjacency into the sample,
     [w] bits per round. *)
  let clique_size board =
    let sub = Digraph.create sample_size in
    for i = 0 to sample_size - 1 do
      let row = Bitvec.create sample_size in
      for round = 0 to Bcast.Board.length board - 1 do
        let v = Bcast.Board.get board ~round ~sender:i in
        for b = 0 to w - 1 do
          let j = (round * w) + b in
          if j < sample_size && (v lsr b) land 1 = 1 then Bitvec.set row j true
        done
      done;
      Digraph.install_out_row sub i row
    done;
    List.length (Clique.max_clique sub)
  in
  {
    Bcast.name = Printf.sprintf "sampled-clique(n=%d,s=%d)" n sample_size;
    msg_bits = w;
    rounds;
    spawn =
      (fun ~id ~n:n' ~input ~rand:_ ->
        if n' <> n then invalid_arg "Distinguisher_protocols: processor count mismatch";
        let board = ref (Bcast.Board.empty ~n ~msg_bits:w) in
        {
          Bcast.send =
            (fun ~round ->
              if id >= sample_size then 0
              else begin
                (* Chunk [round] of my adjacency restricted to the sample. *)
                let v = ref 0 in
                for b = 0 to w - 1 do
                  let j = (round * w) + b in
                  if j < sample_size && j <> id && Bitvec.get input j then
                    v := !v lor (1 lsl b)
                done;
                !v
              end);
          receive = (fun ~round:_ b -> board := b);
          finish = (fun () -> Bcast.Board.common !board key clique_size);
        });
  }

let threshold_distinguisher proto ~statistic ~threshold =
  Bcast.map_output (fun summary -> statistic summary > threshold) proto

let measured_gap proto ~n ~k ~trials g =
  Advantage.protocol_gap proto
    ~sample_yes:(fun g ->
      let graph, _ = Planted.sample_planted g ~n ~k in
      Array.init n (Digraph.out_row graph))
    ~sample_no:(fun g ->
      let graph = Planted.sample_rand g n in
      Array.init n (Digraph.out_row graph))
    ~trials g
