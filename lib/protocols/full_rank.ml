let pow2 e = Float.of_int 2 ** Float.of_int e

(* Probability that a uniform n x n matrix is full rank given that its first
   [c] columns are linearly independent: each remaining column must avoid
   the span of the previous ones. *)
let prob_full_given_independent ~n ~c =
  let acc = ref 1.0 in
  for j = c to n - 1 do
    acc := !acc *. (1.0 -. pow2 (j - n))
  done;
  !acc

(* Column-broadcast protocol over the top-left [k x k] block of an [n x n]
   input (k = n gives the whole matrix).  In round r, processors 0..k-1
   broadcast bit r of their row; everyone accumulates the columns and
   [decide] is applied to the observed k x rounds block. *)
let column_protocol ~name ~n ~k ~rounds ~decide =
  if k < 1 || k > n then invalid_arg "Full_rank: need 1 <= k <= n";
  if rounds < 1 || rounds > k then invalid_arg "Full_rank: need 1 <= rounds <= k";
  let key = Bcast.Board.key name in
  {
    Bcast.name;
    msg_bits = 1;
    rounds;
    spawn =
      (fun ~id ~n:n' ~input ~rand:_ ->
        if n' <> n then invalid_arg "Full_rank: processor count mismatch";
        let board = ref (Bcast.Board.empty ~n ~msg_bits:1) in
        {
          Bcast.send =
            (fun ~round -> if id < k && Bitvec.get input round then 1 else 0);
          receive = (fun ~round:_ b -> board := b);
          finish =
            (fun () ->
              (* The observed k x rounds block: everyone decides the same. *)
              Bcast.Board.common !board key (fun b ->
                  let observed = Gf2_matrix.create ~rows:k ~cols:rounds in
                  for round = 0 to min rounds (Bcast.Board.length b) - 1 do
                    for i = 0 to k - 1 do
                      if Bcast.Board.get b ~round ~sender:i = 1 then
                        Gf2_matrix.set observed i round true
                    done
                  done;
                  decide observed));
        });
  }

let decide_exact observed = Gf2_matrix.is_full_rank observed

let decide_truncated ~k ~rounds observed =
  let r = Gf2_matrix.rank observed in
  if r < rounds then false (* dependent columns: certainly singular *)
  else prob_full_given_independent ~n:k ~c:rounds > 0.5

let exact_protocol ~n =
  column_protocol
    ~name:(Printf.sprintf "full-rank-exact(n=%d)" n)
    ~n ~k:n ~rounds:n ~decide:decide_exact

let truncated_protocol ~n ~rounds =
  if rounds >= n then exact_protocol ~n
  else
    column_protocol
      ~name:(Printf.sprintf "full-rank-truncated(n=%d,rounds=%d)" n rounds)
      ~n ~k:n ~rounds
      ~decide:(decide_truncated ~k:n ~rounds)

let top_k_protocol ~n ~k =
  column_protocol
    ~name:(Printf.sprintf "top-k-rank(n=%d,k=%d)" n k)
    ~n ~k ~rounds:k ~decide:decide_exact

let top_k_truncated ~n ~k ~rounds =
  if rounds >= k then top_k_protocol ~n ~k
  else
    column_protocol
      ~name:(Printf.sprintf "top-k-rank-truncated(n=%d,k=%d,rounds=%d)" n k rounds)
      ~n ~k ~rounds
      ~decide:(decide_truncated ~k ~rounds)

let accuracy proto ~truth ~sample ~trials g =
  (* Parallel trials, one [Prng.split] child each — domain-count
     independent, and [g] is split rather than advanced. *)
  let hits =
    Par.map_reduce g ~trials ~init:0
      ~f:(fun ~trial:_ gt ->
        let m = sample gt in
        let inputs = Array.init (Gf2_matrix.rows m) (Gf2_matrix.row m) in
        let result = Bcast.run proto ~inputs ~rand:gt in
        if result.Bcast.outputs.(0) = truth m then 1 else 0)
      ~reduce:( + )
  in
  float_of_int hits /. float_of_int trials

let sample_uniform ~n g = Gf2_matrix.random g ~rows:n ~cols:n

let sample_rank_deficient ~n g =
  let b = Prng.bitvec g (n - 1) in
  Gf2_matrix.of_rows
    (Array.init n (fun _ ->
         let x = Prng.bitvec g (n - 1) in
         Toy_prg.extend ~x ~b))
