type params = { n : int; k : int; m : int }

let validate p =
  if p.n < 1 then invalid_arg "Full_prg: need n >= 1";
  if p.k < 1 || p.k >= p.m then invalid_arg "Full_prg: need 1 <= k < m"

let secret_bit_count p = p.k * (p.m - p.k)

let construction_rounds p =
  validate p;
  (secret_bit_count p + p.n - 1) / p.n

let seed_bits_per_processor p = p.k + construction_rounds p

let fooling_rounds p = max 1 (p.k / 10)

let expand secret x =
  let k = Gf2_matrix.rows secret in
  if Bitvec.length x <> k then invalid_arg "Full_prg.expand: seed length mismatch";
  Bitvec.concat x (Gf2_matrix.vec_mul x secret)

let sample_secret g p =
  validate p;
  Gf2_matrix.random g ~rows:p.k ~cols:(p.m - p.k)

let sample_um g secret = expand secret (Prng.bitvec g (Gf2_matrix.rows secret))

let expand_rows secret seeds =
  let k = Gf2_matrix.rows secret in
  Array.iter
    (fun x ->
      if Bitvec.length x <> k then invalid_arg "Full_prg.expand_rows: seed length mismatch")
    seeds;
  if Array.length seeds = 0 then [||]
  else begin
    (* One M4RM matrix product computes every [x^T M] at once instead of a
       bit-at-a-time vec_mul per seed. *)
    let xm = Gf2_matrix.mul (Gf2_matrix.of_rows seeds) secret in
    Array.mapi (fun i x -> Bitvec.concat x (Gf2_matrix.row xm i)) seeds
  end

let sample_inputs_pseudo g p =
  let secret = sample_secret g p in
  (* Draw all the seeds first (same Prng stream order as the one-by-one
     sampler), then expand them as a single matrix product. *)
  let seeds = Array.init p.n (fun _ -> Prng.bitvec g p.k) in
  (expand_rows secret seeds, secret)

let sample_inputs_rand g p =
  validate p;
  Array.init p.n (fun _ -> Prng.bitvec g p.m)

let construction_rounds_wide p ~msg_bits =
  validate p;
  if msg_bits < 1 || msg_bits > 30 then invalid_arg "Full_prg: msg_bits in [1,30]";
  (secret_bit_count p + (p.n * msg_bits) - 1) / (p.n * msg_bits)

(* The secret [M] every processor reads off the board: bit [b] of
   sender [s]'s round-[r] message fills position [((r n + s) b_w) + b] of
   [M], row-major, for a [b_w]-bit broadcast; beyond [k (m - k)] the
   stream is padding.  A pure function of the board, so one run builds
   it once ({!Bcast.Board.common}) and every processor expands its own
   seed against it. *)
let secret_of_board p ~msg_bits board =
  let n = Bcast.Board.n board in
  let total = secret_bit_count p in
  let cols = p.m - p.k in
  let secret = Gf2_matrix.create ~rows:p.k ~cols in
  for round = 0 to Bcast.Board.length board - 1 do
    for sender = 0 to n - 1 do
      let value = Bcast.Board.get board ~round ~sender in
      for b = 0 to msg_bits - 1 do
        let pos = (((round * n) + sender) * msg_bits) + b in
        if pos < total then
          Gf2_matrix.set secret (pos / cols) (pos mod cols) ((value lsr b) land 1 = 1)
      done
    done
  done;
  secret

let construction_protocol_wide p ~msg_bits =
  let rounds = construction_rounds_wide p ~msg_bits in
  let total = secret_bit_count p in
  let secret_key = Bcast.Board.key "full-prg.secret" in
  {
    Bcast.name =
      Printf.sprintf "full-prg-construction-wide(n=%d,k=%d,m=%d,b=%d)" p.n p.k p.m msg_bits;
    msg_bits;
    rounds;
    spawn =
      (fun ~id ~n ~input:_ ~rand ->
        let x = Bcast.Rand_counter.bitvec rand p.k in
        let board = ref (Bcast.Board.empty ~n ~msg_bits) in
        {
          Bcast.send =
            (fun ~round ->
              (* Processor [id] owns bits [((round n + id) msg_bits) + b]
                 of the row-major secret; beyond [total] it pads with
                 zeros. *)
              let v = ref 0 in
              for b = 0 to msg_bits - 1 do
                if (((round * n) + id) * msg_bits) + b < total then
                  if Bcast.Rand_counter.bool rand then v := !v lor (1 lsl b)
              done;
              !v);
          receive = (fun ~round:_ b -> board := b);
          finish =
            (fun () ->
              expand (Bcast.Board.common !board secret_key (secret_of_board p ~msg_bits)) x);
        });
  }

let construction_protocol p =
  validate p;
  let proto = construction_protocol_wide p ~msg_bits:1 in
  {
    proto with
    Bcast.name = Printf.sprintf "full-prg-construction(n=%d,k=%d,m=%d)" p.n p.k p.m;
  }