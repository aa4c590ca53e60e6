type outcome = Found of int list | Aborted_too_many_active | Aborted_small_clique

let log2f x = Float.log x /. Float.log 2.0

let activation_probability ~n ~k =
  if k <= 0 then invalid_arg "Planted_clique_algo: k must be positive";
  let l = log2f (float_of_int (max 2 n)) in
  Float.min 1.0 (l *. l /. float_of_int k)

let active_cap ~n ~k =
  let p = activation_probability ~n ~k in
  int_of_float (Float.ceil (2.0 *. p *. float_of_int n))

let round_budget ~n ~k = 2 + active_cap ~n ~k

let clique_size_threshold n =
  let l = log2f (float_of_int (max 2 n)) in
  0.5 *. l *. l

let expected_success_probability ~n ~k =
  let p = activation_probability ~n ~k in
  let nf = float_of_int n and kf = float_of_int k in
  let too_many = Stats.chernoff_upper ~mean:(p *. nf) ~delta:1.0 in
  let too_few_clique = Stats.chernoff_lower ~mean:(p *. kf) ~delta:0.5 in
  Float.max 0.0 (1.0 -. too_many -. too_few_clique)

(* The maximum clique of the subgraph induced on the active set, as
   every processor computes it from the board: round 0 names the active
   vertices, and edge round [r + 1] is the column of everyone's adjacency
   bits to the [r]-th of them. *)
let active_clique ~actives board =
  let na = Array.length actives in
  let cols = Array.init na (fun r -> Bcast.Board.round_bits board ~round:(r + 1)) in
  let sub = Digraph.create na in
  for ai = 0 to na - 1 do
    for aj = 0 to na - 1 do
      if ai <> aj && Bitvec.get cols.(aj) actives.(ai) then Digraph.add_edge sub ai aj
    done
  done;
  List.sort Int.compare (List.map (fun i -> actives.(i)) (Clique.max_clique sub))

let protocol ~n ~k =
  let p = activation_probability ~n ~k in
  let cap = active_cap ~n ~k in
  let rounds = round_budget ~n ~k in
  let actives_key = Bcast.Board.key "planted-clique.actives" in
  let clique_key = Bcast.Board.key "planted-clique.clique" in
  (* Common knowledge, computed once per run: the active vertices in
     increasing order (round 0 only), and the active clique (rounds 0 to
     [cap]: the activity round and the edge rounds). *)
  let actives board =
    Bcast.Board.common (Bcast.Board.truncate board ~rounds:1) actives_key (fun b ->
        if Bcast.Board.length b = 0 then [||]
        else Array.of_list (Bitvec.indices_set (Bcast.Board.round_bits b ~round:0)))
  in
  let clique board =
    Bcast.Board.common (Bcast.Board.truncate board ~rounds:(cap + 1)) clique_key (fun b ->
        active_clique ~actives:(actives b) b)
  in
  {
    Bcast.name = Printf.sprintf "planted-clique-B1(n=%d,k=%d)" n k;
    msg_bits = 1;
    rounds;
    spawn =
      (fun ~id ~n:n' ~input ~rand ->
        if n' <> n then invalid_arg "Planted_clique_algo: processor count mismatch";
        let active = ref false in
        let board = ref (Bcast.Board.empty ~n ~msg_bits:1) in
        (* This processor's handle on the shared active list, set after
           round 0. *)
        let acts = ref [||] in
        let aborted () = Array.length !acts > cap in
        {
          Bcast.send =
            (fun ~round ->
              if round = 0 then begin
                active := Bcast.Rand_counter.bernoulli rand p;
                if !active then 1 else 0
              end
              else if aborted () then 0
              else if round <= cap then begin
                (* Edge round r = round - 1: adjacency to the r-th active
                   vertex (0 when out of range or inactive). *)
                let r = round - 1 in
                if (not !active) || r >= Array.length !acts then 0
                else if Bitvec.get input !acts.(r) then 1
                else 0
              end
              else begin
                (* Membership claim round. *)
                let c_active = clique !board in
                let sz = List.length c_active in
                if float_of_int sz < clique_size_threshold n then 0
                else begin
                  let adjacent =
                    List.fold_left
                      (fun acc v ->
                        if v = id || Bitvec.get input v then acc + 1 else acc)
                      0 c_active
                  in
                  if float_of_int adjacent >= 0.9 *. float_of_int sz then 1 else 0
                end
              end);
          receive =
            (fun ~round b ->
              board := b;
              if round = 0 then acts := actives b);
          finish =
            (fun () ->
              if aborted () then Aborted_too_many_active
              else if float_of_int (List.length (clique !board)) < clique_size_threshold n
              then Aborted_small_clique
              else begin
                (* The claims: senders of a 1 in the last round after the
                   edge rounds. *)
                let last = Bcast.Board.length !board - 1 in
                Found
                  (if last <= cap then []
                   else Bitvec.indices_set (Bcast.Board.round_bits !board ~round:last))
              end);
        });
  }
