(* Reference implementations for the board-based protocols.

   A BCAST runner with the copy-loop interface: every receiver gets the
   round's message array and copies what it needs into private buffers,
   then recomputes every common-knowledge quantity on its own.  The
   protocols below are written against it exactly as they were before
   the simulator owned a shared board; test_protocols checks the library
   versions against them on outputs, transcript key and resource
   charges. *)

type 'out processor = {
  send : round:int -> int;
  receive : round:int -> int array -> unit;
  finish : unit -> 'out;
}

type 'out protocol = {
  name : string;
  msg_bits : int;
  rounds : int;
  spawn : id:int -> n:int -> input:Bitvec.t -> rand:Bcast.Rand_counter.t -> 'out processor;
}

type 'out result = {
  key : string;  (** [Transcript.key]'s encoding, built independently *)
  outputs : 'out array;
  broadcast_bits : int;
  random_bits : int array;
}

let run_with_sources proto ~inputs ~sources =
  let n = Array.length inputs in
  Array.iteri (fun id r -> Bcast.Rand_counter.set_owner r id) sources;
  let procs =
    Array.init n (fun id -> proto.spawn ~id ~n ~input:inputs.(id) ~rand:sources.(id))
  in
  let key = Buffer.create 64 in
  Buffer.add_string key (string_of_int proto.msg_bits);
  for round = 0 to proto.rounds - 1 do
    let messages = Array.map (fun p -> p.send ~round) procs in
    Array.iteri (fun s v -> Buffer.add_string key (Printf.sprintf "|%d:%d" s v)) messages;
    Array.iter (fun p -> p.receive ~round messages) procs
  done;
  let outputs = Array.map (fun p -> p.finish ()) procs in
  {
    key = Buffer.contents key;
    outputs;
    broadcast_bits = proto.rounds * n * proto.msg_bits;
    random_bits = Array.map Bcast.Rand_counter.bits_used sources;
  }

let run proto ~inputs ~rand =
  let sources =
    Array.init (Array.length inputs) (fun i -> Bcast.Rand_counter.make (Prng.split rand i))
  in
  run_with_sources proto ~inputs ~sources

(* ------------------------------------------------------- Seed_attack *)

let seed_attack ~k =
  {
    name = Printf.sprintf "seed-attack(k=%d)" k;
    msg_bits = 1;
    rounds = k + 1;
    spawn =
      (fun ~id:_ ~n ~input ~rand:_ ->
        let seeds = Array.init n (fun _ -> Bitvec.create k) in
        let last = Array.make n false in
        {
          send = (fun ~round -> if Bitvec.get input round then 1 else 0);
          receive =
            (fun ~round messages ->
              Array.iteri
                (fun i v ->
                  if round < k then Bitvec.set seeds.(i) round (v = 1)
                  else last.(i) <- v = 1)
                messages);
          finish =
            (fun () ->
              let x = Gf2_matrix.of_rows seeds in
              let b = Bitvec.of_bool_array last in
              Option.is_some (Gf2_matrix.solve x b));
        });
  }

let rank_test ~rounds =
  {
    name = Printf.sprintf "rank-test(rounds=%d)" rounds;
    msg_bits = 1;
    rounds;
    spawn =
      (fun ~id:_ ~n ~input ~rand:_ ->
        let observed = Gf2_matrix.create ~rows:n ~cols:rounds in
        {
          send = (fun ~round -> if Bitvec.get input round then 1 else 0);
          receive =
            (fun ~round messages ->
              Array.iteri (fun i v -> Gf2_matrix.set observed i round (v = 1)) messages);
          finish = (fun () -> Gf2_matrix.rank observed < min n rounds);
        });
  }

(* ----------------------------------------------- Planted_clique_algo *)

let active_clique ~actives ~edges =
  let active_arr = Array.of_list actives in
  let na = Array.length active_arr in
  let cols = Array.of_list edges in
  let sub = Digraph.create na in
  for ai = 0 to na - 1 do
    for aj = 0 to na - 1 do
      if ai <> aj && Bitvec.get cols.(aj) active_arr.(ai) then Digraph.add_edge sub ai aj
    done
  done;
  List.sort Int.compare (List.map (fun i -> active_arr.(i)) (Clique.max_clique sub))

let planted_clique ~n ~k =
  let p = Planted_clique_algo.activation_probability ~n ~k in
  let rounds = Planted_clique_algo.round_budget ~n ~k in
  let cap = rounds - 2 in
  let threshold =
    let l = Float.log (float_of_int (max 2 n)) /. Float.log 2.0 in
    0.5 *. l *. l
  in
  {
    name = Printf.sprintf "planted-clique-B1(n=%d,k=%d)" n k;
    msg_bits = 1;
    rounds;
    spawn =
      (fun ~id ~n:_ ~input ~rand ->
        let active = ref false in
        let actives_arr = ref [||] in
        let aborted = ref false in
        let edge_cols = ref [] in
        let claimed = ref [] in
        let active_count () = Array.length !actives_arr in
        {
          send =
            (fun ~round ->
              if round = 0 then begin
                active := Bcast.Rand_counter.bernoulli rand p;
                if !active then 1 else 0
              end
              else if !aborted then 0
              else if round <= cap then begin
                let r = round - 1 in
                if (not !active) || r >= active_count () then 0
                else if Bitvec.get input !actives_arr.(r) then 1
                else 0
              end
              else begin
                let c_active =
                  active_clique ~actives:(Array.to_list !actives_arr)
                    ~edges:(List.rev !edge_cols)
                in
                let sz = List.length c_active in
                if float_of_int sz < threshold then 0
                else begin
                  let adjacent =
                    List.fold_left
                      (fun acc v -> if v = id || Bitvec.get input v then acc + 1 else acc)
                      0 c_active
                  in
                  if float_of_int adjacent >= 0.9 *. float_of_int sz then 1 else 0
                end
              end);
          receive =
            (fun ~round messages ->
              if round = 0 then begin
                let acc = ref [] in
                for i = n - 1 downto 0 do
                  if messages.(i) = 1 then acc := i :: !acc
                done;
                actives_arr := Array.of_list !acc;
                if active_count () > cap then aborted := true
              end
              else if !aborted then ()
              else if round <= cap then begin
                if round - 1 < active_count () then
                  edge_cols := Bitvec.of_bool_array (Array.map (fun v -> v = 1) messages)
                               :: !edge_cols
              end
              else Array.iteri (fun i v -> if v = 1 then claimed := i :: !claimed) messages);
          finish =
            (fun () ->
              if !aborted then Planted_clique_algo.Aborted_too_many_active
              else begin
                let c_active =
                  active_clique ~actives:(Array.to_list !actives_arr)
                    ~edges:(List.rev !edge_cols)
                in
                if float_of_int (List.length c_active) < threshold then
                  Planted_clique_algo.Aborted_small_clique
                else Planted_clique_algo.Found (List.sort Int.compare !claimed)
              end);
        });
  }

(* ------------------------------------ Distinguisher_protocols.degree *)

let degree ~n =
  let w = Bcast.msg_bits_for_log_n (max 2 n) in
  {
    name = Printf.sprintf "degree-summary(n=%d)" n;
    msg_bits = w;
    rounds = 1;
    spawn =
      (fun ~id:_ ~n:_ ~input ~rand:_ ->
        let degrees = Array.make n 0 in
        {
          send = (fun ~round:_ -> Bitvec.popcount input);
          receive = (fun ~round:_ messages -> Array.blit messages 0 degrees 0 n);
          finish =
            (fun () ->
              {
                Distinguisher_protocols.max_total_degree = Array.fold_left max 0 degrees;
                total_edges = Array.fold_left ( + ) 0 degrees;
                degree_variance = Stats.variance (Array.map float_of_int degrees);
              });
        });
  }

(* ------------------------------------------------------ Connectivity *)

let sketch_params (cfg : Connectivity.config) ~phase ~copy =
  { Agm_sketch.universe = cfg.n * cfg.n; seed = cfg.seed + (phase * 1009) + (copy * 131) }

let connectivity (cfg : Connectivity.config) =
  let pbits = cfg.copies * Agm_sketch.bit_size (sketch_params cfg ~phase:0 ~copy:0) in
  let per_phase = (pbits + cfg.msg_bits - 1) / cfg.msg_bits in
  let edge_id u v = (min u v * cfg.n) + max u v in
  let my_phase_bits ~id ~input ~phase =
    let pieces =
      List.init cfg.copies (fun copy ->
          let s = Agm_sketch.create (sketch_params cfg ~phase ~copy) in
          Bitvec.iter_set (fun u -> if u <> id then Agm_sketch.add s (edge_id id u)) input;
          Agm_sketch.to_bitvec s)
    in
    List.fold_left Bitvec.concat (Bitvec.create 0) pieces
  in
  let rec find parent v = if parent.(v) = v then v else find parent parent.(v) in
  let union parent a b =
    let ra = find parent a and rb = find parent b in
    if ra <> rb then parent.(min ra rb) <- max ra rb
  in
  let merge_step ~phase ~parent ~all_bits =
    let sz = Agm_sketch.bit_size (sketch_params cfg ~phase ~copy:0) in
    let sketches =
      Array.map
        (fun bits ->
          Array.init cfg.copies (fun copy ->
              Agm_sketch.of_bitvec (sketch_params cfg ~phase ~copy)
                (Bitvec.sub bits ~pos:(copy * sz) ~len:sz)))
        all_bits
    in
    let roots = Hashtbl.create 16 in
    for v = 0 to cfg.n - 1 do
      let r = find parent v in
      Hashtbl.replace roots r (v :: Option.value (Hashtbl.find_opt roots r) ~default:[])
    done;
    (* Roots were inserted by a deterministic vertex scan, so this
       iteration order is the library's merge schedule. *)
    Hashtbl.iter
      (fun _ members ->
        let copy = ref 0 and merged = ref false in
        while (not !merged) && !copy < cfg.copies do
          let acc = Agm_sketch.create (sketch_params cfg ~phase ~copy:!copy) in
          List.iter (fun v -> Agm_sketch.xor_inplace acc sketches.(v).(!copy)) members;
          (match Agm_sketch.recover acc with
          | Some coord ->
              let u = coord / cfg.n and v = coord mod cfg.n in
              if u < cfg.n && v < cfg.n && u <> v then begin
                union parent u v;
                merged := true
              end
          | None -> ());
          incr copy
        done)
      roots
  in
  {
    name = Printf.sprintf "connectivity-agm(n=%d)" cfg.n;
    msg_bits = cfg.msg_bits;
    rounds = cfg.phases * per_phase;
    spawn =
      (fun ~id ~n:_ ~input ~rand:_ ->
        let parent = Array.init cfg.n (fun v -> v) in
        let buffers = Array.init cfg.n (fun _ -> Bitvec.create pbits) in
        let mine = ref (Bitvec.create 0) in
        {
          send =
            (fun ~round ->
              let phase = round / per_phase and chunk = round mod per_phase in
              if chunk = 0 then mine := my_phase_bits ~id ~input ~phase;
              let v = ref 0 in
              for b = 0 to cfg.msg_bits - 1 do
                let pos = (chunk * cfg.msg_bits) + b in
                if pos < pbits && Bitvec.get !mine pos then v := !v lor (1 lsl b)
              done;
              !v);
          receive =
            (fun ~round messages ->
              let phase = round / per_phase and chunk = round mod per_phase in
              Array.iteri
                (fun sender msg ->
                  for b = 0 to cfg.msg_bits - 1 do
                    let pos = (chunk * cfg.msg_bits) + b in
                    if pos < pbits then
                      Bitvec.set buffers.(sender) pos ((msg lsr b) land 1 = 1)
                  done)
                messages;
              if chunk = per_phase - 1 then merge_step ~phase ~parent ~all_bits:buffers);
          finish =
            (fun () ->
              let distinct = Hashtbl.create 16 in
              Array.iteri (fun v _ -> Hashtbl.replace distinct (find parent v) ()) parent;
              Hashtbl.length distinct);
        });
  }
