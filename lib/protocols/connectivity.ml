type config = { n : int; seed : int; copies : int; phases : int; msg_bits : int }

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

let default_config ~n ~seed =
  { n; seed; copies = 3; phases = (2 * log2_ceil (max 2 n)) + 3; msg_bits = 16 }

let sketch_params cfg ~phase ~copy =
  { Agm_sketch.universe = cfg.n * cfg.n;
    seed = cfg.seed + (phase * 1009) + (copy * 131) }

(* Bits of one sketch (the same for every phase/copy pair: the universe
   is fixed).  A phase broadcasts all copies back to back. *)
let sketch_bits cfg = Agm_sketch.bit_size (sketch_params cfg ~phase:0 ~copy:0)
let phase_bits cfg = cfg.copies * sketch_bits cfg

let rounds_per_phase cfg = (phase_bits cfg + cfg.msg_bits - 1) / cfg.msg_bits

let rounds cfg = cfg.phases * rounds_per_phase cfg

let edge_id n u v = (min u v * n) + max u v

(* Sketches of processor [id]'s incidence vector for one phase, one
   encoded copy per element; bit [pos] of the phase is bit [pos mod sz]
   of copy [pos / sz]. *)
let my_phase_bits cfg ~id ~input ~phase =
  Array.init cfg.copies (fun copy ->
      let s = Agm_sketch.create (sketch_params cfg ~phase ~copy) in
      Bitvec.iter_set (fun u -> if u <> id then Agm_sketch.add s (edge_id cfg.n id u)) input;
      Agm_sketch.to_bitvec s)

(* Shared union-find, identical at every processor. *)
let uf_find parent v =
  let rec go v = if parent.(v) = v then v else go parent.(v) in
  go v

let uf_union parent a b =
  let ra = uf_find parent a and rb = uf_find parent b in
  if ra <> rb then parent.(min ra rb) <- max ra rb

(* One Boruvka step from everyone's phase sketches ([sketches.(v).(copy)]). *)
let merge_step cfg ~phase ~parent ~sketches =
  (* Current components. *)
  let roots = Hashtbl.create 16 in
  for v = 0 to cfg.n - 1 do
    let r = uf_find parent v in
    let members = Option.value (Hashtbl.find_opt roots r) ~default:[] in
    Hashtbl.replace roots r (v :: members)
  done;
  (* For each component, try the copies in order until an edge is
     recovered; merges apply to the union-find shared by all. *)
  (* bcc-lint: allow det/hashtbl-order — roots are inserted by a deterministic vertex scan, so the merge schedule is reproducible for a fixed input *)
  Hashtbl.iter
    (fun _root members ->
      let copy = ref 0 in
      let merged = ref false in
      while (not !merged) && !copy < cfg.copies do
        let acc = Agm_sketch.create (sketch_params cfg ~phase ~copy:!copy) in
        List.iter (fun v -> Agm_sketch.xor_inplace acc sketches.(v).(!copy)) members;
        (match Agm_sketch.recover acc with
        | Some coord ->
            let u = coord / cfg.n and v = coord mod cfg.n in
            if u < cfg.n && v < cfg.n && u <> v then begin
              uf_union parent u v;
              merged := true
            end
        | None -> ());
        incr copy
      done)
    roots

let component_count parent =
  let n = Array.length parent in
  let distinct = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    Hashtbl.replace distinct (uf_find parent v) ()
  done;
  Hashtbl.length distinct

(* The component count every processor reaches from the board: one
   Boruvka step per fully broadcast phase, each decoding every sender's
   sketches from the phase's [per_phase] rounds. *)
let components cfg board =
  let per_phase = rounds_per_phase cfg in
  let sz = sketch_bits cfg in
  let parent = Array.init cfg.n (fun v -> v) in
  for phase = 0 to (Bcast.Board.length board / per_phase) - 1 do
    let sketches =
      Array.init cfg.n (fun sender ->
          let msgs =
            Array.init per_phase (fun chunk ->
                Bcast.Board.get board ~round:((phase * per_phase) + chunk) ~sender)
          in
          Array.init cfg.copies (fun copy ->
              let bits = Bitvec.create sz in
              for q = 0 to sz - 1 do
                let pos = (copy * sz) + q in
                if (msgs.(pos / cfg.msg_bits) lsr (pos mod cfg.msg_bits)) land 1 = 1 then
                  Bitvec.set bits q true
              done;
              Agm_sketch.of_bitvec (sketch_params cfg ~phase ~copy) bits))
    in
    merge_step cfg ~phase ~parent ~sketches
  done;
  component_count parent

let protocol cfg =
  if cfg.msg_bits < 1 || cfg.msg_bits > 30 then
    invalid_arg "Connectivity: msg_bits in [1,30]";
  let per_phase = rounds_per_phase cfg in
  let pbits = phase_bits cfg in
  let sz = sketch_bits cfg in
  let key = Bcast.Board.key "connectivity.components" in
  {
    Bcast.name = Printf.sprintf "connectivity-agm(n=%d)" cfg.n;
    msg_bits = cfg.msg_bits;
    rounds = rounds cfg;
    spawn =
      (fun ~id ~n:n' ~input ~rand:_ ->
        if n' <> cfg.n then invalid_arg "Connectivity: processor count mismatch";
        let board = ref (Bcast.Board.empty ~n:cfg.n ~msg_bits:cfg.msg_bits) in
        let mine = ref [||] in
        {
          Bcast.send =
            (fun ~round ->
              let phase = round / per_phase and chunk = round mod per_phase in
              if chunk = 0 then mine := my_phase_bits cfg ~id ~input ~phase;
              let v = ref 0 in
              for b = 0 to cfg.msg_bits - 1 do
                let pos = (chunk * cfg.msg_bits) + b in
                if pos < pbits && Bitvec.get !mine.(pos / sz) (pos mod sz) then
                  v := !v lor (1 lsl b)
              done;
              !v);
          receive = (fun ~round:_ b -> board := b);
          finish = (fun () -> Bcast.Board.common !board key (components cfg));
        });
  }

let exact_components graph =
  let n = Digraph.vertex_count graph in
  (* Symmetrize, then count BFS components. *)
  let undirected = Digraph.copy graph in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if Digraph.has_edge graph i j then Digraph.add_edge undirected j i
    done
  done;
  let seen = Array.make n false in
  let components = ref 0 in
  for v = 0 to n - 1 do
    if not seen.(v) then begin
      incr components;
      let queue = Queue.create () in
      Queue.add v queue;
      seen.(v) <- true;
      while not (Queue.is_empty queue) do
        let u = Queue.take queue in
        Digraph.iter_out undirected u (fun w ->
            if not seen.(w) then begin
              seen.(w) <- true;
              Queue.add w queue
            end)
      done
    end
  done;
  !components

let run_on cfg graph g =
  let inputs = Array.init cfg.n (Digraph.out_row graph) in
  let result = Bcast.run (protocol cfg) ~inputs ~rand:g in
  result.Bcast.outputs.(0)
