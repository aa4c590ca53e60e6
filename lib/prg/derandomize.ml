let rounds_overhead p = Full_prg.construction_rounds p

let transform p proto =
  Full_prg.validate p;
  if proto.Bcast.msg_bits <> 1 then
    invalid_arg "Derandomize.transform: inner protocol must be BCAST(1)";
  let prg_proto = Full_prg.construction_protocol p in
  let prg_rounds = prg_proto.Bcast.rounds in
  {
    Bcast.name = Printf.sprintf "derandomized(%s; k=%d,m=%d)" proto.Bcast.name p.k p.m;
    msg_bits = 1;
    rounds = prg_rounds + proto.Bcast.rounds;
    spawn =
      (fun ~id ~n ~input ~rand ->
        let prg_proc = prg_proto.Bcast.spawn ~id ~n ~input ~rand in
        (* The inner processor is created when the PRG phase ends, with its
           random tape set to the pseudo-random bits. *)
        let inner = ref None in
        let get_inner () =
          match !inner with
          | Some proc -> proc
          | None ->
              let tape = prg_proc.Bcast.finish () in
              let proc =
                proto.Bcast.spawn ~id ~n ~input ~rand:(Bcast.Rand_counter.of_tape tape)
              in
              inner := Some proc;
              proc
        in
        {
          Bcast.send =
            (fun ~round ->
              if round < prg_rounds then prg_proc.Bcast.send ~round
              else (get_inner ()).Bcast.send ~round:(round - prg_rounds));
          receive =
            (fun ~round board ->
              if round < prg_rounds then
                prg_proc.Bcast.receive ~round (Bcast.Board.truncate board ~rounds:prg_rounds)
              else
                (get_inner ()).Bcast.receive ~round:(round - prg_rounds)
                  (Bcast.Board.shift board ~rounds:prg_rounds));
          finish = (fun () -> (get_inner ()).Bcast.finish ());
        });
  }
