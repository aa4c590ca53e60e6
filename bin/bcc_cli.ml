(* Command-line driver.

     bcc_cli [run] [IDS...]      run experiment tables (the default)
     bcc_cli trace PROTO         run a named protocol with a trace sink
     bcc_cli metrics [IDS...]    run experiments and dump the metrics registry
     bcc_cli kern                self-check the Bcc_kern kernels vs their oracles
     bcc_cli prof TARGET         run an experiment or protocol under the profiler
     bcc_cli lint [ARGS...]      run the two-pass linter (delegates to bcc_lint)

   `bcc_cli e1 e2` (no subcommand) keeps working: `run` is the default. *)

open Cmdliner

(* -------------------------------------------------------- output paths *)

(* Every file-writing option (run --artifacts, trace --out, prof --out)
   writes through here: a path that cannot be written ends in one line
   naming it and exit 123, never an uncaught exception. *)
let writing path f =
  let fail reason =
    Format.eprintf "bcc_cli: cannot write %s: %s@." path reason;
    exit Cmd.Exit.some_error
  in
  try f () with
  | Sys_error msg ->
      let prefix = path ^ ": " in
      let n = String.length prefix in
      fail
        (if String.starts_with ~prefix msg then
           String.sub msg n (String.length msg - n)
         else msg)
  | Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)

(* ----------------------------------------------------------------- run *)

let run_experiments list_only csv artifacts_dir ids seed =
  if list_only then begin
    List.iter (Format.printf "%s@.") Experiments.ids;
    Ok ()
  end
  else begin
    let targets =
      match ids with
      | [] -> Experiments.ids
      | ids -> ids
    in
    let ok = ref true in
    List.iter
      (fun id ->
        match Experiments.by_id id with
        | Some f ->
            let table = f ~seed () in
            if csv then print_string (Experiments.to_csv table)
            else Experiments.print Format.std_formatter table;
            Option.iter
              (fun dir ->
                let path =
                  writing dir (fun () -> Experiments.write_artifact ~dir ~seed table)
                in
                Format.eprintf "wrote %s@." path)
              artifacts_dir
        | None ->
            Format.eprintf "unknown experiment %S (known: %s)@." id
              (String.concat ", " Experiments.ids);
            ok := false)
      targets;
    if !ok then Ok () else Error (`Msg "unknown experiment id")
  end

let list_arg =
  let doc = "List the known experiment ids and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let csv_arg =
  let doc = "Emit tables as CSV instead of aligned text." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let artifacts_arg =
  let doc = "Also write each table as an EXP_<id>.json artifact under $(docv)." in
  Arg.(
    value
    & opt (some string) None
    & info [ "artifacts" ] ~docv:"DIR" ~doc)

let ids_arg =
  let doc = "Experiment ids to run (e1..e30); all when omitted." in
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)

let seed_arg =
  let doc = "PRNG seed shared by all experiments." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let run_term =
  Term.(
    term_result
      (const run_experiments $ list_arg $ csv_arg $ artifacts_arg $ ids_arg
     $ seed_arg))

let run_cmd =
  let doc = "Run experiment tables (the default command)" in
  Cmd.v (Cmd.info "run" ~doc) run_term

(* --------------------------------------------------------------- trace *)

let run_trace list_only jsonl out proto seed =
  if list_only then begin
    List.iter
      (fun name ->
        Format.printf "%-16s %s@." name
          (Option.value (Runner.describe name) ~default:""))
      Runner.names;
    Ok ()
  end
  else
    match proto with
    | None -> Error (`Msg "missing PROTO argument (try --list)")
    | Some name when not (List.mem name Runner.names) ->
        Error
          (`Msg
             (Printf.sprintf "unknown protocol %S (known: %s)" name
                (String.concat ", " Runner.names)))
    | Some name ->
        let text =
          if jsonl then
            let events, _summary = Runner.trace ~name ~seed in
            Sink.to_jsonl events
          else
            Artifact.to_string ~pretty:true (Runner.trace_artifact ~name ~seed)
            ^ "\n"
        in
        (match out with
        | None ->
            print_string text;
            Ok ()
        | Some path ->
            writing path (fun () ->
                Out_channel.with_open_text path (fun oc ->
                    output_string oc text));
            Format.eprintf "wrote %s@." path;
            Ok ())

let trace_list_arg =
  let doc = "List the traceable protocol names and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let jsonl_arg =
  let doc =
    "Emit raw JSONL (one event per line) instead of the wrapped artifact."
  in
  Arg.(value & flag & info [ "jsonl" ] ~doc)

let out_arg =
  let doc = "Write to $(docv) instead of standard output." in
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let proto_arg =
  let doc = "Named protocol to trace (see --list)." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"PROTO" ~doc)

let trace_cmd =
  let doc = "Run a named protocol with a trace sink attached and dump the events" in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      term_result
        (const run_trace $ trace_list_arg $ jsonl_arg $ out_arg $ proto_arg
       $ seed_arg))

(* ------------------------------------------------------------- metrics *)

let run_metrics json protos replicas ids seed =
  if replicas < 1 then Error (`Msg "--replicas must be >= 1")
  else begin
  Metrics.set_collecting true;
  let ok = ref true in
  List.iter
    (fun name ->
      if List.mem name Runner.names then
        if replicas = 1 then ignore (Runner.run ~name ~seed)
        else ignore (Runner.run_replicas ~name ~seed ~replicas)
      else begin
        Format.eprintf "unknown protocol %S (known: %s)@." name
          (String.concat ", " Runner.names);
        ok := false
      end)
    protos;
  let targets = if ids = [] && protos = [] then Experiments.ids else ids in
  List.iter
    (fun id ->
      match Experiments.by_id id with
      | Some f -> ignore (f ~seed ())
      | None ->
          Format.eprintf "unknown experiment %S (known: %s)@." id
            (String.concat ", " Experiments.ids);
          ok := false)
    targets;
  Metrics.set_collecting false;
  if json then print_string (Metrics.to_json () ^ "\n")
  else Metrics.pp Format.std_formatter (Metrics.snapshot ());
  if !ok then Ok () else Error (`Msg "unknown experiment or protocol id")
  end

let metrics_json_arg =
  let doc = "Emit the metrics snapshot as JSON instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let metrics_proto_arg =
  let doc = "Also run the named protocol(s) (as in $(b,trace)) before dumping." in
  Arg.(value & opt_all string [] & info [ "proto" ] ~docv:"PROTO" ~doc)

let metrics_replicas_arg =
  let doc =
    "Run each $(b,--proto) as $(docv) independent replicas (seeds SEED, \
     SEED+1, ...), fanned out across domains (see $(b,BCC_DOMAINS))."
  in
  Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"N" ~doc)

let metrics_cmd =
  let doc =
    "Run experiments (all by default) with the metrics registry collecting, \
     then dump the snapshot"
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(
      term_result
        (const run_metrics $ metrics_json_arg $ metrics_proto_arg
       $ metrics_replicas_arg $ ids_arg $ seed_arg))

(* ----------------------------------------------------------------- kern *)

(* A fast deterministic battery pitting every Bcc_kern kernel against its
   naive Ref oracle; nonzero exit on any disagreement.  The exhaustive
   property tests live in test/test_kern.ml — this is the installable
   smoke check (CI runs it via `bench kern --quick` too). *)
let run_kern_check seed =
  let g = Prng.create seed in
  let failures = ref [] in
  let check name ok =
    Format.printf "%-28s %s@." name (if ok then "ok" else "MISMATCH");
    if not ok then failures := name :: !failures
  in
  List.iter
    (fun n ->
      let m = Gf2_matrix.random g ~rows:n ~cols:n in
      let rows = Array.init n (Gf2_matrix.row m) in
      let bools =
        Array.init n (fun i -> Array.init n (fun j -> Gf2_matrix.get m i j))
      in
      let r = Gf2_matrix.rank m in
      check
        (Printf.sprintf "gf2-rank n=%d" n)
        (r = Bcc_kern.Ref.rank_rows rows && r = Bcc_kern.Ref.rank_bools bools))
    [ 33; 64; 100 ];
  List.iter
    (fun (r, k, c) ->
      let a = Gf2_matrix.random g ~rows:r ~cols:k in
      let b = Gf2_matrix.random g ~rows:k ~cols:c in
      let expect =
        Bcc_kern.Ref.mul_rows
          (Array.init r (Gf2_matrix.row a))
          (Array.init k (Gf2_matrix.row b))
          ~cols:c
      in
      check
        (Printf.sprintf "gf2-mul %dx%d.%dx%d" r k k c)
        (Gf2_matrix.equal (Gf2_matrix.mul a b) (Gf2_matrix.of_rows expect)))
    [ (64, 64, 64); (70, 130, 65) ];
  List.iter
    (fun logn ->
      let a =
        Array.init (1 lsl logn) (fun _ -> if Prng.bool g then 1.0 else 0.0)
      in
      let b = Array.copy a in
      Fourier.wht_inplace a;
      Bcc_kern.Ref.wht_butterfly b;
      check (Printf.sprintf "wht len=2^%d" logn) (a = b))
    [ 10; 16 ];
  let f = Boolfun.random g 10 in
  let t = Boolfun.packed_table f in
  let eval = Boolfun.eval_int f in
  check "enum count"
    (Bcc_kern.Enum.count t = Bcc_kern.Ref.count_true ~n:10 eval);
  check "enum forced-ones"
    (Bcc_kern.Enum.count_forced_ones t ~mask:0x41
    = Bcc_kern.Ref.count_forced_ones ~n:10 ~mask:0x41 eval);
  check "enum flips"
    (List.for_all
       (fun i ->
         Bcc_kern.Enum.count_flips t ~i = Bcc_kern.Ref.count_flips ~n:10 ~i eval)
       [ 0; 3; 7; 9 ]);
  let stats = Array.init 1000 (fun _ -> Prng.float g) in
  check "count-above"
    (Bcc_kern.Enum.count_above stats ~threshold:0.5
    = Bcc_kern.Ref.count_above stats ~threshold:0.5);
  List.iter
    (fun n ->
      let graph, _ = Planted.sample_planted g ~n ~k:(max 4 (n / 6)) in
      let rows = Digraph.unsafe_rows graph in
      let core = Bcc_kern.Graph.bidirectional_core rows in
      let ref_core = Bcc_kern.Ref.bidirectional_core rows in
      check
        (Printf.sprintf "graph-core n=%d" n)
        (Array.for_all2 Bitvec.equal core ref_core);
      check
        (Printf.sprintf "graph-triangles n=%d" n)
        (Bcc_kern.Graph.count_triangles core
        = Bcc_kern.Ref.count_triangles ref_core);
      check
        (Printf.sprintf "graph-k4 n=%d" n)
        (Bcc_kern.Graph.count_k4 core = Bcc_kern.Ref.count_k4 ref_core);
      let everyone = Bitvec.ones n in
      check
        (Printf.sprintf "graph-maxclique n=%d" n)
        (List.equal Int.equal
           (Bcc_kern.Graph.max_clique core everyone)
           (Bcc_kern.Ref.max_clique ref_core everyone)))
    [ 63; 64; 96 ];
  (* Sparse CSR kernels vs the dense pipeline on the same graph — the
     cross-representation oracle (test/test_sparse.ml has the full
     battery; this is the smoke slice). *)
  List.iter
    (fun (n, p) ->
      let dg = Gnp.sample_fast (Prng.split g n) ~n ~p in
      let sg = Sparse.sample_gnp (Prng.split g n) ~n ~p in
      let sg' = Sparse.of_digraph dg in
      check
        (Printf.sprintf "sparse-sample n=%d" n)
        (sg.Bcc_kern.Spgraph.row_ptr = sg'.Bcc_kern.Spgraph.row_ptr
        && Bcc_kern.Buf.i32_to_array sg.Bcc_kern.Spgraph.cols
           = Bcc_kern.Buf.i32_to_array sg'.Bcc_kern.Spgraph.cols);
      let dcore = Bcc_kern.Graph.bidirectional_core (Digraph.unsafe_rows dg) in
      let score = Bcc_kern.Spgraph.bidirectional_core sg in
      let core_ok = ref true in
      Array.iteri
        (fun i row ->
          if Bitvec.popcount row <> Bcc_kern.Spgraph.degree score i then
            core_ok := false
          else
            Bcc_kern.Spgraph.iter_row score i (fun j ->
                if not (Bitvec.get row j) then core_ok := false))
        dcore;
      check (Printf.sprintf "sparse-core n=%d" n) !core_ok;
      check
        (Printf.sprintf "sparse-triangles n=%d" n)
        (Bcc_kern.Spgraph.count_triangles score
        = Bcc_kern.Graph.count_triangles dcore);
      check
        (Printf.sprintf "sparse-k4 n=%d" n)
        (Bcc_kern.Spgraph.count_k4 score = Bcc_kern.Graph.count_k4 dcore);
      check
        (Printf.sprintf "sparse-degree-sums n=%d" n)
        (Sparse.degree_sums sg
        = Array.init n (fun i ->
              Digraph.out_degree dg i + Digraph.in_degree dg i)))
    [ (128, 0.1); (256, 0.05); (512, 0.02) ];
  match !failures with
  | [] ->
      Format.printf "all kernels agree with their reference oracles@.";
      Ok ()
  | fs ->
      Error (`Msg ("kernel/oracle mismatch: " ^ String.concat ", " (List.rev fs)))

let kern_cmd =
  let doc =
    "Self-check the Bcc_kern kernels against their naive reference oracles"
  in
  Cmd.v (Cmd.info "kern" ~doc)
    Term.(term_result (const run_kern_check $ seed_arg))

(* ----------------------------------------------------------------- prof *)

(* Run one experiment id or Runner protocol under the profiler, print the
   span tree + top-k report with a wall-clock coverage line, and write
   PROF_<target>.json (deterministic comparison payload + telemetry) and
   PROF_<target>.trace.json (Chrome/Perfetto trace events). *)
let run_prof list_only dir top target seed =
  if list_only then begin
    List.iter (Format.printf "%s@.") Experiments.ids;
    List.iter (Format.printf "%s@.") Runner.names;
    Ok ()
  end
  else
    let launch =
      match target with
      | None -> Error (`Msg "missing TARGET argument (try --list)")
      | Some t -> (
          match Experiments.by_id t with
          | Some f -> Ok (t, fun () -> ignore (f ~seed ()))
          | None ->
              if List.mem t Runner.names then
                Ok (t, fun () -> ignore (Runner.run ~name:t ~seed))
              else
                Error
                  (`Msg
                     (Printf.sprintf
                        "unknown target %S (experiments: %s; protocols: %s)" t
                        (String.concat ", " Experiments.ids)
                        (String.concat ", " Runner.names))))
    in
    match launch with
    | Error e -> Error e
    | Ok (name, body) -> (
        Prof.start ();
        let (), wall = Prof.time body in
        Prof.stop ();
        let r = Prof.report () in
        Prof.pp_report ~top Format.std_formatter r;
        let wall_ns = int_of_float (wall *. 1e9) in
        let self_ns = Prof.sum_self_ns r in
        (* bcc-lint: allow det/float-format — human console report; artifact bytes go through to_artifact *)
        Format.printf "@.wall %.3f ms, span self-time coverage %.1f%%@."
          (wall *. 1e3)
          (if wall_ns = 0 then 0.0
           else 100.0 *. float_of_int self_ns /. float_of_int wall_ns);
        let json_path = Filename.concat dir (Printf.sprintf "PROF_%s.json" name) in
        let trace_path =
          Filename.concat dir (Printf.sprintf "PROF_%s.trace.json" name)
        in
        writing json_path (fun () ->
            Artifact.write_file ~path:json_path (Prof.to_artifact ~id:name ~seed r));
        writing trace_path (fun () ->
            Out_channel.with_open_text trace_path (fun oc ->
                output_string oc (Prof.to_perfetto ());
                output_string oc "\n"));
        Format.eprintf "wrote %s@.wrote %s@." json_path trace_path;
        Ok ())

let prof_list_arg =
  let doc = "List the profilable targets (experiment ids, then protocols)." in
  Arg.(value & flag & info [ "list" ] ~doc)

let prof_dir_arg =
  let doc = "Directory for PROF_<target>.json and PROF_<target>.trace.json." in
  Arg.(value & opt string Artifact.default_dir & info [ "out" ] ~docv:"DIR" ~doc)

let prof_top_arg =
  let doc = "Rows in the top-spans-by-self-time table." in
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc)

let prof_target_arg =
  let doc = "Experiment id (e1..e29) or protocol name to profile (see --list)." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)

let prof_cmd =
  let doc =
    "Run an experiment or protocol under the hierarchical profiler and dump \
     the span tree, PROF json and a Perfetto trace"
  in
  Cmd.v (Cmd.info "prof" ~doc)
    Term.(
      term_result
        (const run_prof $ prof_list_arg $ prof_dir_arg $ prof_top_arg
       $ prof_target_arg $ seed_arg))

(* --------------------------------------------------------------- lint *)

(* `bcc_cli lint ...` delegates to the bcc_lint executable built next to
   this one, passing every remaining argument through untouched, so
   cmdliner never has to mirror the linter's flag vocabulary.  bcc_lint
   stays a separate binary on purpose: linking compiler-libs here would
   shadow Bcc_obs.Trace with compiler-libs' Trace. *)
let lint_exec args =
  let dir = Filename.dirname Sys.executable_name in
  let candidates =
    [ Filename.concat dir "bcc_lint.exe"; Filename.concat dir "bcc_lint" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None ->
      prerr_endline
        "bcc_cli lint: bcc_lint executable not found next to bcc_cli";
      exit 2
  | Some exe -> (
      try Unix.execv exe (Array.of_list (exe :: args))
      with Unix.Unix_error _ ->
        exit (Sys.command (Filename.quote_command exe args)))

let lint_cmd =
  let doc =
    "Run the two-pass determinism & domain-safety linter (delegates to the \
     bcc_lint executable; see bcc_lint --help for its flags)"
  in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const lint_exec $ const [])

(* ---------------------------------------------------------------- main *)

let cmd =
  let doc = "Reproduce the experiments for Chen-Grossman PODC'19 (Broadcast Congested Clique)" in
  let envs =
    [
      Cmd.Env.info "BCC_DOMAINS"
        ~doc:
          "Number of domains (cores) used by the parallel Monte-Carlo trial \
           loops, an integer in [1, 64]; experiment tables are byte-identical \
           for every value (defaults to the machine's recommended domain \
           count, capped at 8; see docs/PARALLELISM.md).";
      Cmd.Env.info "BCC_E31_N"
        ~doc:
          "Vertex count of experiment e31, an integer in [4096, 1000000] \
           (default 1000000, which needs ~6 GB).";
    ]
  in
  let exits =
    Cmd.Exit.info Env_knob.exit_code
      ~doc:"when an environment variable above is not an integer in its range."
    :: Cmd.Exit.info Cmd.Exit.some_error
         ~doc:
           "when an output path ($(b,run --artifacts), $(b,trace --out), \
            $(b,prof --out)) cannot be written, or on other errors reported \
            on standard error."
    :: List.filter
         (fun i -> Cmd.Exit.info_code i <> Cmd.Exit.some_error)
         Cmd.Exit.defaults
  in
  let info = Cmd.info "bcc_cli" ~doc ~envs ~exits in
  Cmd.group ~default:run_term info
    [ run_cmd; trace_cmd; metrics_cmd; kern_cmd; prof_cmd; lint_cmd ]

(* Keep `bcc_cli e1 e2` working: a leading positional that is not a
   subcommand name is an experiment id for the default `run` command. *)
let argv =
  let argv = Sys.argv in
  if
    Array.length argv > 1
    && (not (List.mem argv.(1) [ "run"; "trace"; "metrics"; "kern"; "prof"; "lint" ]))
    && String.length argv.(1) > 0
    && argv.(1).[0] <> '-'
  then Array.concat [ [| argv.(0); "run" |]; Array.sub argv 1 (Array.length argv - 1) ]
  else argv

(* Hand the linter its raw argument vector before cmdliner parses
   anything: bcc_lint owns its own flags (--json, --sarif, --cmt-dir,
   ...) and they should not need re-declaring here. *)
let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "lint" then
    lint_exec
      (Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)))

(* Every environment knob is validated here, before any command runs: a
   bad value is a one-line message and a documented exit status, never
   an uncaught exception deep inside an experiment. *)
let () =
  try Env_knob.check_all ()
  with Env_knob.Invalid msg ->
    prerr_endline ("bcc_cli: " ^ msg);
    exit Env_knob.exit_code

let () = exit (Cmd.eval ~argv cmd)
