(* Test-only reference for the planted-clique CSR build.

   [overlay_clique] is the two-step union the samplers used before the
   overlay was fused into [Sparse]'s CSR build, kept verbatim apart from
   its int32 column accessors: it takes a finished CSR and the sorted
   clique and builds a second CSR whose clique rows are the sorted-merge
   union.  [sample_planted] and [sample_planted_sharded] are the samplers
   in that old sample-then-overlay form; test_sparse pins the library's
   fused samplers to them, row offsets and columns alike. *)

module Spgraph = Bcc_kern.Spgraph
module Buf = Bcc_kern.Buf

(* Union the rows of [t] with the clique on [cs]: one count pass, one
   sorted-merge fill pass — existing edges inside the clique dedupe
   against the merge, exactly like [Planted.sample_planted_at]'s
   idempotent [add_edge] calls on the dense side. *)
let overlay_clique t cs =
  Spgraph.check_t t;
  let n = Spgraph.vertex_count t in
  let kc = Array.length cs in
  if kc = 0 then t
  else begin
    let in_c = Array.make n false in
    Array.iter
      (fun v ->
        if v < 0 || v >= n then invalid_arg "Sparse: clique vertex out of range";
        in_c.(v) <- true)
      cs;
    let row_ptr = t.Spgraph.row_ptr and cols = t.Spgraph.cols in
    (* |row i ∪ (cs \ {i})| *)
    let union_size i =
      let a = ref row_ptr.(i) and ae = row_ptr.(i + 1) in
      let b = ref 0 in
      let count = ref 0 in
      while !a < ae && !b < kc do
        let x = Int32.to_int (Buf.i32_get cols !a) and y = Array.unsafe_get cs !b in
        if y = i then incr b
        else if x < y then begin
          incr count;
          incr a
        end
        else if y < x then begin
          incr count;
          incr b
        end
        else begin
          incr count;
          incr a;
          incr b
        end
      done;
      count := !count + (ae - !a);
      while !b < kc do
        if Array.unsafe_get cs !b <> i then incr count;
        incr b
      done;
      !count
    in
    let row_ptr' = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      let d =
        if in_c.(i) then union_size i else row_ptr.(i + 1) - row_ptr.(i)
      in
      row_ptr'.(i + 1) <- row_ptr'.(i) + d
    done;
    (* Uninitialized is safe: [emit] writes every slot in order — the
       per-row union sizes sum to exactly [row_ptr'.(n)]. *)
    let cols' = Buf.i32_create_uninit row_ptr'.(n) in
    let out = ref 0 in
    let emit j =
      Buf.i32_set cols' !out (Int32.of_int j);
      incr out
    in
    for i = 0 to n - 1 do
      if in_c.(i) then begin
        let a = ref row_ptr.(i) and ae = row_ptr.(i + 1) in
        let b = ref 0 in
        while !a < ae && !b < kc do
          let x = Int32.to_int (Buf.i32_get cols !a) and y = Array.unsafe_get cs !b in
          if y = i then incr b
          else if x < y then begin
            emit x;
            incr a
          end
          else if y < x then begin
            emit y;
            incr b
          end
          else begin
            emit x;
            incr a;
            incr b
          end
        done;
        while !a < ae do
          emit (Int32.to_int (Buf.i32_get cols !a));
          incr a
        done;
        while !b < kc do
          let y = Array.unsafe_get cs !b in
          if y <> i then emit y;
          incr b
        done
      end
      else
        for idx = row_ptr.(i) to row_ptr.(i + 1) - 1 do
          emit (Int32.to_int (Buf.i32_get cols idx))
        done
    done;
    Spgraph.make ~n ~row_ptr:row_ptr' ~cols:cols'
  end

let sample_planted g ~n ~p ~k =
  let c = Prng.subset g ~n ~k in
  let base = Sparse.sample_gnp g ~n ~p in
  let cs = Array.of_list (List.sort_uniq Int.compare c) in
  (overlay_clique base cs, c)

let sample_planted_sharded g ~n ~p ~k =
  let c = Prng.subset g ~n ~k in
  let base = Sparse.sample_gnp_sharded g ~n ~p in
  let cs = Array.of_list (List.sort_uniq Int.compare c) in
  (overlay_clique base cs, c)
