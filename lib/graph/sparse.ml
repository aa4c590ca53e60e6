module Spgraph = Bcc_kern.Spgraph
module Buf = Bcc_kern.Buf

type t = Spgraph.t

let vertex_count = Spgraph.vertex_count
let edge_count = Spgraph.edge_count
let out_degree = Spgraph.degree
let iter_out = Spgraph.iter_row
let has_edge = Spgraph.mem
let count_common_out_neighbors = Spgraph.common_count

(* bcc-lint: allow kern/unsafe-index — the fill cursor never passes row_ptr.(n) = Buf.i32_length cols: row i writes exactly out_degree g i entries and the offsets are their prefix sums *)
let of_digraph g =
  let n = Digraph.vertex_count g in
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + Digraph.out_degree g i
  done;
  let cols = Buf.i32_create row_ptr.(n) in
  let out = ref 0 in
  for i = 0 to n - 1 do
    (* [iter_out] visits ascending, so every row lands sorted. *)
    Digraph.iter_out g i (fun j ->
        Buf.i32_set cols !out (Int32.of_int j);
        incr out)
  done;
  Spgraph.make ~n ~row_ptr ~cols

let to_digraph t =
  let n = Spgraph.vertex_count t in
  let g = Digraph.create n in
  for i = 0 to n - 1 do
    Spgraph.iter_row t i (fun j -> Digraph.add_edge g i j)
  done;
  g

(* One pass over the CSR arrays: row i adds its length to its own sum
   and one to each of its columns' — no per-entry closure call. *)
let degree_sums t =
  Spgraph.check_t t;
  let n = Spgraph.vertex_count t in
  let row_ptr = t.Spgraph.row_ptr and cols = t.Spgraph.cols in
  let sums = Array.make n 0 in
  for i = 0 to n - 1 do
    let lo = row_ptr.(i) and hi = row_ptr.(i + 1) in
    sums.(i) <- sums.(i) + (hi - lo);
    for idx = lo to hi - 1 do
      let j = Int32.to_int (Buf.i32_get cols idx) in
      sums.(j) <- sums.(j) + 1
    done
  done;
  sums

(* Every sampler refuses an n whose vertex ids overflow the int32
   columns before it draws or allocates anything. *)
let check_n name n =
  if n > Spgraph.max_vertices then
    invalid_arg (name ^ ": n exceeds 2^31, the int32 column limit")

(* Build a CSR from the sampler's forward-pair stream: [fwd_count.(i)]
   pairs (i, j) per row with the j's concatenated row-major in [js]
   (ascending within a row, rows in order — the order the geometric-skip
   sampler emits).  Counting sort over both endpoints; the arrival order
   makes every output row come out ascending (row i first receives its
   smaller neighbours from pairs (u, i) with u increasing, then its
   larger ones from pairs (i, v) with v increasing), so no per-row sort
   is ever needed.  The stream lives on a [Buf.i32] and the only plain
   arrays are O(n).

   This direct variant scatters every backward entry (j, i) straight to
   its final slot — one random write into [cols] per pair.  Kept as the
   reference implementation and the builder for the frozen
   [sample_gnp_scalar] baseline; [csr_of_shards] below is the production
   build, and on a clique-free stream both emit byte-identical CSRs. *)
let csr_of_stream_direct ~n ~m fwd_count js =
  if m < 0 || m > Buf.i32_length js then
    invalid_arg "Sparse: pair stream shorter than m";
  if Array.length fwd_count <> n then
    invalid_arg "Sparse: per-row count length mismatch";
  let deg = Array.make (max 1 n) 0 in
  let e = ref 0 in
  for i = 0 to n - 1 do
    deg.(i) <- deg.(i) + fwd_count.(i);
    for _ = 1 to fwd_count.(i) do
      let j = Int32.to_int (Buf.i32_get js !e) in
      deg.(j) <- deg.(j) + 1;
      incr e
    done
  done;
  if !e <> m then invalid_arg "Sparse: per-row counts do not sum to m";
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + deg.(i)
  done;
  (* Uninitialized is safe: the cursor prefix sums partition the buffer
     and the loop writes exactly [deg.(i)] entries into row i. *)
  let cols = Buf.i32_create_uninit (2 * m) in
  let cursor = Array.init n (fun i -> row_ptr.(i)) in
  let e = ref 0 in
  for i = 0 to n - 1 do
    for _ = 1 to fwd_count.(i) do
      let j = Int32.to_int (Buf.i32_get js !e) in
      Buf.i32_set cols cursor.(i) (Int32.of_int j);
      cursor.(i) <- cursor.(i) + 1;
      Buf.i32_set cols cursor.(j) (Int32.of_int i);
      cursor.(j) <- cursor.(j) + 1;
      incr e
    done
  done;
  Spgraph.make ~n ~row_ptr ~cols

(* A sampler's output before the CSR build: shards in row order, each
   (first row, per-row pair counts from that row on, forward-pair
   stream, pair count).  Their concatenation is the global row-major
   stream, ascending within each row; a single-stream sampler is one
   shard. *)
type shard = int * int array * Buf.i32 * int

(* Visit every row that holds forward pairs: [f i js e c] gets row i's
   [c] larger neighbours, ascending at js.(e) .. js.(e + c - 1).  A row
   that straddles a shard boundary is visited once per shard, the
   earlier shard first, so the visits replay the global stream. *)
let iter_stream_rows (shards : shard array) f =
  Array.iter
    (fun (row0, counts, js, _) ->
      let e = ref 0 in
      Array.iteri
        (fun r c ->
          if c > 0 then f (row0 + r) js !e c;
          e := !e + c)
        counts)
    shards

(* The one production CSR build: the sampled graph with the planted
   clique on [clique] (strictly ascending; empty for plain G(n, p))
   unioned in, from the shard streams.  The merged copy of the stream
   never exists.

   The count pass takes each row's sampled degree and, for clique rows,
   the sampled pairs that already join two clique vertices, so [row_ptr]
   reserves each clique row's final size |sampled ∪ clique \ {v}| up
   front.  The fills then put every row's sampled entries ascending at
   the head of its slots (row i receives its smaller neighbours from
   pairs (u, i), u increasing, before its larger ones from (i, v), v
   increasing), and a last pass merges the clique into each clique row
   in place, from its end.  One [cols] buffer and one [Spgraph.make]
   scan per instance; byte-identical to building the sampled CSR and
   then taking the sorted-merge union (test/oracle_sparse.ml).

   Two fills, one output.  Under 2^20 pairs the target and the cursors
   fit in cache, and every backward entry (j, i) is scattered straight
   to its slot.  Above that a direct scatter costs a DRAM round trip per
   pair (~43 ns at the 10^6 rung), so the backward entries are first
   partitioned into row-range buckets (wide sequential writes), then
   scattered bucket by bucket while the bucket's rows and cursors stay
   cache-resident — memory-bandwidth bound.  The partition needs no
   buffer of its own: every backward entry of bucket b lands in one of
   the bucket's rows, so the head of the bucket's own slots in [cols]
   has room for all of them, one 32-bit word each.  Bucketing keeps
   stream order inside a bucket, so rows still come out ascending. *)
(* bcc-lint: allow kern/unsafe-index — iter_stream_rows hands out e + c <= the shard's pair count <= Buf.i32_length js; every cols index is a cursor inside its row's slots [row_ptr.(i), row_ptr.(i + 1)), which partition row_ptr.(n) = Buf.i32_length cols, or a bucket cursor below row_ptr.(b lsl shift) + bcount.(b) <= the bucket's own slot end; scratch indices are below bcount.(b) <= Buf.i32_length scratch, the largest bucket count *)
let csr_of_shards ~n ~clique (shards : shard array) =
  let kc = Array.length clique in
  let in_c = Bytes.make (if kc = 0 then 0 else n) '\000' in
  Array.iteri
    (fun x v ->
      if v < 0 || v >= n then invalid_arg "Sparse: clique vertex out of range";
      if x > 0 && clique.(x - 1) >= v then
        invalid_arg "Sparse: clique not strictly ascending";
      Bytes.set in_c v '\001')
    clique;
  let m = Array.fold_left (fun acc (_, _, _, ms) -> acc + ms) 0 shards in
  (* Bucket width: the smallest power-of-two row range that keeps the
     bucket count within [target] — a function of n and m only — capped
     at 32 - ibits bits so a packed (row offset, i) word fits in 32. *)
  let target = max 1 (min 1024 (m / (1 lsl 18))) in
  let top = max 0 (n - 1) in
  let ibits = ref 0 in
  while top lsr !ibits > 0 do incr ibits done;
  let ibits = !ibits in
  let shift = ref 0 in
  while (top lsr !shift) + 1 > target do incr shift done;
  let shift = min !shift (32 - ibits) in
  let nb = (top lsr shift) + 1 in
  (* Count pass.  [deg.(i)]: row i's sampled entries; [res.(i)]: the
     clique entries row i still lacks. *)
  let bcount = Array.make nb 0 in
  let deg = Array.make (max 1 n) 0 in
  let res = Array.make (max 1 n) 0 in
  Array.iter (fun v -> res.(v) <- kc - 1) clique;
  iter_stream_rows shards (fun i js e c ->
      deg.(i) <- deg.(i) + c;
      let ci = kc > 0 && Bytes.get in_c i <> '\000' in
      for d = e to e + c - 1 do
        let j = Int32.to_int (Buf.i32_get js d) in
        deg.(j) <- deg.(j) + 1;
        bcount.(j lsr shift) <- bcount.(j lsr shift) + 1;
        if ci && Bytes.get in_c j <> '\000' then begin
          res.(i) <- res.(i) - 1;
          res.(j) <- res.(j) - 1
        end
      done);
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + deg.(i) + res.(i)
  done;
  (* Uninitialized is safe: the fills write [deg.(i)] entries at the
     head of row i through [cursor], and the merge writes the other
     [res.(i)] slots. *)
  let cols = Buf.i32_create_uninit row_ptr.(n) in
  let cursor = Array.init (max 1 n) (fun i -> row_ptr.(i)) in
  if m < 1 lsl 20 then
    iter_stream_rows shards (fun i js e c ->
        for d = e to e + c - 1 do
          let j = Int32.to_int (Buf.i32_get js d) in
          Buf.i32_set cols cursor.(i) (Int32.of_int j);
          cursor.(i) <- cursor.(i) + 1;
          Buf.i32_set cols cursor.(j) (Int32.of_int i);
          cursor.(j) <- cursor.(j) + 1
        done)
  else begin
    (* Partition pass: each backward entry (j, i) becomes the word
       ((j - b lsl shift) lsl ibits) lor i at the head of its bucket b's
       slots. *)
    let bcur = Array.init nb (fun b -> row_ptr.(b lsl shift)) in
    let omask = (1 lsl shift) - 1 in
    iter_stream_rows shards (fun i js e c ->
        for d = e to e + c - 1 do
          let j = Int32.to_int (Buf.i32_get js d) in
          let b = j lsr shift in
          let w = ((j land omask) lsl ibits) lor i in
          Buf.i32_set cols bcur.(b) (Int32.of_int w);
          bcur.(b) <- bcur.(b) + 1
        done);
    (* Fill pass, in row order.  Before bucket b's first row takes its
       forward entries (the larger neighbours, straight from the
       stream), the bucket's words are copied to [scratch], since the
       scatter overwrites them, and scattered through the cursors as its
       rows' backward entries (the smaller neighbours). *)
    let scratch =
      Buf.i32_create_uninit (max 1 (Array.fold_left max 0 bcount))
    in
    let imask = (1 lsl ibits) - 1 in
    let next = ref 0 in
    let scatter_through last =
      while !next <= last do
        let b = !next in
        let base = b lsl shift and cnt = bcount.(b) in
        Bigarray.Array1.blit
          (Bigarray.Array1.sub cols row_ptr.(base) cnt)
          (Bigarray.Array1.sub scratch 0 cnt);
        for e = 0 to cnt - 1 do
          let w = Int32.to_int (Buf.i32_get scratch e) land 0xFFFF_FFFF in
          let j = base + (w lsr ibits) in
          Buf.i32_set cols cursor.(j) (Int32.of_int (w land imask));
          cursor.(j) <- cursor.(j) + 1
        done;
        incr next
      done
    in
    iter_stream_rows shards (fun i js e c ->
        scatter_through (i lsr shift);
        let base = cursor.(i) in
        for d = 0 to c - 1 do
          Buf.i32_set cols (base + d) (Buf.i32_get js (e + d))
        done;
        cursor.(i) <- base + c);
    scatter_through (nb - 1)
  end;
  (* Clique merge, from the end of each clique row: its [deg.(v)]
     sampled entries sit ascending at the head and its slot count is the
     union size, so the write cursor never falls behind the read cursor
     and passes no unread entry. *)
  Array.iter
    (fun v ->
      let lo = row_ptr.(v) in
      let a = ref (lo + deg.(v) - 1) in
      let out = ref (row_ptr.(v + 1) - 1) in
      let b = ref (kc - 1) in
      while !b >= 0 do
        let y = clique.(!b) in
        if y = v then decr b
        else begin
          let x = if !a >= lo then Int32.to_int (Buf.i32_get cols !a) else -1 in
          if x >= y then begin
            Buf.i32_set cols !out (Int32.of_int x);
            decr a;
            if x = y then decr b
          end
          else begin
            Buf.i32_set cols !out (Int32.of_int y);
            decr b
          end;
          decr out
        end
      done)
    clique;
  Spgraph.make ~n ~row_ptr ~cols

(* PR 9's sampler, frozen: the scalar draw-per-skip decode over the
   direct scatter build.  [sample_gnp] below emits the identical graph
   from the identical draws (test_sparse pins them equal); this version
   stays as the reference implementation, the in-run equality oracle and
   the `bench prng` baseline row. *)
let sample_gnp_scalar g ~n ~p =
  check_n "Sparse.sample_gnp" n;
  if n < 0 then invalid_arg "Sparse.sample_gnp: n >= 0";
  if p < 0.0 || p > 1.0 then invalid_arg "Sparse.sample_gnp: p in [0,1]";
  let total = n * (n - 1) / 2 in
  let mean = p *. float_of_int total in
  let cap =
    ref
      (min (max 1 total)
         (64 + int_of_float (mean +. (6.0 *. Float.sqrt (mean +. 1.0)))))
  in
  let js = ref (Buf.i32_create_uninit !cap) in
  let fwd_count = Array.make (max 1 n) 0 in
  let m = ref 0 in
  let push i j =
    if !m = !cap then begin
      let cap' = min (max 1 total) (2 * !cap) in
      let js' = Buf.i32_create_uninit cap' in
      Bigarray.Array1.blit !js (Bigarray.Array1.sub js' 0 !m);
      js := js';
      cap := cap'
    end;
    Buf.i32_set !js !m (Int32.of_int j);
    fwd_count.(i) <- fwd_count.(i) + 1;
    incr m
  in
  if p >= 1.0 then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        push i j
      done
    done
  else if p > 0.0 && total > 0 then begin
    let log1mp = Float.log (1.0 -. p) in
    let row = ref 0 in
    let row_start = ref 0 in
    let idx = ref (-1) in
    let continue = ref true in
    while !continue do
      let u = Prng.float g in
      let skip = Float.log (1.0 -. u) /. log1mp in
      (* [skip] is finite and >= 0; cap before truncating so the addition
         below cannot overflow when p is tiny and u is close to 1. *)
      let skip = int_of_float (Float.min skip (float_of_int total)) in
      idx := !idx + 1 + skip;
      if !idx >= total then continue := false
      else begin
        while !idx >= !row_start + (n - 1 - !row) do
          row_start := !row_start + (n - 1 - !row);
          incr row
        done;
        let i = !row in
        let j = i + 1 + (!idx - !row_start) in
        push i j
      end
    done
  end;
  csr_of_stream_direct ~n ~m:!m fwd_count !js

(* CSR twin of [Gnp.sample_fast]: the identical geometric-skip decode —
   same [Prng.float] draws in the same order, same cap, same row-major
   pair walk — but the skips are decoded in blocks by
   [Prng.Block.fill_geometric] (one fused pass, no per-draw call or
   box) and the decoded pairs are appended to a pair stream instead of
   written into dense rows, so a G(n, p) graph costs O(n + m) memory
   end to end.  Block boundaries never leak into the stream: the final
   block is speculatively over-filled, then rewound ([Block.save] /
   [Block.restore]) and replayed for exactly the draws the scalar
   decode would have consumed, so the generator's end state matches the
   scalar path draw for draw.  test/test_sparse.ml pins
   [sample_gnp] == [of_digraph (Gnp.sample_fast ...)] ==
   [sample_gnp_scalar] on shared seeds.

   [?stream_cap] overrides the initial pair-stream capacity (normally
   the binomial mean + 6 sigma) so tests can force the geometric-growth
   path; the sampled graph is identical for any value.  Returns the
   stream as one shard for [csr_of_shards]. *)
let gnp_stream ?stream_cap g ~n ~p : shard array =
  check_n "Sparse.sample_gnp" n;
  if n < 0 then invalid_arg "Sparse.sample_gnp: n >= 0";
  if p < 0.0 || p > 1.0 then invalid_arg "Sparse.sample_gnp: p in [0,1]";
  let total = n * (n - 1) / 2 in
  let mean = p *. float_of_int total in
  let cap0 =
    match stream_cap with
    | Some c -> min (max 1 total) (max 1 c)
    | None ->
        min (max 1 total)
          (64 + int_of_float (mean +. (6.0 *. Float.sqrt (mean +. 1.0))))
  in
  let js = ref (Buf.i32_create_uninit cap0) in
  let cap = ref cap0 in
  let fwd_count = Array.make (max 1 n) 0 in
  let m = ref 0 in
  let grow () =
    (* Geometric growth, clamped to the pair count: [m] can never reach
       [total] at a push (there are at most [total] pushes), so the
       clamped doubling always yields cap' > m. *)
    let cap' = min (max 1 total) (max (2 * !cap) (!m + 1)) in
    let js' = Buf.i32_create_uninit cap' in
    if !m > 0 then
      Bigarray.Array1.blit
        (Bigarray.Array1.sub !js 0 !m)
        (Bigarray.Array1.sub js' 0 !m);
    js := js';
    cap := cap'
  in
  if p >= 1.0 then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if !m = !cap then grow ();
        Buf.i32_set !js !m (Int32.of_int j);
        fwd_count.(i) <- fwd_count.(i) + 1;
        incr m
      done
    done
  else if p > 0.0 && total > 0 then begin
    let log1mp = Float.log (1.0 -. p) in
    let capf = float_of_int total in
    let block = max 64 (min 65536 (int_of_float mean + 64)) in
    let skips = Buf.int_create_uninit block in
    let row = ref 0 in
    let row_start = ref 0 in
    let idx = ref (-1) in
    let continue = ref true in
    while !continue do
      let snap = Prng.Block.save g in
      Prng.Block.fill_geometric g ~log1mp ~cap:capf skips ~pos:0 ~len:block;
      let t = ref 0 in
      while !continue && !t < block do
        let skip = Buf.int_get skips !t in
        incr t;
        idx := !idx + 1 + skip;
        if !idx >= total then begin
          continue := false;
          (* Rewind the speculative block, replay the consumed prefix:
             the stream position ends exactly where the scalar decode's
             would. *)
          Prng.Block.restore g snap;
          Prng.Block.fill_geometric g ~log1mp ~cap:capf skips ~pos:0 ~len:!t
        end
        else begin
          while !idx >= !row_start + (n - 1 - !row) do
            row_start := !row_start + (n - 1 - !row);
            incr row
          done;
          if !m = !cap then grow ();
          Buf.i32_set !js !m (Int32.of_int (!row + 1 + (!idx - !row_start)));
          fwd_count.(!row) <- fwd_count.(!row) + 1;
          incr m
        end
      done
    done
  end;
  [| (0, fwd_count, !js, !m) |]

let sample_gnp ?stream_cap g ~n ~p =
  csr_of_shards ~n ~clique:[||] (gnp_stream ?stream_cap g ~n ~p)

let sample_rand g ~n ~p = sample_gnp g ~n ~p

(* ---------- Word-level skip decode for the sharded sampler ---------- *)

(* The sharded sampler's skips are decoded from raw 53-bit uniforms by
   integer threshold inversion instead of the scalar path's
   [Float.log]: thresholds thr.(k) = round((1 - (1-p)^k) * 2^53) tile
   [0, 2^53) so that a uniform w lands in [thr.(k), thr.(k+1)) exactly
   when the geometric skip is k.  A 2^16-entry guide table points each
   u-window at its starting k, so a decode is one guide load plus a
   short threshold walk (binary search for the rare crowded windows) —
   a few ns, entirely in integers, no libm in the hot loop.  The
   distribution matches the log decode to within one part in 2^53 (the
   same rounding granularity the float decode carries); the exact
   per-bit stream is different, which is why the sharded sampler is a
   separate, documented stream rather than a drop-in for [sample_gnp].

   If p is so small that (1-p)^k is still > 2^-54 at the table cap, the
   last threshold is a tail sentinel: a uniform landing beyond it adds
   [kmax] to the skip and decodes another word (geometric
   memorylessness), so arbitrarily small p stays exact. *)

let skip_gbits = 16
let two53f = 9007199254740992.0
let two53 = 1 lsl 53

type skip_table = { thr : Buf.ints; guide : Buf.ints; kmax : int }

let make_skip_table p =
  let q = 1.0 -. p in
  let capk = 1 lsl 17 in
  (* Sizing pass: find the first k whose boundary rounds to 2^53. *)
  let kmax = ref capk in
  (try
     let qk = ref 1.0 in
     for k = 1 to capk do
       qk := !qk *. q;
       if ((1.0 -. !qk) *. two53f) +. 0.5 >= two53f then begin
         kmax := k;
         raise Exit
       end
     done
   with Exit -> ());
  let kmax = !kmax in
  let thr = Buf.int_create (kmax + 1) in
  Buf.int_set thr 0 0;
  let qk = ref 1.0 in
  let prev = ref 0 in
  for k = 1 to kmax do
    qk := !qk *. q;
    let b = int_of_float (Float.round ((1.0 -. !qk) *. two53f)) in
    let b = min two53 (max !prev b) in
    Buf.int_set thr k b;
    prev := b
  done;
  let gsize = 1 lsl skip_gbits in
  let guide = Buf.int_create gsize in
  let k = ref 0 in
  for h = 0 to gsize - 1 do
    let base = h lsl (53 - skip_gbits) in
    while !k < kmax - 1 && Buf.int_get thr (!k + 1) <= base do
      incr k
    done;
    Buf.int_set guide h !k
  done;
  { thr; guide; kmax }

(* Largest k with thr.(k) <= w; k = kmax means the tail sentinel. *)
(* bcc-lint: allow kern/unsafe-index — callers pass w < 2^53 (the top 53 bits of a draw), so the guide index w lsr 37 < 2^16 = its length; every thr access is at an index <= kmax with length kmax + 1 (make_skip_table builds both) *)
let[@inline] decode_skip tbl w =
  let kmax = tbl.kmax in
  let k = ref (Buf.int_get tbl.guide (w lsr (53 - skip_gbits))) in
  let steps = ref 0 in
  while !steps < 6 && !k < kmax && Buf.int_get tbl.thr (!k + 1) <= w do
    incr k;
    incr steps
  done;
  if !k < kmax && Buf.int_get tbl.thr (!k + 1) <= w then begin
    (* Crowded window: binary search the remaining thresholds. *)
    let lo = ref (!k + 1) and hi = ref kmax in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) lsr 1 in
      if Buf.int_get tbl.thr mid <= w then lo := mid else hi := mid - 1
    done;
    k := !lo
  end;
  !k

(* Row r of the upper-triangle pair walk starts at pair index
   S_r = r(n-1) - r(r-1)/2; find the largest r with S_r <= idx by a
   float sqrt guess plus an exact integer fixup. *)
let row_of_pair_index n idx =
  let s_of r = (r * (n - 1)) - (r * (r - 1) / 2) in
  let nf = float_of_int n in
  let disc = ((nf -. 0.5) *. (nf -. 0.5)) -. (2.0 *. float_of_int idx) in
  let guess = int_of_float (nf -. 0.5 -. Float.sqrt (Float.max 0.0 disc)) in
  let r = ref (max 0 (min (n - 2) guess)) in
  while !r > 0 && s_of !r > idx do
    decr r
  done;
  while !r < n - 2 && s_of (!r + 1) <= idx do
    incr r
  done;
  !r

(* One shard's slice [lo, hi) of the pair-index walk, on a dedicated
   child stream: returns (first row, per-row counts over the shard's row
   span, pair stream, pair count). *)
let decode_shard ~n ~mean_per_pair tbl child ~lo ~hi =
  let row0 = row_of_pair_index n lo in
  let s_of r = (r * (n - 1)) - (r * (r - 1) / 2) in
  let row_end = row_of_pair_index n (hi - 1) in
  let span = row_end - row0 + 1 in
  let counts = Array.make span 0 in
  let mean = mean_per_pair *. float_of_int (hi - lo) in
  let cap0 =
    min (max 1 (hi - lo))
      (64 + int_of_float (mean +. (6.0 *. Float.sqrt (mean +. 1.0))))
  in
  let js = ref (Buf.i32_create_uninit cap0) in
  let cap = ref cap0 in
  let m = ref 0 in
  let grow () =
    let cap' = min (max 1 (hi - lo)) (max (2 * !cap) (!m + 1)) in
    let js' = Buf.i32_create_uninit cap' in
    if !m > 0 then
      Bigarray.Array1.blit
        (Bigarray.Array1.sub !js 0 !m)
        (Bigarray.Array1.sub js' 0 !m);
    js := js';
    cap := cap'
  in
  let words_cap = 8192 in
  let words = Buf.i64_create words_cap in
  let avail = ref 0 in
  let wcur = ref 0 in
  let kmax = tbl.kmax in
  let row = ref row0 in
  let row_start = ref (s_of row0) in
  let idx = ref (lo - 1) in
  let continue = ref true in
  while !continue do
    (* The child stream is dedicated to this shard, so over-fetching a
       block of words needs no rewind — leftovers are simply dropped. *)
    if !wcur >= !avail then begin
      Prng.Block.fill_bits64 child words ~pos:0 ~len:words_cap;
      avail := words_cap;
      wcur := 0
    end;
    let w =
      Int64.to_int (Int64.shift_right_logical (Buf.i64_get words !wcur) 11)
    in
    incr wcur;
    let k = ref (decode_skip tbl w) in
    let skip = ref 0 in
    while !k = kmax && !idx + 1 + !skip + kmax < hi do
      (* Tail sentinel: add kmax and decode the excess from a fresh
         word, until the skip either resolves or walks past the shard. *)
      skip := !skip + kmax;
      if !wcur >= !avail then begin
        Prng.Block.fill_bits64 child words ~pos:0 ~len:words_cap;
        avail := words_cap;
        wcur := 0
      end;
      let w =
        Int64.to_int (Int64.shift_right_logical (Buf.i64_get words !wcur) 11)
      in
      incr wcur;
      k := decode_skip tbl w
    done;
    let skip = !skip + !k in
    idx := !idx + 1 + skip;
    if !idx >= hi then continue := false
    else begin
      while !idx >= !row_start + (n - 1 - !row) do
        row_start := !row_start + (n - 1 - !row);
        incr row
      done;
      if !m = !cap then grow ();
      Buf.i32_set !js !m (Int32.of_int (!row + 1 + (!idx - !row_start)));
      counts.(!row - row0) <- counts.(!row - row0) + 1;
      incr m
    end
  done;
  (row0, counts, !js, !m)

(* Fixed seed-space salt: the sharded sampler derives its shard streams
   from [split (split g shard_salt) s], leaving the parent stream
   position untouched and keeping the per-trial child indices
   (Par.map_trials splits 0, 1, 2, ...) collision-free. *)
let shard_salt = 0x5eed

let shard_count total = if total < 65536 then 1 else 64

(* Sharded G(n, p): the pair-index walk is cut into [shard_count]
   equal slices — a function of n alone, never of the pool size — each
   decoded on its own [Prng.split] child stream by the word-level skip
   decode above, in parallel on the [Par] pool.  The shard streams, in
   shard order, are the global walk (ascending across slice boundaries),
   and [csr_of_shards] counting-sorts them into CSR, so the result is
   byte-identical at any [BCC_DOMAINS].  This is a new, documented
   stream: same-seed results differ from [sample_gnp] by construction
   (see docs/PERFORMANCE.md "Batched draws"). *)
let gnp_shards g ~n ~p : shard array =
  if n < 0 then invalid_arg "Sparse.sample_gnp_sharded: n >= 0";
  if n >= 1 lsl 30 then invalid_arg "Sparse.sample_gnp_sharded: n < 2^30";
  if p < 0.0 || p > 1.0 then
    invalid_arg "Sparse.sample_gnp_sharded: p in [0,1]";
  let total = n * (n - 1) / 2 in
  if p >= 1.0 then begin
    (* Deterministic complete graph: no draws on any stream. *)
    let fwd_count = Array.make (max 1 n) 0 in
    let js = Buf.i32_create_uninit (max 1 total) in
    let m = ref 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        Buf.i32_set js !m (Int32.of_int j);
        fwd_count.(i) <- fwd_count.(i) + 1;
        incr m
      done
    done;
    [| (0, fwd_count, js, !m) |]
  end
  else if p <= 0.0 || total = 0 then [||]
  else begin
    let tbl = make_skip_table p in
    let shards = shard_count total in
    let base = total / shards in
    let rem = total mod shards in
    let lo_of s = (base * s) + min s rem in
    let root = Prng.split g shard_salt in
    Par.map_array
      (fun s ->
        let child = Prng.split root s in
        let lo = lo_of s and hi = lo_of (s + 1) in
        if lo >= hi then (0, [||], Buf.i32_create_uninit 1, 0)
        else decode_shard ~n ~mean_per_pair:p tbl child ~lo ~hi)
      (Array.init shards Fun.id)
  end

let sample_gnp_sharded g ~n ~p = csr_of_shards ~n ~clique:[||] (gnp_shards g ~n ~p)

(* Sparse-regime planted instance: the clique vertex set is drawn first
   ([Prng.subset]) and the G(n, p) stream second — [Planted.sample_planted]'s
   draw order, so dense and sparse planted instances on a shared seed use
   the PRNG identically.  The clique is unioned in by the CSR build itself
   ([csr_of_shards]): existing edges inside the clique dedupe against the
   merge, exactly like [Planted.sample_planted_at]'s idempotent [add_edge]
   calls on the dense side. *)
let sample_planted g ~n ~p ~k =
  check_n "Sparse.sample_planted" n;
  let c = Prng.subset g ~n ~k in
  let clique = Array.of_list (List.sort_uniq Int.compare c) in
  (csr_of_shards ~n ~clique (gnp_stream g ~n ~p), c)

(* Sharded twin: subset from the parent stream first (same position as
   [sample_planted]), then the sharded G(n, p) — whose shard children
   never touch the parent stream, so after this call the parent sits
   exactly one [subset] past where it started. *)
let sample_planted_sharded g ~n ~p ~k =
  check_n "Sparse.sample_planted_sharded" n;
  let c = Prng.subset g ~n ~k in
  let clique = Array.of_list (List.sort_uniq Int.compare c) in
  (csr_of_shards ~n ~clique (gnp_shards g ~n ~p), c)
