type params = { universe : int; seed : int }

type t = {
  p : params;
  nlevels : int;
  xor_ids : int array;  (** per level, xor of (coordinate + 1) *)
  xor_chks : int array;  (** per level, xor of 32-bit checksums *)
}

let int_width v =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x lsr 1) in
  max 1 (go 0 v)

let levels p = int_width p.universe + 2

(* splitmix64-style mixing of (seed, coordinate). *)
let hash64 seed i =
  let z = Int64.add (Int64.mul (Int64.of_int seed) 0x9e3779b97f4a7c15L) (Int64.of_int i) in
  let z = Int64.add (Int64.mul z 0x9e3779b97f4a7c15L) 0x243f6a8885a308d3L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let trailing_zeros v =
  if v = 0L then 64
  else begin
    let c = ref 0 and x = ref v in
    while Int64.logand !x 1L = 0L do
      incr c;
      x := Int64.shift_right_logical !x 1
    done;
    !c
  end

(* Coordinate i participates in levels 0 .. min(tz(h(i)), nlevels - 1). *)
let top_level p i = trailing_zeros (hash64 p.seed i)

let checksum p i = Int64.to_int (Int64.logand (hash64 (p.seed + 7919) i) 0xffffffffL)

let create p =
  if p.universe < 1 then invalid_arg "Agm_sketch.create: empty universe";
  let nlevels = levels p in
  { p; nlevels; xor_ids = Array.make nlevels 0; xor_chks = Array.make nlevels 0 }

let params_of s = s.p

let add s i =
  if i < 0 || i >= s.p.universe then invalid_arg "Agm_sketch.add: coordinate out of range";
  let top = min (top_level s.p i) (s.nlevels - 1) in
  let chk = checksum s.p i in
  for l = 0 to top do
    s.xor_ids.(l) <- s.xor_ids.(l) lxor (i + 1);
    s.xor_chks.(l) <- s.xor_chks.(l) lxor chk
  done

let xor_inplace dst src =
  if dst.p <> src.p then invalid_arg "Agm_sketch.xor_inplace: params mismatch";
  for l = 0 to dst.nlevels - 1 do
    dst.xor_ids.(l) <- dst.xor_ids.(l) lxor src.xor_ids.(l);
    dst.xor_chks.(l) <- dst.xor_chks.(l) lxor src.xor_chks.(l)
  done

let copy s = { s with xor_ids = Array.copy s.xor_ids; xor_chks = Array.copy s.xor_chks }

let recover s =
  let result = ref None in
  let l = ref 0 in
  while !result = None && !l < s.nlevels do
    let id = s.xor_ids.(!l) in
    if id <> 0 then begin
      let candidate = id - 1 in
      if
        candidate < s.p.universe
        && min (top_level s.p candidate) (s.nlevels - 1) >= !l
        && s.xor_chks.(!l) = checksum s.p candidate
      then result := Some candidate
    end;
    incr l
  done;
  !result

let is_zero s =
  Array.for_all (fun v -> v = 0) s.xor_ids && Array.for_all (fun v -> v = 0) s.xor_chks

let id_bits p = int_width (p.universe + 1)

let bit_size p = levels p * (id_bits p + 32)

let to_bitvec s =
  let w = id_bits s.p in
  let stride = w + 32 in
  let bits = Bitvec.create (s.nlevels * stride) in
  for l = 0 to s.nlevels - 1 do
    for b = 0 to w - 1 do
      if (s.xor_ids.(l) lsr b) land 1 = 1 then Bitvec.set bits ((l * stride) + b) true
    done;
    for b = 0 to 31 do
      if (s.xor_chks.(l) lsr b) land 1 = 1 then
        Bitvec.set bits ((l * stride) + w + b) true
    done
  done;
  bits

let of_bitvec p bits =
  let s = create p in
  let w = id_bits p in
  let stride = w + 32 in
  if Bitvec.length bits <> s.nlevels * stride then
    invalid_arg "Agm_sketch.of_bitvec: wrong length";
  for l = 0 to s.nlevels - 1 do
    let id = ref 0 and chk = ref 0 in
    for b = 0 to w - 1 do
      if Bitvec.get bits ((l * stride) + b) then id := !id lor (1 lsl b)
    done;
    for b = 0 to 31 do
      if Bitvec.get bits ((l * stride) + w + b) then chk := !chk lor (1 lsl b)
    done;
    s.xor_ids.(l) <- !id;
    s.xor_chks.(l) <- !chk
  done;
  s
