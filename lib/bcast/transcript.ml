type entry = { turn : int; round : int; sender : int; value : int }

(* Entries live in flat int chunks, [stride] ints each, shared by every
   transcript grown from the same [empty]: a transcript is the prefix
   [0, len) of its buffer.  Chunk [c] holds entries [c * chunk, (c + 1)
   * chunk); only chunk 0 starts small and doubles, so a long run never
   copies its history and short ones stay small.  Appending to the
   longest transcript of a buffer writes in place; appending to an older
   (shorter) one copies its prefix into a fresh buffer first, so no
   transcript ever sees another's entries change.  Not safe for
   concurrent appends from two domains. *)
type buf = { mutable chunks : int array array; mutable fill : int }
type t = { msg_bits : int; buf : buf; len : int }

let stride = 4
let chunk_bits = 10
let chunk = 1 lsl chunk_bits

let empty ~msg_bits =
  if msg_bits < 1 || msg_bits > 30 then invalid_arg "Transcript.empty: msg_bits in [1,30]";
  { msg_bits; buf = { chunks = [||]; fill = 0 }; len = 0 }

let msg_bits t = t.msg_bits

let copy_prefix t =
  let used = (t.len + chunk - 1) / chunk in
  { chunks = Array.init used (fun c -> Array.copy t.buf.chunks.(c)); fill = t.len }

(* Room for entry [i]: chunk [i / chunk] exists and is long enough. *)
let reserve buf i =
  let c = i lsr chunk_bits and need = ((i land (chunk - 1)) + 1) * stride in
  if c >= Array.length buf.chunks then begin
    let grown = Array.make (max 4 (2 * Array.length buf.chunks)) [||] in
    Array.blit buf.chunks 0 grown 0 (Array.length buf.chunks);
    buf.chunks <- grown
  end;
  let cur = buf.chunks.(c) in
  if need > Array.length cur then begin
    let size =
      if c > 0 then chunk * stride
      else min (chunk * stride) (max (16 * stride) (2 * Array.length cur))
    in
    let fresh = Array.make size 0 in
    Array.blit cur 0 fresh 0 (Array.length cur);
    buf.chunks.(c) <- fresh
  end

let append t e =
  if e.value < 0 || e.value >= 1 lsl t.msg_bits then
    invalid_arg "Transcript.append: message value out of range";
  let buf = if t.len = t.buf.fill then t.buf else copy_prefix t in
  reserve buf t.len;
  let d = buf.chunks.(t.len lsr chunk_bits) and o = (t.len land (chunk - 1)) * stride in
  d.(o) <- e.turn;
  d.(o + 1) <- e.round;
  d.(o + 2) <- e.sender;
  d.(o + 3) <- e.value;
  buf.fill <- t.len + 1;
  { t with buf; len = t.len + 1 }

let length t = t.len

let[@inline] get t i =
  let d = t.buf.chunks.(i lsr chunk_bits) and o = (i land (chunk - 1)) * stride in
  { turn = d.(o); round = d.(o + 1); sender = d.(o + 2); value = d.(o + 3) }

let entries t = List.init t.len (get t)

let entry t i =
  if i < 0 || i >= t.len then invalid_arg "Transcript.entry: index out of range";
  get t i

let filter_map t f =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    match f (get t i) with Some x -> acc := x :: !acc | None -> ()
  done;
  !acc

let messages_of_round t r =
  filter_map t (fun e -> if e.round = r then Some (e.sender, e.value) else None)

let messages_of_sender t i =
  filter_map t (fun e -> if e.sender = i then Some (e.turn, e.value) else None)

let bit_length t = t.len * t.msg_bits

let key t =
  let buf = Buffer.create (16 + (t.len * 6)) in
  Buffer.add_string buf (string_of_int t.msg_bits);
  for i = 0 to t.len - 1 do
    let e = get t i in
    Buffer.add_char buf '|';
    Buffer.add_string buf (string_of_int e.sender);
    Buffer.add_char buf ':';
    Buffer.add_string buf (string_of_int e.value)
  done;
  Buffer.contents buf

let prefix t i =
  if i < 0 || i > t.len then invalid_arg "Transcript.prefix";
  { t with len = i }

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  for i = 0 to t.len - 1 do
    let e = get t i in
    Format.fprintf fmt "turn %d (round %d): processor %d -> %d@ " e.turn e.round e.sender
      e.value
  done;
  Format.fprintf fmt "@]"
