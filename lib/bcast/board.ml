(* One run's broadcast history, stored once: [rounds.(r).(s)] is sender
   [s]'s message in round [r].  The memo holds the values of [common]:
   one entry per (key, window), tagged with the view length it was
   computed at. *)

type univ = ..

type 'a key = { name : string; inj : 'a -> univ; prj : univ -> 'a option }

type entry = {
  e_first : int;
  e_limit : int;
  e_pos : int;
  e_width : int;
  e_len : int;
  value : univ;
}

type store = {
  n : int;
  msg_bits : int;
  mutable rounds : int array array;
  mutable len : int;
  mutable memo : entry list;
}

(* A window: rounds [first, first + limit) of the store (clipped to what
   has been appended), bits [pos, pos + width) of each message. *)
type t = { s : store; first : int; limit : int; pos : int; width : int }

let create ~n ~msg_bits =
  if n < 1 then invalid_arg "Board.create: n >= 1";
  if msg_bits < 1 || msg_bits > 30 then invalid_arg "Board.create: msg_bits in [1,30]";
  { n; msg_bits; rounds = [||]; len = 0; memo = [] }

let append s messages =
  if Array.length messages <> s.n then invalid_arg "Board.append: one message per sender";
  if s.len = Array.length s.rounds then begin
    let grown = Array.make (max 16 (2 * s.len)) [||] in
    Array.blit s.rounds 0 grown 0 s.len;
    s.rounds <- grown
  end;
  s.rounds.(s.len) <- messages;
  s.len <- s.len + 1

let view s = { s; first = 0; limit = max_int; pos = 0; width = s.msg_bits }
let empty ~n ~msg_bits = view (create ~n ~msg_bits)
let n t = t.s.n
let msg_bits t = t.width
let length t = max 0 (min t.limit (t.s.len - t.first))

let[@inline] field t v =
  if t.pos = 0 && t.width = t.s.msg_bits then v
  else (v lsr t.pos) land ((1 lsl t.width) - 1)

let check_round t round =
  if round < 0 || round >= length t then invalid_arg "Board: round outside the view"

let get t ~round ~sender =
  check_round t round;
  if sender < 0 || sender >= t.s.n then invalid_arg "Board.get: sender out of range";
  field t t.s.rounds.(t.first + round).(sender)

let check_one_bit t name =
  if t.width <> 1 then invalid_arg (Printf.sprintf "Board.%s: 1-bit views only" name)

let round_bits t ~round =
  check_one_bit t "round_bits";
  check_round t round;
  let row = t.s.rounds.(t.first + round) in
  let b = Bitvec.create t.s.n in
  Array.iteri (fun i v -> if field t v = 1 then Bitvec.set b i true) row;
  b

let sender_bits t ~sender =
  check_one_bit t "sender_bits";
  if sender < 0 || sender >= t.s.n then invalid_arg "Board.sender_bits: sender out of range";
  let len = length t in
  let b = Bitvec.create len in
  for r = 0 to len - 1 do
    if field t t.s.rounds.(t.first + r).(sender) = 1 then Bitvec.set b r true
  done;
  b

let shift t ~rounds =
  if rounds < 0 then invalid_arg "Board.shift: rounds >= 0";
  let limit = if t.limit = max_int then max_int else max 0 (t.limit - rounds) in
  { t with first = t.first + rounds; limit }

let truncate t ~rounds =
  if rounds < 0 then invalid_arg "Board.truncate: rounds >= 0";
  { t with limit = min t.limit rounds }

let lane t ~pos ~width =
  if pos < 0 || width < 1 || pos + width > t.width then
    invalid_arg "Board.lane: bits outside the message";
  { t with pos = t.pos + pos; width }

let key (type a) name : a key =
  let module M = struct
    type univ += V of a
  end in
  { name; inj = (fun v -> M.V v); prj = (function M.V v -> Some v | _ -> None) }

let common t k f =
  let len = length t in
  let mine e =
    e.e_first = t.first && e.e_limit = t.limit && e.e_pos = t.pos && e.e_width = t.width
    && Option.is_some (k.prj e.value)
  in
  let stored =
    match List.find_opt mine t.s.memo with
    | Some e when e.e_len = len -> k.prj e.value
    | _ -> None
  in
  match stored with
  | Some v ->
      if Prof.enabled () then Prof.add Prof.Cache_hits 1;
      v
  | None ->
      if Prof.enabled () then Prof.add Prof.Cache_misses 1;
      let v = Prof.span ("common:" ^ k.name) (fun () -> f t) in
      (* Re-read the memo: [f] may itself have stored entries. *)
      let entry =
        { e_first = t.first; e_limit = t.limit; e_pos = t.pos; e_width = t.width;
          e_len = len; value = k.inj v }
      in
      t.s.memo <- entry :: List.filter (fun e -> not (mine e)) t.s.memo;
      v
