(* The four xoshiro256** state words live unboxed in a 32-byte buffer, read
   and written as native-endian 64-bit lanes: a [mutable int64] record field
   boxes a fresh Int64 on every store, and a draw stores four of them. *)
type t = { st : Bytes.t; mutable draws_ : int }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64, used only for seeding so that nearby seeds give unrelated
   xoshiro states. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref seed in
  let st = Bytes.create 32 in
  for lane = 0 to 3 do
    set64 st (8 * lane) (splitmix64 state)
  done;
  { st; draws_ = 0 }

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256** step.  Inlined into every draw below so the state words and
   the result stay in registers; only [next_int64]'s own result is boxed. *)
let[@inline] step t =
  t.draws_ <- t.draws_ + 1;
  let open Int64 in
  let st = t.st in
  let s0 = get64 st 0 and s1 = get64 st 8 and s2 = get64 st 16 and s3 = get64 st 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  set64 st 0 s0;
  set64 st 8 s1;
  set64 st 16 s2;
  set64 st 24 s3;
  result

let next_int64 t = step t
let split t = create (step t)
let copy t = { st = Bytes.copy t.st; draws_ = t.draws_ }
let draws t = t.draws_

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value stays non-negative as a native OCaml int. *)
  let v = Int64.to_int (Int64.shift_right_logical (step t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits into [0,1) then scale. *)
  let bits = Int64.shift_right_logical (step t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t = Int64.to_int (step t) land 1 = 1

let exponential t ~mean =
  let u = float t 1.0 in
  (* avoid log 0 *)
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let alpha_string t ~min_len ~max_len =
  let len = int_in t min_len max_len in
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (Char.code 'a' + int t 26))
  done;
  Bytes.unsafe_to_string b
