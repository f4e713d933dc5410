type t = {
  tid : int;
  name_ : string;
  mutable tuples : Tuple.t array;  (* slots [n..] hold [vacant] *)
  mutable n : int;
}

(* Filler for the unallocated tail of a slot array; never handed out. *)
let vacant = Tuple.create ~oid:(-1)

let create ~id ~name = { tid = id; name_ = name; tuples = Array.make 64 vacant; n = 0 }

let id t = t.tid
let name t = t.name_

let alloc t =
  if t.n = Array.length t.tuples then begin
    let bigger = Array.make (2 * t.n) vacant in
    Array.blit t.tuples 0 bigger 0 t.n;
    t.tuples <- bigger
  end;
  let tuple = Tuple.create ~oid:t.n in
  t.tuples.(t.n) <- tuple;
  t.n <- t.n + 1;
  tuple

let get t oid =
  if oid < 0 || oid >= t.n then
    invalid_arg (Printf.sprintf "Table.get: %s has no oid %d" t.name_ oid);
  t.tuples.(oid)

let mem t oid = oid >= 0 && oid < t.n
let size t = t.n

let iter t f =
  for i = 0 to t.n - 1 do
    f t.tuples.(i)
  done
