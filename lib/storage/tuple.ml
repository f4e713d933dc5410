type t = {
  oid : int;
  mutable chain : Version.t;
  mutable owner : int;
  mutable depth : int;
  mutable contended : int;
}

let free = -1

let create ~oid = { oid; chain = Version.nil; owner = free; depth = 0; contended = 0 }

let head t = t.chain
let install t v = t.chain <- Version.push v ~onto:t.chain
let unlink_in_flight t ~writer = t.chain <- Version.unlink_in_flight t.chain ~writer
let read_committed t = (Version.latest_committed t.chain).Version.data

let try_acquire t ~owner =
  if t.owner = free then begin
    t.owner <- owner;
    t.depth <- 1;
    true
  end
  else if t.owner = owner then begin
    t.depth <- t.depth + 1;
    true
  end
  else begin
    t.contended <- t.contended + 1;
    false
  end

let release t ~owner =
  if t.owner <> owner || owner = free then
    invalid_arg (Printf.sprintf "Tuple.release: oid %d not held by txn %d" t.oid owner);
  t.depth <- t.depth - 1;
  if t.depth = 0 then t.owner <- free

let holder t = t.owner
let contended_count t = t.contended
