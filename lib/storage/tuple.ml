type t = { oid : int; mutable chain : Version.t option; latch : Latch.t }

(* One latch per record; a constant name keeps formatting off the load and
   insert paths. *)
let create ~oid = { oid; chain = None; latch = Latch.create ~name:"tuple" () }

let install t v =
  v.Version.next <- t.chain;
  t.chain <- Some v

let unlink_in_flight t ~writer =
  match t.chain with
  | Some v when v.Version.writer = Some writer -> t.chain <- v.Version.next
  | Some head ->
    (* The writer's in-flight version can sit below the head if another
       transaction squeezed a version in above it (e.g. under an injected
       first-updater-wins fault, or after a concurrent GC pass touched the
       chain).  Eagerly splice it out wherever it is so aborted garbage
       never lingers for visibility rules to skip. *)
    let rec splice prev =
      match prev.Version.next with
      | Some v when v.Version.writer = Some writer -> prev.Version.next <- v.Version.next
      | Some v -> splice v
      | None -> ()
    in
    splice head
  | None -> ()

let head t = t.chain

let data_of = function None -> None | Some v -> v.Version.data

let read_si t ~snapshot ~reader =
  data_of (Version.snapshot_read t.chain ~snapshot ~reader)

let read_committed t = data_of (Version.latest_committed t.chain)
