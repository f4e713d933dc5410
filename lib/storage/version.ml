type t = {
  mutable data : Value.t option;
  mutable begin_ts : int64;
  mutable writer : int;
  mutable next : t;
}

let in_flight_ts = Int64.max_int
let no_writer = -1

(* The sentinel reads as a committed tombstone older than every timestamp:
   a walk that reaches it finds no row, and "committed after my snapshot"
   tests against it are false.  Callers that must tell "no version" apart
   from a version still check [is_nil]. *)
let rec nil = { data = None; begin_ts = Int64.min_int; writer = no_writer; next = nil }

let is_nil v = v == nil

let committed ?(ts = Timestamp.bootstrap) data =
  { data; begin_ts = ts; writer = no_writer; next = nil }

let in_flight ~writer data = { data; begin_ts = in_flight_ts; writer; next = nil }

(* Version nodes churn fast (every write installs one, every abort or GC
   unlink retires one) and live just long enough to be promoted out of the
   minor heap, which is the worst case for the GC.  The pool threads retired
   nodes into a freelist through their [next] field; recycling a node costs
   a few mutations instead of a fresh five-word block plus promotion. *)
type pool = { mutable free_list : t }

let pool_create () = { free_list = nil }

let release p v =
  if v == nil then invalid_arg "Version.release: nil";
  (* Drop the payload and writer so the pool retains no row data and no
     stale visibility state; a node still reachable from a chain must never
     be released (the choke points — abort, GC unlink — guarantee that). *)
  v.data <- None;
  v.writer <- no_writer;
  v.begin_ts <- 0L;
  v.next <- p.free_list;
  p.free_list <- v

let in_flight_of p ~writer data =
  let v = p.free_list in
  if v == nil then in_flight ~writer data
  else begin
    p.free_list <- v.next;
    v.data <- data;
    v.begin_ts <- in_flight_ts;
    v.writer <- writer;
    v.next <- nil;
    v
  end

let is_committed v = v.writer < 0
let written_by v txn = v.writer >= 0 && v.writer = txn

let stamp v ts =
  if is_committed v then invalid_arg "Version.stamp: already committed";
  v.begin_ts <- ts;
  v.writer <- no_writer

let set_data v data =
  if v == nil then invalid_arg "Version.set_data: nil";
  v.data <- data

let visible v ~snapshot ~reader =
  if v.writer >= 0 then v.writer = reader
  else v != nil && Int64.compare v.begin_ts snapshot <= 0

(* -- chains ------------------------------------------------------------- *)

let push v ~onto =
  v.next <- onto;
  v

let older v = v.next

let unlink_in_flight head ~writer =
  if head == nil then head
  else if head.writer = writer then head.next
  else begin
    (* The writer's in-flight version can sit below the head if another
       transaction squeezed a version in above it (e.g. under an injected
       first-updater-wins fault).  Splice it out wherever it is so aborted
       garbage never lingers for visibility rules to skip. *)
    let rec splice prev =
      let v = prev.next in
      if v == nil then ()
      else if v.writer = writer then prev.next <- v.next
      else splice v
    in
    splice head;
    head
  end

let rec latest_committed v = if v.writer < 0 then v else latest_committed v.next

let rec snapshot_read v ~snapshot ~reader =
  if v == nil || visible v ~snapshot ~reader then v
  else snapshot_read v.next ~snapshot ~reader

let rec boundary_version v ~boundary =
  if v == nil || (v.writer < 0 && Int64.compare v.begin_ts boundary <= 0) then v
  else boundary_version v.next ~boundary

let rec fold f acc v = if v == nil then acc else fold f (f acc v) v.next

let chain_length chain = fold (fun n _ -> n + 1) 0 chain

let committed_length chain =
  fold (fun n v -> if is_committed v then n + 1 else n) 0 chain

let truncate_older_than ?release chain ~boundary =
  let kept = boundary_version chain ~boundary in
  if kept == nil then 0
  else begin
    (* [kept] is the newest version visible at [boundary]: every snapshot
       at or above the boundary reads it or newer, so everything older is
       dead.  Cut here, handing each dropped node to [release] (which may
       repurpose its [next] field — hence the older-link read first). *)
    let dropped =
      match release with
      | None -> chain_length kept.next
      | Some rel ->
        let rec free n d =
          if d == nil then n
          else begin
            let older = d.next in
            rel d;
            free (n + 1) older
          end
        in
        free 0 kept.next
    in
    kept.next <- nil;
    dropped
  end

let well_formed chain =
  (* [above] is the nearest committed version above [v], or [nil] *)
  let rec check ~at_head ~above v =
    if v == nil then true
    else if not (is_committed v) then at_head && check ~at_head:false ~above v.next
    else if above != nil && Int64.compare v.begin_ts above.begin_ts >= 0 then false
    else check ~at_head:false ~above:v v.next
  in
  check ~at_head:true ~above:nil chain
