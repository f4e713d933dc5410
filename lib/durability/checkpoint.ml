module Engine = Storage.Engine
module Table = Storage.Table
module Tuple = Storage.Tuple
module Version = Storage.Version
module P = Workload.Program

(* Cycles to copy one live row into the checkpoint image. *)
let copy_cycles = 64

type t = {
  eng : Engine.t;
  log : Log.t;
  chunk_tuples : int;
  mutable table_idx : int;
  mutable next_oid : int;
  mutable pass_start_lsn : int;
  (* The pass under construction: tables scanned so far, newest first;
     rows of the table being scanned, newest first. *)
  mutable acc_done : (string * (int * Storage.Value.t option * int64) list) list;
  mutable acc_table : string option;
  mutable acc_rows : (int * Storage.Value.t option * int64) list;
  mutable passes_ : int;
  mutable chunks_ : int;
  mutable tuples_ : int;
  mutable emit : (Obs.Event.t -> unit) option;
}

let create ?(chunk_tuples = 256) ~eng ~log () =
  if chunk_tuples < 1 then invalid_arg "Checkpoint.create: need chunk_tuples >= 1";
  {
    eng;
    log;
    chunk_tuples;
    table_idx = 0;
    next_oid = 0;
    pass_start_lsn = Log.next_lsn log;
    acc_done = [];
    acc_table = None;
    acc_rows = [];
    passes_ = 0;
    chunks_ = 0;
    tuples_ = 0;
    emit = None;
  }

let passes t = t.passes_
let chunks t = t.chunks_
let tuples_scanned t = t.tuples_
let set_emit t f = t.emit <- f

let finish_table t =
  match t.acc_table with
  | None -> ()
  | Some name ->
    t.acc_done <- (name, List.rev t.acc_rows) :: t.acc_done;
    t.acc_table <- None;
    t.acc_rows <- []

(* A full pass scanned every table: publish the image.  Replay starts at
   the LSN the pass began at — records committed mid-pass may be both in
   the image and in the replayed suffix; recovery's install is idempotent
   by commit timestamp, so the double-apply is harmless. *)
let finish_pass t =
  finish_table t;
  let image = List.rev t.acc_done in
  let start_lsn = t.pass_start_lsn in
  Log.install_checkpoint t.log ~start_lsn image;
  t.acc_done <- [];
  t.passes_ <- t.passes_ + 1;
  t.pass_start_lsn <- Log.next_lsn t.log;
  match t.emit with
  | Some f ->
    f
      (Obs.Event.Ckpt_complete
         {
           start_lsn;
           tuples = List.fold_left (fun n (_, rows) -> n + List.length rows) 0 image;
         })
  | None -> ()

(* Claim the next OID range of the current table (see Maint.Reclaimer —
   same cursor discipline).  Claiming is uncharged and atomic; a wrap of
   the cursor completes the pass. *)
let rec claim_range t =
  let tables = Array.of_list (Engine.tables t.eng) in
  let n = Array.length tables in
  if n = 0 then None
  else if t.table_idx >= n then begin
    finish_pass t;
    t.table_idx <- 0;
    t.next_oid <- 0;
    claim_range t
  end
  else begin
    let table = tables.(t.table_idx) in
    if t.acc_table = None then t.acc_table <- Some (Table.name table);
    if t.next_oid >= Table.size table then begin
      finish_table t;
      t.table_idx <- t.table_idx + 1;
      t.next_oid <- 0;
      claim_range t
    end
    else begin
      let first = t.next_oid in
      let count = min t.chunk_tuples (Table.size table - first) in
      t.next_oid <- first + count;
      Some (table, first, count)
    end
  end

(* One preemptible checkpoint chunk, dispatched by the scheduler as a
   maintenance request.  Each tuple scan is a charged op, so a user
   interrupt can preempt the pass between tuples — the fuzzy-checkpoint
   read (latest committed version) happens in the uncharged instant after
   the charge, which the single-threaded simulation makes atomic. *)
let chunk_program t : P.t =
 fun _env ->
  (match claim_range t with
  | None -> ()
  | Some (table, first, count) ->
    for oid = first to first + count - 1 do
      P.charge P.Gc_scan;
      t.tuples_ <- t.tuples_ + 1;
      let tuple = Table.get table oid in
      let v = Version.latest_committed (Tuple.head tuple) in
      if not (Version.is_nil v) then begin
        P.charge (P.Compute copy_cycles);
        t.acc_rows <- (oid, v.Version.data, v.Version.begin_ts) :: t.acc_rows
      end
    done;
    t.chunks_ <- t.chunks_ + 1;
    match t.emit with
    | Some f ->
      f (Obs.Event.Ckpt_chunk { table = Table.name table; first_oid = first; tuples = count })
    | None -> ());
  P.Committed 0L
