type iso = Read_committed | Si | Serializable

type state = Active | Preparing | Committed | Aborted

type write_entry = { wtable : Table.t; wtuple : Tuple.t; wversion : Version.t }

type read_entry = { rtable : Table.t; rtuple : Tuple.t; observed : int64 }

type t = {
  id : int;
  begin_ts : int64;
  iso : iso;
  worker : int;
  ctx : int;
  mutable state : state;
  mutable commit_ts : int64 option;
  mutable commit_lsn : int option;
  mutable writes : write_entry list;
  mutable reads : read_entry list;
  mutable undo : (unit -> unit) list;
  mutable latch_plan : Tuple.t array;
  mutable latched : int;
}

let iso_to_string = function
  | Read_committed -> "read-committed"
  | Si -> "snapshot-isolation"
  | Serializable -> "serializable"

let state_to_string = function
  | Active -> "active"
  | Preparing -> "preparing"
  | Committed -> "committed"
  | Aborted -> "aborted"

let make ~id ~begin_ts ~iso ~worker ~ctx =
  {
    id;
    begin_ts;
    iso;
    worker;
    ctx;
    state = Active;
    commit_ts = None;
    commit_lsn = None;
    writes = [];
    reads = [];
    undo = [];
    latch_plan = [||];
    latched = 0;
  }

let is_active t = t.state = Active

let rec own_in tuple = function
  | [] -> Version.nil
  | w :: rest -> if w.wtuple == tuple then w.wversion else own_in tuple rest

let own_version t tuple = own_in tuple t.writes

let on_abort t f = t.undo <- f :: t.undo

let pp ppf t =
  Format.fprintf ppf "txn%d[%s %s w%d.c%d begin=%Ld writes=%d]" t.id
    (state_to_string t.state) (iso_to_string t.iso) t.worker t.ctx t.begin_ts
    (List.length t.writes)
