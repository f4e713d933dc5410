(** The five TPC-C transactions as resumable {!Program}s.

    The paper uses NewOrder and Payment as the short, high-priority
    transactions of the mixed workload (§6.1) and the full five-transaction
    mix for the overhead experiment (Fig. 8).  Programs draw their inputs
    from the request's RNG stream ([env.rng]); the home warehouse is fixed
    at dispatch time (one warehouse per worker, as in the paper). *)

type kind = New_order | Payment | Order_status | Delivery | Stock_level

val kind_to_string : kind -> string

val standard_mix : Sim.Rng.t -> kind
(** Spec §5.2.3 weights: 45 % NewOrder, 43 % Payment, 4 % each of the
    rest. *)

val program : Tpcc_db.t -> kind -> home_w:int -> Program.t
(** Build one transaction instance.  [home_w] in [\[1, warehouses\]]. *)

val new_order : Tpcc_db.t -> home_w:int -> Program.t
val payment : Tpcc_db.t -> home_w:int -> Program.t
val order_status : Tpcc_db.t -> home_w:int -> Program.t
val delivery : Tpcc_db.t -> home_w:int -> Program.t
val stock_level : Tpcc_db.t -> home_w:int -> Program.t

(** {1 Transaction bodies}

    NewOrder and Payment with their inputs already drawn, run inside the
    caller's transaction, with the step that may touch another warehouse
    supplied by the caller.  {!new_order} and {!payment} draw the spec's
    inputs and pass the single-node steps; a sharded caller draws its own
    inputs and passes steps that skip the rows another shard owns. *)

val new_order_body :
  Tpcc_db.t ->
  Program.env ->
  Storage.Txn.t ->
  w:int ->
  d:int ->
  c:int ->
  lines:(int * int * int) list ->
  stock:(supply_w:int -> i:int -> qty:int -> unit) ->
  unit
(** Home warehouse [w], district [d], customer [c]; [lines] are
    [(item, supply warehouse, quantity)].  [stock] runs once per line,
    after the item read.  An item id below 0 aborts (the spec's
    rollback).  The orders row's all-local flag is set iff every line's
    supply warehouse is [w].
    @raise Program.Txn_failed on a conflict or rollback. *)

val stock_deduct :
  Tpcc_db.t -> Program.env -> Storage.Txn.t -> w:int -> i:int -> qty:int -> remote:bool -> unit
(** The single-node stock step: deduct [qty] of item [i] from warehouse
    [w]'s stock row, bumping its remote count when [remote]. *)

val payment_body :
  Tpcc_db.t ->
  Program.env ->
  Storage.Txn.t ->
  w:int ->
  d:int ->
  c_w:int ->
  c_d:int ->
  amount:float ->
  customer:(unit -> unit) ->
  unit
(** Pay [amount] into warehouse [w] and district [d], run [customer] (the
    customer-side step for the customer's warehouse [c_w], district
    [c_d]), then append the history row. *)

val customer_pay :
  Tpcc_db.t -> Program.env -> Storage.Txn.t -> w:int -> d:int -> c:int -> amount:float -> unit
(** Credit a payment to customer [c] (by id): balance, year-to-date
    payment and payment count.  Unlike {!payment}'s customer step it never
    rewrites a bad-credit customer's data. *)

val balance_check : Tpcc_db.t -> home_w:int -> Program.t
(** Minimal read-only lookup (one customer's balance) — the µs-scale
    "urgent" transaction used by the multi-level-priority extension. *)
