(** Cycle costs of transaction micro-operations.

    Calibrated for a 2.4 GHz memory-resident engine: a latch-free version
    read costs ≈ 80 ns (a couple of cache misses), a B+tree probe ≈ 100 ns,
    a leaf-chained scan step ≈ 25 ns.  These put NewOrder at ≈ 25–35 µs and
    the scaled Q2 at ≈ 1.5–2 ms of service time — the same orders of
    magnitude as the paper's testbed. *)

type t = {
  index_probe : int;
  index_insert : int;
  index_remove : int;
  scan_step : int;
  record_read : int;
  record_write : int;
  record_insert : int;
  txn_begin : int;
  commit_latch : int;
  commit_validate : int;
  commit_install_base : int;
  commit_install_per_write : int;
  txn_abort : int;
  gc_scan : int;  (** inspect one chain (a pointer chase, cache-miss bound) *)
  gc_unlink_base : int;
  gc_unlink_per_version : int;  (** per version cut off the chain *)
  commit_wait_publish : int;
      (** publish a wait token to its waker ([Wait]'s charge, either kind
          — parking itself is free, the context just stops running) *)
  commit_unpark : int;
      (** reinstall a parked context after the unpark interrupt *)
  commit_wait_spin : int;
      (** blocking ablations (either wait kind): one re-check quantum *)
}

val default : t

val cycles : t -> Workload.Program.op -> int
(** Cost of one micro-op.  [Compute n] and [Spin n] cost [n];
    [Yield_hint] costs 0. *)
