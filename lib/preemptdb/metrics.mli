(** Per-class latency and throughput collection. *)

type class_stats = {
  end_to_end : Sim.Histogram.t;  (** submitted → finished, committed only *)
  scheduling : Sim.Histogram.t;  (** submitted → first micro-op *)
  commit_wait : Sim.Histogram.t;
      (** durable commit waits only: commit-marker publish → ack (0 when
          the LSN was already durable at publish); 2PC gate waits are not
          recorded *)
  mutable committed : int;
  mutable aborted : int;  (** terminal aborts (user aborts + exhausted retries) *)
  mutable aborted_conflict : int;  (** by last abort reason: write conflict *)
  mutable aborted_validation : int;
  mutable aborted_deadlock : int;
  mutable aborted_user : int;
  mutable exhausted : int;
      (** subset of [aborted]: the per-request retry budget ran out *)
  mutable shed : int;  (** backlog entries deadline-shed by the scheduler *)
}

type t

val create : ?timeline_window:int64 -> unit -> t
(** [timeline_window] (virtual cycles, must be positive) additionally
    buckets every committed transaction's end-to-end latency by its finish
    time into per-class {!Obs.Timeline}s — the Fig. 1-style interval
    series.  Omitted: no time-series are kept. *)

val record_finish : ?exhausted:bool -> t -> Request.t -> unit
(** Called once when a request's program finishes (committed or aborted).
    [exhausted] marks a terminal abort caused by the retry budget. *)

val record_shed : t -> string -> unit
(** A deadline-based load shed of a backlog entry of the given class. *)

val record_commit_wait : t -> string -> int64 -> unit
(** Cycles a commit spent waiting for durability (parked or spinning). *)

val record_drop : t -> unit
(** An admission-control drop (backlog cap exceeded). *)

val drops : t -> int

val committed_total : t -> int
val aborted_total : t -> int
val exhausted_total : t -> int
val shed_total : t -> int
(** Sums over all classes — the request-conservation ledger entries. *)

val classes : t -> (string * class_stats) list
(** Sorted by class name. *)

val timelines : t -> (string * Obs.Timeline.t) list
(** Per-class interval series (empty when {!create} had no
    [timeline_window]), sorted by class name. *)

val find : t -> string -> class_stats option

val committed : t -> string -> int
(** 0 for unknown classes. *)

val throughput_ktps : t -> string -> horizon:int64 -> clock:Sim.Clock.t -> float
(** Committed transactions per millisecond ( = kTPS) over the horizon. *)

val latency_us : t -> string -> pct:float -> clock:Sim.Clock.t -> float option
(** End-to-end latency percentile in µs; [None] when no samples. *)

val sched_latency_us : t -> string -> pct:float -> clock:Sim.Clock.t -> float option

val commit_wait_us : t -> string -> pct:float -> clock:Sim.Clock.t -> float option
(** Commit-wait percentile in µs; [None] when no samples (durability
    off or the class never committed). *)

val geomean_latency_us : t -> string -> clock:Sim.Clock.t -> float option
(** Exact geometric mean of end-to-end latencies (a running accumulator of
    log-latencies, not a histogram readback) — the Fig. 13 metric. *)
