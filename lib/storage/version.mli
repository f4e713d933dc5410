(** Record versions and version chains (§2.2).

    Each record is an ordered new-to-old chain of versions, each tagged with
    the commit timestamp of its creating transaction.  An in-flight
    (uncommitted) version sits at the head with [begin_ts = in_flight_ts]
    and its writer's id; it becomes visible to others when the committing
    transaction stamps it.  Reads never take locks — the key property that
    makes pausing a preempted reader safe.

    Layout: a version is one five-word heap block (header, payload,
    timestamp, writer, older link).  The writer is a plain int ([-1] once
    committed) and the older link points straight at the next version; every
    chain ends at the one shared {!nil} sentinel.  A chain is named by its
    head version ({!nil} for an empty chain), so installing, reading and
    committing allocate nothing beyond the version block itself.  The record
    is [private]: only this module relinks chains or rewrites versions. *)

type t = private {
  mutable data : Value.t option;  (** [None] is a delete tombstone *)
  mutable begin_ts : int64;
  mutable writer : int;  (** creating txn while in flight; [-1] once committed *)
  mutable next : t;  (** older version; {!nil} ends the chain *)
}

val nil : t
(** The end of every chain and the empty chain.  It reads as a committed
    tombstone older than every timestamp ([begin_ts = Int64.min_int]), so a
    walk that reaches it finds no row and "committed after my snapshot"
    tests against it are false; {!visible} still rejects it.  Never
    stamped, rewritten or released; its own [next] is itself. *)

val is_nil : t -> bool

val in_flight_ts : int64
(** Sentinel [begin_ts] of uncommitted versions ([Int64.max_int]). *)

val committed : ?ts:int64 -> Value.t option -> t
(** A committed version (default [ts]: {!Timestamp.bootstrap}). *)

val in_flight : writer:int -> Value.t option -> t

type pool
(** Freelist of retired version nodes, threaded through their [next]
    fields.  Write-heavy runs churn one node per installed write; recycling
    through the pool keeps that churn out of the minor heap (and, worse,
    out of promotion — nodes live just long enough to be tenured). *)

val pool_create : unit -> pool

val in_flight_of : pool -> writer:int -> Value.t option -> t
(** {!in_flight}, served from the pool's freelist when it has a node. *)

val release : pool -> t -> unit
(** Return a node to the pool.  The caller must guarantee the node is no
    longer reachable from any chain — the explicit choke points are
    transaction abort (the unlinked in-flight version) and GC unlink (the
    truncated suffix).  The payload and writer are cleared so the pool
    retains no row data.  @raise Invalid_argument on {!nil}. *)

val is_committed : t -> bool

val written_by : t -> int -> bool
(** [written_by v txn]: [v] is in flight and was installed by [txn]. *)

val stamp : t -> int64 -> unit
(** Commit an in-flight version with the given commit timestamp.
    @raise Invalid_argument if already committed. *)

val set_data : t -> Value.t option -> unit
(** Rewrite a version's payload in place: a transaction's second write to
    its own in-flight version, or recovery replaying a record it has
    already installed. *)

val visible : t -> snapshot:int64 -> reader:int -> bool
(** A version is visible when the reader wrote it, or it committed at or
    before the reader's snapshot.  {!nil} is never visible. *)

(** {1 Chains}

    Every function below takes a chain by its head version. *)

val push : t -> onto:t -> t
(** [push v ~onto:head] links [v] above [head] and returns [v], the new
    head. *)

val older : t -> t
(** The next-older version ({!nil} below the tail and below {!nil}). *)

val unlink_in_flight : t -> writer:int -> t
(** Abort path: splice [writer]'s in-flight version out of the chain,
    wherever it sits, and return the (possibly new) head.  Usually it is
    the head, but another writer can squeeze a version in above it under an
    injected fault.  The chain is returned unchanged when [writer] has no
    version in it. *)

val latest_committed : t -> t
(** First committed version in a chain (skipping in-flight heads) — the
    read-committed read rule.  {!nil} when there is none. *)

val snapshot_read : t -> snapshot:int64 -> reader:int -> t
(** First visible version in a chain — the SI read rule.  {!nil} when there
    is none. *)

val boundary_version : t -> boundary:int64 -> t
(** The newest committed version with [begin_ts <= boundary] — the one
    every snapshot at or above [boundary] reads, or something newer.
    {!nil} when no committed version is that old. *)

val chain_length : t -> int

val committed_length : t -> int
(** Committed versions only (the in-flight head, if any, is not counted). *)

val truncate_older_than : ?release:(t -> unit) -> t -> boundary:int64 -> int
(** Epoch reclamation's unlink micro-op: cut the chain immediately below
    its {!boundary_version}, returning the number of versions dropped.
    [release] (when given) receives each dropped node, newest first — the
    pool recycling hook.  The suffix is unreachable: every snapshot at or
    above [boundary] reads the boundary version or something newer.
    Tombstones qualify as boundary versions like any committed version — a
    reader must keep seeing the delete.  When no committed version is old
    enough the chain is left untouched and [0] is returned. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** New-to-old fold over a chain. *)

val well_formed : t -> bool
(** Committed timestamps strictly decrease along the chain, and at most the
    head is in-flight — the chain invariant checked by property tests. *)
