(** A record: an OID-addressed version chain guarded by a latch.

    The latch is only taken by writers during installation and commit;
    readers traverse the chain latch-free (§2.2).

    The latch lives inline as integer fields, so a record is one six-word
    heap block and acquiring or releasing its latch allocates nothing.
    Latches are spin latches with no built-in deadlock detection, as in real
    engines (§4.4, footnote 4): acquisition by another transaction fails and
    the caller spins, charging cycles.  The deadlock the paper describes —
    context A paused while holding a latch, context B of the {e same}
    hardware thread spinning on it forever — is detectable because the
    simulator knows both contexts share a thread; {!Engine} raises
    {!Err.Deadlock} in that case when non-preemptible regions are
    disabled. *)

type t = private {
  oid : int;
  mutable chain : Version.t;  (** newest version; {!Version.nil} when empty *)
  mutable owner : int;  (** latch holder's txn id; [-1] when free *)
  mutable depth : int;  (** re-entrant acquisitions by [owner] *)
  mutable contended : int;  (** failed acquisition attempts *)
}

val create : oid:int -> t

val head : t -> Version.t
(** The chain's newest version ({!Version.nil} for a record with none). *)

val install : t -> Version.t -> unit
(** Prepend a version (the caller has checked write-conflict rules and holds
    the latch). *)

val unlink_in_flight : t -> writer:int -> unit
(** Abort path: {!Version.unlink_in_flight} on this record's chain. *)

val read_committed : t -> Value.t option
(** Latest-committed read.  [None] when there is no committed version or it
    is a tombstone. *)

(** {1 Latch} *)

val try_acquire : t -> owner:int -> bool
(** [try_acquire t ~owner] succeeds when free or already owned by [owner]
    (re-entrant, counted). *)

val release : t -> owner:int -> unit
(** @raise Invalid_argument when [owner] does not hold the latch. *)

val holder : t -> int
(** The holding transaction's id, [-1] when free. *)

val contended_count : t -> int
(** Number of failed acquisition attempts, for reporting. *)
