(** Kernel-integrated record/replay (§4, "Debugging and Speculation").

    Once enabled for a persistence group, every byte entering the
    group from outside (stream traffic whose receiver is a member) is
    journaled to the group's record/replay log before delivery —
    transparently, through the same send-hook interposition point the
    external-consistency machinery uses. Each checkpoint truncates the
    journal, which is exactly how "Aurora integrates with record/replay
    systems to bound record log size by only keeping the records since
    the last checkpoint".

    {!rollback_and_replay} is the §4 failure workflow: "the
    application is rolled back to this checkpoint and replays the
    remaining log" — the recorded inputs are re-delivered into the
    restored endpoints, and the deterministic simulation reproduces
    the pre-failure execution exactly (asserted by the tests). *)

val record_input : Types.pgroup -> peer_oid:int -> string -> unit
(** Journal one boundary input (called by the machine's send hook;
    exposed for tests and for journaling non-socket nondeterminism). *)

val recorded : Types.pgroup -> (int * string) list
(** The journal since the last checkpoint: (destination endpoint oid,
    data), oldest first. *)

val on_checkpoint : Types.pgroup -> unit
(** Truncate the journal (the covering checkpoint captured its
    effects). *)

val replay : Aurora_proc.Kernel.t -> Types.pgroup -> int
(** Re-deliver every journaled input into its (restored) destination
    endpoint; returns how many were delivered. Entries whose endpoint
    no longer exists are skipped. *)
