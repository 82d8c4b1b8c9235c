(** The cooperative, deterministic scheduler.

    Threads run in pid/tid order, one program step per quantum. Wait
    states are re-evaluated against kernel object state before each
    pass (the simulated wakeup path). When every live thread is
    asleep, the clock jumps to the earliest deadline; when every live
    thread is blocked on IO that nothing can progress, the machine is
    idle and control returns to the caller (the orchestrator's
    checkpoint timer typically runs next).

    Determinism matters: the paper's debugging story (bisecting
    checkpoint history, re-running from images) relies on reruns being
    reproducible, and so do this repo's tests. *)

open Aurora_simtime

type stop_reason =
  | Deadline      (** the clock reached the requested time *)
  | Idle          (** no thread can make progress *)
  | All_exited    (** no live threads remain *)

val step_all : Kernel.t -> int
(** One pass: run each runnable thread for one program step; returns
    the number of steps executed. *)

val run : Kernel.t -> until:Duration.t -> stop_reason
(** Run the machine to the given absolute simulated time (or until it
    idles / empties). *)

val run_until_idle : Kernel.t -> stop_reason
(** Run until no thread can progress. Raises [Invalid_argument] after
    10 million steps, a guard against livelock in buggy programs. *)
