(** The simulated clock.

    Every simulated machine owns exactly one clock. Kernel paths charge
    cost by calling {!advance}; measurement code brackets an operation
    with {!lap} to read how much simulated time it consumed. The clock
    only moves forward. *)

type t

val create : unit -> t
(** A fresh clock at time zero. *)

val now : t -> Duration.t
(** Simulated time elapsed since the clock was created. *)

val advance : t -> Duration.t -> unit
(** Charge a cost: move the clock forward by the given duration. *)

val advance_to : t -> Duration.t -> unit
(** Move the clock to an absolute time, if it is in the future;
    otherwise does nothing (time never goes backwards). *)

val lap : t -> (unit -> 'a) -> 'a * Duration.t
(** [lap c f] runs [f ()] and returns its result together with the
    simulated time consumed while it ran. *)
