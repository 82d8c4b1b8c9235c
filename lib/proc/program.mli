(** The program registry: simulated binaries.

    A program is OCaml code interpreting a {!Context.t} state machine —
    the analogue of an executable on disk. Checkpoints never serialize
    code, only the program {e name} plus the context (pc, registers)
    and whatever the program keeps in simulated memory and kernel
    objects; restore looks the name up here and resumes. The registry
    is global and populated at module-initialization time by the
    applications library. *)

type step_result =
  | Continue            (** made progress; run again when scheduled *)
  | Yield               (** voluntarily give up the remainder of the quantum *)
  | Block of Thread.wait
  | Exit_program of int (** terminate the process with this status *)

type step_fn = Kernel.t -> Process.t -> Thread.t -> step_result

val register : name:string -> step_fn -> unit
(** Re-registration replaces (supports test fixtures). *)

val find : string -> step_fn option
