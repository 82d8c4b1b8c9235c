(** A CRIU-style checkpoint baseline, for comparison benches.

    CRIU "pieces together application state by querying the kernel
    through system calls and the proc file system" (§2) — from outside
    the kernel, which forces it to (a) pay syscall round-trips per
    queried object and (b) copy memory through the querying process
    rather than arming COW in the VM subsystem, stopping the
    application for the duration. This module reproduces that cost
    structure over the same serializers, so the Aurora-vs-CRIU gap in
    the F-baseline bench comes from the architecture, not from
    unrelated implementation differences.

    The output is a normal store generation: restore works with the
    standard engine. *)

open Aurora_proc

val checkpoint :
  Kernel.t -> Types.pgroup -> ?name:string -> unit -> Types.ckpt_breakdown
(** Stop-the-world checkpoint: metadata via syscall introspection,
    memory via full copy during the stop. [lazy_data_copy] holds the
    memory-copy time so the breakdown stays comparable with
    [Ckpt.capture]. *)
