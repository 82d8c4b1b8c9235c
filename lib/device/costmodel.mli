(** CPU-side cost model for simulated kernel operations.

    Every constant is calibrated against either public microarchitecture
    data (Skylake-SP, the paper's testbed CPU) or back-solved from the
    paper's own breakdowns so that the *mechanisms* — not the tables —
    produce the numbers. Per-item costs are exposed as batch functions
    ([~pages:int -> Duration.t]) so sub-nanosecond per-item rates do not
    lose precision to integer rounding.

    Calibration notes (see DESIGN.md §3 for the experiment mapping):
    - [cow_arm]: Table 3 reports 5145.9 us of lazy data copy for a full
      checkpoint of a 2 GiB (524,288-page) working set, i.e. ~9.8 ns per
      page of PTE write-protection with amortized TLB shootdown.
    - [pte_map]: Table 4 reports 494.4 us of memory-state restore for
      the same working set with no data copied — pure mapping
      recreation, ~0.7 ns per batched PTE insert plus per-entry and
      per-space bases.
    - Serialization costs reproduce the ~240–270 us metadata-copy rows
      given a Redis-scale object population (tens of descriptors,
      ~100 address-space entries, a few threads). *)

open Aurora_simtime

val syscall_entry : Duration.t
(** Trap + dispatch of one system call (~400 ns on Skylake). *)

val context_switch : Duration.t
(** Involuntary thread switch including scheduler work (~1.2 us). *)

val page_fault_trap : Duration.t
(** Fault trap + VM lookup before any handling (~800 ns). *)

val cow_fault_service : Duration.t
(** Servicing one copy-on-write fault: frame allocation, 4 KiB copy,
    remap (~3 us — the paper attributes most checkpoint overhead to
    "servicing COW faults while the application runs"). *)

val zero_fill_fault : Duration.t
(** Demand-zero fault service (~1.5 us). *)

val cow_arm : pages:int -> Duration.t
(** Write-protecting [pages] PTEs during the checkpoint barrier
    ("applying COW tracking through page table manipulations"). *)

val pte_map : pages:int -> Duration.t
(** Batched insertion of [pages] mappings during restore. *)

val page_copy : pages:int -> Duration.t
(** Memory-to-memory copy of [pages] 4 KiB pages at DRAM bandwidth. *)

val quiesce_proc : Duration.t
(** Parking one process at the checkpoint barrier: IPI, run-queue
    removal, wait for the in-flight syscall to reach a quiescent
    point (~3 us). Charged inside the stop window, before metadata
    serialization begins. *)

val quiesce_thread : Duration.t
(** Per-thread share of the barrier rendezvous (~0.6 us). *)

val serialize_proc_base : Duration.t
(** Fixed cost to serialize one process record (credentials, signal
    state, session linkage — ~25 us). *)

val serialize_thread : Duration.t
(** One thread context: registers, FPU state, kernel stack (~4 us). *)

val serialize_object : Duration.t
(** One generic POSIX object record (~2 us). *)

val serialize_vm_entry : Duration.t
(** One address-space map entry (~1.5 us). *)

val serialize_vmobj : Duration.t
(** One VM object's metadata record (kind, shadow link, hot set —
    ~0.7 us; the page contents are captured separately). *)

val restore_proc_base : Duration.t
val restore_thread : Duration.t
val restore_object : Duration.t
(** Recreating one POSIX object from its record (~0.25 us; cheap
    because the image parse pre-populates the registry). *)

val restore_vm_entry : Duration.t
val vmspace_create : Duration.t
(** Creating an empty address space: pmap allocation, kernel
    bookkeeping (~120 us). *)

val restore_orchestrator_base : Duration.t
(** Fixed orchestrator cost per restore: image lookup, registry
    setup, persistence-group bookkeeping (~230 us). *)

val implicit_restore_discount : float
(** Multiplier (< 1) applied to memory/metadata restore costs when the
    checkpoint is being read from a backing store, because "reading in
    the checkpoint implicitly restores some application state"
    (Table 4's disk column). *)

val ckpt_retire : Duration.t
(** Completion-side cost of retiring one pipelined checkpoint epoch
    when its generation's writes land: finalizing the breakdown,
    closing the flush span, releasing the epoch's bookkeeping (~2 us,
    charged off the stop path — this is the CPU half of "background
    flush"). *)
