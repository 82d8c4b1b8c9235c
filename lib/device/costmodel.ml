open Aurora_simtime

let syscall_entry = Duration.nanoseconds 400
let context_switch = Duration.nanoseconds 1_200
let page_fault_trap = Duration.nanoseconds 800
let cow_fault_service = Duration.nanoseconds 3_000
let zero_fill_fault = Duration.nanoseconds 1_500

let per_page ns_per_page pages =
  if pages < 0 then invalid_arg "Costmodel: negative page count";
  Duration.nanoseconds (int_of_float (Float.round (ns_per_page *. float_of_int pages)))

let cow_arm ~pages = per_page 9.8 pages
let pte_map ~pages = per_page 0.7 pages
let page_copy ~pages = per_page 250.0 pages

let quiesce_proc = Duration.microseconds 3
let quiesce_thread = Duration.nanoseconds 600

let serialize_proc_base = Duration.microseconds 25
let serialize_thread = Duration.microseconds 4
let serialize_object = Duration.microseconds 2
let serialize_vm_entry = Duration.nanoseconds 1_500
let serialize_vmobj = Duration.nanoseconds 700

let restore_proc_base = Duration.microseconds 8
let restore_thread = Duration.microseconds 3
let restore_object = Duration.nanoseconds 250
let restore_vm_entry = Duration.nanoseconds 500
let vmspace_create = Duration.microseconds 120
let restore_orchestrator_base = Duration.microseconds 230

let implicit_restore_discount = 0.85

let ckpt_retire = Duration.microseconds 2
