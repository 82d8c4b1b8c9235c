open Aurora_vm
open Aurora_posix

type t = {
  pid : int;
  mutable ppid : int;
  mutable name : string;
  mutable container : int;
  mutable threads : Thread.t list;
  vm : Vmmap.t;
  mutable fdtable : Fd.table;
  mutable cwd : string;
  mutable exit_status : int option;
  mutable next_tid : int;
}

let create ~pid ~ppid ~name ~container ~vm ~program =
  let main = Thread.create ~tid:1 ~program in
  { pid; ppid; name; container; threads = [ main ]; vm;
    fdtable = Fd.create_table (); cwd = "/"; exit_status = None; next_tid = 2 }

let main_thread t =
  match t.threads with
  | main :: _ -> main
  | [] -> invalid_arg "Process.main_thread: no threads"

let thread t tid = List.find_opt (fun th -> th.Thread.tid = tid) t.threads

let add_thread t ~program =
  let th = Thread.create ~tid:t.next_tid ~program in
  t.next_tid <- t.next_tid + 1;
  t.threads <- t.threads @ [ th ];
  th

let live_threads t = List.filter (fun th -> not (Thread.is_exited th)) t.threads
let is_zombie t = t.exit_status <> None
