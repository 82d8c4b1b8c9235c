(** Containers (FreeBSD jails, lightly): the persistence-group roots.

    Aurora persists "individual processes, process trees or
    containers"; a container here is a named process grouping with its
    own id. Container 0 is the host. *)

type t = { cid : int; name : string }

val host : t
