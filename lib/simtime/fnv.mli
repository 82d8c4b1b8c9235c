(** 64-bit FNV-1a, the one checksum of every on-disk and on-wire
    format: object-store blocks, superblocks and generation tables
    (where it doubles as the dedup key), checkpoint images, replication
    frames, and the flight recorder's ring and black box. *)

val fnv1a : string -> int64
