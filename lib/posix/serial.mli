(** Binary serialization for checkpoint records.

    Every first-class POSIX object serializes itself through this
    module into real bytes — the resulting record sizes are what the
    object store charges to the storage devices, so serialization is
    not token-level pretend: a pipe with a full buffer genuinely costs
    more blocks than an empty one.

    Encoding: little-endian fixed-width integers, length-prefixed
    strings, tag bytes for options/lists. Readers validate lengths and
    raise {!Corrupt} rather than returning garbage. *)

type writer

val writer : unit -> writer
val w_u8 : writer -> int -> unit
val w_int : writer -> int -> unit
(** 63-bit OCaml int, 8 bytes on the wire. *)

val w_int64 : writer -> int64 -> unit
val w_bool : writer -> bool -> unit
val w_string : writer -> string -> unit
val w_option : writer -> (writer -> 'a -> unit) -> 'a option -> unit
val w_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val contents : writer -> string

type reader

exception Corrupt of string

val truncated : string -> pos:int -> len:int -> 'a
(** Raises the {!Corrupt} a reader raises when it needs [len] bytes at
    [pos] of the given record and they are not there — for decoders that
    check a record without a {!reader} and must report the same. *)

val reader : string -> reader
val r_u8 : reader -> int
val r_int : reader -> int
val r_int64 : reader -> int64
val r_bool : reader -> bool
val r_string : reader -> string
val r_option : reader -> (reader -> 'a) -> 'a option
val r_list : reader -> (reader -> 'a) -> 'a list
val at_end : reader -> bool
val expect_end : reader -> unit
(** Raises {!Corrupt} if trailing bytes remain — catches records that
    were framed incorrectly. *)
