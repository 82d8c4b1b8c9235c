(** Checkpoint shipping: the machinery behind `sls send` / `sls recv`.

    A checkpoint generation is exported as one self-contained byte
    image — "all information required to recreate the application,
    even across reboots and machines" — and imported into another
    store as a fresh generation. Writing it to a file (the CLI's pipe
    mode) models migration; {!Replica} carries the same bytes over a
    network link for remote persistence.

    A full export reads each record and each page of the image once.
    A delta export against a base generation reads the same records and
    only the pages and blobs whose block differs from the base's,
    found by a tree diff that skips the index both generations share
    ({!Store.page_map}), so neither the sender nor the wire pays for
    what did not change. Export reads pages as restore does, and import
    writes them as a checkpoint does (one {!Store.put_page_columns} per
    object). *)

open Aurora_simtime
open Aurora_objstore

val export :
  Store.t -> gen:Store.gen -> pgid:int -> ?base:Store.gen -> unit -> string
(** Serialize everything the group's checkpoint needs, the file system
    included: the records {!Restore.records} reads, in its order, then
    the flight-recorder ring and the file system's. With [base], a page
    or blob whose block is the same in the base generation is omitted
    (an incremental shipment; the receiver must already hold the base);
    a base the store does not hold exports everything. Pages go in
    ascending page index, read as one batched [Background] command per
    device ({!Store.read_page_blocks}) and charged to the clock. Raises
    {!Restore.Error} when the generation holds no checkpoint of [pgid]
    or a referenced record is missing, and {!Store.Fail}
    ([Unreadable_block]) when no copy of a page can be read. *)

val import : Store.t -> string -> Store.gen * Duration.t
(** Write an exported image into the store as a new generation; returns
    it with its durability instant. Raises {!Restore.Error}
    ([Bad_image]) when the image fails its {!Serial.unseal} — a bit
    flipped, a byte cut or added in a file or on the wire is rejected
    before any record reaches the store. *)
