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
    ({!Store.fold_pages}), so neither the sender nor the wire pays for
    what did not change. *)

open Aurora_simtime
open Aurora_objstore

val export :
  Store.t -> gen:Store.gen -> pgid:int -> ?base:Store.gen -> unit -> string
(** Serialize everything the group's checkpoint needs, the file system
    included: the records {!Restore.records} reads, in its order, then
    the flight-recorder ring and the file system's. With [base], a page
    or blob whose block is the same in the base generation is omitted
    (an incremental shipment; the receiver must already hold the base);
    a base the store does not hold exports everything. Reads are
    charged to the clock (the sender really reads its store). Raises
    {!Restore.Error} when the generation holds no checkpoint of [pgid]
    or a referenced record is missing. *)

val import : Store.t -> string -> Store.gen * Duration.t
(** Write an exported image into the store as a new generation; returns
    it with its durability instant. Raises {!Restore.Error}
    ([Bad_image]) when the image fails its {!Serial.unseal} — a bit
    flipped, a byte cut or added in a file or on the wire is rejected
    before any record reaches the store. *)
