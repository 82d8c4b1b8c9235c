(** The one JSON value type and printer behind every machine-readable
    output: the metrics export, the Chrome traces, the critical-path
    and probe reports, every [sls ... --json] command and the bench
    results file.

    The printer produces valid JSON whatever the input bytes:
    - strings that are valid UTF-8 pass through unchanged, except that
      double quotes and backslashes are backslash-escaped and control
      characters (U+0000..U+001F) become [\uXXXX];
    - each ill-formed UTF-8 subsequence becomes one U+FFFD;
    - non-finite floats print as [null];
    - other floats print as the shorter of [%.15g] and [%.17g] that
      reads back to the same float.

    Objects print as [{"k": v, "k2": v2}] and lists as [[a, b]], on one
    line. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val fixed : int -> float -> t
(** [fixed digits v] is [v] rounded to [digits] decimal places: the
    value [Printf.sprintf "%.*f" digits v] denotes. For outputs that
    have always been rounded. *)
