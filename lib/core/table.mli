(** One result table: a title and rows of ordered [(column, value)]
    cells. Every bench section and CLI report builds its rows once as a
    [t] and renders them both ways from that one value, so the text on
    stdout and the committed JSON cannot drift apart.

    Formatting is one fixed rule per {!Tcjson.t} constructor, with no
    per-column options: [Int] as decimal, [Float] as [%.6g] (non-finite
    as [null], like the JSON emitter), [String] verbatim, [Bool] as
    [true]/[false], [Null] as [null]. *)

type t

(** [make title rows]. Raises [Invalid_argument] when a row's column
    names differ from the first row's (same names, same order), or when
    a cell is a [List] or [Obj]. *)
val make : string -> (string * Tcjson.t) list list -> t

(** A markdown pipe table under a [## title] heading, cells padded to
    the column width so it also reads as plain text. *)
val to_markdown : t -> string

(** The rows as a JSON list of objects, one per row, keys in column
    order. *)
val to_json : t -> Tcjson.t

(** Tables under their keys as one JSON object, keys in list order:
    the [data] of a [BENCH_<section>.json] file, and what
    [tokencmp profile -o] and [tokencmp faultrate -o] write. *)
val keyed_to_json : (string * t) list -> Tcjson.t
