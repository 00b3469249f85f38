(** Minimal JSON tree and emitter.

    The sweep orchestrator serializes experiment results for external
    plotting; a hand-rolled emitter keeps the repository dependency-free
    (no yojson).  Output is compact RFC 8259 JSON: strings are escaped,
    and non-finite floats — which JSON cannot represent — are emitted
    as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_string j] renders [j] compactly (no insignificant
    whitespace). *)
val to_string : t -> string

(** [to_buffer buf j] appends the rendering to [buf]. *)
val to_buffer : Buffer.t -> t -> unit

(** [of_string s] parses one JSON document (RFC 8259).  Numbers
    without a fraction or exponent that fit in an OCaml [int] become
    [Int], everything else [Float]; [\uXXXX] escapes (including
    surrogate pairs) decode to UTF-8.  The whole input must be
    consumed.  Errors report a byte offset. *)
val of_string : string -> (t, string) result

(** [read_lines path] parses every non-blank line of the JSONL file
    [path], in order; a torn or malformed line is an [Error], so a
    reader decides whether it is fatal. *)
val read_lines : string -> (t, string) result list

(** [write path j] writes [to_string j] followed by a newline. *)
val write : string -> t -> unit

(** {1 Field accessors}

    [None] for a missing field, a field of another type, or a
    non-object, so a decoder never raises on foreign input. *)

val field : t -> string -> t option
val int_field : t -> string -> int option

(** Also accepts an [Int]: the emitter writes an integer-valued float
    without a fraction ([0.0] as [0]), which parses back as an [Int]. *)
val float_field : t -> string -> float option

val string_field : t -> string -> string option
val bool_field : t -> string -> bool option

(** {1 Decoders}

    [need name v] is the value of [Some v] and raises [Missing name] on
    [None]; [decode f] is [Ok (f ())], or [Error name] for the field
    [f] found missing or malformed. *)

exception Missing of string
val need : string -> 'a option -> 'a
val decode : (unit -> 'a) -> ('a, string) result
