(** String escaping for the JSON and HTML every report writes. *)

val json : string -> string
(** The body of a JSON string literal, without the surrounding quotes:
    double quote and backslash are backslash-escaped, every other control
    character becomes a [\u00XX] escape. *)

val html : string -> string
(** Text safe inside an HTML element or a double-quoted attribute:
    ampersand, angle brackets and double quote become entities. *)
