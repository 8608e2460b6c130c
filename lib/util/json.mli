(** JSON string escaping shared by every NDJSON writer (obs events,
    diagnostics, traces, fuzz corpora, serve reports). *)

val escape : string -> string
(** Escape a string for inclusion inside a JSON string literal: quote,
    backslash, [\n], [\r] and [\t] get their short escapes, other
    control characters below 0x20 become [\u00XX], and every other
    byte is copied unchanged. *)
