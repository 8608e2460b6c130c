(** A fixed-length array of unboxed 64-bit words: the one word store
    behind {!Pmem} (its persisted prefix, dirty-line slots and
    checkpoints) and {!Vmem}.  Private to this library. *)

type t

val create : int -> t
(** [create n] is [n] zero words. *)

val length : t -> int
val get : t -> int -> int64
val set : t -> int -> int64 -> unit

val blit : t -> int -> t -> int -> int -> unit
(** [blit src si dst di n] copies [n] words. *)

val zero : t -> int -> int -> unit
(** [zero t i n] zeroes words [\[i, i + n)]. *)

val sub : t -> int -> int -> t
val copy : t -> t

val grow : t -> int -> keep:int -> t
(** [grow t n ~keep] is a fresh [n]-word store holding [t]'s first
    [keep] words and zeroes after them. *)
