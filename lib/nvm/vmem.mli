(** Transient (volatile DRAM) memory.

    A growable array of 8-byte words, held unboxed in the same
    byte-backed word store as {!Pmem}.  Its entire contents vanish at a
    crash — the simulator simply discards the structure.  Used for the
    hybrid machine's DRAM portion (Fig. 1) and for transient mutexes
    under indirect locking (Sec. III-B). *)

type addr = int
type t

val create : ?initial:int -> unit -> t
val load : t -> addr -> int64
(** Words never stored read [0L], at any address, negative ones too. *)

val store : t -> addr -> int64 -> unit
(** Grows the memory on demand.
    @raise Invalid_argument on a negative address. *)

val alloc : t -> int -> addr
(** Bump-allocate [n] fresh zeroed words and return their base. *)

val size : t -> int
(** Current high-water mark of allocated words. *)

val copy : t -> t
(** An independent copy: same contents and size, no shared storage. *)
