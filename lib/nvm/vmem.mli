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

val zero : t -> addr -> int -> unit
(** [zero t a n] stores [0L] at words [\[a, a + n)], as [n] {!store}s
    would, in one fill. *)

val size : t -> int
(** Current high-water mark of allocated words. *)

type snapshot
(** An immutable copy of a memory's contents. *)

val snapshot : ?prev:snapshot -> t -> snapshot
(** Capture the memory.  Its words are held in fixed-size pages; a
    page whose contents equal the same page of [prev] is shared with
    [prev] instead of copied, so a series of snapshots of a memory
    that changes in few places costs little more than one. *)

val of_snapshot : snapshot -> t
(** A fresh memory with the snapshot's contents and size, sharing no
    storage with the snapshot or its source. *)

val snapshot_words : ?prev:snapshot -> snapshot -> int
(** The words a snapshot holds that [prev] does not share. *)
