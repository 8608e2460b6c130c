(** Simulated byte-addressable nonvolatile memory behind a volatile
    write-back cache.

    The memory is an array of 8-byte words, held unboxed in a flat
    byte-backed store (writes are atomic at 8-byte granularity,
    matching the paper's assumption in Sec. II-A).  Stores land in a
    volatile cache-line overlay (8 words = 64 bytes per line); they
    reach the persistence domain only when the line is explicitly
    written back ([clwb]) or evicted.  Eviction order is
    pseudo-random — the "caches can write data back in arbitrary
    order" hazard of Sec. I.

    The overlay is a slot table, not a hashtable: each dirty line
    occupies one 8-word slot of a flat buffer, a line-indexed array
    maps a line to its slot, and the live slots are the dirty-line
    index.  A store, load or write-back costs a few array accesses
    and allocates nothing.

    A {e crash} discards the overlay: the post-crash contents are
    exactly the words that had persisted. *)

open Ido_util

type addr = int
(** Word address into persistent memory. *)

type t

val words_per_line : int
(** 8 words = 64-byte cache lines. *)

type counters = {
  mutable loads : int;
  mutable stores : int;
  mutable clwbs : int;  (** clwb instructions issued, including no-ops *)
  mutable writebacks : int;
      (** clwbs that actually initiated a write-back (line was dirty);
          evictions are counted separately in [evictions] *)
  mutable fences : int;
  mutable evictions : int;
}

val create : ?cache_lines:int -> rng:Rng.t -> int -> t
(** [create ~rng size] makes a persistent memory of [size] words,
    zero-initialised and fully persisted.  [size] is the logical
    capacity (every bounds check is against it); the backing storage
    starts at [min size 4096] words and grows geometrically with the
    high-water mark of persisted writes, so creating a large, mostly
    unused memory is cheap.  [cache_lines] bounds the number of
    distinct {e dirty} lines held in the volatile overlay before
    pseudo-random eviction begins (default 1024). *)

val size : t -> int
(** The logical capacity in words, as given to {!create}. *)

val counters : t -> counters

(** {1 Persist-event observation}

    Every action that can change (or is ordered with respect to) the
    persistence domain raises one event: a store into the overlay, an
    explicit write-back of a dirty line, a persist fence, or a random
    eviction.  The event fires {e before} the action takes effect, so a
    hook that raises an exception stops the machine in a state whose
    persistent image is exactly what a power failure at that instant
    would leave — the basis of the crash-point exploration engine
    ({!Ido_check}).  [poke] / [flush_all] / [crash] are simulator-side
    and never fire events. *)

type event =
  | Ev_store of addr  (** a store is about to enter the overlay *)
  | Ev_clwb of addr
      (** a dirty line is about to be written back ([clwb]s that hit a
          clean line are no-ops and emit nothing) *)
  | Ev_fence  (** a persist fence is about to complete *)
  | Ev_evict of addr
      (** a dirty line (base address given) is about to be evicted *)

val set_event_hook : t -> (event -> unit) option -> unit
(** Install (or remove) the observation hook.  At most one is active;
    the VM multiplexes it (see {!Ido_vm.Vm.set_event_hook}). *)

val load : t -> addr -> int64
(** Read through the overlay (newest value, persisted or not). *)

val store : t -> addr -> int64 -> unit
(** Write into the volatile overlay; may trigger an eviction. *)

val poke : t -> addr -> int64 -> unit
(** Write directly into the persistence domain, bypassing the cache
    (still updating any cached copy).  For simulator-side metadata;
    not part of the simulated machine's store path. *)

val zero : t -> addr -> int -> unit
(** [zero t a n] sets words [\[a, a + n)] to zero as [n] {!poke}s of
    [0L] would, in the persistence domain and in any cached copy, but
    in bulk: words at or above the high-water mark are zero already
    and are skipped, so the mark does not rise.  For initialising
    freshly allocated blocks and recycled stacks.
    @raise Invalid_argument on a negative [n] or a range outside the
    memory. *)

val clwb : t -> addr -> bool
(** Initiate write-back of the line containing [addr].  Returns whether
    a write-back actually occurred: [true] when the line was dirty (its
    contents enter the persistence domain and the waiting cost is
    charged by the next fence — see {!drain_pending}), [false] when the
    line was clean and the instruction was a no-op.  Callers that
    account for persistence cost ({!Ido_runtime.Pwriter}) must charge
    only on [true]. *)

val fence : t -> int
(** Persist fence: returns the number of write-backs initiated since
    the previous fence (for cost accounting) and resets the pending
    count.  After [fence], every preceding [clwb] is durable. *)

val pending_flushes : t -> int
(** Write-backs issued since the last fence. *)

val drain_pending : t -> unit
(** Forget pending write-backs without counting a fence (used when a
    crash lands between clwb and fence — the write-backs are already
    durable in this model; see DESIGN.md). *)

val persisted : t -> addr -> int64
(** The value currently in the persistence domain (what a crash would
    leave behind), ignoring any newer un-flushed store. *)

val is_dirty : t -> addr -> bool
(** True when the word's line holds an un-persisted update. *)

val dirty_lines : t -> int
(** Number of dirty lines currently in the overlay. *)

val dirty_linenos : t -> int list
(** The dirty lines' numbers in dirty-index order (first-dirtied first,
    except lines repositioned by the swap-with-last removal of an
    earlier write-back).  {!flush_all} persists in exactly this
    order. *)

val crash : t -> unit
(** Power failure: drop the overlay in place.  Subsequent loads see
    only persisted values.  Counters are preserved. *)

val snapshot_persistent : t -> int64 array
(** Copy of the whole persistence domain, all {!size} words (for
    offline inspection in tests). *)

val flush_all : t -> unit
(** Write back every dirty line and fence (test/setup helper: makes
    the whole memory durable without charging anything).  Lines are
    persisted in dirty-index order — see {!dirty_linenos}. *)

val high_water : t -> int
(** One past the highest word ever written to the persistence domain
    (by a write-back, an eviction or a {!poke}); every word at or above
    it is zero.  Checkpoints copy only the words below it. *)

(** {1 Checkpoints}

    A {e full} checkpoint copies a clean memory's persisted words below
    the high-water mark.  A {e delta} checkpoint, taken with [~prev],
    freezes a memory in any state — dirty overlay included — by
    holding only the lines persisted since [prev] plus the overlay; it
    is meaningful only together with its chain of predecessors back to
    a full one, its {e root}.

    A memory starts tracking the lines it persists at its first
    {!restore} (a memory that is never restored, like every
    measurement run's, tracks nothing and pays nothing).  From then on
    a restore over the same root copies back only the lines persisted
    since the previous restore, not the whole prefix. *)

type checkpoint
(** An immutable copy of the state {!restore} returns to: persisted
    words (all of them, or a delta), dirty overlay, pending write-back
    count, eviction generator and counters.  It refers to no memory,
    so any memory of the same size can restore it. *)

val checkpoint : ?prev:checkpoint -> t -> checkpoint
(** Capture the memory's state.  Without [prev], a full checkpoint of
    a clean memory; if the memory is tracking, the checkpoint becomes
    the root its later writes are tracked against.  With [prev], a
    delta over [prev], which must be the last checkpoint taken or
    restored on this memory while it was tracking.
    @raise Invalid_argument when a full checkpoint meets dirty lines,
    or when [prev] is not the memory's last checkpoint or restore. *)

val restore : t -> checkpoint -> unit
(** Return the memory, in place, to the state the checkpoint captured:
    the persisted words of its root with every delta down to it
    applied (zero above them), its overlay, pending count, eviction
    generator and counters.  The storage grown so far and the event
    hook are kept, and the memory tracks its writes from here on.  The
    checkpoint is not changed, so it can be restored any number of
    times, into this memory or another of the same size.  Runs after a
    restore are byte-identical to runs from the checkpointed state. *)

val words_held : checkpoint -> int
(** The words a checkpoint holds itself (its predecessors not
    counted): the persisted prefix or delta lines, and the overlay. *)
