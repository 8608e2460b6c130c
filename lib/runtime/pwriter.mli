(** Cost-accounting channel to persistent memory.

    Every runtime operation (log append, lock record, boundary persist)
    goes through a [Pwriter], which performs the accesses on the
    underlying {!Ido_nvm.Pmem} and accumulates their simulated cost
    under the machine's {!Ido_nvm.Latency} model.  Write-back pending
    counts are tracked per writer — i.e. per simulated hardware thread
    — so one thread's fence never pays for another's flushes. *)

open Ido_util
open Ido_nvm

type t

val create : Pmem.t -> Latency.t -> t

val copy : t -> Pmem.t -> t
(** A writer over the given memory carrying this one's accumulated
    cost and pending write-back count. *)

val pmem : t -> Pmem.t
val latency : t -> Latency.t

val load : t -> Pmem.addr -> int64
val store : t -> Pmem.addr -> int64 -> unit
val clwb : t -> Pmem.addr -> unit
(** Write back the line containing the address.  Issue cost and the
    pending count are charged only when the line was actually dirty —
    a clwb on a clean line is free (no write-back occurs). *)

val clwb_lines : t -> Pmem.addr list -> unit
(** Write back the distinct cache lines covering the given word
    addresses (persist coalescing, Sec. IV-B: one [clwb] per line). *)

val fence : t -> unit
(** Persist fence; cost depends on this writer's pending write-backs. *)

val persist_store : t -> Pmem.addr -> int64 -> unit
(** [store]; [clwb]; [fence] — the common "persist one word now". *)

val add_cost : t -> Timebase.ns -> unit
val take_cost : t -> Timebase.ns
(** Accumulated cost since the last [take_cost]; resets to zero. *)

val pending : t -> int
