(** Public face of the simulated machine.

    Typical lifecycle:

    {[
      let m = Vm.create (Vm.config Scheme.Ido) program in
      let _init = Vm.spawn m ~fname:"init" ~args:[] in
      ignore (Vm.run m);
      Vm.flush_all m;                       (* setup phase made durable *)
      let _ = Vm.spawn m ~fname:"worker" ~args:[ 0L ] in
      (match Vm.run ~until:(Timebase.ms 10) m with
      | `Until -> Vm.crash m
      | _ -> ());
      let _stats = Vm.recover m in
      ...
    ]} *)

open Ido_util
open Ido_ir
open Ido_runtime

type t = State.t

type config = State.config = {
  scheme : Scheme.t;
  latency : Ido_nvm.Latency.t;
  pmem_words : int;
  cache_lines : int;
  seed : int;
  stack_words : int;
  undo_cap : int;
  redo_cap : int;
  page_cap : int;
  collect_region_stats : bool;
  opt : bool;
      (** run the persistence-redundancy optimizer ([Ido_opt]) over the
          instrumented program at load time; every applied rewrite is
          verified (re-lint + crash matrix) by [ido_check optimize] *)
  elide_clean_boundaries : bool;
      (** ablation: skip lock-induced boundary persists for clean
          regions (on in real iDO) *)
  coalesce_registers : bool;
      (** ablation: persist coalescing of register logs (Sec. IV-B) *)
  single_fence_locks : bool;
      (** ablation: indirect locking (Sec. III-B); off reverts to
          JUSTDO-style two-fence lock operations *)
}

val config : Scheme.t -> config
(** Defaults sized for the benchmarks in this repository. *)

type run_outcome = [ `Idle | `Until | `Max_steps | `Deadlock | `Paused ]

exception Vm_error of string

val create : config -> Ir.program -> t
(** Validate, instrument for the configured scheme, and boot a fresh
    machine with a formatted persistent region; the booted machine is
    checkpointed for {!reset}. *)

type checkpoint = State.checkpoint
(** A frozen copy of a machine between two steps. *)

val checkpoint : ?prev:checkpoint -> t -> checkpoint
(** Capture the machine's state so that {!restore} can return to it.

    Without [prev] the machine must be {e quiescent}: every thread
    finished and no dirty cache line — the state right after an [init]
    phase has run to completion and {!flush_all} made it durable.  The
    checkpoint holds a full copy of the persisted words.

    With [prev] the machine may be anywhere outside {!run}: fresh
    spawns, runnable and blocked threads, held locks and their waiter
    queues, open transactions, dirty cache lines, a burst left open by
    a pause.  Its persistent memory is held as a delta — the lines
    persisted since [prev] plus the dirty overlay — so [prev] must be
    the last checkpoint taken or restored on this machine, after at
    least one {!restore}.  Threads that did not change since [prev],
    and DRAM pages that did not, are shared with it.  A run resumed
    from such a checkpoint continues exactly as the original did.

    Either way the checkpoint holds private copies of everything a run
    can change — thread frames and registers, writers, line sets,
    generators, DRAM, the lock table, clocks, counters and free lists —
    and refers to no machine: it can be restored into any machine built
    from the same config and program.  Later runs do not change it.
    @raise Invalid_argument on a non-quiescent machine without [prev],
    on a [prev] that is not the machine's last checkpoint or restore,
    or inside {!run} (from an event hook) and after a run an exception
    stopped mid-step, until {!crash} or {!restore}. *)

val restore : t -> checkpoint -> unit
(** Return the machine in place to the state {!checkpoint} captured,
    whatever happened since — a crash, recovery, held locks, grown
    memory.  Every mutable piece is copied back, so a checkpoint can be
    restored any number of times and runs after each restore are
    byte-identical to runs from the checkpointed state itself.  Only
    the persistent lines written since the last restore over the same
    full checkpoint are copied back, not the whole image (see
    {!Ido_nvm.Pmem.restore}).  Previously obtained thread handles
    become invalid and any tracer/event hook/obs sink is removed.  The
    crash explorer's arenas checkpoint once after the durable setup
    phase and restore before every run instead of replaying that
    phase, and its ladders restore a checkpoint taken mid-run instead
    of replaying up to it. *)

val checkpoint_words : checkpoint -> int
(** A rough count of the heap words a checkpoint holds itself (a
    delta's predecessors not counted), for bounding how many are
    kept. *)

val reset : t -> unit
(** {!restore} to the checkpoint {!create} takes of the machine it
    boots: runs on a reset machine are byte-identical to runs on a
    fresh machine built from the same config and program, reusing the
    instrumented image and every large allocation. *)

type thread = State.thread

val spawn : t -> fname:string -> args:int64 list -> thread

val run :
  ?until:Timebase.ns ->
  ?max_steps:int ->
  ?pause:(unit -> bool) ->
  t ->
  run_outcome
(** Advance simulated execution.  [`Idle]: every thread finished.
    [`Until]: the earliest runnable thread reached the time bound
    (crash injection point).  [`Deadlock]: runnable set empty while
    threads remain blocked.  [`Max_steps]: [max_steps] steps ran.

    [`Paused]: [pause ()] returned [true].  It is polled before the
    scheduler picks each burst's thread and after every step of a
    burst.  A burst paused midway stays open in the machine: the next
    {!run} finishes it, to the same clock bound (or an earlier
    [until]), before it picks again.  So a run paused anywhere and
    resumed by another {!run} follows exactly the schedule of an
    uninterrupted one, and a {!checkpoint} taken while paused freezes a
    resumable machine, open burst included.  A [pause] that always
    answers [true] stops every run before its first step; without
    [pause] a run never pauses. *)

val reap : t -> unit
(** Drop finished threads from the scheduler's table, first raising the
    machine's clock floor so {!clock} (and where fresh spawns start)
    is unchanged.  Long-lived machines that spawn one thread per unit
    of work — the request-serving layer — call this between dispatches
    to keep scheduling O(live threads) instead of O(threads ever
    spawned).  Reaped thread records stay valid for {!observations} /
    {!thread_clock}; they are only removed from scheduling. *)

val crash : t -> unit
(** Power failure now: volatile state (cache overlay, DRAM, transient
    locks, threads) is discarded; only persisted lines survive. *)

val recover : t -> Recover.stats
(** Scheme-appropriate recovery; afterwards the machine accepts fresh
    [spawn]s against the recovered heap. *)

val flush_all : t -> unit
(** Test/setup helper: make all of persistent memory durable. *)

(** {1 Introspection} *)

val clock : t -> Timebase.ns
(** Largest thread clock — the wall-clock length of the run so far. *)

val total_ops : t -> int
(** Observations recorded via the [Observe] intrinsic. *)

val observations : thread -> int64 list
(** Oldest first. *)

val thread_clock : thread -> Timebase.ns
val thread_ops : thread -> int

val pmem : t -> Ido_nvm.Pmem.t
val region : t -> Ido_region.Region.t
val image : t -> Image.t

val set_tracer : t -> (string -> unit) option -> unit
(** Install (or remove) an execution tracer: one formatted line per
    executed instruction — thread, simulated time, position, FASE
    membership, instruction text.  Survives across crash/recovery, so
    resumption can be watched. *)

val set_event_hook : t -> (Event.t -> unit) option -> unit
(** Install (or remove) the persist-event observer (see {!Event}).
    The hook fires {e before} each event takes effect; raising from it
    aborts {!run} with the persistent image exactly as a power failure
    at that instant would leave it — the crash-injection mechanism used
    by [Ido_check].  Events fire regardless of scheme; the stream is
    deterministic under a fixed config and seed. *)

val set_obs : t -> Ido_obs.Obs.t option -> unit
(** Install (or remove) the observability sink (see {!Ido_obs.Obs}).
    While installed, the machine feeds it every persist-level event
    (tagged with thread and FASE ids) plus VM-level events: log
    appends, region boundaries, lock operations, FASE enter/exit,
    crash and recovery steps.  With no sink installed the machine
    performs no observability work at all.  Unlike the crash-injection
    {!set_event_hook}, the sink must never raise.  Installation does
    not perturb execution: clocks, scheduling, and the persist-event
    schedule are identical with and without a sink. *)

val obs : t -> Ido_obs.Obs.t option

val region_stats : t -> Cdf.t * Cdf.t
(** (stores per dynamic idempotent region, live-in registers per
    region) — the Fig. 8 distributions; populated under the iDO
    scheme. *)

val undo_records_total : t -> int
(** Total UNDO records ever appended across threads (drives the
    Table I recovery-time model). *)
