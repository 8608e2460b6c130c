(** The simulated multiprocessor: instruction execution, scheme hooks,
    the causally-ordered scheduler, and crash injection.  Use through
    the {!Vm} facade; {!Recover} reuses the scheduler to run resumed
    FASEs to completion. *)

open Ido_util
open Ido_ir

exception Vm_error of string
(** Runtime fault in the simulated program (bad address, foreign
    unlock, failed assertion, ...). *)

type run_outcome = [ `Idle | `Until | `Max_steps | `Deadlock | `Paused ]

val create : State.config -> Ir.program -> State.t
(** Validate the (hook-free) program, instrument it for the configured
    scheme, and boot a machine with a freshly formatted persistent
    region. *)

val checkpoint : ?prev:State.checkpoint -> State.t -> State.checkpoint
(** Freeze a quiescent machine (every thread [Done], no dirty cache
    line), or with [prev] a machine between two steps — see
    {!Vm.checkpoint}.
    @raise Invalid_argument otherwise. *)

val restore : State.t -> State.checkpoint -> unit
(** Return the machine in place to the state a {!checkpoint} captured,
    removing any observers — see {!Vm.restore}. *)

val checkpoint_words : State.checkpoint -> int
(** See {!Vm.checkpoint_words}. *)

val reset : State.t -> unit
(** {!restore} to the checkpoint {!create} takes of the machine it
    boots. *)

val spawn : State.t -> fname:string -> args:int64 list -> State.thread
(** Start a thread at [fname]; it begins at the machine's current
    simulated time. *)

val run :
  ?until:Timebase.ns ->
  ?max_steps:int ->
  ?pause:(unit -> bool) ->
  State.t ->
  run_outcome
(** Advance the simulation: always steps the earliest runnable thread,
    so cross-thread interactions happen in one causal order.  [pause]
    is polled before each burst and after each step; a burst it
    interrupts stays open for the next [run] — see {!Vm.run}. *)

val reap : State.t -> unit
(** Drop [Done] threads from the scheduler table after raising the
    clock floor, so scheduling stays O(live threads) on machines that
    spawn one thread per unit of work (the serving layer). *)

val crash : State.t -> unit
(** Power failure: discard every volatile structure (cache overlay,
    DRAM, transient mutexes, threads).  On an NV-cache machine the
    cache contents are persistent and survive. *)
