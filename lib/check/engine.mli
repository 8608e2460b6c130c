(** Systematic crash-point exploration.

    The simulator is fully deterministic under a fixed config and seed,
    so the schedule of persist-relevant events ({!Ido_vm.Event.t}) of a
    run names every interesting power-failure instant: "just before the
    k-th event".  This engine

    + runs a workload once, counting that schedule's events, and once
      more, freezing the machine at evenly spaced points of it (a
      {e ladder} of checkpoints);
    + re-executes the worker phase for each chosen index [k] from the
      last ladder rung at or before [k], aborting the machine at event
      [k] via a raising event hook, then crashes, recovers, and
      validates the image against the workload's pure model
      ({!Ido_workloads.Oracle}) — so an injection replays at most the
      events between two rungs, not the [k] before it;
    + enumerates all [N + 1] crash points when they fit the budget, and
      falls back to seeded stratified sampling when they do not;
    + shrinks any violation to the smallest failing index it can
      afford and prints a replayable repro line.

    Index [k] with [k < N] crashes just before event [k]; index [N]
    (the terminal index) lets the run finish and crashes at idle,
    covering the "power fails before the caches drain" case. *)

open Ido_runtime
open Ido_workloads

type spec = {
  scheme : Scheme.t;
  workload : string;  (** a {!Workload.names} entry *)
  seed : int;
  threads : int;
  ops : int;  (** operations per worker thread *)
  cache_lines : int;
  oracle_mode : Oracle.mode;
  opt : bool;
      (** run the persistence-redundancy optimizer ([Ido_opt]) over
          the instrumented program before executing *)
}

val supported : Scheme.t -> string -> bool
(** NVML protects only programmer-delineated durable regions, so it is
    meaningful only on [objstore]; every other scheme covers every
    workload. *)

val defaults :
  ?threads:int ->
  ?ops:int ->
  ?cache_lines:int ->
  ?strict:bool ->
  ?seed:int ->
  ?opt:bool ->
  scheme:Scheme.t ->
  workload:string ->
  unit ->
  spec
(** Sensible bounded defaults: 3 worker threads (1 for the
    single-threaded [objstore]), 60 ops per thread, the VM's default
    cache geometry, seed 42.  The oracle mode is [Atomic] for every
    instrumented scheme and [Prefix] for Origin; [~strict:true] forces
    [Atomic] even for Origin (used to demonstrate a real
    counterexample).
    @raise Invalid_argument on an unsupported scheme/workload pair. *)

val base_spec : spec -> Ido_harness.Spec.t
(** The shared serialisable fields (scheme, workload, seed, threads,
    ops) as a harness spec — the trace header writes exactly these,
    via {!Ido_harness.Spec.json_fields}. *)

val of_base :
  ?cache_lines:int ->
  ?oracle_mode:Oracle.mode ->
  ?opt:bool ->
  Ido_harness.Spec.t ->
  spec
(** Rebuild an engine spec from a harness spec, defaulting the cache
    geometry and deriving the oracle mode from the scheme ([Prefix]
    for Origin, [Atomic] otherwise) unless overridden. *)

val record : spec -> Ido_vm.Event.t array
(** Run once, crash-free, and return the persist-event schedule of the
    worker phase (setup/init events are excluded; they are made
    durable before workers start). *)

type arena
(** A reusable machine for a batch of runs of one program (see
    {!val-arena}).  The first run boots it, runs the init phase and
    checkpoints the quiescent result ({!Ido_vm.Vm.checkpoint}); every
    later run restores that checkpoint ({!Ido_vm.Vm.restore}) instead
    of re-validating, re-instrumenting and replaying init.  An arena
    whose first run comes from a {!ladder} adopts the ladder's
    post-init checkpoint instead.  Runs on an arena are byte-identical
    to runs on a fresh machine.  An arena is not safe to share across
    domains. *)

type ladder
(** Checkpoints of one worker phase ({!Ido_vm.Vm.checkpoint} with
    [~prev]), taken while recording it: a rung just before event 0 and
    one at the first step boundary after every [total / 256] events (at
    least 16 apart), where the recording run pauses
    ({!Ido_vm.Vm.run}[ ~pause]) and resumes unchanged.  Each rung holds
    the persistent lines written since the one before it, and shares
    with it every thread and DRAM page that did not change, so the
    whole ladder costs little more than what the run writes.  Rungs are
    capped at about 1 MiB: a ladder that outgrows the cap drops every
    other rung and doubles its spacing.  A ladder refers
    to no machine and never changes after recording: arenas on any
    domain restore from it concurrently. *)

val ladder : ?arena:arena -> spec -> ladder
(** Run the worker phase twice, crash-free: once to count its events,
    once to record the ladder.  On [arena] when given (made from
    [custom_of_spec spec], give or take [c_validate]). *)

val rungs : ladder -> int array
(** The event index of every rung, ascending, starting at [0]. *)

type injection = {
  index : int;
  event : string option;
      (** description of the event the crash preceded; [None] for the
          terminal index *)
  verdict : (unit, string) result;
}

val inject :
  ?arena:arena ->
  ?ladder:ladder ->
  ?inspect:(Ido_vm.Vm.t -> unit) ->
  spec ->
  int ->
  injection
(** Re-execute deterministically, crash just before event [index]
    (or at idle if [index] is past the schedule), recover, validate.
    With [arena] (made from [custom_of_spec spec], give or take
    [c_validate]) the run reuses the arena's machine, as {!explore}
    does; with [ladder] (recorded for the same spec) it starts from
    the last rung at or before [index] instead of from event 0.  The
    result is the same either way.  [inspect] sees the machine after a
    successful recovery and final flush, before validation (tests
    compare durable images through it). *)

type report = {
  spec : spec;
  total_events : int;
  tested : int;  (** distinct crash indices actually injected *)
  exhaustive : bool;
  violations : injection list;  (** failing injections, ascending *)
  counterexample : injection option;
      (** smallest failing index found after shrinking *)
}

val explore :
  ?progress:(int -> int -> unit) ->
  ?pool:Ido_util.Pool.t ->
  ?chunk:int ->
  spec ->
  budget:int ->
  report
(** Record, then inject at up to [budget] distinct indices (all of
    them when [total_events + 1 <= budget], else one per stratum of a
    [budget]-way split, chosen by a generator derived from the spec
    seed).  Indices are visited in ascending order.  If any violation
    surfaces in sampled mode, untested indices below the first failure
    are scanned (ascending, bounded) to shrink the counterexample.
    [progress] receives [(done, planned)] after each injection
    (serial) or each completed chunk (pooled).

    Every injection starts from the {!ladder} recorded on the calling
    domain.  With [?pool] (size > 1) the injection runs are dispatched
    to the domain pool one future per chunk of [chunk] consecutive
    indices ([chunk = 0], the default, derives a size from the budget
    and the pool width — see {!Ido_util.Pool.default_chunk}).  Each
    chunk reuses one private arena machine across its injections and
    restores the shared, read-only ladder's rungs into it, so runs
    share nothing mutable; results are merged back in event-index
    order, making the report byte-identical to a serial exploration of
    the same spec at every [-j] and every chunk size.  The crash-free
    sanity run (which counts the schedule), the recording of the
    ladder and counterexample shrinking stay on the calling domain (on
    their own arena).

    Before exploring, a crash-free run is validated against the
    [Atomic] oracle; a failure there means the harness or workload
    itself is broken and raises [Failure]. *)

val repro_line : spec -> int -> string
(** The exact [ido_check replay ...] invocation reproducing one
    injection. *)

val final_digest : spec -> string
(** Crash-free run to completion, then {!Oracle.digest} of the
    durable image — the cross-scheme differential signature. *)

(** {1 Traced runs}

    A traced run is an {!inject}-style execution (or a crash-free one)
    with an {!Ido_obs.Obs} sink attached over the worker phase, the
    injected crash, and recovery.  Afterwards the sink's rollup is
    reconciled against the pmem counter deltas of the same window — a
    disagreement means the VM lost or duplicated an emission. *)

type traced = {
  t_spec : spec;
  t_index : int option;  (** [None]: the run was crash-free *)
  t_injection : injection option;
      (** present exactly when [t_index] is: the injection's verdict *)
  t_digest : string;  (** {!Oracle.digest} of the final durable image *)
  t_obs : Ido_obs.Obs.t;  (** the sink, fully buffered *)
  t_consistency : (unit, string) result;
      (** {!Ido_obs.Obs.check} against the counter deltas *)
}

val run_traced : ?index:int -> spec -> traced
(** Deterministic under the spec (and [index]): re-running yields the
    same event stream, digest, and verdict — the basis of trace
    replay ({!Trace}). *)

(** {1 Custom probes}

    The fuzzer ([Ido_fuzz]) drives {e generated} programs — not
    registry workloads — through the same machine lifecycle, crash
    injection protocol and observed window as a spec-described run.  A
    [custom] bundles the program with its validation closure; the
    closure runs on the final machine (after recovery and a full
    flush) so it can inspect the durable heap directly. *)

type custom = {
  c_program : Ido_ir.Ir.program;
  c_scheme : Scheme.t;
  c_seed : int;
  c_cache_lines : int;
  c_threads : int;
  c_worker_arg : int64;  (** argument passed to each ["worker"] spawn *)
  c_opt : bool;  (** optimize the instrumented program before running *)
  c_validate : Ido_vm.Vm.t -> (unit, string) result;
}

val custom_of_spec : spec -> custom
(** The spec's program/geometry with a vacuous validator (callers
    wanting the oracle verdict use {!run_traced}). *)

val arena : custom -> arena
(** An arena for [custom]'s program and geometry; nothing is built
    until its first run. *)

val record_custom : ?arena:arena -> custom -> Ido_vm.Event.t array
(** {!record} over a custom program, on [arena] when given (it must
    have been made from a custom that differs from this one at most in
    [c_validate]; otherwise [Invalid_argument]). *)

type probe = {
  pr_index : int option;  (** [None]: the run was crash-free *)
  pr_event : string option;
      (** description of the event the crash preceded *)
  pr_verdict : (unit, string) result;
      (** [c_validate] on the final machine; recovery raising is
          reported as an [Error] here, as in {!inject} *)
  pr_obs : Ido_obs.Obs.t;
  pr_consistency : (unit, string) result;
}

val probe : ?index:int -> ?arena:arena -> custom -> probe
(** One fully-observed run of a custom program, crash-free or crashed
    just before event [index] — {!run_traced} without the registry
    oracle.  Deterministic under the custom and [index].  With
    [arena] (same rule as {!record_custom}) the run reuses its
    machine; the result is the same. *)

val heap_words : Ido_vm.Vm.t -> base:int -> len:int -> int64 array
(** [len] persistent words starting at [base] — the raw material of a
    custom validator's all-or-nothing heap comparison. *)

val probe_root : Ido_vm.Vm.t -> int64
(** Root slot 0 of the machine's region (where the generated programs
    park their cell-array descriptor). *)
