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
  elide_clean_boundaries : bool;
  coalesce_registers : bool;
  single_fence_locks : bool;
}

let config = State.default_config

type run_outcome = [ `Idle | `Until | `Max_steps | `Deadlock | `Paused ]

exception Vm_error = Interp.Vm_error

let create = Interp.create

type checkpoint = State.checkpoint

let checkpoint = Interp.checkpoint
let restore = Interp.restore
let checkpoint_words = Interp.checkpoint_words
let reset = Interp.reset

type thread = State.thread

let spawn = Interp.spawn
let run = Interp.run
let reap = Interp.reap
let crash = Interp.crash
let recover = Recover.recover

let flush_all (m : t) = Ido_nvm.Pmem.flush_all m.State.pmem

let clock = State.max_clock
let total_ops (m : t) = m.State.total_ops
let observations (t : thread) = List.rev t.State.observations
let thread_clock (t : thread) = t.State.clock
let thread_ops (t : thread) = t.State.ops
let pmem (m : t) = m.State.pmem
let region (m : t) = m.State.region
let image (m : t) = m.State.image

let region_stats (m : t) = (m.State.stores_per_region, m.State.livein_per_region)

let set_tracer (m : t) f = m.State.tracer <- f
let set_event_hook (m : t) f = m.State.event_hook <- f

let set_obs (m : t) o =
  m.State.obs <- o;
  (* Reset the attribution context: machine-level until a thread steps. *)
  State.obs_context m ~tid:(-1) ~fase:(-1)

let obs (m : t) = m.State.obs

let undo_records_total (m : t) =
  let pm = m.State.pmem in
  let total = ref 0 in
  Lognode.iter pm m.State.region (fun node ->
      let k = Lognode.kind pm node in
      if k = Lognode.kind_atlas || k = Lognode.kind_nvml then
        total := !total + Undo_log.total pm node);
  !total
