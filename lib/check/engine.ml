open Ido_util
open Ido_runtime
open Ido_vm
open Ido_workloads

type spec = {
  scheme : Scheme.t;
  workload : string;
  seed : int;
  threads : int;
  ops : int;
  cache_lines : int;
  oracle_mode : Oracle.mode;
  opt : bool;
}

let supported scheme workload =
  (match scheme with Scheme.Nvml -> workload = "objstore" | _ -> true)
  && Oracle.known workload

let defaults ?threads ?ops ?(cache_lines = 4096) ?(strict = false) ?(seed = 42)
    ?(opt = false) ~scheme ~workload () =
  if not (List.mem workload Workload.names) then
    invalid_arg ("Engine.defaults: unknown workload " ^ workload);
  if not (supported scheme workload) then
    invalid_arg
      (Printf.sprintf "Engine.defaults: %s does not support %s"
         (Scheme.name scheme) workload);
  let threads =
    match threads with
    | Some t -> t
    | None -> if workload = "objstore" then 1 else 3
  in
  let oracle_mode =
    if strict then Oracle.Atomic
    else match scheme with Scheme.Origin -> Oracle.Prefix | _ -> Oracle.Atomic
  in
  { scheme; workload; seed; threads; ops = Option.value ops ~default:60;
    cache_lines; oracle_mode; opt }

(* Conversions to/from the harness {!Ido_harness.Spec.t}: the five
   serialisable fields are shared; the engine adds cache geometry and
   the oracle strictness. *)
let base_spec (s : spec) : Ido_harness.Spec.t =
  Ido_harness.Spec.make ~seed:s.seed ~obs:true ~scheme:s.scheme
    ~workload:s.workload ~threads:s.threads ~ops:s.ops ()

let of_base ?(cache_lines = 4096) ?oracle_mode ?(opt = false)
    (b : Ido_harness.Spec.t) : spec =
  let oracle_mode =
    match oracle_mode with
    | Some m -> m
    | None -> (
        match b.Ido_harness.Spec.scheme with
        | Scheme.Origin -> Oracle.Prefix
        | _ -> Oracle.Atomic)
  in
  {
    scheme = b.Ido_harness.Spec.scheme;
    workload = b.Ido_harness.Spec.workload;
    seed = b.Ido_harness.Spec.seed;
    threads = b.Ido_harness.Spec.threads;
    ops = b.Ido_harness.Spec.ops;
    cache_lines;
    oracle_mode;
    opt;
  }

(* A custom run: the same machine lifecycle, injection protocol and
   obs window as a spec-described run, but over a caller-supplied
   program and validation closure.  The fuzzer drives generated
   programs through exactly the engine's crash machinery this way. *)
type custom = {
  c_program : Ido_ir.Ir.program;
  c_scheme : Scheme.t;
  c_seed : int;
  c_cache_lines : int;
  c_threads : int;
  c_worker_arg : int64;
  c_opt : bool;
  c_validate : Ido_vm.Vm.t -> (unit, string) result;
}

let custom_of_spec (s : spec) =
  {
    c_program = Workload.named s.workload;
    c_scheme = s.scheme;
    c_seed = s.seed;
    c_cache_lines = s.cache_lines;
    c_threads = s.threads;
    c_worker_arg = Int64.of_int s.ops;
    c_opt = s.opt;
    c_validate = (fun _ -> Ok ());
  }

let custom_config (c : custom) =
  { (Vm.config c.c_scheme) with
    seed = c.c_seed;
    cache_lines = c.c_cache_lines;
    opt = c.c_opt;
    (* The bounded check workloads fit comfortably in 1M words; like
       every [pmem_words] this is a logical bound (storage grows with
       use), so it only sets where the region runs out. *)
    pmem_words = 1 lsl 20 }

(* Run the durable setup phase on a pristine machine.  The event hook
   is installed only after this returns, so recording and every
   injection run observe the same worker-phase schedule. *)
let init_phase m =
  ignore (Vm.spawn m ~fname:"init" ~args:[]);
  (match Vm.run m with
  | `Idle -> ()
  | _ -> failwith "Engine.setup: init phase did not run to completion");
  Vm.flush_all m

let spawn_workers (c : custom) m =
  for _ = 1 to c.c_threads do
    ignore (Vm.spawn m ~fname:"worker" ~args:[ c.c_worker_arg ])
  done

(* A reusable machine for batches of same-program runs.  The first use
   pays [Vm.create] (validation, instrumentation, image build) and the
   init phase, then checkpoints the quiescent post-init machine; every
   later use restores that checkpoint — byte-identical semantics at a
   fraction of the cost.  An arena that first serves a ladder adopts
   the ladder's post-init checkpoint instead of running init itself, so
   its machine stays unused until then.  Each pool worker chunk (and
   the whole serial path) keeps one arena, so machines are never shared
   across domains. *)
type arena = {
  a_custom : custom;
  mutable a_machine : Vm.t option;
  mutable a_post_init : Vm.checkpoint option;
      (* [None] only while the machine is unused *)
}

let arena (c : custom) = { a_custom = c; a_machine = None; a_post_init = None }

let new_machine c = Vm.create (custom_config c) c.c_program

(* A fresh machine past its init phase, not yet checkpointed. *)
let boot c =
  let m = new_machine c in
  init_phase m;
  m

let arena_machine a =
  match a.a_machine with
  | Some m -> m
  | None ->
      let m = new_machine a.a_custom in
      a.a_machine <- Some m;
      m

let arena_setup a =
  let m = arena_machine a in
  (match a.a_post_init with
  | Some ck -> Vm.restore m ck
  | None ->
      init_phase m;
      a.a_post_init <- Some (Vm.checkpoint m));
  spawn_workers a.a_custom m;
  m

let setup_custom c =
  let m = boot c in
  spawn_workers c m;
  m

let setup spec = setup_custom (custom_of_spec spec)

let finish_run m =
  match Vm.run m with
  | `Idle -> ()
  | `Deadlock -> failwith "Engine: worker phase deadlocked"
  | `Until | `Max_steps | `Paused ->
      failwith "Engine: worker phase did not finish"

let record_on m =
  let evs = ref [] in
  Vm.set_event_hook m (Some (fun e -> evs := e :: !evs));
  finish_run m;
  Vm.set_event_hook m None;
  Array.of_list (List.rev !evs)

let record spec = record_on (setup spec)

let mem_of m =
  let pm = Vm.pmem m in
  { Oracle.load = Ido_nvm.Pmem.load pm; size = Ido_nvm.Pmem.size pm }

let validate_now spec ~mode m =
  let root = Ido_region.Region.get_root (Vm.region m) 0 in
  Oracle.validate ~workload:spec.workload ~mode ~root (mem_of m)

type injection = {
  index : int;
  event : string option;
  verdict : (unit, string) result;
}

exception Crash_injected

(* Run the worker phase from event [from] (the machine stands just
   before it) and crash just before event [index]. *)
let inject_on ?(from = 0) ?(inspect = ignore) m spec index =
  let count = ref from in
  let crashed_event = ref None in
  Vm.set_event_hook m
    (Some
       (fun e ->
         if !count = index then begin
           crashed_event := Some (Event.describe e);
           raise Crash_injected
         end;
         incr count));
  (try finish_run m with Crash_injected -> ());
  (* Recovery itself generates pmem traffic; stop observing before it
     starts or the injected crash would fire again. *)
  Vm.set_event_hook m None;
  Vm.crash m;
  let verdict =
    (* A recovery that itself raises (bad log tag, failed scan) is a
       scheme defect at this crash point, not an engine failure. *)
    match Vm.recover m with
    | _stats ->
        Vm.flush_all m;
        inspect m;
        validate_now spec ~mode:spec.oracle_mode m
    | exception e ->
        Error (Printf.sprintf "recovery raised: %s" (Printexc.to_string e))
  in
  { index; event = !crashed_event; verdict }

(* Whether two customs describe the same run (the validator may differ
   — it only runs on the finished machine). *)
let same_run (b : custom) (c : custom) =
  b.c_program == c.c_program && b.c_scheme = c.c_scheme
  && b.c_seed = c.c_seed && b.c_cache_lines = c.c_cache_lines
  && b.c_threads = c.c_threads && b.c_worker_arg = c.c_worker_arg
  && b.c_opt = c.c_opt

let check_arena a c =
  if not (same_run a.a_custom c) then
    invalid_arg "Engine: arena built for a different custom run"

(* A machine for one custom run: fresh, or from an arena built for
   the same program and geometry. *)
let custom_machine ?arena (c : custom) =
  match arena with
  | None -> setup_custom c
  | Some a ->
      check_arena a c;
      arena_setup a

(* ---------- Ladders ---------- *)

(* Machines frozen along one recorded worker phase.  Rung [i] is the
   machine just before event [at.(i)], with [at.(0) = 0]; each is a
   delta over the one before it and the first over [root], the
   post-init checkpoint.  Nothing in a ladder refers to the machine it
   was recorded on and nothing changes it after recording, so any
   arena on any domain restores from it. *)
type ladder = {
  l_custom : custom;
  l_root : Vm.checkpoint;
  l_at : int array;
  l_rungs : Vm.checkpoint array;
  l_total : int;
}

(* About 256 rungs across a schedule, none closer than 16 events.  A
   ladder whose rungs outgrow 2^17 words (1 MiB) drops every other rung
   and doubles its spacing, so it stays even and bounded. *)
let ladder_rungs = 256
let ladder_min_spacing = 16
let ladder_cap_words = 1 lsl 17

(* The crash-free worker phase on [a], its events counted. *)
let counted_run a =
  let m = arena_setup a in
  let count = ref 0 in
  Vm.set_event_hook m (Some (fun _ -> incr count));
  finish_run m;
  Vm.set_event_hook m None;
  (m, !count)

(* Every other element, the first included. *)
let every_other l = List.filteri (fun i _ -> i mod 2 = 0) l

(* The recording run: a rung at event 0, then one at the first step
   boundary past every [spacing] events, where the run pauses.
   [events], the schedule length, comes from an earlier counted run. *)
let record_ladder a ~events =
  let m = arena_setup a in
  let root = Option.get a.a_post_init in
  let spacing =
    ref
      (Stdlib.max ladder_min_spacing
         ((events + ladder_rungs - 1) / ladder_rungs))
  in
  let count = ref 0 in
  let rungs = ref [] (* newest first *) and words = ref 0 in
  let take prev =
    let ck = Vm.checkpoint ~prev m in
    rungs := (!count, ck) :: !rungs;
    words := !words + Vm.checkpoint_words ck;
    if !words > ladder_cap_words then begin
      rungs := List.rev (every_other (List.rev !rungs));
      spacing := 2 * !spacing;
      words :=
        List.fold_left (fun acc (_, c) -> acc + Vm.checkpoint_words c) 0 !rungs
    end;
    ck
  in
  let prev = ref (take root) in
  let next = ref !spacing in
  Vm.set_event_hook m (Some (fun _ -> incr count));
  let rec go () =
    match Vm.run ~pause:(fun () -> !count >= !next) m with
    | `Paused ->
        prev := take !prev;
        next := ((!count / !spacing) + 1) * !spacing;
        go ()
    | `Idle -> ()
    | `Deadlock -> failwith "Engine: worker phase deadlocked"
    | `Until | `Max_steps ->
        failwith "Engine: worker phase did not finish"
  in
  go ();
  Vm.set_event_hook m None;
  let rungs = Array.of_list (List.rev !rungs) in
  {
    l_custom = a.a_custom;
    l_root = root;
    l_at = Array.map fst rungs;
    l_rungs = Array.map snd rungs;
    l_total = !count;
  }

let ladder ?arena:home spec =
  let c = custom_of_spec spec in
  let a =
    match home with
    | Some a ->
        check_arena a c;
        a
    | None -> arena c
  in
  let _m, events = counted_run a in
  record_ladder a ~events

let rungs l = Array.copy l.l_at

(* The last rung at or before [index]. *)
let rung_for l index =
  let lo = ref 0 and hi = ref (Array.length l.l_at - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if l.l_at.(mid) <= index then lo := mid else hi := mid - 1
  done;
  !lo

let inject ?arena ?ladder ?inspect spec index =
  if index < 0 then invalid_arg "Engine.inject: negative crash index";
  let c = custom_of_spec spec in
  match ladder with
  | None -> inject_on ?inspect (custom_machine ?arena c) spec index
  | Some l ->
      if not (same_run l.l_custom c) then
        invalid_arg "Engine: ladder recorded for a different run";
      let m =
        match arena with
        | None -> new_machine c
        | Some a ->
            check_arena a c;
            if Option.is_none a.a_post_init then a.a_post_init <- Some l.l_root;
            arena_machine a
      in
      let i = rung_for l index in
      Vm.restore m l.l_rungs.(i);
      inject_on ~from:l.l_at.(i) ?inspect m spec index

type report = {
  spec : spec;
  total_events : int;
  tested : int;
  exhaustive : bool;
  violations : injection list;
  counterexample : injection option;
}

let mode_name = function Oracle.Atomic -> "atomic" | Oracle.Prefix -> "prefix"

let repro_line spec index =
  Printf.sprintf
    "ido_check replay --scheme %s --workload %s --seed %d --threads %d \
     --ops %d --cache-lines %d --oracle %s --index %d%s"
    (Scheme.name spec.scheme) spec.workload spec.seed spec.threads spec.ops
    spec.cache_lines (mode_name spec.oracle_mode) index
    (if spec.opt then " --opt" else "")

(* Crash indices to visit: ascending, so the first violation of an
   exhaustive run is already minimal.  Sampled mode picks one index
   per stratum of a [budget]-way split of [0, total]; the picks come
   from a generator derived from the spec seed, making the sample (and
   hence the whole report) reproducible. *)
let plan_indices spec ~total ~budget =
  let candidates = total + 1 in
  if candidates <= budget then (Array.init candidates (fun i -> i), true)
  else begin
    let rng = Rng.create (Hashtbl.hash (spec.seed, spec.ops, "ido-check-plan")) in
    let picks =
      Array.init budget (fun s ->
          let lo = s * candidates / budget in
          let hi = ((s + 1) * candidates / budget) - 1 in
          lo + Rng.int rng (hi - lo + 1))
    in
    (picks, false)
  end

(* Bound on the extra runs spent minimising a sampled counterexample. *)
let shrink_budget = 512

let shrink a ladder spec ~tested_ok ~first_fail =
  let best = ref first_fail in
  let runs = ref 0 in
  (try
     for k = 0 to first_fail.index - 1 do
       if (not (Hashtbl.mem tested_ok k)) && !runs < shrink_budget then begin
         incr runs;
         let inj = inject ~arena:a ~ladder spec k in
         match inj.verdict with
         | Error _ ->
             best := inj;
             raise Exit
         | Ok () -> Hashtbl.replace tested_ok k ()
       end
     done
   with Exit -> ());
  !best

let explore ?(progress = fun _ _ -> ()) ?pool ?(chunk = 0) spec ~budget =
  if budget < 1 then invalid_arg "Engine.explore: budget must be positive";
  if chunk < 0 then invalid_arg "Engine.explore: chunk must be >= 0";
  let c = custom_of_spec spec in
  let home = arena c in
  (* Harness sanity: a run that never crashes must satisfy the full
     model under every scheme, Origin included.  Its event count spaces
     the ladder's rungs. *)
  let events =
    let m, events = counted_run home in
    Vm.flush_all m;
    match validate_now spec ~mode:Oracle.Atomic m with
    | Ok () -> events
    | Error msg ->
        failwith
          (Printf.sprintf "Engine.explore: crash-free %s/%s run fails oracle: %s"
             (Scheme.name spec.scheme) spec.workload msg)
  in
  let ladder = record_ladder home ~events in
  let total = ladder.l_total in
  let indices, exhaustive = plan_indices spec ~total ~budget in
  let planned = Array.length indices in
  let tested_ok = Hashtbl.create (planned * 2) in
  let violations = ref [] in
  (* Injection runs share nothing but the read-only ladder (each chunk
     keeps a private arena machine), so they spread over the domain pool
     one future per chunk of consecutive indices, amortising dispatch
     overhead over [chunk] runs.  Each starts from the ladder's last
     rung at or before its index, so it replays at most one rung
     spacing of the schedule.  Results are merged in event-index order
     (awaits follow submission order), keeping the report —
     violations, shrinking, repro lines — byte-identical to the serial
     path at every [-j] and every chunk size. *)
  let injections =
    match pool with
    | Some pool when Pool.size pool > 1 ->
        let k =
          if chunk = 0 then Pool.default_chunk ~jobs:(Pool.size pool) planned
          else chunk
        in
        let nchunks = (planned + k - 1) / k in
        let futures =
          Array.init nchunks (fun ci ->
              let lo = ci * k in
              let len = min k (planned - lo) in
              Pool.submit pool (fun () ->
                  let a = arena c in
                  Array.init len (fun j ->
                      inject ~arena:a ~ladder spec indices.(lo + j))))
        in
        let done_count = ref 0 in
        let batches =
          Array.map
            (fun fut ->
              let batch = Pool.await fut in
              done_count := !done_count + Array.length batch;
              progress !done_count planned;
              batch)
            futures
        in
        Array.concat (Array.to_list batches)
    | _ ->
        Array.mapi
          (fun i k ->
            let inj = inject ~arena:home ~ladder spec k in
            progress (i + 1) planned;
            inj)
          indices
  in
  Array.iter
    (fun inj ->
      match inj.verdict with
      | Ok () -> Hashtbl.replace tested_ok inj.index ()
      | Error _ -> violations := inj :: !violations)
    injections;
  let violations = List.rev !violations in
  let counterexample =
    match violations with
    | [] -> None
    | first :: _ ->
        Some
          (if exhaustive then first
           else shrink home ladder spec ~tested_ok ~first_fail:first)
  in
  { spec; total_events = total; tested = planned; exhaustive; violations;
    counterexample }

let final_digest spec =
  let m = setup spec in
  finish_run m;
  Vm.flush_all m;
  let root = Ido_region.Region.get_root (Vm.region m) 0 in
  Oracle.digest ~workload:spec.workload ~root (mem_of m)

(* ---------- Traced runs ---------- *)

type traced = {
  t_spec : spec;
  t_index : int option;
  t_injection : injection option;
  t_digest : string;
  t_obs : Ido_obs.Obs.t;
  t_consistency : (unit, string) result;
}

let run_traced ?index spec =
  (match index with
  | Some k when k < 0 -> invalid_arg "Engine.run_traced: negative crash index"
  | _ -> ());
  let m = setup spec in
  (* The observed window starts after durable setup: snapshot the pmem
     counters so [Obs.check] reconciles exactly what the sink saw. *)
  let c0 = Ido_nvm.Pmem.counters (Vm.pmem m) in
  let stores0 = c0.Ido_nvm.Pmem.stores
  and writebacks0 = c0.Ido_nvm.Pmem.writebacks
  and fences0 = c0.Ido_nvm.Pmem.fences
  and evictions0 = c0.Ido_nvm.Pmem.evictions in
  let obs = Ido_obs.Obs.create () in
  Vm.set_obs m (Some obs);
  let t_injection =
    match index with
    | None ->
        finish_run m;
        Vm.flush_all m;
        None
    | Some k ->
        (* Same protocol as [inject], with the sink watching the worker
           phase, the crash, and recovery.  The injection hook runs
           before obs emission, so the aborted event is recorded by
           neither the sink nor the counters — they stay reconciled. *)
        let count = ref 0 in
        let crashed_event = ref None in
        Vm.set_event_hook m
          (Some
             (fun e ->
               if !count = k then begin
                 crashed_event := Some (Event.describe e);
                 raise Crash_injected
               end;
               incr count));
        (try finish_run m with Crash_injected -> ());
        Vm.set_event_hook m None;
        Vm.crash m;
        let verdict =
          match Vm.recover m with
          | _stats ->
              Vm.flush_all m;
              validate_now spec ~mode:spec.oracle_mode m
          | exception e ->
              Error (Printf.sprintf "recovery raised: %s" (Printexc.to_string e))
        in
        Some { index = k; event = !crashed_event; verdict }
  in
  Vm.set_obs m None;
  let c = Ido_nvm.Pmem.counters (Vm.pmem m) in
  let t_consistency =
    Ido_obs.Obs.check obs
      ~stores:(c.Ido_nvm.Pmem.stores - stores0)
      ~writebacks:(c.Ido_nvm.Pmem.writebacks - writebacks0)
      ~fences:(c.Ido_nvm.Pmem.fences - fences0)
      ~evictions:(c.Ido_nvm.Pmem.evictions - evictions0)
  in
  let t_digest =
    let root = Ido_region.Region.get_root (Vm.region m) 0 in
    Oracle.digest ~workload:spec.workload ~root (mem_of m)
  in
  { t_spec = spec; t_index = index; t_injection; t_digest; t_obs = obs;
    t_consistency }

(* ---------- Custom probes ---------- *)

let record_custom ?arena c = record_on (custom_machine ?arena c)

type probe = {
  pr_index : int option;
  pr_event : string option;
  pr_verdict : (unit, string) result;
  pr_obs : Ido_obs.Obs.t;
  pr_consistency : (unit, string) result;
}

let probe ?index ?arena (c : custom) =
  (match index with
  | Some k when k < 0 -> invalid_arg "Engine.probe: negative crash index"
  | _ -> ());
  let m = custom_machine ?arena c in
  let c0 = Ido_nvm.Pmem.counters (Vm.pmem m) in
  let stores0 = c0.Ido_nvm.Pmem.stores
  and writebacks0 = c0.Ido_nvm.Pmem.writebacks
  and fences0 = c0.Ido_nvm.Pmem.fences
  and evictions0 = c0.Ido_nvm.Pmem.evictions in
  let obs = Ido_obs.Obs.create () in
  Vm.set_obs m (Some obs);
  let crashed_event = ref None in
  let pr_verdict =
    match index with
    | None ->
        finish_run m;
        Vm.flush_all m;
        c.c_validate m
    | Some k ->
        (* Same protocol as [run_traced]: the injection hook runs
           before obs emission, so the aborted event is recorded by
           neither the sink nor the counters. *)
        let count = ref 0 in
        Vm.set_event_hook m
          (Some
             (fun e ->
               if !count = k then begin
                 crashed_event := Some (Event.describe e);
                 raise Crash_injected
               end;
               incr count));
        (try finish_run m with Crash_injected -> ());
        Vm.set_event_hook m None;
        Vm.crash m;
        (match Vm.recover m with
        | _stats ->
            Vm.flush_all m;
            c.c_validate m
        | exception e ->
            Error (Printf.sprintf "recovery raised: %s" (Printexc.to_string e)))
  in
  Vm.set_obs m None;
  let cn = Ido_nvm.Pmem.counters (Vm.pmem m) in
  let pr_consistency =
    Ido_obs.Obs.check obs
      ~stores:(cn.Ido_nvm.Pmem.stores - stores0)
      ~writebacks:(cn.Ido_nvm.Pmem.writebacks - writebacks0)
      ~fences:(cn.Ido_nvm.Pmem.fences - fences0)
      ~evictions:(cn.Ido_nvm.Pmem.evictions - evictions0)
  in
  { pr_index = index; pr_event = !crashed_event; pr_verdict; pr_obs = obs;
    pr_consistency }

let heap_words (m : Ido_vm.Vm.t) ~base ~len =
  let pm = Vm.pmem m in
  Array.init len (fun i -> Ido_nvm.Pmem.load pm (base + i))

let probe_root m = Ido_region.Region.get_root (Vm.region m) 0
