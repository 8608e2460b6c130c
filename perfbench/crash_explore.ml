(* crash-explore: serial [Engine.explore] at a fixed budget.  Each
   injection resets the machine, replays init, runs to the crash
   point, crashes, recovers and checks the oracle, so reset, recovery
   and validation carry the load that paper-sweep never exercises. *)

open Ido_runtime
open Ido_workloads
module Engine = Ido_check.Engine
module Vm = Ido_vm.Vm
module Pmem = Ido_nvm.Pmem
module Obs = Ido_obs.Obs

let budget = 40

(* scheme, workload, ops per thread (None: the engine default), strict
   oracle, cache lines (None: the engine default), and whether a
   violation is expected.  The Origin pair is the seeded
   counterexample: with 4 cache lines evictions tear its updates. *)
let pairs =
  Scheme.
    [
      (Ido, "queue", None, false, None, false);
      (Atlas, "hmap", None, false, None, false);
      (Justdo, "stack", None, false, None, false);
      (Mnemosyne, "kvcache50", None, false, None, false);
      (Nvthreads, "mlog", None, false, None, false);
      (Nvml, "objstore", None, false, None, false);
      (Origin, "stack", Some 100, true, Some 4, true);
    ]

let verdict = function Ok () -> "ok" | Error m -> m

let result label ~total ~tested ~exhaustive ~violations
    ~(counterexample : Engine.injection option) =
  Printf.sprintf
    "%s events=%d tested=%d exhaustive=%b violations=[%s] counterexample=%s"
    label total tested exhaustive
    (String.concat ";"
       (List.map
          (fun (i : Engine.injection) ->
            Printf.sprintf "%d:%s" i.Engine.index (verdict i.Engine.verdict))
          violations))
    (match counterexample with
    | None -> "none"
    | Some i ->
        Printf.sprintf "%d@%s" i.Engine.index
          (Option.value i.Engine.event ~default:"idle"))

let check ~expect ~violations ~(counterexample : Engine.injection option) =
  match (expect, violations, counterexample) with
  | false, [], _ -> None
  | false, (i : Engine.injection) :: _, _ ->
      Some
        (Printf.sprintf "unexpected violation at %d: %s" i.Engine.index
           (verdict i.Engine.verdict))
  | true, _, Some _ -> None
  | true, _, None -> Some "expected counterexample not found"

let run label spec ~expect () =
  let stamps = ref [] in
  let r =
    Engine.explore
      ~progress:(fun _ _ -> stamps := Layers.now () :: !stamps)
      spec ~budget
  in
  (* The first verdict also carries the sanity and recording runs, so
     per-verdict times start at the second. *)
  let stamps = Array.of_list (List.rev !stamps) in
  let samples =
    Array.init
      (max 0 (Array.length stamps - 1))
      (fun i -> (stamps.(i + 1) -. stamps.(i)) *. 1e6)
  in
  let violations = r.Engine.violations
  and counterexample = r.Engine.counterexample in
  {
    Job.result =
      result label ~total:r.Engine.total_events ~tested:r.Engine.tested
        ~exhaustive:r.Engine.exhaustive ~violations ~counterexample;
    error = check ~expect ~violations ~counterexample;
    work = r.Engine.tested;
    samples;
  }

(* The engine's crash-index plan: every index when they fit the
   budget, else one seeded pick per stratum. *)
let plan_indices (spec : Engine.spec) ~total =
  let candidates = total + 1 in
  if candidates <= budget then (Array.init candidates Fun.id, true)
  else
    let rng =
      Ido_util.Rng.create
        (Hashtbl.hash (spec.Engine.seed, spec.Engine.ops, "ido-check-plan"))
    in
    ( Array.init budget (fun s ->
          let lo = s * candidates / budget in
          let hi = ((s + 1) * candidates / budget) - 1 in
          lo + Ido_util.Rng.int rng (hi - lo + 1)),
      false )

(* The engine's bound on extra runs spent shrinking a counterexample. *)
let shrink_budget = 512

exception Crash_injected

let finish m =
  match Vm.run m with
  | `Idle -> ()
  | _ -> failwith "worker phase did not run to completion"

(* [Engine.explore] made of its public calls, on one arena machine:
   per injection reset, init, hooked run, crash, recover, validate. *)
let traced label (spec : Engine.spec) ~expect l =
  let workload = spec.Engine.workload in
  let program = Workload.named workload in
  Layers.compile l spec.Engine.scheme program;
  let cfg =
    {
      (Vm.config spec.Engine.scheme) with
      Vm.seed = spec.Engine.seed;
      cache_lines = spec.Engine.cache_lines;
      opt = spec.Engine.opt;
      pmem_words = 1 lsl 20;
    }
  in
  Layers.region_boot l ~words:cfg.Vm.pmem_words
    ~cache_lines:cfg.Vm.cache_lines;
  let m = Layers.vm_span l "vm.create_ms" (fun () -> Vm.create cfg program) in
  let init () =
    Layers.vm_span l "vm.init_ms" (fun () ->
        ignore (Vm.spawn m ~fname:"init" ~args:[]);
        finish m;
        Vm.flush_all m;
        List.init spec.Engine.threads (fun _ ->
            Vm.spawn m ~fname:"worker" ~args:[ Int64.of_int spec.Engine.ops ]))
  in
  let validate mode =
    Layers.span l "oracle.validate_ms" (fun () ->
        let pm = Vm.pmem m in
        Oracle.validate ~workload ~mode
          ~root:(Ido_region.Region.get_root (Vm.region m) 0)
          { Oracle.load = Pmem.load pm; size = Pmem.size pm })
  in
  let threads = init () in
  Layers.vm_run l threads (fun () -> finish m);
  Vm.flush_all m;
  Layers.region_used l m;
  Layers.count l "log.undo_records" (Vm.undo_records_total m);
  (match validate Oracle.Atomic with
  | Ok () -> ()
  | Error msg -> failwith ("crash-free run fails oracle: " ^ msg));
  (* [Engine.record]'s recording run, on the arena machine as
     [Engine.explore] makes it. *)
  Layers.vm_span l "vm.reset_ms" (fun () -> Vm.reset m);
  ignore (init ());
  let schedule =
    Layers.span l "check.record_ms" (fun () ->
        let events = ref [] in
        Vm.set_event_hook m (Some (fun e -> events := e :: !events));
        finish m;
        Vm.set_event_hook m None;
        Array.of_list (List.rev !events))
  in
  let total = Array.length schedule in
  let indices, exhaustive = plan_indices spec ~total in
  let consistency = ref (Ok ()) in
  let inject index =
    Layers.vm_span l "vm.reset_ms" (fun () -> Vm.reset m);
    let threads = init () in
    let c0 = Layers.counters m in
    let obs = Obs.create ~buffer:false () in
    Vm.set_obs m (Some obs);
    let seen = ref 0 and event = ref None in
    Vm.set_event_hook m
      (Some
         (fun e ->
           if !seen = index then begin
             event := Some (Ido_vm.Event.describe e);
             raise Crash_injected
           end;
           incr seen));
    Layers.vm_run l threads (fun () ->
        try finish m with Crash_injected -> ());
    Vm.set_event_hook m None;
    Layers.vm_span l "vm.crash_ms" (fun () -> Vm.crash m);
    let verdict =
      match Layers.span l "recover.ms" (fun () -> Vm.recover m) with
      | stats ->
          Layers.recovered l stats;
          Vm.flush_all m;
          validate spec.Engine.oracle_mode
      | exception e ->
          Error (Printf.sprintf "recovery raised: %s" (Printexc.to_string e))
    in
    Vm.set_obs m None;
    Layers.count l "log.undo_records" (Vm.undo_records_total m);
    (match (!consistency, Layers.pmem_window l m c0 obs) with
    | Ok (), (Error _ as e) -> consistency := e
    | _ -> ());
    Layers.count l "check.injections" 1;
    if Result.is_error verdict then Layers.count l "check.violations" 1;
    { Engine.index; event = !event; verdict }
  in
  let injections = Array.map inject indices in
  let tested_ok = Hashtbl.create 64 in
  Array.iter
    (fun (i : Engine.injection) ->
      if Result.is_ok i.Engine.verdict then
        Hashtbl.replace tested_ok i.Engine.index ())
    injections;
  let violations =
    List.filter
      (fun (i : Engine.injection) -> Result.is_error i.Engine.verdict)
      (Array.to_list injections)
  in
  let shrink (first : Engine.injection) =
    let runs = ref 0 in
    let rec go k =
      if k >= first.Engine.index then first
      else if Hashtbl.mem tested_ok k || !runs >= shrink_budget then go (k + 1)
      else begin
        incr runs;
        let i = inject k in
        if Result.is_error i.Engine.verdict then i else go (k + 1)
      end
    in
    go 0
  in
  let counterexample =
    match violations with
    | [] -> None
    | first :: _ -> Some (if exhaustive then first else shrink first)
  in
  {
    Job.result =
      result label ~total ~tested:(Array.length indices) ~exhaustive
        ~violations ~counterexample;
    error =
      Job.first_error
        [
          lazy (check ~expect ~violations ~counterexample);
          lazy (Job.gate !consistency);
        ];
    work = Array.length indices;
    samples = [||];
  }

let setup size ~seed =
  let pairs =
    match size with
    | Job.Full -> pairs
    | Job.Tiny ->
        List.filter (fun (s, _, _, _, _, _) -> s = Scheme.Ido || s = Scheme.Origin) pairs
  in
  List.map
    (fun (scheme, workload, ops, strict, cache_lines, expect) ->
      let spec =
        Engine.defaults ~seed ?ops ~strict ?cache_lines ~scheme ~workload ()
      in
      ignore (Workload.named workload : Ido_ir.Ir.program);
      let label =
        Printf.sprintf "%s/%s o%d cl%d %s" (Scheme.name scheme) workload
          spec.Engine.ops spec.Engine.cache_lines
          (if strict then "strict" else "default")
      in
      { Job.label; run = run label spec ~expect; traced = traced label spec ~expect })
    pairs
