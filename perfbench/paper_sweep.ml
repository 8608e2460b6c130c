(* paper-sweep: throughput cells from Figs. 5-7 and 9 through
   [Exp.measure], obs off.  Each cell boots one machine and runs its
   workers to completion, so interpreter steps, pmem traffic and log
   appends dominate. *)

open Ido_runtime
module Exp = Ido_harness.Exp
module Vm = Ido_vm.Vm
module Pmem = Ido_nvm.Pmem
module Obs = Ido_obs.Obs

(* figure, scheme, workload, threads, ops per thread, extra NVM write
   latency in ns (Fig. 9's axis; 0 = the default model) *)
let cells =
  Scheme.
    [
      ("fig7", Ido, "olist", 4, 480, 0);
      ("fig7", Justdo, "olist", 4, 240, 0);
      ("fig7", Mnemosyne, "olist", 4, 480, 0);
      ("fig7", Atlas, "hmap", 4, 3200, 0);
      ("fig7", Ido, "hmap", 4, 3200, 0);
      ("fig7", Justdo, "queue", 4, 3200, 0);
      ("fig7", Mnemosyne, "queue", 4, 3200, 0);
      ("fig7", Atlas, "stack", 4, 3200, 0);
      ("fig7", Ido, "stack", 4, 3200, 0);
      ("fig5", Nvthreads, "kvcache50", 4, 3200, 0);
      ("fig5", Ido, "kvcache50", 4, 3200, 0);
      ("fig6", Nvml, "objstore", 1, 16000, 0);
      ("fig6", Ido, "objstore", 1, 16000, 0);
      ("fig6", Atlas, "objstore", 1, 16000, 0);
      ("fig9", Justdo, "kvcache50", 8, 1600, 500);
      ("fig9", Atlas, "kvcache50", 8, 1600, 500);
    ]

let label (s : Exp.Spec.t) fig extra =
  Printf.sprintf "%s %s/%s t%d o%d +%dns" fig (Scheme.name s.Exp.Spec.scheme)
    s.Exp.Spec.workload s.Exp.Spec.threads s.Exp.Spec.ops extra

let result label (r : Exp.run) =
  Printf.sprintf "%s mops=%.17g sim_ns=%d fences=%d clwbs=%d" label r.Exp.mops
    r.Exp.sim_ns r.Exp.fences r.Exp.clwbs

let check (s : Exp.Spec.t) (r : Exp.run) consistency =
  Job.first_error
    [
      lazy (Job.gate consistency);
      lazy
        (let want = s.Exp.Spec.threads * s.Exp.Spec.ops in
         if r.Exp.ops = want then None
         else Some (Printf.sprintf "completed %d of %d ops" r.Exp.ops want));
    ]

let run label spec () =
  let t0 = Layers.now () in
  let p = Exp.measure spec in
  let us = (Layers.now () -. t0) *. 1e6 in
  let r = p.Exp.prun in
  {
    Job.result = result label r;
    error = check spec r p.Exp.consistency;
    work = r.Exp.ops;
    samples = [| us /. float_of_int (max 1 r.Exp.ops) |];
  }

let finish m what =
  match Vm.run m with
  | `Idle -> ()
  | _ -> failwith (what ^ " did not run to completion")

(* [Exp.measure] made of its public calls: create, init, flush_all,
   workers, run — with an unbuffered sink over the measured window.
   Then, beyond what [Exp.measure] does, the final image is flushed
   and checked by the workload's oracle. *)
let traced label (spec : Exp.Spec.t) l =
  let program = Exp.Spec.program spec in
  let scheme = spec.Exp.Spec.scheme in
  Layers.compile l scheme program;
  let base = Vm.config scheme in
  let cfg =
    {
      base with
      Vm.seed = spec.Exp.Spec.seed;
      latency = Option.value spec.Exp.Spec.latency ~default:base.Vm.latency;
    }
  in
  Layers.region_boot l ~words:cfg.Vm.pmem_words ~cache_lines:cfg.Vm.cache_lines;
  let m = Layers.vm_span l "vm.create_ms" (fun () -> Vm.create cfg program) in
  Layers.vm_span l "vm.init_ms" (fun () ->
      ignore (Vm.spawn m ~fname:"init" ~args:[]);
      finish m "init";
      Vm.flush_all m);
  let c0 = Layers.counters m and clock0 = Vm.clock m in
  let obs = Obs.create ~buffer:false () in
  Vm.set_obs m (Some obs);
  let threads =
    List.init spec.Exp.Spec.threads (fun _ ->
        Vm.spawn m ~fname:"worker" ~args:[ Int64.of_int spec.Exp.Spec.ops ])
  in
  Layers.vm_run l threads (fun () -> finish m "workload");
  Vm.set_obs m None;
  let consistency = Layers.pmem_window l m c0 obs in
  Layers.count l "log.undo_records" (Vm.undo_records_total m);
  Layers.region_used l m;
  let sim_ns = Vm.clock m - clock0 and ops = Vm.total_ops m in
  let c = Pmem.counters (Vm.pmem m) in
  let r =
    {
      Exp.scheme;
      mops =
        (if sim_ns = 0 then 0.0
         else float_of_int ops /. float_of_int sim_ns *. 1000.0);
      sim_ns;
      ops;
      fences = c.Pmem.fences - c0.Pmem.fences;
      clwbs = c.Pmem.clwbs - c0.Pmem.clwbs;
    }
  in
  let oracle =
    Layers.replica l "oracle.validate_ms" (fun () ->
        Vm.flush_all m;
        let pm = Vm.pmem m in
        Ido_workloads.Oracle.validate ~workload:spec.Exp.Spec.workload
          ~mode:Ido_workloads.Oracle.Atomic
          ~root:(Ido_region.Region.get_root (Vm.region m) 0)
          { Ido_workloads.Oracle.load = Pmem.load pm; size = Pmem.size pm })
  in
  {
    Job.result = result label r;
    error =
      Job.first_error
        [ lazy (check spec r consistency); lazy (Job.gate oracle) ];
    work = ops;
    samples = [||];
  }

let setup size ~seed =
  let cells =
    match size with
    | Job.Full -> cells
    | Job.Tiny ->
        List.filteri (fun i _ -> i < 3) cells
        |> List.map (fun (f, s, w, t, _, d) -> (f, s, w, t, 5, d))
  in
  List.map
    (fun (fig, scheme, workload, threads, ops, extra) ->
      let latency =
        if extra = 0 then None
        else
          Some Ido_nvm.Latency.(with_nvm_extra default extra)
      in
      let spec = Exp.Spec.make ~seed ?latency ~scheme ~workload ~threads ~ops () in
      ignore (Exp.Spec.program spec : Ido_ir.Ir.program);
      let label = label spec fig extra in
      { Job.label; run = run label spec; traced = traced label spec })
    cells
