(* serve-fault: serial [Serve.run_cell] over read-mostly kvcache10,
   fault-free and under the single-crash and storm scenarios.  The only
   workload that drives Gen, Shard, Lat and failover replay, and one
   that boots many short-lived group machines. *)

open Ido_runtime
open Ido_workloads
open Ido_serve

let workload = "kvcache10"
let schemes = Scheme.[ Ido; Atlas; Justdo ]
let topologies = Topology.[ static 4; replicated ~replicas:1 4 ]
let batch = 8

let faults =
  [
    (fun _ -> Fault.none);
    Fault.single_crash;
    (fun c -> Fault.storm c);
  ]

(* The group machines' region size ([Shard]'s VM configuration). *)
let region_words = 1 lsl 22

let check (config : Config.t) (cell : Serve.cell) =
  let s = cell.Serve.stats in
  Job.first_error
    [
      lazy (Job.gate cell.Serve.oracle);
      lazy (Job.gate cell.Serve.consistency);
      lazy
        (if s.Lat.served + s.Lat.dropped = config.Config.requests then None
         else Some "requests lost");
      lazy
        (if config.Config.topology.Topology.replicas > 0 && s.Lat.dropped > 0
         then Some (Printf.sprintf "replicated cell dropped %d" s.Lat.dropped)
         else None);
    ]

let run config fault () =
  let t0 = Layers.now () in
  let cell = Serve.run_cell ~fault config in
  let us = (Layers.now () -. t0) *. 1e6 in
  let served = cell.Serve.stats.Lat.served in
  {
    Job.result = Report.to_json [ cell ];
    error = check config cell;
    work = served;
    samples = [| us /. float_of_int (max 1 served) |];
  }

let first_error outcomes pick =
  List.fold_left
    (fun acc o -> match acc with Error _ -> acc | Ok () -> pick o)
    (Ok ()) outcomes

(* [Serve.run_cell] made of its public calls: plan, one [run_unit] per
   routing group (these topologies never reshard, so every unit is a
   single group), then the sketch merge — with obs sinks on every
   machine. *)
let traced (config : Config.t) fault l =
  Fault.validate config fault;
  let w = Workload.get workload in
  let program = Workload.program w in
  Layers.compile l config.Config.scheme program;
  let plan =
    Layers.span l "serve.plan_ms" (fun () ->
        Gen.plan config ~key_range:w.Workload.request.Workload.key_range)
  in
  let groups = List.init (Config.shards config) Fun.id in
  Layers.replica l "gen_ms" (fun () ->
      List.iter
        (fun g ->
          let s = Gen.sub_stream plan g in
          let rec drain n =
            match Gen.next s with None -> n | Some _ -> drain (n + 1)
          in
          Layers.count l "gen_requests" (drain 0))
        groups);
  let cache_lines = (Ido_vm.Vm.config config.Config.scheme).Ido_vm.Vm.cache_lines in
  for _ = 1 to Topology.machines config.Config.topology do
    Layers.region_boot l ~words:region_words ~cache_lines
  done;
  let outcomes =
    List.concat_map
      (fun g ->
        Layers.span l "serve.unit_ms" (fun () ->
            Shard.run_unit ~obs:true ~fault ~config ~program
              ~oracle:w.Workload.oracle ~plan [ g ]))
      groups
  in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  let dropped = sum (fun o -> o.Shard.dropped) in
  let stats =
    Layers.span l "serve.merge_ms" (fun () ->
        let lat = Lat.create () in
        List.iter (fun o -> Lat.merge ~into:lat o.Shard.lat) outcomes;
        Lat.stats ~dropped lat)
  in
  let makespan_ns =
    List.fold_left (fun a o -> max a o.Shard.busy_until) 0 outcomes
  in
  let cell =
    {
      Serve.config;
      fault;
      stats;
      makespan_ns;
      mops =
        (if makespan_ns = 0 then 0.0
         else
           float_of_int stats.Lat.served /. float_of_int makespan_ns *. 1000.0);
      shards = outcomes;
      replayed = sum (fun o -> o.Shard.replayed);
      recovery_ns = sum (fun o -> o.Shard.recovery_ns);
      unavail_ns = sum (fun o -> o.Shard.unavail_ns);
      max_stall_ns =
        List.fold_left (fun a o -> max a o.Shard.max_stall_ns) 0 outcomes;
      oracle = first_error outcomes (fun o -> o.Shard.oracle);
      consistency = first_error outcomes (fun o -> o.Shard.consistency);
    }
  in
  let json = Layers.span l "serve.report_ms" (fun () -> Report.to_json [ cell ]) in
  Layers.count l "unit_requests" stats.Lat.served;
  Layers.count l "serve.replayed" cell.Serve.replayed;
  Layers.count l "serve.failovers" (sum (fun o -> o.Shard.failovers));
  (* In-place recoveries run inside [run_unit]: their count is visible
     in the outcomes, their host time is not. *)
  Layers.count l "recover.calls"
    (sum (fun o -> o.Shard.crashes - o.Shard.failovers));
  {
    Job.result = json;
    error = check config cell;
    work = stats.Lat.served;
    samples = [||];
  }

let setup size ~seed =
  let requests, cells =
    let all =
      List.concat_map
        (fun scheme ->
          List.concat_map
            (fun topology -> List.map (fun f -> (scheme, topology, f)) faults)
            topologies)
        schemes
    in
    match size with
    | Job.Full -> (1500, all)
    | Job.Tiny -> (200, List.filteri (fun i _ -> i mod 7 = 0) all)
  in
  ignore (Workload.program (Workload.get workload) : Ido_ir.Ir.program);
  List.map
    (fun (scheme, topology, fault) ->
      let config =
        Config.make ~seed ~topology ~batch ~requests ~workload ~scheme ()
      in
      let fault = fault config in
      let label =
        Printf.sprintf "%s [%s]" (Config.label config) fault.Fault.label
      in
      { Job.label; run = run config fault; traced = traced config fault })
    cells
