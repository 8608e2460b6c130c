open Ido_util

let result_string = function Ok () -> "ok" | Error m -> m

let cell_json (c : Serve.cell) =
  let shard_json (o : Shard.outcome) =
    Printf.sprintf
      ({|{"shard":%d,"served":%d,"replayed":%d,"dropped":%d,|}
     ^^ {|"busy_until":%d,"sim_ns":%d,"replica_ns":%d,|}
     ^^ {|"crashes":%d,"failovers":%d,"replicas_lost":%d,|}
     ^^ {|"split_off":%b,"merged_away":%b,|}
     ^^ {|"recovery_ns":%d,"unavail_ns":%d,"max_stall_ns":%d,|}
     ^^ {|"oracle":"%s","consistency":"%s"}|})
      o.Shard.group o.Shard.served o.Shard.replayed o.Shard.dropped
      o.Shard.busy_until o.Shard.sim_ns o.Shard.replica_ns o.Shard.crashes
      o.Shard.failovers o.Shard.replicas_lost o.Shard.split_off
      o.Shard.merged_away o.Shard.recovery_ns o.Shard.unavail_ns
      o.Shard.max_stall_ns
      (Ido_util.Json.escape (result_string o.Shard.oracle))
      (Ido_util.Json.escape (result_string o.Shard.consistency))
  in
  Printf.sprintf
    ({|{%s,"fault":"%s",%s,"makespan_ns":%d,"mops":%.6f,|}
   ^^ {|"replayed":%d,"recovery_ns":%d,"unavail_ns":%d,"max_stall_ns":%d,|}
   ^^ {|"oracle":"%s","consistency":"%s","shards_detail":[%s]}|})
    (Config.json_fields c.Serve.config)
    (Ido_util.Json.escape c.Serve.fault.Fault.label)
    (Lat.json_fields c.Serve.stats)
    c.Serve.makespan_ns c.Serve.mops c.Serve.replayed c.Serve.recovery_ns
    c.Serve.unavail_ns c.Serve.max_stall_ns
    (Ido_util.Json.escape (result_string c.Serve.oracle))
    (Ido_util.Json.escape (result_string c.Serve.consistency))
    (String.concat "," (List.map shard_json c.Serve.shards))

let to_json cells =
  Printf.sprintf {|{"type":"serve","format":2,"cells":[%s]}|}
    (String.concat "," (List.map cell_json cells))

(* The row key: the cell label plus the scenario when one ran.  A
   fault-free row keeps the historical bare label. *)
let row_label (c : Serve.cell) =
  let l = Config.label c.Serve.config in
  match c.Serve.fault.Fault.label with
  | "none" -> l
  | f -> Printf.sprintf "%s [%s]" l f

let render cells =
  let header =
    [
      "cell"; "mops"; "p50"; "p95"; "p99"; "max"; "served"; "replay";
      "dropped"; "stall"; "obs";
    ]
  in
  let row (c : Serve.cell) =
    let s = c.Serve.stats in
    [
      row_label c;
      Printf.sprintf "%.4f" c.Serve.mops;
      string_of_int s.Lat.p50;
      string_of_int s.Lat.p95;
      string_of_int s.Lat.p99;
      string_of_int s.Lat.max_ns;
      string_of_int s.Lat.served;
      string_of_int c.Serve.replayed;
      string_of_int s.Lat.dropped;
      string_of_int c.Serve.max_stall_ns;
      (match (c.Serve.oracle, c.Serve.consistency) with
      | Ok (), Ok () -> "ok"
      | Error m, _ | _, Error m -> m);
    ]
  in
  Render.table
    ~title:
      "Serving benchmark: throughput and request latency (simulated ns)\n\
       per (scheme x topology x batch x fault) cell"
    ~header (List.map row cells)

let sla_ok ~budget_ns (c : Serve.cell) = c.Serve.max_stall_ns <= budget_ns

let sla_verdict ~budget_ns (c : Serve.cell) =
  Printf.sprintf "SLA verdict: %s: p99=%d max_stall=%d budget=%d: %s"
    (row_label c) c.Serve.stats.Lat.p99 c.Serve.max_stall_ns budget_ns
    (if sla_ok ~budget_ns c then "ok" else "VIOLATED")

let sla_verdicts ~budget_ns cells =
  String.concat "\n" (List.map (sla_verdict ~budget_ns) cells)
