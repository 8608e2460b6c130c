(* Dynamic golden ledger: crash-point exploration.

   Prints the full [Engine.explore] report for every supported scheme x
   workload pair at a small budget — schedule length, crash points
   tested, every violation with its verdict, the counterexample and its
   repro line — plus every scheme on queue with a 4-line cache, and the
   Origin/stack strict run with a 4-line cache, whose sampled violation
   goes through counterexample shrinking.  The dune rule diffs this
   against the committed golden_explore.expected, so any change to the
   recorded schedules, to what a crash at a sampled index leaves behind
   or to what recovery makes of it fails the build.  Regenerate with
   dune promote only for a deliberate behaviour change. *)

open Ido_runtime
module Engine = Ido_check.Engine

let budget = 16

let verdict = function Ok () -> "ok" | Error m -> "VIOLATION: " ^ m

let injection (i : Engine.injection) =
  Printf.sprintf "%d (%s): %s" i.Engine.index
    (Option.value i.Engine.event ~default:"terminal")
    (verdict i.Engine.verdict)

let report label spec ~budget =
  let r = Engine.explore spec ~budget in
  Printf.printf "explore %s budget=%d events=%d tested=%d exhaustive=%b violations=%d\n"
    label budget r.Engine.total_events r.Engine.tested r.Engine.exhaustive
    (List.length r.Engine.violations);
  List.iter (fun i -> Printf.printf "  violation %s\n" (injection i))
    r.Engine.violations;
  match r.Engine.counterexample with
  | None -> print_endline "  counterexample none"
  | Some i ->
      Printf.printf "  counterexample %s\n  repro %s\n" (injection i)
        (Engine.repro_line spec i.Engine.index)

let () =
  List.iter
    (fun workload ->
      List.iter
        (fun scheme ->
          if Engine.supported scheme workload then
            report
              (Printf.sprintf "%s/%s" (Scheme.name scheme) workload)
              (Engine.defaults ~scheme ~workload ())
              ~budget)
        Scheme.all)
    Ido_workloads.Workload.names;
  (* A 4-line cache evicts constantly: the eviction generator and the
     dirty overlay are live state at every crash point. *)
  List.iter
    (fun scheme ->
      report
        (Printf.sprintf "%s/queue cl4" (Scheme.name scheme))
        (Engine.defaults ~cache_lines:4 ~scheme ~workload:"queue" ())
        ~budget)
    (List.filter (fun s -> Engine.supported s "queue") Scheme.all);
  report "origin/stack strict cl4 o25"
    (Engine.defaults ~ops:25 ~cache_lines:4 ~strict:true ~scheme:Scheme.Origin
       ~workload:"stack" ())
    ~budget:60
