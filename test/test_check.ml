(* Tier-1 coverage for the crash-point exploration engine (lib/check).

   Budgets here are deliberately small: each injected crash boots a
   fresh machine, so the suite bounds its total work to keep the tree
   fast.  The exhaustive sweeps live behind bin/ido_check. *)

open Ido_runtime
open Ido_vm
open Ido_check

let spec ?threads ?ops ?cache_lines ?strict ~scheme ~workload () =
  Engine.defaults ?threads ?ops ?cache_lines ?strict ~scheme ~workload ()

(* Recording the persist-event schedule twice must give the same
   sequence: injection indices are only meaningful if replays observe
   the schedule the recording did. *)
let recording_deterministic () =
  let s = spec ~scheme:Scheme.Ido ~workload:"queue" ~ops:10 () in
  let a = Engine.record s in
  let b = Engine.record s in
  Alcotest.(check int) "same length" (Array.length a) (Array.length b);
  Array.iteri
    (fun i e ->
      Alcotest.(check string)
        (Printf.sprintf "event %d" i)
        (Event.describe e) (Event.describe b.(i)))
    a

(* A crash at every sampled point of an instrumented scheme must
   recover to a state the Atomic oracle accepts. *)
let clean_exploration scheme workload () =
  let s = spec ~scheme ~workload ~ops:12 () in
  let r = Engine.explore s ~budget:25 in
  (match r.Engine.counterexample with
  | None -> ()
  | Some inj ->
      Alcotest.failf "unexpected violation at index %d: %s" inj.Engine.index
        (match inj.Engine.verdict with Error m -> m | Ok () -> "ok"));
  Alcotest.(check int) "no violations" 0 (List.length r.Engine.violations);
  Alcotest.(check bool) "tested something" true (r.Engine.tested > 0)

(* Origin has no failure-atomicity mechanism: with a small cache the
   eviction stream leaks partial updates, and the strict oracle must
   catch one, shrink it, and hand back an index that replays. *)
let origin_counterexample () =
  let s =
    spec ~scheme:Scheme.Origin ~workload:"stack" ~ops:25 ~cache_lines:4
      ~strict:true ()
  in
  let r = Engine.explore s ~budget:60 in
  match r.Engine.counterexample with
  | None -> Alcotest.fail "origin/stack survived the strict oracle"
  | Some inj -> (
      (match inj.Engine.verdict with
      | Ok () -> Alcotest.fail "counterexample carries an Ok verdict"
      | Error _ -> ());
      (* The shrunk index must replay to a violation on a fresh run. *)
      let again = Engine.inject s inj.Engine.index in
      match again.Engine.verdict with
      | Error _ -> ()
      | Ok () ->
          Alcotest.failf "index %d did not replay to a violation"
            inj.Engine.index)

(* Under the Prefix oracle Origin's crash states are merely required to
   be memory-safe; the same configuration must then pass. *)
let origin_prefix_clean () =
  let s = spec ~scheme:Scheme.Origin ~workload:"stack" ~ops:25 ~cache_lines:8 () in
  let r = Engine.explore s ~budget:40 in
  Alcotest.(check int) "prefix oracle accepts origin" 0
    (List.length r.Engine.violations)

(* Cross-scheme differential check: instrumentation must not change
   what the program computes.  With one thread the schedule is fixed,
   so every scheme's crash-free final state must digest identically.
   (Mnemosyne's abort backoff consumes thread randomness only under
   contention, so single-threaded runs stay comparable.) *)
let differential workload () =
  let digest scheme =
    Engine.final_digest (spec ~scheme ~workload ~threads:1 ~ops:15 ())
  in
  let reference = digest Scheme.Origin in
  List.iter
    (fun scheme ->
      if Engine.supported scheme workload then
        Alcotest.(check string)
          (Printf.sprintf "%s matches origin on %s" (Scheme.name scheme)
             workload)
          reference (digest scheme))
    Scheme.all

let differential_cases =
  List.map
    (fun w ->
      Alcotest.test_case (Printf.sprintf "all schemes agree on %s" w) `Quick
        (differential w))
    [ "stack"; "queue"; "olist"; "hmap"; "kvcache50"; "objstore"; "mlog" ]

let pmem_counters m =
  let c = Ido_nvm.Pmem.counters (Vm.pmem m) in
  Ido_nvm.Pmem.(
    [ c.loads; c.stores; c.clwbs; c.writebacks; c.fences; c.evictions ])

let show (i : Engine.injection) =
  Printf.sprintf "%d %s %s" i.Engine.index
    (Option.value i.Engine.event ~default:"idle")
    (match i.Engine.verdict with Ok () -> "ok" | Error m -> m)

(* The arena path (checkpoint once after init, restore per run) must
   be indistinguishable from a fresh machine per run: the same
   injection record, durable image and pmem counters.  One arena
   serves every index in turn, so a run that leaks into the next one
   (held locks, DRAM, a violating crash's torn image) shows up. *)
let arena_matches_fresh (s : Engine.spec) ~extra () =
  let seen = ref None in
  let c =
    {
      (Engine.custom_of_spec s) with
      Engine.c_validate =
        (fun m ->
          let pm = Vm.pmem m in
          let mem =
            { Ido_workloads.Oracle.load = Ido_nvm.Pmem.load pm;
              size = Ido_nvm.Pmem.size pm }
          in
          let root = Ido_region.Region.get_root (Vm.region m) 0 in
          seen :=
            Some
              ( Ido_workloads.Oracle.digest ~workload:s.Engine.workload ~root
                  mem,
                pmem_counters m );
          Ok ());
    }
  in
  let arena = Engine.arena c in
  let image ?arena k =
    seen := None;
    ignore (Engine.probe ?arena ~index:k c : Engine.probe);
    Option.get !seen
  in
  let total = Array.length (Engine.record s) in
  let indices =
    List.sort_uniq compare
      ([ 0; total / 3; total / 2; (2 * total) / 3; total ] @ extra ())
  in
  List.iter
    (fun k ->
      let where = Printf.sprintf "index %d" k in
      Alcotest.(check string)
        (where ^ ": injection")
        (show (Engine.inject s k))
        (show (Engine.inject ~arena s k));
      let d0, c0 = image k and d1, c1 = image ~arena k in
      Alcotest.(check string) (where ^ ": durable image") d0 d1;
      Alcotest.(check (list int)) (where ^ ": pmem counters") c0 c1)
    indices

let arena_spec scheme workload = spec ~scheme ~workload ~ops:12 ()

(* Origin under the strict oracle with 4 cache lines tears its
   updates: the explored counterexample and the index after it put a
   violating injection right before a clean-slate comparison. *)
let origin_strict =
  spec ~scheme:Scheme.Origin ~workload:"stack" ~ops:25 ~cache_lines:4
    ~strict:true ()

let after_violation () =
  match (Engine.explore origin_strict ~budget:60).Engine.counterexample with
  | None -> Alcotest.fail "origin/stack survived the strict oracle"
  | Some inj -> [ inj.Engine.index; inj.Engine.index + 1 ]

let arena_cases =
  List.map
    (fun (scheme, workload) ->
      Alcotest.test_case
        (Printf.sprintf "%s/%s arena = fresh machine" (Scheme.name scheme)
           workload)
        `Quick
        (arena_matches_fresh (arena_spec scheme workload) ~extra:(fun () ->
             [])))
    Scheme.
      [
        (Ido, "queue");
        (Atlas, "hmap");
        (Justdo, "stack");
        (Mnemosyne, "kvcache50");
        (Nvthreads, "mlog");
        (Nvml, "objstore");
      ]
  @ [
      Alcotest.test_case "origin/stack strict arena = fresh machine" `Quick
        (arena_matches_fresh origin_strict ~extra:after_violation);
    ]

(* A ladder rung must be indistinguishable from a fresh machine
   replayed to it: injections just before, at and just after every
   rung, through the ladder on one arena, give the injection record,
   durable image and pmem counters of an arena-less injection.  A
   second arena restores the same rungs for every third of them. *)
let ladder_matches_fresh (s : Engine.spec) ~extra () =
  let arena = Engine.arena (Engine.custom_of_spec s) in
  let ladder = Engine.ladder ~arena s in
  let other = Engine.arena (Engine.custom_of_spec s) in
  let rungs = Engine.rungs ladder in
  Alcotest.(check int) "first rung at event 0" 0 rungs.(0);
  Alcotest.(check bool) "more than one rung" true (Array.length rungs > 1);
  let total = Array.length (Engine.record s) in
  let indices =
    List.sort_uniq compare
      (List.filter
         (fun k -> k >= 0 && k <= total)
         (List.concat_map (fun r -> [ r - 1; r; r + 1 ]) (Array.to_list rungs)
         @ [ total ] @ extra ()))
  in
  let run ?arena ?ladder k =
    let seen = ref ("no recovery", []) in
    let inspect m =
      let pm = Vm.pmem m in
      let mem =
        { Ido_workloads.Oracle.load = Ido_nvm.Pmem.load pm;
          size = Ido_nvm.Pmem.size pm }
      in
      let root = Ido_region.Region.get_root (Vm.region m) 0 in
      seen :=
        ( Ido_workloads.Oracle.digest ~workload:s.Engine.workload ~root mem,
          pmem_counters m )
    in
    let inj = Engine.inject ?arena ?ladder ~inspect s k in
    (show inj, !seen)
  in
  List.iteri
    (fun i k ->
      let where = Printf.sprintf "index %d" k in
      let inj0, (d0, c0) = run k in
      let check (inj, (d, c)) what =
        Alcotest.(check string) (where ^ what ^ ": injection") inj0 inj;
        Alcotest.(check string) (where ^ what ^ ": durable image") d0 d;
        Alcotest.(check (list int)) (where ^ what ^ ": pmem counters") c0 c
      in
      check (run ~arena ~ladder k) "";
      if i mod 3 = 0 then check (run ~arena:other ~ladder k) " (second arena)")
    indices

let ladder_cases =
  List.map
    (fun (scheme, workload) ->
      Alcotest.test_case
        (Printf.sprintf "%s/%s ladder rung = fresh machine" (Scheme.name scheme)
           workload)
        `Quick
        (ladder_matches_fresh (spec ~scheme ~workload ~ops:5 ()) ~extra:(fun () ->
             [])))
    Scheme.
      [
        (Ido, "queue");
        (Atlas, "hmap");
        (Justdo, "stack");
        (Mnemosyne, "kvcache50");
        (Nvthreads, "mlog");
        (Nvml, "objstore");
      ]
  @ [
      Alcotest.test_case "origin/stack strict ladder rung = fresh machine"
        `Quick
        (ladder_matches_fresh origin_strict ~extra:after_violation);
    ]

let suites =
  [
    ( "check.engine",
      [
        Alcotest.test_case "recorded schedule is deterministic" `Quick
          recording_deterministic;
        Alcotest.test_case "ido/queue crash matrix is clean" `Quick
          (clean_exploration Scheme.Ido "queue");
        Alcotest.test_case "atlas/stack crash matrix is clean" `Quick
          (clean_exploration Scheme.Atlas "stack");
        Alcotest.test_case "justdo/stack crash matrix is clean" `Quick
          (clean_exploration Scheme.Justdo "stack");
        Alcotest.test_case "mnemosyne/mlog crash matrix is clean" `Quick
          (clean_exploration Scheme.Mnemosyne "mlog");
        Alcotest.test_case "origin/stack fails strict oracle, shrinks, replays"
          `Quick origin_counterexample;
        Alcotest.test_case "origin/stack passes prefix oracle" `Quick
          origin_prefix_clean;
      ]
      @ arena_cases @ ladder_cases );
    ("check.differential", differential_cases);
  ]
