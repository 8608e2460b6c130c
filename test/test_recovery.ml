(* Integration: the full compile -> instrument -> run -> crash ->
   recover -> check pipeline over every workload and scheme. *)

open Ido_runtime
module Vm = Ido_vm.Vm

let qtest = QCheck_alcotest.to_alcotest

let run_check m =
  let t = Vm.spawn m ~fname:"check" ~args:[] in
  match Vm.run m with
  | `Idle -> (
      match Vm.observations t with
      | [ n ] -> Ok (Int64.to_int n)
      | l -> Error (Printf.sprintf "check observed %d values" (List.length l)))
  | `Deadlock -> Error "deadlock in check"
  | _ -> Error "check did not finish"
  | exception Vm.Vm_error e -> Error e

let crash_and_verify ?cache_lines ~scheme ~workload ~threads ~seed ~crash_at () =
  let prog = Ido_workloads.Workload.named workload in
  let base = Vm.config scheme in
  let cfg =
    { base with seed;
      cache_lines = Option.value ~default:base.Vm.cache_lines cache_lines }
  in
  let m = Vm.create cfg prog in
  let _ = Vm.spawn m ~fname:"init" ~args:[] in
  (match Vm.run m with `Idle -> () | _ -> failwith "init stuck");
  Vm.flush_all m;
  for _ = 1 to threads do
    ignore (Vm.spawn m ~fname:"worker" ~args:[ 250L ])
  done;
  (match Vm.run ~until:crash_at m with
  | `Until | `Idle -> ()
  | `Deadlock -> failwith "workload deadlocked"
  | `Max_steps | `Paused -> failwith "step budget");
  Vm.crash m;
  let _ = Vm.recover m in
  run_check m

let recoverable = Scheme.[ Ido; Atlas; Mnemosyne; Justdo; Nvthreads ]

(* NVML protects only programmer-delineated durable regions, so it is
   exercised on the objstore alone. *)
let schemes_for workload =
  if workload = "objstore" then Scheme.Nvml :: recoverable else recoverable

let test_matrix () =
  List.iter
    (fun workload ->
      List.iter
        (fun scheme ->
          List.iter
            (fun seed ->
              let threads = if workload = "objstore" then 1 else 3 in
              match
                crash_and_verify ~scheme ~workload ~threads ~seed
                  ~crash_at:(25_000 + (seed * 17_771)) ()
              with
              | Ok _ -> ()
              | Error e ->
                  Alcotest.failf "%s/%s seed=%d: %s" workload
                    (Scheme.name scheme) seed e)
            [ 1; 2; 3 ])
        (schemes_for workload))
    Ido_workloads.Workload.names

let test_origin_is_vulnerable () =
  (* Documented hazard: the uninstrumented baseline must eventually
     produce an inconsistent post-crash heap (otherwise the whole
     experiment measures nothing).  We scan seeds for at least one
     violation. *)
  let broken = ref 0 in
  for seed = 1 to 12 do
    match
      crash_and_verify ~cache_lines:16 ~scheme:Scheme.Origin ~workload:"queue"
        ~threads:3 ~seed ~crash_at:(30_000 + (seed * 13_000)) ()
    with
    | Ok _ -> ()
    | Error _ -> incr broken
  done;
  Alcotest.(check bool) "origin corrupts at least once" true (!broken > 0)

let test_double_crash () =
  (* Crash during normal execution, recover, run more work, crash
     again, recover again: consistency must hold across repeated
     failures. *)
  List.iter
    (fun scheme ->
      let prog = Ido_workloads.Workload.named "stack" in
      let m = Vm.create { (Vm.config scheme) with seed = 5 } prog in
      let _ = Vm.spawn m ~fname:"init" ~args:[] in
      ignore (Vm.run m);
      Vm.flush_all m;
      for _ = 1 to 2 do
        ignore (Vm.spawn m ~fname:"worker" ~args:[ 400L ])
      done;
      (match Vm.run ~until:60_000 m with `Until | `Idle -> () | _ -> assert false);
      Vm.crash m;
      let _ = Vm.recover m in
      for _ = 1 to 2 do
        ignore (Vm.spawn m ~fname:"worker" ~args:[ 400L ])
      done;
      (match Vm.run ~until:(Vm.clock m + 40_000) m with
      | `Until | `Idle -> ()
      | _ -> assert false);
      Vm.crash m;
      let _ = Vm.recover m in
      match run_check m with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s double crash: %s" (Scheme.name scheme) e)
    recoverable

let test_recovery_stats_sensible () =
  let prog = Ido_workloads.Workload.named "hmap" in
  let m = Vm.create { (Vm.config Scheme.Ido) with seed = 7 } prog in
  let _ = Vm.spawn m ~fname:"init" ~args:[] in
  ignore (Vm.run m);
  Vm.flush_all m;
  for _ = 1 to 4 do
    ignore (Vm.spawn m ~fname:"worker" ~args:[ 10_000L ])
  done;
  (match Vm.run ~until:(Vm.clock m + 200_000) m with
  | `Until -> ()
  | _ -> Alcotest.fail "expected mid-run crash point");
  Vm.crash m;
  let st = Vm.recover m in
  Alcotest.(check bool) "some FASEs resumed" true
    (st.Ido_vm.Recover.fases_resumed >= 0
    && st.Ido_vm.Recover.fases_resumed <= 4);
  Alcotest.(check bool) "recovery time dominated by restart constant" true
    (st.Ido_vm.Recover.simulated_time >= Ido_util.Timebase.ms 300)

let test_recovery_time_constant_in_run_length () =
  (* Sec. V-D: iDO recovery is ~constant; Atlas recovery grows with
     the log volume. *)
  let measure scheme crash_at =
    let prog = Ido_workloads.Workload.named "queue" in
    let m = Vm.create { (Vm.config scheme) with seed = 3 } prog in
    let _ = Vm.spawn m ~fname:"init" ~args:[] in
    ignore (Vm.run m);
    Vm.flush_all m;
    for _ = 1 to 4 do
      ignore (Vm.spawn m ~fname:"worker" ~args:[ 1_000_000L ])
    done;
    (match Vm.run ~until:crash_at m with `Until -> () | _ -> assert false);
    Vm.crash m;
    let records = ref 0 in
    records := Vm.undo_records_total m;
    let st = Vm.recover m in
    (st.Ido_vm.Recover.simulated_time, !records)
  in
  let ido_short, _ = measure Scheme.Ido 200_000 in
  let ido_long, _ = measure Scheme.Ido 2_000_000 in
  let atlas_short, r1 = measure Scheme.Atlas 200_000 in
  let atlas_long, r2 = measure Scheme.Atlas 2_000_000 in
  Alcotest.(check bool) "iDO constant-ish" true
    (float_of_int ido_long < 1.2 *. float_of_int ido_short);
  Alcotest.(check bool) "Atlas log grows with run" true (r2 > (3 * r1));
  Alcotest.(check bool) "Atlas recovery grows" true (atlas_long > atlas_short)

let prop_ido_random_crash_points =
  QCheck.Test.make ~name:"ido olist recovery at random crash points" ~count:25
    QCheck.(pair (int_range 1 1000) (int_range 5_000 400_000))
    (fun (seed, crash_at) ->
      match
        crash_and_verify ~scheme:Scheme.Ido ~workload:"olist" ~threads:4 ~seed
          ~crash_at ()
      with
      | Ok _ -> true
      | Error _ -> false)

let suites =
  [
    ( "recovery",
      [
        Alcotest.test_case "matrix (all workloads x schemes)" `Slow test_matrix;
        Alcotest.test_case "origin is crash-vulnerable" `Quick
          test_origin_is_vulnerable;
        Alcotest.test_case "double crash" `Quick test_double_crash;
        Alcotest.test_case "stats sensible" `Quick test_recovery_stats_sensible;
        Alcotest.test_case "iDO constant vs Atlas growing" `Quick
          test_recovery_time_constant_in_run_length;
        qtest prop_ido_random_crash_points;
      ] );
  ]
