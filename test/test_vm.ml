open Ido_ir
open Ido_runtime
module Vm = Ido_vm.Vm
module Wcommon = Ido_workloads.Wcommon

(* Shared toy program: two-cell atomic increment under a lock. *)
let counter_program () =
  let b, _ = Builder.create ~name:"init" ~nparams:0 in
  let cell = Wcommon.alloc_node b 8 [] in
  Wcommon.set_root b 0 (Ir.Reg cell);
  Builder.ret b None;
  let init = Builder.finish b in
  let b, ps = Builder.create ~name:"worker" ~nparams:1 in
  let n = List.nth ps 0 in
  let cell = Wcommon.get_root b 0 in
  let lockid = Builder.bin b Ir.Add (Ir.Reg cell) (Ir.Imm 4L) in
  Wcommon.for_loop b (Ir.Reg n) (fun _ ->
      Builder.lock b (Ir.Reg lockid);
      let c = Builder.load b Ir.Persistent (Ir.Reg cell) 0 in
      let c1 = Builder.bin b Ir.Add (Ir.Reg c) (Ir.Imm 1L) in
      Builder.store b Ir.Persistent (Ir.Reg cell) 0 (Ir.Reg c1);
      Builder.unlock b (Ir.Reg lockid);
      Wcommon.observe b (Ir.Imm 1L));
  Builder.ret b None;
  { Ir.funcs = [ ("init", init); ("worker", Builder.finish b) ] }

let boot ?(scheme = Scheme.Ido) ?(seed = 42) prog =
  let m = Vm.create { (Vm.config scheme) with seed } prog in
  let _ = Vm.spawn m ~fname:"init" ~args:[] in
  (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "init stuck");
  Vm.flush_all m;
  m

let counter_value m =
  let cell = Int64.to_int (Ido_region.Region.get_root (Vm.region m) 0) in
  Ido_nvm.Pmem.load (Vm.pmem m) cell

let test_mutual_exclusion_all_schemes () =
  (* Racy read-modify-write made atomic by the lock: the final count
     must be exact under every scheme. *)
  List.iter
    (fun scheme ->
      let m = boot ~scheme (counter_program ()) in
      for _ = 1 to 4 do
        ignore (Vm.spawn m ~fname:"worker" ~args:[ 250L ])
      done;
      (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck");
      Alcotest.(check int64)
        (Scheme.name scheme ^ " exact count")
        1000L (counter_value m);
      Alcotest.(check int) "ops observed" 1000 (Vm.total_ops m))
    Scheme.all

let test_determinism () =
  let run () =
    let m = boot (counter_program ()) in
    ignore (Vm.spawn m ~fname:"worker" ~args:[ 100L ]);
    ignore (Vm.spawn m ~fname:"worker" ~args:[ 100L ]);
    ignore (Vm.run m);
    Vm.clock m
  in
  Alcotest.(check int) "same seed, same simulated time" (run ()) (run ())

let test_seed_changes_interleaving () =
  let run seed =
    let m = boot ~seed (counter_program ()) in
    ignore (Vm.spawn m ~fname:"worker" ~args:[ 100L ]);
    ignore (Vm.run m);
    Vm.clock m
  in
  (* Different seeds change eviction patterns; the clock may differ
     but correctness holds (checked above).  At minimum it must run. *)
  Alcotest.(check bool) "clocks positive" true (run 1 > 0 && run 2 > 0)

let test_run_until () =
  let m = boot (counter_program ()) in
  ignore (Vm.spawn m ~fname:"worker" ~args:[ 100_000L ]);
  (match Vm.run ~until:50_000 m with
  | `Until -> ()
  | _ -> Alcotest.fail "expected `Until");
  Alcotest.(check bool) "stopped near the bound" true (Vm.clock m < 70_000)

let test_max_steps () =
  let m = boot (counter_program ()) in
  ignore (Vm.spawn m ~fname:"worker" ~args:[ 100_000L ]);
  match Vm.run ~max_steps:100 m with
  | `Max_steps -> ()
  | _ -> Alcotest.fail "expected `Max_steps"

let test_deadlock_detection () =
  (* worker a: lock 1; lock 2 — worker b: lock 2; lock 1 with enough
     spinning between to guarantee the interleaving. *)
  let mk name first second =
    let b, _ = Builder.create ~name ~nparams:1 in
    Builder.lock b (Ir.Imm first);
    Builder.intr_void b Ir.Work [ Ir.Imm 10_000L ];
    Builder.lock b (Ir.Imm second);
    Builder.unlock b (Ir.Imm second);
    Builder.unlock b (Ir.Imm first);
    Builder.ret b None;
    Builder.finish b
  in
  let prog =
    { Ir.funcs = [ ("a", mk "a" 1L 2L); ("b", mk "b" 2L 1L) ] }
  in
  let m = Vm.create (Vm.config Scheme.Origin) prog in
  ignore (Vm.spawn m ~fname:"a" ~args:[ 0L ]);
  ignore (Vm.spawn m ~fname:"b" ~args:[ 0L ]);
  match Vm.run m with
  | `Deadlock -> ()
  | _ -> Alcotest.fail "expected deadlock"

let test_unlock_foreign_lock_rejected () =
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  Builder.lock b (Ir.Imm 5L);
  Builder.intr_void b Ir.Work [ Ir.Imm 10_000L ];
  Builder.unlock b (Ir.Imm 5L);
  Builder.ret b None;
  let w = Builder.finish b in
  let b, _ = Builder.create ~name:"rogue" ~nparams:1 in
  Builder.intr_void b Ir.Work [ Ir.Imm 100L ];
  (* Statically balanced (one acquire, one release) but the release
     targets a mutex held by the other thread: a runtime error. *)
  Builder.lock b (Ir.Imm 6L);
  Builder.unlock b (Ir.Imm 5L);
  Builder.ret b None;
  let rogue = Builder.finish b in
  let m = Vm.create (Vm.config Scheme.Origin) { Ir.funcs = [ ("w", w); ("rogue", rogue) ] } in
  ignore (Vm.spawn m ~fname:"w" ~args:[ 0L ]);
  ignore (Vm.spawn m ~fname:"rogue" ~args:[ 0L ]);
  match Vm.run m with
  | exception Vm.Vm_error _ -> ()
  | _ -> Alcotest.fail "expected Vm_error"

let test_stack_overflow_detected () =
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  ignore (Builder.alloca b 100_000);
  Builder.ret b None;
  let m = Vm.create (Vm.config Scheme.Origin) { Ir.funcs = [ ("w", Builder.finish b) ] } in
  ignore (Vm.spawn m ~fname:"w" ~args:[ 0L ]);
  match Vm.run m with
  | exception Vm.Vm_error _ -> ()
  | _ -> Alcotest.fail "expected stack overflow"

let test_calls_and_stack () =
  (* g(x) spills x to a stack slot and reloads it; f sums g(1)+g(2). *)
  let b, ps = Builder.create ~name:"g" ~nparams:1 in
  let x = List.nth ps 0 in
  let slot = Builder.alloca b 2 in
  Builder.store b Ir.Stack (Ir.Reg slot) 1 (Ir.Reg x);
  let y = Builder.load b Ir.Stack (Ir.Reg slot) 1 in
  let y2 = Builder.bin b Ir.Mul (Ir.Reg y) (Ir.Imm 10L) in
  Builder.ret b (Some (Ir.Reg y2));
  let g = Builder.finish b in
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  let a = Builder.call b "g" [ Ir.Imm 1L ] in
  let c = Builder.call b "g" [ Ir.Imm 2L ] in
  let s = Builder.bin b Ir.Add (Ir.Reg a) (Ir.Reg c) in
  Wcommon.observe b (Ir.Reg s);
  Builder.ret b None;
  let w = Builder.finish b in
  List.iter
    (fun scheme ->
      (* Stack lives in NVM for resumption schemes, DRAM otherwise. *)
      let m = Vm.create (Vm.config scheme) { Ir.funcs = [ ("g", g); ("w", w) ] } in
      let t = Vm.spawn m ~fname:"w" ~args:[ 0L ] in
      (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck");
      Alcotest.(check (list int64)) "g(1)*10 + g(2)*10" [ 30L ] (Vm.observations t))
    Scheme.[ Ido; Atlas; Origin ]

let test_intrinsics () =
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  let tid = Builder.intr b Ir.Thread_id [] in
  Wcommon.observe b (Ir.Reg tid);
  let r = Builder.intr b Ir.Rand [ Ir.Imm 10L ] in
  let ok = Builder.bin b Ir.Lt (Ir.Reg r) (Ir.Imm 10L) in
  Wcommon.assert_nz b (Ir.Reg ok);
  let blk = Builder.intr b Ir.Nv_alloc [ Ir.Imm 4L ] in
  Builder.store b Ir.Persistent (Ir.Reg blk) 3 (Ir.Imm 9L);
  let v = Builder.load b Ir.Persistent (Ir.Reg blk) 3 in
  Wcommon.observe b (Ir.Reg v);
  Builder.intr_void b Ir.Nv_free [ Ir.Reg blk ];
  Builder.ret b None;
  let m = Vm.create (Vm.config Scheme.Origin) { Ir.funcs = [ ("w", Builder.finish b) ] } in
  let t = Vm.spawn m ~fname:"w" ~args:[ 0L ] in
  (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck");
  Alcotest.(check (list int64)) "tid then stored value" [ 0L; 9L ] (Vm.observations t)

let test_work_advances_clock () =
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  Builder.intr_void b Ir.Work [ Ir.Imm 5_000L ];
  Builder.ret b None;
  let m = Vm.create (Vm.config Scheme.Origin) { Ir.funcs = [ ("w", Builder.finish b) ] } in
  ignore (Vm.spawn m ~fname:"w" ~args:[ 0L ]);
  ignore (Vm.run m);
  Alcotest.(check bool) "clock >= work" true (Vm.clock m >= 5_000)

let test_div_by_zero_is_zero () =
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  let d = Builder.bin b Ir.Div (Ir.Imm 7L) (Ir.Imm 0L) in
  let r = Builder.bin b Ir.Rem (Ir.Imm 7L) (Ir.Imm 0L) in
  Wcommon.observe b (Ir.Reg d);
  Wcommon.observe b (Ir.Reg r);
  Builder.ret b None;
  let m = Vm.create (Vm.config Scheme.Origin) { Ir.funcs = [ ("w", Builder.finish b) ] } in
  let t = Vm.spawn m ~fname:"w" ~args:[ 0L ] in
  ignore (Vm.run m);
  Alcotest.(check (list int64)) "defined as zero" [ 0L; 0L ] (Vm.observations t)

let test_spawn_arity () =
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  Builder.ret b None;
  let m = Vm.create (Vm.config Scheme.Origin) { Ir.funcs = [ ("w", Builder.finish b) ] } in
  Alcotest.check_raises "missing argument"
    (Invalid_argument "Vm.spawn: w takes 1 argument(s), got 0") (fun () ->
      ignore (Vm.spawn m ~fname:"w" ~args:[]));
  Alcotest.check_raises "extra argument"
    (Invalid_argument "Vm.spawn: w takes 1 argument(s), got 2") (fun () ->
      ignore (Vm.spawn m ~fname:"w" ~args:[ 1L; 2L ]))

let test_assert_traps () =
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  Wcommon.assert_nz b (Ir.Imm 0L);
  Builder.ret b None;
  let m = Vm.create (Vm.config Scheme.Origin) { Ir.funcs = [ ("w", Builder.finish b) ] } in
  ignore (Vm.spawn m ~fname:"w" ~args:[ 0L ]);
  match Vm.run m with
  | exception Vm.Vm_error _ -> ()
  | _ -> Alcotest.fail "expected trap"

let test_lock_handoff_fifo () =
  (* Three contenders on one lock must all finish (no starvation). *)
  let m = boot (counter_program ()) in
  let ts = List.init 3 (fun _ -> Vm.spawn m ~fname:"worker" ~args:[ 50L ]) in
  (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck");
  List.iter
    (fun t -> Alcotest.(check int) "each did its ops" 50 (Vm.thread_ops t))
    ts

let test_tracer () =
  let m = boot (counter_program ()) in
  let lines = ref [] in
  Ido_vm.Vm.set_tracer m (Some (fun l -> lines := l :: !lines));
  ignore (Vm.spawn m ~fname:"worker" ~args:[ 3L ]);
  (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck");
  Ido_vm.Vm.set_tracer m None;
  let all = String.concat "\n" !lines in
  let has frag =
    let n = String.length frag in
    let rec go i =
      i + n <= String.length all && (String.sub all i n = frag || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "traced instructions" true (List.length !lines > 20);
  Alcotest.(check bool) "shows locks" true (has "lock r");
  Alcotest.(check bool) "shows hooks" true (has "!fase_enter");
  Alcotest.(check bool) "marks FASE membership" true (has "[FASE]")

let test_image_pc_roundtrip () =
  (* Every instruction slot of an instrumented program encodes to a
     dense pc and back. *)
  let prog =
    Ido_instrument.Instrument.instrument Scheme.Ido
      (Ido_workloads.Workload.named "olist")
  in
  let image = Ido_vm.Image.build prog in
  List.iter
    (fun (fname, (f : Ir.func)) ->
      Array.iteri
        (fun b (blk : Ir.block) ->
          for i = 0 to Array.length blk.Ir.instrs do
            let pos = { Ir.blk = b; idx = i } in
            let pc = Ido_vm.Image.pc_of_pos image ~fname pos in
            Alcotest.(check bool) "pc positive" true (pc > 0);
            let fname', pos' = Ido_vm.Image.pos_of_pc image pc in
            Alcotest.(check string) "func roundtrip" fname fname';
            Alcotest.(check bool) "pos roundtrip" true (pos = pos')
          done)
        f.Ir.blocks)
    prog.Ir.funcs;
  Alcotest.check_raises "pc 0 invalid"
    (Invalid_argument "Image.pos_of_pc: bad pc 0") (fun () ->
      ignore (Ido_vm.Image.pos_of_pc image 0))

let test_lock_array_overflow () =
  (* More simultaneously held locks than the lock_array has slots is a
     runtime error, not silent corruption. *)
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  for i = 1 to 17 do
    Builder.lock b (Ir.Imm (Int64.of_int i))
  done;
  for i = 17 downto 1 do
    Builder.unlock b (Ir.Imm (Int64.of_int i))
  done;
  Builder.ret b None;
  let m =
    Vm.create (Vm.config Scheme.Ido) { Ir.funcs = [ ("w", Builder.finish b) ] }
  in
  ignore (Vm.spawn m ~fname:"w" ~args:[ 0L ]);
  match Vm.run m with
  | exception Ido_runtime.Lognode.Log_overflow ov ->
      Alcotest.(check string) "scheme" "ido" ov.Ido_runtime.Lognode.scheme;
      Alcotest.(check string) "which log" "lock_array" ov.Ido_runtime.Lognode.log;
      Alcotest.(check int) "capacity" 16 ov.Ido_runtime.Lognode.capacity;
      Alcotest.(check int) "thread" 0 ov.Ido_runtime.Lognode.tid
  | _ -> Alcotest.fail "expected lock_array overflow"

let test_deep_nesting_within_capacity () =
  (* Sixteen nested locks is exactly the capacity: must work and
     recover. *)
  let b, _ = Builder.create ~name:"w16" ~nparams:1 in
  let cell = Wcommon.get_root b 0 in
  for i = 1 to 16 do
    Builder.lock b (Ir.Imm (Int64.of_int (1000 + i)))
  done;
  let c = Builder.load b Ir.Persistent (Ir.Reg cell) 0 in
  let c1 = Builder.bin b Ir.Add (Ir.Reg c) (Ir.Imm 1L) in
  Builder.store b Ir.Persistent (Ir.Reg cell) 0 (Ir.Reg c1);
  for i = 16 downto 1 do
    Builder.unlock b (Ir.Imm (Int64.of_int (1000 + i)))
  done;
  Builder.ret b None;
  let w = Builder.finish b in
  let prog = counter_program () in
  let prog = { Ir.funcs = prog.Ir.funcs @ [ ("w16", w) ] } in
  let m = Vm.create (Vm.config Scheme.Ido) prog in
  let _ = Vm.spawn m ~fname:"init" ~args:[] in
  ignore (Vm.run m);
  Vm.flush_all m;
  ignore (Vm.spawn m ~fname:"w16" ~args:[ 0L ]);
  (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck");
  Alcotest.(check int64) "increment applied" 1L (counter_value m)

(* Checkpoint/restore fixture: [worker n] adds one plus DRAM word
   5000 to the counter cell, n times under lock 1; [a] and [b] grow
   DRAM and then deadlock on locks 1 and 2.  A restore that leaked a
   held lock would block the workers; one that leaked DRAM would skew
   the count. *)
let restore_program () =
  let dram = Ir.Imm 5000L in
  let b, ps = Builder.create ~name:"worker" ~nparams:1 in
  let n = List.nth ps 0 in
  let cell = Wcommon.get_root b 0 in
  Wcommon.for_loop b (Ir.Reg n) (fun _ ->
      let d = Builder.load b Ir.Transient dram 0 in
      Builder.lock b (Ir.Imm 1L);
      let c = Builder.load b Ir.Persistent (Ir.Reg cell) 0 in
      let c1 = Builder.bin b Ir.Add (Ir.Reg c) (Ir.Imm 1L) in
      let c2 = Builder.bin b Ir.Add (Ir.Reg c1) (Ir.Reg d) in
      Builder.store b Ir.Persistent (Ir.Reg cell) 0 (Ir.Reg c2);
      Builder.unlock b (Ir.Imm 1L);
      Wcommon.observe b (Ir.Imm 1L));
  Builder.ret b None;
  let worker = Builder.finish b in
  let mk name first second =
    let b, _ = Builder.create ~name ~nparams:1 in
    Builder.store b Ir.Transient dram 0 (Ir.Imm 7L);
    Builder.lock b (Ir.Imm first);
    Builder.intr_void b Ir.Work [ Ir.Imm 10_000L ];
    Builder.lock b (Ir.Imm second);
    Builder.unlock b (Ir.Imm second);
    Builder.unlock b (Ir.Imm first);
    Builder.ret b None;
    Builder.finish b
  in
  let init = List.assoc "init" (counter_program ()).Ir.funcs in
  {
    Ir.funcs =
      [ ("init", init); ("worker", worker); ("a", mk "a" 1L 2L);
        ("b", mk "b" 2L 1L) ];
  }

let booted scheme =
  let m =
    Vm.create
      { (Vm.config scheme) with pmem_words = 1 lsl 16; undo_cap = 1 lsl 10 }
      (restore_program ())
  in
  ignore (Vm.spawn m ~fname:"init" ~args:[]);
  (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "init stuck");
  Vm.flush_all m;
  m

(* Everything a crash-free worker run leaves behind. *)
let crash_free_run m =
  ignore (Vm.spawn m ~fname:"worker" ~args:[ 20L ]);
  ignore (Vm.spawn m ~fname:"worker" ~args:[ 20L ]);
  (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "workers stuck");
  Vm.flush_all m;
  let pm = Vm.pmem m in
  let c = Ido_nvm.Pmem.counters pm in
  ( Digest.to_hex
      (Digest.string
         (Marshal.to_string (Ido_nvm.Pmem.snapshot_persistent pm) [])),
    Ido_nvm.Pmem.
      [ c.loads; c.stores; c.clwbs; c.writebacks; c.fences; c.evictions ],
    (Vm.clock m, Vm.total_ops m, counter_value m) )

let check_same_run what expected got =
  let image, counters, (clock, ops, count) = expected
  and image', counters', (clock', ops', count') = got in
  Alcotest.(check string) (what ^ ": durable image") image image';
  Alcotest.(check (list int)) (what ^ ": pmem counters") counters counters';
  Alcotest.(check int) (what ^ ": clock") clock clock';
  Alcotest.(check int) (what ^ ": ops") ops ops';
  Alcotest.(check int64) (what ^ ": count") count count'

let test_checkpoint_rejects_busy_machine () =
  let unfinished =
    Invalid_argument "Vm.checkpoint: the machine has unfinished threads"
  and dirty =
    Invalid_argument "Vm.checkpoint: the machine has dirty cache lines"
  in
  let m = booted Scheme.Ido in
  ignore (Vm.spawn m ~fname:"worker" ~args:[ 1L ]);
  Alcotest.check_raises "runnable thread" unfinished (fun () ->
      ignore (Vm.checkpoint m : Vm.checkpoint));
  let m = booted Scheme.Ido in
  ignore (Vm.spawn m ~fname:"a" ~args:[ 0L ]);
  ignore (Vm.spawn m ~fname:"b" ~args:[ 0L ]);
  (match Vm.run m with
  | `Deadlock -> ()
  | _ -> Alcotest.fail "expected deadlock");
  Alcotest.check_raises "blocked threads" unfinished (fun () ->
      ignore (Vm.checkpoint m : Vm.checkpoint));
  let m = booted Scheme.Ido in
  Ido_nvm.Pmem.store (Vm.pmem m) 100 1L;
  Alcotest.check_raises "dirty line" dirty (fun () ->
      ignore (Vm.checkpoint m : Vm.checkpoint))

(* [counter_program] whose workers also keep running tallies in DRAM —
   one in a stack slot, one in a transient cell of their own — observe
   them and persist the last one, so a run resumed from a stale copy
   of DRAM shows. *)
let tally_program () =
  let b, _ = Builder.create ~name:"init" ~nparams:0 in
  let cell = Wcommon.alloc_node b 8 [] in
  Wcommon.set_root b 0 (Ir.Reg cell);
  Builder.ret b None;
  let init = Builder.finish b in
  let b, ps = Builder.create ~name:"worker" ~nparams:1 in
  let n = List.nth ps 0 in
  let cell = Wcommon.get_root b 0 in
  let lockid = Builder.bin b Ir.Add (Ir.Reg cell) (Ir.Imm 4L) in
  let slot = Builder.alloca b 1 in
  Builder.store b Ir.Stack (Ir.Reg slot) 0 (Ir.Imm 0L);
  let tid = Builder.intr b Ir.Thread_id [] in
  let mine = Builder.bin b Ir.Mul (Ir.Reg tid) (Ir.Imm 64L) in
  Wcommon.for_loop b (Ir.Reg n) (fun _ ->
      Builder.lock b (Ir.Reg lockid);
      let c = Builder.load b Ir.Persistent (Ir.Reg cell) 0 in
      let c1 = Builder.bin b Ir.Add (Ir.Reg c) (Ir.Imm 1L) in
      Builder.store b Ir.Persistent (Ir.Reg cell) 0 (Ir.Reg c1);
      Builder.unlock b (Ir.Reg lockid);
      let s = Builder.load b Ir.Stack (Ir.Reg slot) 0 in
      let s1 = Builder.bin b Ir.Add (Ir.Reg s) (Ir.Reg c1) in
      Builder.store b Ir.Stack (Ir.Reg slot) 0 (Ir.Reg s1);
      let d = Builder.load b Ir.Transient (Ir.Reg mine) 8 in
      let d1 = Builder.bin b Ir.Add (Ir.Reg d) (Ir.Reg s1) in
      Builder.store b Ir.Transient (Ir.Reg mine) 8 (Ir.Reg d1);
      Wcommon.observe b (Ir.Reg d1));
  (* The last tally lands in the cell's word [tid + 1]. *)
  let d = Builder.load b Ir.Transient (Ir.Reg mine) 8 in
  let at = Builder.bin b Ir.Add (Ir.Reg cell) (Ir.Reg tid) in
  Builder.store b Ir.Persistent (Ir.Reg at) 1 (Ir.Reg d);
  Builder.ret b None;
  { Ir.funcs = [ ("init", init); ("worker", Builder.finish b) ] }

(* Every word past the high-water mark is zero. *)
let persistent_image m =
  Vm.flush_all m;
  let pm = Vm.pmem m in
  let words =
    Array.init (Ido_nvm.Pmem.high_water pm) (Ido_nvm.Pmem.persisted pm)
  in
  Digest.to_hex (Digest.string (Marshal.to_string words []))

(* Three counter workers spawned together — tied clocks, contended
   lock hand-offs — driven to completion.  [pause] polls decide where
   the run stops; at every stop [at_pause] sees the machine, the
   number of persist events so far and the workers.  Returns the event
   stream, each worker's clock and observations, the machine clock and
   a digest of the final durable image. *)
let paused_run ?(pause = fun () -> false) ?(at_pause = fun _ _ _ -> ()) m =
  let events = ref [] and n = ref 0 in
  let record () =
    Vm.set_event_hook m
      (Some
         (fun e ->
           incr n;
           events := Ido_vm.Event.describe e :: !events))
  in
  let workers =
    List.init 3 (fun _ -> Vm.spawn m ~fname:"worker" ~args:[ 30L ])
  in
  record ();
  let rec go () =
    match Vm.run ~pause m with
    | `Paused ->
        at_pause m !n workers;
        (* A checkpoint leaves the hook in place; re-install it anyway
           in case [at_pause] restored. *)
        record ();
        go ()
    | `Idle -> ()
    | _ -> Alcotest.fail "workers stuck"
  in
  go ();
  ( List.rev !events,
    List.map (fun t -> (Vm.thread_clock t, Vm.observations t)) workers,
    Vm.clock m,
    persistent_image m )

(* Pause on every [k]-th poll. *)
let every k =
  let polls = ref 0 in
  fun () ->
    incr polls;
    !polls mod k = 0

(* A run paused anywhere — before a pick, with tied clocks, or inside a
   burst — and resumed by another [run] follows the uninterrupted
   schedule; a checkpoint taken at a pause and restored into a second
   machine continues it too. *)
let test_pause_resume () =
  List.iter
    (fun scheme ->
      let name = Scheme.name scheme in
      let prog = tally_program () in
      let ((events, _, clock, image) as reference) =
        paused_run (boot ~scheme prog)
      in
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: paused every %d polls = uninterrupted" name k)
            true
            (paused_run ~pause:(every k) (boot ~scheme prog) = reference))
        [ 2; 3; 7 ];
      (* The first poll precedes every step: the workers' clocks tie. *)
      let tied = ref false in
      let got =
        paused_run
          ~pause:(let first = ref true in
                  fun () ->
                    let p = !first in
                    first := false;
                    p)
          ~at_pause:(fun _ n workers ->
            let clocks = List.map Vm.thread_clock workers in
            tied := n = 0 && List.for_all (( = ) (List.hd clocks)) clocks)
          (boot ~scheme prog)
      in
      Alcotest.(check bool) (name ^ ": paused with tied clocks") true !tied;
      Alcotest.(check bool) (name ^ ": resumed after the tie") true
        (got = reference);
      (* Checkpoints at every 50th poll, each a delta over the last. *)
      let m = boot ~scheme prog in
      let root = Vm.checkpoint m in
      Vm.restore m root;
      let last = ref root and rungs = ref [] in
      let got =
        paused_run ~pause:(every 50)
          ~at_pause:(fun m n _ ->
            last := Vm.checkpoint ~prev:!last m;
            rungs := (n, !last) :: !rungs)
          m
      in
      Alcotest.(check bool) (name ^ ": checkpoints do not perturb") true
        (got = reference);
      let other = boot ~scheme prog in
      List.iteri
        (fun i (n, ck) ->
          if i mod 5 = 0 then begin
            Vm.restore other ck;
            let tail = ref [] in
            Vm.set_event_hook other
              (Some (fun e -> tail := Ido_vm.Event.describe e :: !tail));
            (match Vm.run other with
            | `Idle -> ()
            | _ -> Alcotest.fail "restored run stuck");
            let where = Printf.sprintf "%s: rung at event %d" name n in
            Alcotest.(check (list string))
              (where ^ ": rest of the schedule")
              (List.filteri (fun j _ -> j >= n) events)
              (List.rev !tail);
            Alcotest.(check int) (where ^ ": clock") clock (Vm.clock other);
            Alcotest.(check string) (where ^ ": durable image") image
              (persistent_image other)
          end)
        !rungs)
    Scheme.[ Ido; Atlas; Mnemosyne ]

(* A checkpoint taken inside [run] (from an event hook), or after a run
   an exception stopped mid-step, would freeze a torn machine; a delta
   must chain from the machine's last checkpoint or restore. *)
let test_checkpoint_outside_run () =
  let m = boot (counter_program ()) in
  let root = Vm.checkpoint m in
  ignore (Vm.spawn m ~fname:"worker" ~args:[ 5L ]);
  Alcotest.check_raises "delta before any restore"
    (Invalid_argument
       "Pmem.checkpoint: prev is not the last checkpoint taken or restored \
        while tracking")
    (fun () -> ignore (Vm.checkpoint ~prev:root m : Vm.checkpoint));
  Vm.restore m root;
  ignore (Vm.spawn m ~fname:"worker" ~args:[ 5L ]);
  let inside = Invalid_argument
      "Vm.checkpoint: the machine is inside run or stopped mid-step" in
  Vm.set_event_hook m
    (Some
       (fun _ ->
         ignore (Vm.checkpoint ~prev:root m : Vm.checkpoint)));
  Alcotest.check_raises "from an event hook" inside (fun () ->
      ignore (Vm.run m));
  Alcotest.check_raises "after an aborted run" inside (fun () ->
      ignore (Vm.checkpoint ~prev:root m : Vm.checkpoint));
  Vm.set_event_hook m None;
  Vm.crash m;
  ignore (Vm.checkpoint ~prev:root m : Vm.checkpoint)

let test_restore_after_mid_run_crash () =
  List.iter
    (fun scheme ->
      let name = Scheme.name scheme in
      let fresh = crash_free_run (booted scheme) in
      let m = booted scheme in
      let ck = Vm.checkpoint m in
      check_same_run (name ^ " restored at once") fresh
        (Vm.restore m ck;
         crash_free_run m);
      (* Deadlocked: both locks held, DRAM grown, threads blocked. *)
      Vm.restore m ck;
      ignore (Vm.spawn m ~fname:"a" ~args:[ 0L ]);
      ignore (Vm.spawn m ~fname:"b" ~args:[ 0L ]);
      (match Vm.run m with
      | `Deadlock -> ()
      | _ -> Alcotest.fail "expected deadlock");
      Vm.restore m ck;
      check_same_run (name ^ " after deadlock") fresh (crash_free_run m);
      (* Crashed inside a FASE holding lock 1, then recovered. *)
      Vm.restore m ck;
      ignore (Vm.spawn m ~fname:"a" ~args:[ 0L ]);
      (match Vm.run ~until:5_000 m with
      | `Until -> ()
      | _ -> Alcotest.fail "expected `Until");
      Vm.crash m;
      ignore (Vm.recover m : Ido_vm.Recover.stats);
      Vm.restore m ck;
      check_same_run (name ^ " after crash") fresh (crash_free_run m))
    Scheme.[ Ido; Atlas; Justdo ]

let suites =
  [
    ( "vm",
      [
        Alcotest.test_case "mutual exclusion (all schemes)" `Quick
          test_mutual_exclusion_all_schemes;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_interleaving;
        Alcotest.test_case "run until" `Quick test_run_until;
        Alcotest.test_case "max steps" `Quick test_max_steps;
        Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
        Alcotest.test_case "foreign unlock rejected" `Quick
          test_unlock_foreign_lock_rejected;
        Alcotest.test_case "stack overflow" `Quick test_stack_overflow_detected;
        Alcotest.test_case "calls and stack slots" `Quick test_calls_and_stack;
        Alcotest.test_case "intrinsics" `Quick test_intrinsics;
        Alcotest.test_case "work cost" `Quick test_work_advances_clock;
        Alcotest.test_case "div by zero" `Quick test_div_by_zero_is_zero;
        Alcotest.test_case "assert traps" `Quick test_assert_traps;
        Alcotest.test_case "lock hand-off" `Quick test_lock_handoff_fifo;
        Alcotest.test_case "tracer" `Quick test_tracer;
        Alcotest.test_case "image pc roundtrip" `Quick test_image_pc_roundtrip;
        Alcotest.test_case "lock array overflow" `Quick test_lock_array_overflow;
        Alcotest.test_case "16 nested locks" `Quick test_deep_nesting_within_capacity;
        Alcotest.test_case "spawn arity" `Quick test_spawn_arity;
        Alcotest.test_case "checkpoint rejects a busy machine" `Quick
          test_checkpoint_rejects_busy_machine;
        Alcotest.test_case "restore after a mid-run crash" `Quick
          test_restore_after_mid_run_crash;
        Alcotest.test_case "run pauses and resumes with tied clocks" `Quick
          test_pause_resume;
        Alcotest.test_case "checkpoint only outside run" `Quick
          test_checkpoint_outside_run;
      ] );
  ]
