open Ido_util
open Ido_nvm

let qtest = QCheck_alcotest.to_alcotest

let mk ?(cache_lines = 64) ?(size = 4096) ?(seed = 1) () =
  Pmem.create ~cache_lines ~rng:(Rng.create seed) size

(* ------------------------------------------------------------------ *)

let test_load_store () =
  let pm = mk () in
  Pmem.store pm 10 42L;
  Alcotest.(check int64) "read back" 42L (Pmem.load pm 10);
  Alcotest.(check int64) "other word zero" 0L (Pmem.load pm 11)

let test_store_is_volatile_until_flushed () =
  let pm = mk () in
  Pmem.store pm 10 42L;
  Alcotest.(check bool) "dirty" true (Pmem.is_dirty pm 10);
  Alcotest.(check int64) "persistence domain stale" 0L (Pmem.persisted pm 10);
  Alcotest.(check bool) "clwb wrote back" true (Pmem.clwb pm 10);
  ignore (Pmem.fence pm);
  Alcotest.(check bool) "clean after flush" false (Pmem.is_dirty pm 10);
  Alcotest.(check int64) "durable" 42L (Pmem.persisted pm 10)

let test_crash_drops_unflushed () =
  let pm = mk () in
  Pmem.store pm 8 1L;
  ignore (Pmem.clwb pm 8);
  ignore (Pmem.fence pm);
  Pmem.store pm 8 2L;
  Pmem.store pm 400 3L;
  Pmem.crash pm;
  Alcotest.(check int64) "flushed value survives" 1L (Pmem.load pm 8);
  Alcotest.(check int64) "unflushed write lost" 0L (Pmem.load pm 400)

let test_line_granular_flush () =
  let pm = mk () in
  (* Words 16 and 17 share a cache line: flushing one persists both. *)
  Pmem.store pm 16 7L;
  Pmem.store pm 17 9L;
  ignore (Pmem.clwb pm 16);
  ignore (Pmem.fence pm);
  Pmem.crash pm;
  Alcotest.(check int64) "same line persisted together" 9L (Pmem.load pm 17)

let test_eviction_forces_writeback () =
  (* More dirty lines than capacity: older lines get written back in
     arbitrary order — the crash hazard of uninstrumented code. *)
  let pm = mk ~cache_lines:4 () in
  for i = 0 to 63 do
    Pmem.store pm (i * 8) (Int64.of_int i)
  done;
  let c = Pmem.counters pm in
  Alcotest.(check bool) "evictions happened" true (c.Pmem.evictions > 0);
  Alcotest.(check bool) "dirty lines bounded" true (Pmem.dirty_lines pm <= 5)

let test_eviction_order_arbitrary () =
  (* After a crash some evicted values survive while newer unflushed
     ones are lost, independent of program order. *)
  let pm = mk ~cache_lines:2 ~seed:3 () in
  for i = 0 to 31 do
    Pmem.store pm (i * 8) 1L
  done;
  Pmem.crash pm;
  let survived = ref 0 in
  for i = 0 to 31 do
    if Pmem.load pm (i * 8) = 1L then incr survived
  done;
  Alcotest.(check bool) "partial survival" true (!survived > 0 && !survived < 32)

let test_pending_flush_accounting () =
  let pm = mk () in
  Pmem.store pm 0 1L;
  Pmem.store pm 64 1L;
  ignore (Pmem.clwb pm 0);
  ignore (Pmem.clwb pm 64);
  Alcotest.(check int) "two pending" 2 (Pmem.pending_flushes pm);
  let c = Pmem.counters pm in
  Alcotest.(check int) "two write-backs counted" 2 c.Pmem.writebacks;
  Alcotest.(check int) "fence returns pending" 2 (Pmem.fence pm);
  Alcotest.(check int) "reset" 0 (Pmem.pending_flushes pm)

let test_clwb_clean_line_noop () =
  let pm = mk () in
  Alcotest.(check bool) "no write-back" false (Pmem.clwb pm 0);
  Alcotest.(check int) "nothing pending" 0 (Pmem.pending_flushes pm);
  let c = Pmem.counters pm in
  Alcotest.(check int) "issue counted" 1 c.Pmem.clwbs;
  Alcotest.(check int) "write-back not counted" 0 c.Pmem.writebacks

let test_poke_bypasses_cache () =
  let pm = mk () in
  Pmem.store pm 24 5L;
  Pmem.poke pm 24 9L;
  Alcotest.(check int64) "visible" 9L (Pmem.load pm 24);
  Alcotest.(check int64) "durable immediately" 9L (Pmem.persisted pm 24)

let test_flush_all () =
  let pm = mk () in
  for i = 0 to 99 do
    Pmem.store pm i (Int64.of_int i)
  done;
  Pmem.flush_all pm;
  Pmem.crash pm;
  for i = 0 to 99 do
    Alcotest.(check int64) "all durable" (Int64.of_int i) (Pmem.load pm i)
  done

let test_flush_all_dirty_index_order () =
  (* flush_all persists lines in dirty-index order (first store first),
     never in hash-bucket order: the order dirty_linenos reports is the
     order the write-backs happen in, so it must track first-store
     order and survive re-stores to already-dirty lines. *)
  let pm = mk ~size:8192 () in
  let lines = [ 40; 3; 17; 29; 5; 61 ] in
  List.iteri
    (fun i l -> Pmem.store pm (l * Pmem.words_per_line) (Int64.of_int (i + 1)))
    lines;
  (* A second store to a dirty line must not reposition it. *)
  Pmem.store pm ((17 * Pmem.words_per_line) + 2) 99L;
  Alcotest.(check (list int))
    "dirty-index order = first-store order" lines (Pmem.dirty_linenos pm);
  Pmem.flush_all pm;
  Alcotest.(check (list int)) "flush_all drains the index" []
    (Pmem.dirty_linenos pm);
  Alcotest.(check int) "no dirty lines left" 0 (Pmem.dirty_lines pm);
  Pmem.crash pm;
  List.iteri
    (fun i l ->
      Alcotest.(check int64)
        "line durable" (Int64.of_int (i + 1))
        (Pmem.load pm (l * Pmem.words_per_line)))
    lines;
  Alcotest.(check int64)
    "re-store durable" 99L
    (Pmem.load pm ((17 * Pmem.words_per_line) + 2))

let test_reset_is_fresh () =
  (* Restoring the checkpoint taken at create must be indistinguishable
     from create: same RNG stream, a zeroed persistence domain, an
     empty overlay, zero counters. *)
  let pm = mk ~seed:5 () in
  let boot = Pmem.checkpoint pm in
  Pmem.store pm 10 42L;
  ignore (Pmem.clwb pm 10);
  ignore (Pmem.fence pm);
  Pmem.store pm 900 7L;
  Pmem.restore pm boot;
  Alcotest.(check int64) "persisted word zeroed" 0L (Pmem.persisted pm 10);
  Alcotest.(check int64) "cached word gone" 0L (Pmem.load pm 900);
  Alcotest.(check int) "overlay empty" 0 (Pmem.dirty_lines pm);
  Alcotest.(check int) "nothing pending" 0 (Pmem.pending_flushes pm);
  let c = Pmem.counters pm in
  Alcotest.(check int) "stores zeroed" 0 c.Pmem.stores;
  Alcotest.(check int) "clwbs zeroed" 0 c.Pmem.clwbs;
  (* Same seed, same eviction choices: a restored memory replays the
     exact pseudo-random eviction order of a fresh one, even after
     evictions consumed its generator.  The order itself is compared,
     not only the surviving image, which a different stream matches
     often. *)
  let fill pm =
    let evicted = ref [] in
    Pmem.set_event_hook pm
      (Some
         (function
         | Pmem.Ev_evict a -> evicted := Int64.of_int a :: !evicted
         | _ -> ()));
    for i = 0 to 63 do
      Pmem.store pm (i * 8) 1L
    done;
    Pmem.crash pm;
    List.rev !evicted @ List.init 64 (fun i -> Pmem.load pm (i * 8))
  in
  let fresh = fill (Pmem.create ~cache_lines:4 ~rng:(Rng.create 5) 4096) in
  let again =
    let pm2 = mk ~cache_lines:4 ~seed:5 () in
    let boot = Pmem.checkpoint pm2 in
    for i = 0 to 11 do
      Pmem.store pm2 (100 + (i * 8)) 3L
    done;
    Pmem.restore pm2 boot;
    fill pm2
  in
  Alcotest.(check (list int64)) "reset replays create's evictions" fresh again

let test_bounds () =
  let pm = mk ~size:128 () in
  Alcotest.check_raises "oob"
    (Invalid_argument "Pmem: address 128 out of bounds") (fun () ->
      ignore (Pmem.load pm 128));
  Alcotest.check_raises "negative"
    (Invalid_argument "Pmem: address -1 out of bounds") (fun () ->
      Pmem.store pm (-1) 0L)

let prop_flushed_survives_crash =
  QCheck.Test.make ~name:"flushed words always survive a crash" ~count:50
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 40) (int_bound 500)))
    (fun (seed, addrs) ->
      let pm = mk ~cache_lines:8 ~seed:(seed + 1) () in
      List.iteri (fun i a -> Pmem.store pm a (Int64.of_int (i + 1))) addrs;
      (* Flush a subset explicitly. *)
      let flushed = List.filteri (fun i _ -> i mod 2 = 0) addrs in
      List.iter (fun a -> ignore (Pmem.clwb pm a)) flushed;
      ignore (Pmem.fence pm);
      (* Capture current values of the flushed addresses (a later
         duplicate store to the same line may still be cached). *)
      let expect = List.map (fun a -> (a, Pmem.persisted pm a)) flushed in
      Pmem.crash pm;
      List.for_all (fun (a, v) -> Pmem.load pm a = v) expect)

let prop_snapshot_matches_persisted =
  QCheck.Test.make ~name:"snapshot equals persistence domain" ~count:30
    QCheck.(small_int)
    (fun seed ->
      let pm = mk ~seed:(seed + 2) ~size:256 () in
      for i = 0 to 255 do
        Pmem.store pm i (Int64.of_int i);
        if i mod 3 = 0 then ignore (Pmem.clwb pm i)
      done;
      ignore (Pmem.fence pm);
      let snap = Pmem.snapshot_persistent pm in
      Array.to_list snap
      |> List.mapi (fun i v -> Pmem.persisted pm i = v)
      |> List.for_all (fun b -> b))

(* ------------------------------------------------------------------ *)
(* Model equivalence: the demand-grown persistence domain against a
   flat reference.  The reference keeps every word twice — [vol] (what
   a load sees) and [per] (what a crash leaves) — plus a dirty flag per
   line.  Evictions are the only nondeterminism; the event hook tells
   the model which line went, before it goes. *)

type op =
  | Store of int * int64
  | Poke of int * int64
  | Clwb of int
  | Fence
  | Pressure of int  (* stores to 12 consecutive lines from here *)
  | Crash
  | Flush_all
  | Reset

let pp_op = function
  | Store (a, v) -> Printf.sprintf "store %d %Ld" a v
  | Poke (a, v) -> Printf.sprintf "poke %d %Ld" a v
  | Clwb a -> Printf.sprintf "clwb %d" a
  | Fence -> "fence"
  | Pressure a -> Printf.sprintf "pressure %d" a
  | Crash -> "crash"
  | Flush_all -> "flush_all"
  | Reset -> "reset"

(* Storage starts at 4096 words and doubles: the sizes cover no growth,
   every growth step, the cap, and partial last lines. *)
let model_sizes = [ 5; 4096; 4101; 8195; 16_389 ]

let edges size =
  List.filter
    (fun a -> a >= 0 && a < size)
    [ 0; 7; 8; 4095; 4096; 4103; 8191; 8192; 16383; 16384; size - 8; size - 1 ]

let op_addrs = function
  | Store (a, _) | Poke (a, _) | Clwb a -> [ a ]
  | Pressure a -> List.init 12 (fun i -> a + (i * Pmem.words_per_line))
  | Fence | Crash | Flush_all | Reset -> []

let gen_case =
  let open QCheck.Gen in
  oneofl model_sizes >>= fun size ->
  let addr = frequency [ (1, oneofl (edges size)); (1, int_bound (size - 1)) ] in
  let value = map Int64.of_int (int_range 0 999) in
  let op =
    frequency
      [
        (6, map2 (fun a v -> Store (a, v)) addr value);
        (2, map2 (fun a v -> Poke (a, v)) addr value);
        (3, map (fun a -> Clwb a) addr);
        (2, return Fence);
        (1, map (fun a -> Pressure a) addr);
        (1, return Crash);
        (1, return Flush_all);
        (1, return Reset);
      ]
  in
  map3
    (fun cache_lines seed ops -> (size, cache_lines, seed, ops))
    (int_range 1 4) small_nat
    (list_size (int_range 1 50) op)

let print_case (size, cache_lines, seed, ops) =
  Printf.sprintf "size %d, %d cache lines, seed %d: %s" size cache_lines seed
    (String.concat "; " (List.map pp_op ops))

let prop_model_equivalence =
  QCheck.Test.make ~name:"pmem agrees with a flat reference model" ~count:150
    (QCheck.make ~print:print_case gen_case)
    (fun (size, cache_lines, seed, ops) ->
      let pm = mk ~cache_lines ~size ~seed () in
      let boot = Pmem.checkpoint pm in
      let wpl = Pmem.words_per_line in
      let vol = Array.make size 0L and per = Array.make size 0L in
      let dirty = Array.make ((size + wpl - 1) / wpl) false in
      let pending = ref 0 in
      let write_back line =
        for a = line * wpl to Stdlib.min size ((line + 1) * wpl) - 1 do
          per.(a) <- vol.(a)
        done;
        dirty.(line) <- false
      in
      Pmem.set_event_hook pm
        (Some (function Pmem.Ev_evict a -> write_back (a / wpl) | _ -> ()));
      let store a v =
        Pmem.store pm a v;
        vol.(a) <- v;
        dirty.(a / wpl) <- true
      in
      let step = function
        | Store (a, v) -> store a v
        | Poke (a, v) ->
            Pmem.poke pm a v;
            vol.(a) <- v;
            per.(a) <- v
        | Clwb a ->
            let was_dirty = dirty.(a / wpl) in
            if Pmem.clwb pm a <> was_dirty then
              QCheck.Test.fail_reportf "clwb %d: dirty mismatch" a;
            if was_dirty then begin
              write_back (a / wpl);
              incr pending
            end
        | Fence ->
            let n = Pmem.fence pm in
            if n <> !pending then
              QCheck.Test.fail_reportf "fence: %d pending, model %d" n !pending;
            pending := 0
        | Pressure a ->
            List.iter
              (fun b -> if b < size then store b (Int64.of_int (b + 1)))
              (op_addrs (Pressure a))
        | Crash ->
            Pmem.crash pm;
            Array.blit per 0 vol 0 size;
            Array.fill dirty 0 (Array.length dirty) false;
            pending := 0
        | Flush_all ->
            Pmem.flush_all pm;
            Array.iteri (fun line d -> if d then write_back line) dirty;
            pending := 0
        | Reset ->
            Pmem.restore pm boot;
            Array.fill vol 0 size 0L;
            Array.fill per 0 size 0L;
            Array.fill dirty 0 (Array.length dirty) false;
            pending := 0
      in
      let probes =
        List.sort_uniq compare
          (edges size
          @ List.filter (fun a -> a < size) (List.concat_map op_addrs ops))
      in
      List.iter
        (fun op ->
          step op;
          if Pmem.size pm <> size then QCheck.Test.fail_report "size moved";
          List.iter
            (fun a ->
              if Pmem.load pm a <> vol.(a) then
                QCheck.Test.fail_reportf "after %s: load %d = %Ld, model %Ld"
                  (pp_op op) a (Pmem.load pm a) vol.(a);
              if Pmem.persisted pm a <> per.(a) then
                QCheck.Test.fail_reportf
                  "after %s: persisted %d = %Ld, model %Ld" (pp_op op) a
                  (Pmem.persisted pm a) per.(a))
            probes;
          if not (Array.for_all2 Int64.equal (Pmem.snapshot_persistent pm) per)
          then QCheck.Test.fail_reportf "after %s: snapshot differs" (pp_op op))
        ops;
      true)

(* A boot must not pay for the logical size: creating an 8M-word
   memory allocates a few thousand words, not eight million. *)
let test_create_is_demand_sized () =
  let allocated () =
    let minor, _, major = Gc.counters () in
    minor +. major
  in
  let before = allocated () in
  let pm = Pmem.create ~rng:(Rng.create 1) (1 lsl 23) in
  let words = allocated () -. before in
  Alcotest.(check int) "logical size" (1 lsl 23) (Pmem.size pm);
  if words >= 65_536. then
    Alcotest.failf "Pmem.create (1 lsl 23) allocated %.0f words" words;
  Alcotest.(check int64) "last word reads zero" 0L
    (Pmem.load pm ((1 lsl 23) - 1))

let test_restore_written_checkpoint () =
  (* A checkpoint of a written memory: restore brings back its words,
     zeroes everything persisted after it (also past its high-water
     mark), and rewinds counters, pending write-backs and the eviction
     generator. *)
  let pm = mk ~cache_lines:4 ~size:32_768 () in
  Pmem.store pm 5000 22L;
  Pmem.flush_all pm;
  Pmem.store pm 3 11L;
  Alcotest.check_raises "dirty memory"
    (Invalid_argument "Pmem.checkpoint: the memory has dirty lines")
    (fun () -> ignore (Pmem.checkpoint pm : Pmem.checkpoint));
  ignore (Pmem.clwb pm 3);
  let ck = Pmem.checkpoint pm in
  let stores = (Pmem.counters pm).Pmem.stores in
  Alcotest.(check int) "one write-back pending" 1 (Pmem.pending_flushes pm);
  let evictions () =
    for i = 0 to 15 do
      Pmem.store pm (9000 + (i * 8)) 1L
    done;
    Pmem.crash pm;
    List.init 16 (fun i -> Pmem.persisted pm (9000 + (i * 8)))
  in
  let first = evictions () in
  Pmem.store pm 3 99L;
  Pmem.store pm 20_000 5L;
  Pmem.flush_all pm;
  Pmem.restore pm ck;
  Alcotest.(check int64) "word below the mark" 11L (Pmem.persisted pm 3);
  Alcotest.(check int64) "word at the mark" 22L (Pmem.persisted pm 5000);
  Alcotest.(check int64) "later word zeroed" 0L (Pmem.persisted pm 20_000);
  Alcotest.(check int64) "evicted word zeroed" 0L (Pmem.persisted pm 9000);
  Alcotest.(check int) "stores rewound" stores (Pmem.counters pm).Pmem.stores;
  Alcotest.(check int) "pending rewound" 1 (Pmem.pending_flushes pm);
  Alcotest.(check (list int64)) "same evictions" first (evictions ())

(* Everything a later run can observe of a memory: the persisted image,
   the dirty lines with their cached words, the counters and the
   pending count — and, by running a fixed eviction-heavy script, the
   generator's stream. *)
let observe pm =
  let c = Pmem.counters pm in
  let dirty = Pmem.dirty_linenos pm in
  let cached =
    List.concat_map
      (fun l ->
        List.init Pmem.words_per_line (fun i ->
            Pmem.load pm ((l * Pmem.words_per_line) + i)))
      dirty
  in
  let image = Array.to_list (Pmem.snapshot_persistent pm) in
  let counters =
    Pmem.[ c.loads; c.stores; c.clwbs; c.writebacks; c.fences; c.evictions ]
  in
  let pending = Pmem.pending_flushes pm in
  let evicted = ref [] in
  Pmem.set_event_hook pm
    (Some (function Pmem.Ev_evict a -> evicted := a :: !evicted | _ -> ()));
  for i = 0 to 79 do
    Pmem.store pm ((Pmem.size pm / 2) + (i * 8)) 3L
  done;
  Pmem.set_event_hook pm None;
  (dirty, cached, image, counters, pending, List.rev !evicted)

let check_same what (d0, w0, i0, c0, p0, e0) (d1, w1, i1, c1, p1, e1) =
  Alcotest.(check (list int)) (what ^ ": dirty lines") d0 d1;
  Alcotest.(check (list int64)) (what ^ ": cached words") w0 w1;
  Alcotest.(check bool) (what ^ ": persisted image") true (i0 = i1);
  Alcotest.(check (list int)) (what ^ ": counters") c0 c1;
  Alcotest.(check int) (what ^ ": pending") p0 p1;
  Alcotest.(check (list int)) (what ^ ": later evictions") e0 e1

let test_zero_range () =
  (* [zero] against the poke loop it replaces, on a range that
     straddles the high-water mark and holds two dirty lines. *)
  let setup () =
    let pm = mk ~cache_lines:64 ~size:4096 () in
    Pmem.poke pm 10 5L;
    Pmem.poke pm 30 6L;
    Pmem.store pm 12 7L;
    Pmem.store pm 90 8L;
    Pmem.store pm 200 9L;
    pm
  in
  let a = setup () and b = setup () in
  let hwm = Pmem.high_water a in
  Alcotest.(check int) "mark after the pokes" 31 hwm;
  Pmem.zero a 9 90;
  for i = 9 to 98 do
    Pmem.poke b i 0L
  done;
  Alcotest.(check int) "mark unchanged" hwm (Pmem.high_water a);
  check_same "zero = pokes" (observe b) (observe a);
  let a = setup () in
  Pmem.zero a 9 90;
  Alcotest.(check int64) "persisted word cleared" 0L (Pmem.persisted a 10);
  Alcotest.(check int64) "cached word cleared" 0L (Pmem.load a 12);
  Alcotest.(check int64) "cached word above the mark cleared" 0L (Pmem.load a 90);
  Alcotest.(check bool) "line stays dirty" true (Pmem.is_dirty a 12);
  Alcotest.(check int64) "word past the range kept" 9L (Pmem.load a 200);
  Alcotest.check_raises "range past the end"
    (Invalid_argument "Pmem: address 4096 out of bounds") (fun () ->
      Pmem.zero a 4090 7)

let test_delta_restore () =
  (* A delta checkpoint restores, here and in a second memory, to what
     a memory that stopped at that point holds — after a run that
     raised the mark, evicted lines and left others dirty; a restore of
     the root afterwards copies back only what was written. *)
  let prefix pm =
    Pmem.store pm 5 1L;
    Pmem.flush_all pm;
    let root = Pmem.checkpoint pm in
    Pmem.restore pm root;
    for i = 0 to 9 do
      Pmem.store pm (100 + (i * 8)) (Int64.of_int i)
    done;
    ignore (Pmem.clwb pm 100);
    root
  in
  let pm = mk ~cache_lines:4 ~size:32_768 () in
  let root = prefix pm in
  let rung = Pmem.checkpoint ~prev:root pm in
  Alcotest.check_raises "prev must be the last checkpoint"
    (Invalid_argument
       "Pmem.checkpoint: prev is not the last checkpoint taken or restored \
        while tracking")
    (fun () -> ignore (Pmem.checkpoint ~prev:root pm : Pmem.checkpoint));
  let hwm = Pmem.high_water pm in
  for i = 0 to 40 do
    Pmem.store pm (20_000 + (i * 8)) 2L
  done;
  Pmem.flush_all pm;
  Alcotest.(check bool) "the run raised the mark" true (Pmem.high_water pm > hwm);
  Alcotest.(check bool) "the run evicted lines" true
    ((Pmem.counters pm).Pmem.evictions > 0);
  let stopped () =
    let pm = mk ~cache_lines:4 ~size:32_768 () in
    ignore (prefix pm);
    observe pm
  in
  Pmem.restore pm rung;
  Alcotest.(check int) "mark restored" hwm (Pmem.high_water pm);
  check_same "delta restore" (stopped ()) (observe pm);
  let other = mk ~cache_lines:4 ~size:32_768 ~seed:9 () in
  Pmem.restore other rung;
  check_same "restore into another memory" (stopped ()) (observe other);
  Pmem.restore pm root;
  let fresh = mk ~cache_lines:4 ~size:32_768 () in
  Pmem.store fresh 5 1L;
  Pmem.flush_all fresh;
  check_same "root restore" (observe fresh) (observe pm)

(* ------------------------------------------------------------------ *)
(* Overlay model: [Pmem] against a reference overlay with the original
   semantics — a hashtable of dirty line -> words and a swap-with-last
   index list — driven through the same operations with the same
   eviction generator.  Every observable must agree after every step:
   loads, the persisted image, dirtiness, [dirty_linenos], the
   counters, fence results and the exact sequence of hook events,
   eviction victims included. *)

module Ref_overlay = struct
  type t = {
    size : int;
    cache_lines : int;
    rng : Rng.t;
    mutable per : int64 array;  (* the whole persistence domain *)
    lines : (int, int64 array) Hashtbl.t;  (* dirty line -> its words *)
    mutable index : int list;  (* dirty lines, swap-with-last order *)
    mutable pending : int;
    c : int array;  (* loads stores clwbs writebacks fences evictions *)
    mutable events : Pmem.event list;  (* newest first *)
  }

  let create ~cache_lines ~seed size =
    {
      size; cache_lines; rng = Rng.create seed; per = Array.make size 0L;
      lines = Hashtbl.create 8; index = []; pending = 0; c = Array.make 6 0;
      events = [];
    }

  let wpl = Pmem.words_per_line
  let bump r i = r.c.(i) <- r.c.(i) + 1
  let emit r ev = r.events <- ev :: r.events

  (* Remove position [i] of the index: the last element takes its
     place. *)
  let index_remove r i =
    let a = Array.of_list r.index in
    let last = Array.length a - 1 in
    a.(i) <- a.(last);
    r.index <- Array.to_list (Array.sub a 0 last)

  let persist r line =
    let words = Hashtbl.find r.lines line in
    for a = line * wpl to Stdlib.min r.size ((line + 1) * wpl) - 1 do
      r.per.(a) <- words.(a - (line * wpl))
    done

  let write_back r line =
    persist r line;
    let rec pos i = function
      | l :: rest -> if l = line then i else pos (i + 1) rest
      | [] -> assert false
    in
    index_remove r (pos 0 r.index);
    Hashtbl.remove r.lines line

  let store r a v =
    emit r (Pmem.Ev_store a);
    bump r 1;
    let line = a / wpl in
    if not (Hashtbl.mem r.lines line) then begin
      let n = List.length r.index in
      if n >= r.cache_lines && n > 0 then begin
        let victim = List.nth r.index (Rng.int r.rng n) in
        emit r (Pmem.Ev_evict (victim * wpl));
        write_back r victim;
        bump r 5
      end;
      Hashtbl.replace r.lines line
        (Array.init wpl (fun i ->
             let b = (line * wpl) + i in
             if b < r.size then r.per.(b) else 0L));
      r.index <- r.index @ [ line ]
    end;
    (Hashtbl.find r.lines line).(a mod wpl) <- v

  let load r a =
    bump r 0;
    match Hashtbl.find_opt r.lines (a / wpl) with
    | Some words -> words.(a mod wpl)
    | None -> r.per.(a)

  let poke r a v =
    r.per.(a) <- v;
    match Hashtbl.find_opt r.lines (a / wpl) with
    | Some words -> words.(a mod wpl) <- v
    | None -> ()

  let clwb r a =
    bump r 2;
    if Hashtbl.mem r.lines (a / wpl) then begin
      emit r (Pmem.Ev_clwb a);
      write_back r (a / wpl);
      bump r 3;
      r.pending <- r.pending + 1;
      true
    end
    else false

  let fence r =
    emit r Pmem.Ev_fence;
    bump r 4;
    let p = r.pending in
    r.pending <- 0;
    p

  let drop r =
    Hashtbl.reset r.lines;
    r.index <- [];
    r.pending <- 0

  let flush_all r =
    List.iter (persist r) r.index;
    drop r

  (* The whole state, dirty lines included (a delta checkpoint keeps
     the overlay). *)
  type checkpoint =
    int64 array * int * Rng.t * int array * (int * int64 array) list

  let checkpoint r : checkpoint =
    ( Array.copy r.per, r.pending, Rng.copy r.rng, Array.copy r.c,
      List.map (fun l -> (l, Array.copy (Hashtbl.find r.lines l))) r.index )

  let restore r ((per, pending, rng, c, dirty) : checkpoint) =
    drop r;
    r.per <- Array.copy per;
    r.pending <- pending;
    Rng.assign ~into:r.rng rng;
    Array.blit c 0 r.c 0 6;
    List.iter (fun (l, words) -> Hashtbl.replace r.lines l (Array.copy words)) dirty;
    r.index <- List.map fst dirty
end

type oop =
  | O_store of int * int64
  | O_load of int
  | O_poke of int * int64
  | O_clwb of int
  | O_fence
  | O_crash
  | O_flush_all
  | O_checkpoint
  | O_delta
  | O_restore of int
  | O_zero of int * int

let pp_oop = function
  | O_store (a, v) -> Printf.sprintf "store %d %Ld" a v
  | O_load a -> Printf.sprintf "load %d" a
  | O_poke (a, v) -> Printf.sprintf "poke %d %Ld" a v
  | O_clwb a -> Printf.sprintf "clwb %d" a
  | O_fence -> "fence"
  | O_crash -> "crash"
  | O_flush_all -> "flush_all"
  | O_checkpoint -> "checkpoint"
  | O_delta -> "delta"
  | O_restore k -> Printf.sprintf "restore %d" k
  | O_zero (a, n) -> Printf.sprintf "zero %d %d" a n

(* Sizes that are not a multiple of 8 (a short tail line); the large
   one also crosses the word store's first growth step. *)
let overlay_sizes = [ 13; 45; 4101 ]

let gen_overlay_case =
  let open QCheck.Gen in
  oneofl overlay_sizes >>= fun size ->
  (* Few lines, so that 1 to 4 cache lines evict often. *)
  let addr =
    frequency
      [
        (3, int_bound (Stdlib.min size 48 - 1));
        (1, map (fun k -> size - 1 - k) (int_bound (Stdlib.min size 16 - 1)));
      ]
  in
  let value = map Int64.of_int (int_range 1 999) in
  let op =
    frequency
      [
        (8, map2 (fun a v -> O_store (a, v)) addr value);
        (3, map (fun a -> O_load a) addr);
        (2, map2 (fun a v -> O_poke (a, v)) addr value);
        (4, map (fun a -> O_clwb a) addr);
        (2, return O_fence);
        (1, return O_crash);
        (1, return O_flush_all);
        (1, return O_checkpoint);
        (2, return O_delta);
        (2, map (fun k -> O_restore k) (int_bound 3));
        (2, map2 (fun a n -> O_zero (a, Stdlib.min n (size - a))) addr (int_bound 24));
      ]
  in
  map3
    (fun cache_lines seed ops -> (size, cache_lines, seed, ops))
    (oneofl [ 1; 2; 4 ]) small_nat
    (list_size (int_range 1 80) op)

let print_overlay_case (size, cache_lines, seed, ops) =
  Printf.sprintf "size %d, %d cache lines, seed %d: %s" size cache_lines seed
    (String.concat "; " (List.map pp_oop ops))

let prop_overlay_model =
  QCheck.Test.make ~name:"overlay agrees with the hashtable reference"
    ~count:300
    (QCheck.make ~print:print_overlay_case gen_overlay_case)
    (fun (size, cache_lines, seed, ops) ->
      let pm = mk ~cache_lines ~size ~seed () in
      let r = Ref_overlay.create ~cache_lines ~seed size in
      let events = ref [] in
      Pmem.set_event_hook pm (Some (fun ev -> events := ev :: !events));
      (* Checkpoints taken so far, newest first; the last one taken or
         restored; whether a restore has armed delta tracking. *)
      let history = ref [ (Pmem.checkpoint pm, Ref_overlay.checkpoint r) ] in
      let last = ref (fst (List.hd !history)) and armed = ref false in
      let keep c =
        history := (c, Ref_overlay.checkpoint r) :: !history;
        last := c
      in
      (* Every address an operation can reach. *)
      let probes =
        List.sort_uniq compare
          (List.init (Stdlib.min size 48) Fun.id
          @ List.init (Stdlib.min size 16) (fun k -> size - 1 - k))
      in
      let fail op fmt =
        Printf.ksprintf
          (fun s -> QCheck.Test.fail_reportf "after %s: %s" (pp_oop op) s)
          fmt
      in
      let step op =
        match op with
        | O_store (a, v) ->
            Pmem.store pm a v;
            Ref_overlay.store r a v
        | O_load a ->
            let got = Pmem.load pm a and want = Ref_overlay.load r a in
            if got <> want then fail op "load %Ld, model %Ld" got want
        | O_poke (a, v) ->
            Pmem.poke pm a v;
            Ref_overlay.poke r a v
        | O_clwb a ->
            let got = Pmem.clwb pm a and want = Ref_overlay.clwb r a in
            if got <> want then fail op "clwb %b, model %b" got want
        | O_fence ->
            let got = Pmem.fence pm and want = Ref_overlay.fence r in
            if got <> want then fail op "fence %d, model %d" got want
        | O_crash ->
            Pmem.crash pm;
            Ref_overlay.drop r
        | O_flush_all ->
            Pmem.flush_all pm;
            Ref_overlay.flush_all r
        | O_checkpoint -> (
            match Pmem.checkpoint pm with
            | c ->
                if r.Ref_overlay.index <> [] then
                  fail op "checkpoint of a dirty memory";
                keep c
            | exception Invalid_argument _ ->
                if r.Ref_overlay.index = [] then
                  fail op "checkpoint of a clean memory refused")
        | O_delta -> (
            match Pmem.checkpoint ~prev:!last pm with
            | c ->
                if not !armed then fail op "delta before any restore";
                keep c
            | exception Invalid_argument _ ->
                if !armed then fail op "delta over the last checkpoint refused")
        | O_restore k ->
            let c, rc = List.nth !history (k mod List.length !history) in
            Pmem.restore pm c;
            Ref_overlay.restore r rc;
            last := c;
            armed := true
        | O_zero (a, n) ->
            let hwm = Pmem.high_water pm in
            Pmem.zero pm a n;
            for i = a to a + n - 1 do
              Ref_overlay.poke r i 0L
            done;
            if Pmem.high_water pm <> hwm then
              fail op "zero raised the high-water mark %d -> %d" hwm
                (Pmem.high_water pm)
      in
      List.iter
        (fun op ->
          step op;
          if !events <> r.Ref_overlay.events then
            fail op "hook events differ (%d, model %d)" (List.length !events)
              (List.length r.Ref_overlay.events);
          if Pmem.dirty_linenos pm <> r.Ref_overlay.index then
            fail op "dirty_linenos [%s], model [%s]"
              (String.concat ";" (List.map string_of_int (Pmem.dirty_linenos pm)))
              (String.concat ";" (List.map string_of_int r.Ref_overlay.index));
          if Pmem.dirty_lines pm <> List.length r.Ref_overlay.index then
            fail op "dirty_lines differs";
          let c = Pmem.counters pm in
          let got =
            [| c.Pmem.loads; c.stores; c.clwbs; c.writebacks; c.fences;
               c.evictions |]
          in
          if got <> r.Ref_overlay.c then fail op "counters differ";
          if Pmem.pending_flushes pm <> r.Ref_overlay.pending then
            fail op "pending differs";
          List.iter
            (fun a ->
            if Pmem.persisted pm a <> r.Ref_overlay.per.(a) then
              fail op "persisted %d = %Ld, model %Ld" a (Pmem.persisted pm a)
                r.Ref_overlay.per.(a);
            let dirty = Hashtbl.mem r.Ref_overlay.lines (a / Pmem.words_per_line) in
            if Pmem.is_dirty pm a <> dirty then fail op "is_dirty %d" a)
            probes)
        ops;
      (* Loads at every probe, counted on both sides alike. *)
      List.iter
        (fun a ->
          let got = Pmem.load pm a and want = Ref_overlay.load r a in
          if got <> want then
            QCheck.Test.fail_reportf "final load %d = %Ld, model %Ld" a got
              want)
        probes;
      true)

(* ------------------------------------------------------------------ *)
(* Vmem *)

let test_vmem () =
  let vm = Vmem.create () in
  Vmem.store vm 5 42L;
  Alcotest.(check int64) "read" 42L (Vmem.load vm 5);
  Alcotest.(check int64) "unwritten" 0L (Vmem.load vm 100000);
  let a = Vmem.alloc vm 10 in
  let b = Vmem.alloc vm 10 in
  Alcotest.(check bool) "disjoint" true (b >= a + 10);
  Alcotest.(check bool) "size grows" true (Vmem.size vm >= b + 10)

let test_vmem_grows () =
  let vm = Vmem.create ~initial:4 () in
  Vmem.store vm 1000 1L;
  Alcotest.(check int64) "grown" 1L (Vmem.load vm 1000)

let test_vmem_out_of_range () =
  let vm = Vmem.create ~initial:16 () in
  Vmem.store vm 3 7L;
  Alcotest.(check int64) "negative address" 0L (Vmem.load vm (-1));
  Alcotest.(check int64) "far negative address" 0L (Vmem.load vm min_int);
  Alcotest.(check int64) "past the storage" 0L (Vmem.load vm 16);
  Alcotest.(check int64) "far past the storage" 0L (Vmem.load vm max_int);
  Alcotest.check_raises "negative store"
    (Invalid_argument "Vmem: negative address") (fun () ->
      Vmem.store vm (-1) 1L);
  Alcotest.(check int) "a refused store allocates nothing" 4 (Vmem.size vm)

let test_vmem_growth_keeps_words () =
  let vm = Vmem.create ~initial:16 () in
  for a = 0 to 15 do
    Vmem.store vm a (Int64.of_int (a + 100))
  done;
  (* Past the first doubling (16 -> 32), then past a second jump. *)
  Vmem.store vm 16 1L;
  Vmem.store vm 100 2L;
  for a = 0 to 15 do
    Alcotest.(check int64) "old word kept" (Int64.of_int (a + 100))
      (Vmem.load vm a)
  done;
  Alcotest.(check int64) "new word" 1L (Vmem.load vm 16);
  Alcotest.(check int64) "gap reads zero" 0L (Vmem.load vm 50);
  Alcotest.(check int) "size" 101 (Vmem.size vm)

let test_vmem_copy_independent () =
  let vm = Vmem.create ~initial:16 () in
  Vmem.store vm 2 5L;
  let s = Vmem.snapshot vm in
  let c = Vmem.of_snapshot s in
  Alcotest.(check int) "an unchanged memory shares every page" 1
    (Vmem.snapshot_words ~prev:s (Vmem.snapshot ~prev:s c));
  Vmem.store vm 2 6L;
  Vmem.store c 3 9L;
  Vmem.store vm 40 1L;
  Alcotest.(check int64) "copy keeps the old word" 5L (Vmem.load c 2);
  Alcotest.(check int64) "original unaffected by the copy" 0L (Vmem.load vm 3);
  Alcotest.(check int64) "copy unaffected by growth" 0L (Vmem.load c 40);
  Alcotest.(check int) "copy's size" 4 (Vmem.size c);
  Alcotest.(check int) "original's size" 41 (Vmem.size vm)

let suites =
  [
    ( "nvm.pmem",
      [
        Alcotest.test_case "load/store" `Quick test_load_store;
        Alcotest.test_case "volatile until flushed" `Quick
          test_store_is_volatile_until_flushed;
        Alcotest.test_case "crash drops unflushed" `Quick test_crash_drops_unflushed;
        Alcotest.test_case "line-granular flush" `Quick test_line_granular_flush;
        Alcotest.test_case "eviction writeback" `Quick test_eviction_forces_writeback;
        Alcotest.test_case "arbitrary eviction order" `Quick
          test_eviction_order_arbitrary;
        Alcotest.test_case "pending accounting" `Quick test_pending_flush_accounting;
        Alcotest.test_case "clwb clean noop" `Quick test_clwb_clean_line_noop;
        Alcotest.test_case "poke" `Quick test_poke_bypasses_cache;
        Alcotest.test_case "flush_all" `Quick test_flush_all;
        Alcotest.test_case "flush_all order = dirty index" `Quick
          test_flush_all_dirty_index_order;
        Alcotest.test_case "reset = fresh create" `Quick test_reset_is_fresh;
        Alcotest.test_case "bounds" `Quick test_bounds;
        qtest prop_flushed_survives_crash;
        qtest prop_snapshot_matches_persisted;
        qtest prop_model_equivalence;
        Alcotest.test_case "create is demand-sized" `Quick
          test_create_is_demand_sized;
        Alcotest.test_case "restore a written checkpoint" `Quick
          test_restore_written_checkpoint;
        Alcotest.test_case "zero a range across the mark" `Quick test_zero_range;
        Alcotest.test_case "delta restore after growth and evictions" `Quick
          test_delta_restore;
        qtest prop_overlay_model;
      ] );
    ( "nvm.vmem",
      [
        Alcotest.test_case "basic" `Quick test_vmem;
        Alcotest.test_case "grows" `Quick test_vmem_grows;
        Alcotest.test_case "out-of-range addresses" `Quick
          test_vmem_out_of_range;
        Alcotest.test_case "growth keeps words" `Quick
          test_vmem_growth_keeps_words;
        Alcotest.test_case "copy is independent" `Quick
          test_vmem_copy_independent;
      ] );
  ]
