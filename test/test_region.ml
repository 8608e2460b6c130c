open Ido_util
open Ido_nvm
open Ido_region

let qtest = QCheck_alcotest.to_alcotest

let mk ?(size = 1 lsl 16) ?(seed = 1) () =
  let pm = Pmem.create ~rng:(Rng.create seed) size in
  (pm, Region.create pm)

let test_create_and_reopen () =
  let pm, r = mk () in
  Alcotest.(check bool) "fresh region clean" false (Region.was_dirty r);
  Region.mark_running r;
  let r2 = Region.open_existing pm in
  Alcotest.(check bool) "running = dirty at open" true (Region.was_dirty r2);
  Region.mark_clean r2;
  let r3 = Region.open_existing pm in
  Alcotest.(check bool) "clean close" false (Region.was_dirty r3)

let test_open_unformatted () =
  let pm = Pmem.create ~rng:(Rng.create 1) 4096 in
  Alcotest.check_raises "no magic"
    (Invalid_argument "Region.open_existing: no region header") (fun () ->
      ignore (Region.open_existing pm))

let test_dirty_flag_survives_crash () =
  let pm, r = mk () in
  Region.mark_running r;
  Pmem.crash pm;
  let r2 = Region.open_existing pm in
  Alcotest.(check bool) "crash leaves dirty" true (Region.was_dirty r2)

let test_alloc_zeroed_and_disjoint () =
  let pm, r = mk () in
  let a = Region.alloc r 8 in
  for i = 0 to 7 do
    Pmem.store pm (a + i) 7L
  done;
  let b = Region.alloc r 8 in
  Alcotest.(check bool) "disjoint" true (b >= a + 8 || a >= b + 8);
  for i = 0 to 7 do
    Alcotest.(check int64) "zeroed" 0L (Pmem.load pm (b + i))
  done;
  Alcotest.(check int) "block size" 8 (Region.block_size r a)

let test_free_list_reuse () =
  let _, r = mk () in
  let a = Region.alloc r 16 in
  Region.free r a;
  let b = Region.alloc r 16 in
  Alcotest.(check int) "exact-fit block reused" a b

let test_free_list_split () =
  let _, r = mk () in
  let a = Region.alloc r 64 in
  Region.free r a;
  let b = Region.alloc r 8 in
  let c = Region.alloc r 8 in
  (* Both small blocks carved out of the freed large one. *)
  Alcotest.(check bool) "first from freed block" true (b >= a && b < a + 64);
  Alcotest.(check bool) "second from remainder" true (c >= a && c < a + 64);
  Alcotest.(check bool) "no overlap" true (abs (b - c) >= 8)

let test_alloc_exhaustion () =
  (* Each 8-word block takes 9 words with its header: 11 fit in 100. *)
  let size = Region.heap_base + 100 in
  let _, r = mk ~size () in
  for _ = 1 to 11 do
    ignore (Region.alloc r 8)
  done;
  Alcotest.check_raises "oom"
    (Region.Out_of_memory
       { requested = 8; bump = Region.heap_base + (11 * 9); size })
    (fun () -> ignore (Region.alloc r 8));
  Alcotest.(check int) "failed alloc accounted nothing" (11 * 8)
    (Region.words_allocated r)

let test_roots () =
  let pm, r = mk () in
  Region.set_root r 0 99L;
  Region.set_root r 15 7L;
  Alcotest.(check int64) "root 0" 99L (Region.get_root r 0);
  Pmem.crash pm;
  let r2 = Region.open_existing pm in
  Alcotest.(check int64) "root survives crash" 99L (Region.get_root r2 0);
  Alcotest.(check int64) "root 15 survives" 7L (Region.get_root r2 15);
  Alcotest.check_raises "bad slot" (Invalid_argument "Region.get_root: bad slot")
    (fun () -> ignore (Region.get_root r 16))

let test_log_head_persisted () =
  let pm, r = mk () in
  Region.set_log_head r 4242L;
  Pmem.crash pm;
  let r2 = Region.open_existing pm in
  Alcotest.(check int64) "log head survives" 4242L (Region.log_head r2)

let test_allocator_metadata_survives_crash () =
  let pm, r = mk () in
  let a = Region.alloc r 8 in
  Pmem.crash pm;
  let r2 = Region.open_existing pm in
  let b = Region.alloc r2 8 in
  Alcotest.(check bool) "no overlap after crash" true (b >= a + 8 || a >= b + 8)

let test_words_allocated () =
  let _, r = mk () in
  ignore (Region.alloc r 10);
  ignore (Region.alloc r 5);
  Alcotest.(check int) "accounting" 15 (Region.words_allocated r)

let prop_allocations_never_overlap =
  QCheck.Test.make ~name:"allocations never overlap" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 1 32))
    (fun sizes ->
      let _, r = mk ~size:(1 lsl 18) () in
      let blocks = List.map (fun n -> (Region.alloc r n, n)) sizes in
      let rec pairwise = function
        | [] -> true
        | (a, n) :: rest ->
            List.for_all (fun (b, m) -> a + n <= b || b + m <= a) rest
            && pairwise rest
      in
      pairwise blocks
      && List.for_all (fun (a, _) -> a >= Region.heap_base) blocks)

let prop_free_then_alloc_no_overlap =
  QCheck.Test.make ~name:"free-list churn keeps blocks disjoint" ~count:40
    QCheck.(list_of_size Gen.(int_range 4 30) (int_range 1 24))
    (fun sizes ->
      let _, r = mk ~size:(1 lsl 18) () in
      (* Allocate all, free every other one, allocate again; live
         blocks must stay pairwise disjoint. *)
      let first = List.map (fun n -> (Region.alloc r n, n)) sizes in
      List.iteri (fun i (a, _) -> if i mod 2 = 0 then Region.free r a) first;
      let survivors = List.filteri (fun i _ -> i mod 2 = 1) first in
      let second = List.map (fun n -> (Region.alloc r n, n)) sizes in
      let live = survivors @ second in
      let rec pairwise = function
        | [] -> true
        | (a, n) :: rest ->
            List.for_all (fun (b, m) -> a + n <= b || b + m <= a) rest
            && pairwise rest
      in
      pairwise live)

let suites =
  [
    ( "region",
      [
        Alcotest.test_case "create/reopen" `Quick test_create_and_reopen;
        Alcotest.test_case "open unformatted" `Quick test_open_unformatted;
        Alcotest.test_case "dirty flag crash" `Quick test_dirty_flag_survives_crash;
        Alcotest.test_case "alloc zeroed/disjoint" `Quick test_alloc_zeroed_and_disjoint;
        Alcotest.test_case "free reuse" `Quick test_free_list_reuse;
        Alcotest.test_case "free split" `Quick test_free_list_split;
        Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
        Alcotest.test_case "roots" `Quick test_roots;
        Alcotest.test_case "log head" `Quick test_log_head_persisted;
        Alcotest.test_case "metadata survives crash" `Quick
          test_allocator_metadata_survives_crash;
        Alcotest.test_case "words allocated" `Quick test_words_allocated;
        qtest prop_allocations_never_overlap;
        qtest prop_free_then_alloc_no_overlap;
      ] );
  ]
