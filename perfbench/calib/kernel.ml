(* The host speed reference: a fixed computation of the simulator's
   kind of work (hashtable lookups and small allocations) that the
   benchmark times between job runs.

   Reads one line from stdin per measurement and answers with the
   seconds one run of the computation took, on a compacted heap;
   exits at end of input. *)

let kernel () =
  let h = Hashtbl.create 1024 in
  let x = ref 1 in
  for i = 1 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 4095 in
    match Hashtbl.find_opt h k with
    | Some (a, _) -> Hashtbl.replace h k (a + i, Int64.of_int i)
    | None -> Hashtbl.replace h k (i, 0L)
  done;
  ignore (Sys.opaque_identity h)

let () =
  try
    while true do
      ignore (input_line stdin);
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      kernel ();
      Printf.printf "%.17g\n%!" (Unix.gettimeofday () -. t0)
    done
  with End_of_file -> ()
