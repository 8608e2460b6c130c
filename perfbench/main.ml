(* The host-cost benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Runs one workload's jobs serially in a closed loop until S seconds
   are used (one whole pass first, then round robin), checks every
   simulated result, and prints the metrics, times in reference
   seconds (see Calib); a JSON line of its own gives the throughput on
   the raw host clock.  The last stdout line is
   one JSON object: {"correct", "attempted", "failed", "metrics"}.
   With --trace 0 the metrics are the end-to-end ones; with --trace 1
   traced and untraced passes alternate and the traced ones report the
   per-layer metrics.  Exit status: 0 when every job passed its gates,
   1 when one failed, 2 on a usage error. *)

type workload = {
  name : string;
  item : string;  (** what one unit of [work] is *)
  setup : Job.size -> seed:int -> Job.t list;
}

let workloads =
  [
    { name = "paper-sweep"; item = "sim_ops"; setup = Paper_sweep.setup };
    { name = "crash-explore"; item = "crash_points"; setup = Crash_explore.setup };
    { name = "serve-fault"; item = "requests"; setup = Serve_fault.setup };
  ]

(* ---------- statistics ---------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank. *)
let percentile a q =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* A job's time over its runs: the lower quartile.  Interference from
   other tenants only ever slows a run, in bursts that the reference
   timings beside it follow only in part, so the faster runs estimate
   the undisturbed time best; the quartile, unlike the minimum, does
   not hang on one lucky run. *)
let over_runs xs = percentile (Array.of_list xs) 0.25

(* Every run of a job yields the same verdicts in the same order, so
   each verdict's time is first reduced over the runs; the percentiles
   are then taken over verdicts.  A failed run can yield fewer: then
   all samples count as they are. *)
let per_verdict runs =
  match runs with
  | [] -> [||]
  | first :: _ ->
      let n = Array.length first in
      if List.exists (fun r -> Array.length r <> n) runs then
        Array.concat runs
      else Array.init n (fun i -> over_runs (List.map (fun r -> r.(i)) runs))

(* ---------- host facts ---------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let status_field key =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = key ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (read_lines "/proc/self/status")

let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> float_of_string kb /. 1024.0
      | [] -> 0.0)
  | None -> 0.0

(* The number of CPUs in a list such as "0-3,6". *)
let cpu_count = function
  | None -> 0
  | Some l ->
      List.fold_left
        (fun n r ->
          match String.split_on_char '-' r with
          | [ a; b ] -> n + int_of_string b - int_of_string a + 1
          | _ -> n + 1)
        0
        (String.split_on_char ',' (String.trim l))

(* The CPUs this process may run on (what [nproc] prints; run.sh pins
   the benchmark to one), and the CPUs the host has online. *)
let cpus_allowed () = status_field "Cpus_allowed_list"

let online_cpus () =
  match read_lines "/sys/devices/system/cpu/online" with
  | l :: _ -> cpu_count (Some l)
  | [] -> 0

(* The checked-out revision, read from .git without leaving the
   working directory; "unknown" outside a git checkout. *)
let git_rev () =
  let first path = match read_lines path with l :: _ -> Some l | [] -> None in
  match first ".git/HEAD" with
  | None -> "unknown"
  | Some h -> (
      match String.split_on_char ' ' h with
      | [ "ref:"; r ] -> (
          match first (".git/" ^ r) with
          | Some rev -> rev
          | None -> (
              let packed =
                List.find_map
                  (fun l ->
                    match String.split_on_char ' ' l with
                    | [ rev; name ] when name = r -> Some rev
                    | _ -> None)
                  (read_lines ".git/packed-refs")
              in
              match packed with Some rev -> rev | None -> "unknown"))
      | _ -> h)

(* ---------- reference digests ---------- *)

let size_name = function Job.Full -> "full" | Job.Tiny -> "tiny"

(* Lines "<seed> <full|tiny> <workload> <md5>"; see NOTES.md. *)
let reference ~seed ~size ~workload =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' (String.trim l) with
      | [ s; z; w; d ]
        when s = string_of_int seed && z = size_name size && w = workload ->
          Some d
      | _ -> None)
    (read_lines "perfbench/reference.txt")

let digest results = Digest.to_hex (Digest.string (String.concat "\n" results))

(* ---------- running ---------- *)

(* One timed run of a job; a job that raises has failed.  Each run
   starts on a compacted heap, so it neither pays for collecting the
   previous job's garbage nor inherits its heap size. *)
let run_job f (j : Job.t) =
  Gc.compact ();
  let t0 = Layers.now () in
  let o =
    try f j
    with e ->
      let m = Printexc.to_string e in
      Job.failed ("raised: " ^ m) m
  in
  (o, Layers.now () -. t0)

type run = {
  outcome : Job.outcome;
  seconds : float;  (** host seconds *)
  reference : float;
      (** host seconds of the {!Calib} reference computation: the mean
          of its timings right before and right after the run *)
}

(* Host seconds [t] measured beside [r] in reference seconds. *)
let scaled r t = t *. Calib.nominal /. r.reference

(* Closed loop, round robin over the jobs: one whole pass, then more
   runs until [seconds] have passed since [t0].  Returns each job's
   runs, oldest first, and the peak RSS at the end of the first pass. *)
let round_robin ~t0 ~seconds jobs =
  let last = ref (Calib.measure ()) in
  let timed j =
    let before = !last in
    let outcome, seconds = run_job (fun (j : Job.t) -> j.Job.run ()) j in
    last := Calib.measure ();
    { outcome; seconds; reference = (before +. !last) /. 2.0 }
  in
  let jobs = Array.of_list jobs in
  let runs = Array.map (fun j -> [ timed j ]) jobs in
  let rss = peak_rss_mb () in
  let i = ref 0 in
  while Layers.now () -. t0 < seconds do
    runs.(!i) <- timed jobs.(!i) :: runs.(!i);
    i := (!i + 1) mod Array.length jobs
  done;
  (Array.to_list (Array.map List.rev runs), rss)

type pass = { outcomes : Job.outcome list; wall : float; layers : Layers.t option }

(* Whole passes for the traced run: untraced first (its results are
   the reference), then traced and untraced in turn, so both kinds see
   the same warm process, until [seconds] have passed and at least one
   traced pass is done. *)
let alternating ~t0 ~seconds jobs =
  let pass layers =
    let f =
      match layers with
      | Some l -> fun (j : Job.t) -> j.Job.traced l
      | None -> fun (j : Job.t) -> j.Job.run ()
    in
    let t = Layers.now () in
    let outcomes = List.map (fun j -> fst (run_job f j)) jobs in
    { outcomes; wall = Layers.now () -. t; layers }
  in
  let rec go acc =
    let traced = List.exists (fun p -> Option.is_some p.layers) acc in
    if traced && Layers.now () -. t0 >= seconds then List.rev acc
    else
      let next =
        match acc with
        | { layers = None; _ } :: _ -> Some (Layers.create ())
        | _ -> None
      in
      go (pass next :: acc)
  in
  go [ pass None ]

(* Set-up cost from process start in reference seconds, the median
   over [n] fresh processes (forcing the registry programs can happen
   once per process). *)
let setup_seconds ~n args =
  let once () =
    let k = Calib.measure () in
    let t0 = Layers.now () in
    let ic =
      Unix.open_process_args_in Sys.executable_name
        (Array.of_list (Sys.executable_name :: "--setup-only" :: args))
    in
    let line = try input_line ic with End_of_file -> "" in
    let t = Layers.now () -. t0 in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, "ready" -> t *. Calib.nominal /. k
    | _ -> failwith "set-up process failed"
  in
  median (List.init n (fun _ -> once ()))

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (k, unit, v) ->
        Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} k (json_number v)
          unit)
      metrics
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", " fields);
  print_newline ()

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0
  and trace = ref 0 and size = ref Job.Full and setup_only = ref false
  and perturb = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME paper-sweep | crash-explore | serve-fault");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--size",
        Arg.Symbol
          ([ "full"; "tiny" ],
           fun s -> size := if s = "tiny" then Job.Tiny else Job.Full),
        " job sizes (tiny: the self-test's)" );
      ("--perturb-reference", Arg.Set perturb, " corrupt the reference digest (self-test)");
      ("--setup-only", Arg.Set setup_only, " set up, print \"ready\", exit");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  let die msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> die ("unexpected argument " ^ a)) usage
   with Arg.Bad m | Arg.Help m -> prerr_string m; exit 2);
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        die
          (Printf.sprintf "unknown workload %S (known: %s)" !workload
             (String.concat ", " (List.map (fun w -> w.name) workloads)))
  in
  if !seed < 0 then die "--seed must be non-negative";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !seconds <= 0.0 then die "--seconds must be positive";
  let jobs = w.setup !size ~seed:!seed in
  if !setup_only then (
    print_endline "ready";
    exit 0);
  let setup_s =
    if !trace = 0 then
      setup_seconds ~n:11
        [ "--workload"; w.name; "--seed"; string_of_int !seed;
          "--size"; size_name !size ]
    else 0.0
  in
  let t0 = Layers.now () in
  (* Each job's runs, oldest first. *)
  let runs, rss, passes =
    if !trace = 0 then
      let runs, rss = round_robin ~t0 ~seconds:!seconds jobs in
      (runs, rss, [])
    else
      let passes = alternating ~t0 ~seconds:!seconds jobs in
      ( List.mapi
          (fun i _ ->
            List.map
              (fun p ->
                { outcome = List.nth p.outcomes i; seconds = p.wall;
                  reference = Calib.nominal })
              passes)
          jobs,
        0.0,
        passes )
  in
  (* Every run of a job, traced or not, must reproduce its first run's
     result, and the first runs together must match the reference. *)
  let results = List.map (fun r -> (List.hd r).outcome.Job.result) runs in
  let got = digest results in
  let want =
    reference ~seed:!seed ~size:!size ~workload:w.name
    |> Option.map (fun d ->
           if !perturb then Digest.to_hex (Digest.string d) else d)
  in
  let failures =
    List.concat
      (List.map2
         (fun (j : Job.t) r ->
           let first = (List.hd r).outcome.Job.result in
           List.filter_map
             (fun { outcome = o; _ } ->
               match o.Job.error with
               | Some e -> Some (j.Job.label ^ ": " ^ e)
               | None when o.Job.result <> first ->
                   Some (j.Job.label ^ ": result differs from its first run")
               | None -> None)
             r)
         jobs runs)
  in
  let attempted = List.fold_left (fun a r -> a + List.length r) 0 runs in
  let digest_ok = match want with None -> true | Some d -> d = got in
  let failed = if digest_ok then List.length failures else attempted in
  let correct = failed = 0 in
  Printf.printf "perfbench %s seed=%d size=%s: %d jobs, %d runs%s\n" w.name
    !seed (size_name !size) (List.length jobs) attempted
    (if !trace = 1 then
       Printf.sprintf " in %d passes (%d traced)" (List.length passes)
         (List.length (List.filter (fun p -> Option.is_some p.layers) passes))
     else "");
  Printf.printf "digest %s reference %s: %s\n" got
    (Option.value want ~default:"none")
    (match want with
    | None -> "unchecked (no reference for this seed)"
    | Some _ when digest_ok -> "ok"
    | Some _ -> "MISMATCH");
  List.iter (fun f -> Printf.printf "FAIL %s\n" f) failures;
  Printf.printf
    {|{"host": {"recommended_domains": %d, "nproc": %d, "cpus_allowed": "%s", "online_cpus": %d, "ocaml": "%s", "git_rev": "%s", "seed": %d, "workload": "%s", "trace": %d}}|}
    (Domain.recommended_domain_count ())
    (cpu_count (cpus_allowed ()))
    (Option.value (cpus_allowed ()) ~default:"")
    (online_cpus ()) Sys.ocaml_version (git_rev ()) !seed w.name !trace;
  print_newline ();
  let metrics =
    if !trace = 0 then begin
      (* Each job's time, and each verdict's, is reduced over the
         job's runs by [over_runs], in reference seconds. *)
      let work =
        List.fold_left (fun a r -> a + (List.hd r).outcome.Job.work) 0 runs
      in
      let per_s time =
        float_of_int work
        /. List.fold_left (fun a r -> a +. over_runs (List.map time r)) 0.0 runs
      in
      let per_s_host = per_s (fun r -> r.seconds) in
      let per_s = per_s (fun r -> scaled r r.seconds) in
      let verdicts =
        Array.concat
          (List.map
             (fun r ->
               per_verdict
                 (List.map
                    (fun r -> Array.map (scaled r) r.outcome.Job.samples)
                    r))
             runs)
      in
      let p50 = percentile verdicts 0.5 and p95 = percentile verdicts 0.95 in
      let reference_ms =
        median (List.concat_map (List.map (fun r -> r.reference)) runs) *. 1e3
      in
      Printf.printf
        "%s_per_s = %.1f 1/s (%.1f on the host clock; reference computation \
         %.2f ms); us per item p50 = %.3f, p95 = %.3f over %d verdicts; \
         fail_ratio = %g (%d/%d)\n"
        w.item per_s per_s_host reference_ms p50 p95 (Array.length verdicts)
        (float_of_int failed /. float_of_int attempted)
        failed attempted;
      Printf.printf
        {|{"host_clock": {"items_per_s": %s, "reference_ms": %s}}|}
        (json_number per_s_host) (json_number reference_ms);
      print_newline ();
      [
        ("setup_s", "s", setup_s); ("items_per_s", "1/s", per_s);
        ("item_us_p50", "us", p50); ("item_us_p95", "us", p95);
        ("peak_rss_mb", "MB", rss);
      ]
    end
    else begin
      let traced, untraced =
        List.partition (fun p -> Option.is_some p.layers) passes
      in
      let values =
        List.filter_map (fun p -> Option.map Layers.values p.layers) traced
      in
      let wall ps = median (List.map (fun p -> p.wall) ps) in
      (* A traced pass less the work only the benchmark does in it. *)
      let traced_wall =
        median
          (List.map
             (fun p ->
               p.wall
               -. Option.fold ~none:0.0 ~some:Layers.replica_seconds p.layers)
             traced)
      in
      Printf.printf
        "median pass: untraced %.3f s, traced %.3f s (%.3f s less the \
         benchmark's own replica work); fail_ratio = %g (%d/%d)\n"
        (wall untraced) (wall traced) traced_wall
        (float_of_int failed /. float_of_int attempted)
        failed attempted;
      List.map
        (fun (k, unit) ->
          let v =
            if k = "trace.overhead_ratio" then traced_wall /. wall untraced
            else median (List.map (List.assoc k) values)
          in
          (k, unit, v))
        Layers.metrics
    end
  in
  List.iter
    (fun (k, unit, v) -> Printf.printf "metric %-28s %18.6f %s\n" k v unit)
    metrics;
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
