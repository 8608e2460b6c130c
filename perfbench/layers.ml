(* Per-layer accounting for the traced run.

   Every figure is accumulated from the benchmark's side of a public
   call: a span times the call on the host clock, a count adds what the
   call reports.  Nothing here reaches inside the library, so host time
   spent in pmem or in a scheme's log appends (both inside [Vm.run])
   shows up only as counts. *)

open Ido_nvm

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64
let get (t : t) k = Option.value (Hashtbl.find_opt t k) ~default:0.0
let add (t : t) k v = Hashtbl.replace t k (get t k +. v)
let count t k n = add t k (float_of_int n)
let now = Unix.gettimeofday

(* Time [f] into [k], in ms. *)
let span t k f =
  let t0 = now () in
  let r = f () in
  add t k ((now () -. t0) *. 1e3);
  r

(* A span of work the entry point itself does not do: a stand-in for
   something it hides, or an extra check.  Its time also goes to
   [replica_ms], which [trace.overhead_ratio] leaves out. *)
let replica t k f =
  let t0 = now () in
  let r = span t k f in
  add t "replica_ms" ((now () -. t0) *. 1e3);
  r

let replica_seconds t = get t "replica_ms" /. 1e3

(* A [vm.*] span also charges the major-heap words it allocated. *)
let vm_span t k f =
  let w0 = (Gc.quick_stat ()).Gc.major_words in
  let r = span t k f in
  add t "vm.major_words" ((Gc.quick_stat ()).Gc.major_words -. w0);
  r

(* The worker phase: host time, interpreter steps of [threads], and
   minor-heap allocation per step. *)
let vm_run t threads f =
  let m0 = Gc.minor_words () in
  let r = vm_span t "vm.run_ms" f in
  add t "minor_words" (Gc.minor_words () -. m0);
  count t "vm.steps"
    (List.fold_left (fun a th -> a + th.Ido_vm.State.steps) 0 threads);
  r

(* A stand-in for the region boot that [Vm.create] performs: the same
   memory size and cache geometry, formatted the same way.  [Vm.create]
   hides its own boot, so its cost is read off this replica. *)
let region_boot t ~words ~cache_lines =
  replica t "region.boot_ms" (fun () ->
      let pm = Pmem.create ~cache_lines ~rng:(Ido_util.Rng.create 0) words in
      ignore (Ido_region.Region.create pm : Ido_region.Region.t));
  count t "region.boots" 1

(* Region occupancy of a machine after its run. *)
let region_used t m =
  count t "region_words"
    (Ido_region.Region.words_allocated (Ido_vm.Vm.region m));
  count t "region_size" (Pmem.size (Ido_vm.Vm.pmem m))

(* The compile pipeline [Vm.create] runs, made again from outside:
   instrument, then the linter and the optimizer over the result. *)
let compile t scheme program =
  let inst =
    replica t "compile.instrument_ms" (fun () ->
        Ido_instrument.Instrument.instrument scheme program)
  in
  ignore
    (replica t "compile.lint_ms" (fun () ->
         Ido_lint.Lint.lint_program scheme inst));
  let _, rewrites =
    replica t "compile.opt_ms" (fun () -> Ido_opt.Opt.optimize scheme inst)
  in
  count t "compile.rewrites" (List.length rewrites)

(* Pmem counters are a shared mutable record: copy to snapshot. *)
let counters m =
  let c = Pmem.counters (Ido_vm.Vm.pmem m) in
  { c with Pmem.loads = c.Pmem.loads }

(* Charge the pmem traffic since [c0] and reconcile [obs] against it. *)
let pmem_window t m c0 obs =
  let c = Pmem.counters (Ido_vm.Vm.pmem m) in
  let d f = f c - f c0 in
  count t "pmem.loads" (d (fun c -> c.Pmem.loads));
  count t "pmem.stores" (d (fun c -> c.Pmem.stores));
  count t "pmem.clwbs" (d (fun c -> c.Pmem.clwbs));
  count t "pmem.writebacks" (d (fun c -> c.Pmem.writebacks));
  count t "pmem.fences" (d (fun c -> c.Pmem.fences));
  count t "pmem.evictions" (d (fun c -> c.Pmem.evictions));
  let r = Ido_obs.Obs.total obs in
  count t "log.appends" r.Ido_obs.Obs.log_appends;
  count t "log.bytes" r.Ido_obs.Obs.log_bytes;
  count t "log.boundaries" r.Ido_obs.Obs.boundaries;
  count t "log_elided" r.Ido_obs.Obs.elided_boundaries;
  Ido_obs.Obs.check obs
    ~stores:(d (fun c -> c.Pmem.stores))
    ~writebacks:(d (fun c -> c.Pmem.writebacks))
    ~fences:(d (fun c -> c.Pmem.fences))
    ~evictions:(d (fun c -> c.Pmem.evictions))

let recovered t (s : Ido_vm.Recover.stats) =
  count t "recover.calls" 1;
  count t "recover.fases_resumed" s.Ido_vm.Recover.fases_resumed;
  count t "recover.records_scanned" s.Ido_vm.Recover.records_scanned

(* The per-layer metrics, in report order, with their units. *)
let metrics =
  [
    ("region.boot_ms", "ms"); ("region.boots", "count");
    ("region.used_ratio", "ratio");
    ("vm.create_ms", "ms"); ("vm.reset_ms", "ms"); ("vm.init_ms", "ms");
    ("vm.run_ms", "ms"); ("vm.crash_ms", "ms"); ("vm.steps", "count");
    ("vm.ns_per_step", "ns"); ("vm.minor_words_per_step", "words");
    ("vm.major_words", "words");
    ("compile.instrument_ms", "ms"); ("compile.lint_ms", "ms");
    ("compile.opt_ms", "ms"); ("compile.rewrites", "count");
    ("pmem.loads", "count"); ("pmem.stores", "count");
    ("pmem.clwbs", "count"); ("pmem.writebacks", "count");
    ("pmem.fences", "count"); ("pmem.evictions", "count");
    ("pmem.writeback_ratio", "ratio"); ("pmem.loads_per_store", "ratio");
    ("log.appends", "count"); ("log.bytes", "bytes");
    ("log.boundaries", "count"); ("log.elided_ratio", "ratio");
    ("log.undo_records", "count");
    ("recover.ms", "ms"); ("recover.calls", "count");
    ("recover.fases_resumed", "count"); ("recover.records_scanned", "count");
    ("check.record_ms", "ms"); ("check.injections", "count");
    ("check.violations", "count"); ("oracle.validate_ms", "ms");
    ("serve.plan_ms", "ms"); ("serve.gen_ns_per_request", "ns");
    ("serve.unit_ms", "ms"); ("serve.unit_us_per_request", "us");
    ("serve.merge_ms", "ms"); ("serve.report_ms", "ms");
    ("serve.replayed", "count"); ("serve.failovers", "count");
    ("trace.overhead_ratio", "ratio");
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* One traced pass's values for every metric except
   [trace.overhead_ratio], which needs the untraced pass. *)
let values t =
  let g = get t in
  let derived = function
    | "region.used_ratio" -> ratio (g "region_words") (g "region_size")
    | "vm.ns_per_step" -> ratio (g "vm.run_ms" *. 1e6) (g "vm.steps")
    | "vm.minor_words_per_step" -> ratio (g "minor_words") (g "vm.steps")
    | "pmem.writeback_ratio" -> ratio (g "pmem.writebacks") (g "pmem.clwbs")
    | "pmem.loads_per_store" -> ratio (g "pmem.loads") (g "pmem.stores")
    | "log.elided_ratio" -> ratio (g "log_elided") (g "log.boundaries")
    | "serve.gen_ns_per_request" ->
        ratio (g "gen_ms" *. 1e6) (g "gen_requests")
    | "serve.unit_us_per_request" ->
        ratio (g "serve.unit_ms" *. 1e3) (g "unit_requests")
    | k -> g k
  in
  List.filter_map
    (fun (k, _) ->
      if k = "trace.overhead_ratio" then None else Some (k, derived k))
    metrics
