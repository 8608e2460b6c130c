(* Static-pipeline golden ledger.

   Prints one deterministic record per supported scheme x workload
   pair — the digest of the instrumented program, the digest of the
   optimized program with its rewrite reports, and the lint diagnostic
   count — followed by every seeded mutant's diagnostics.  The dune
   rule diffs this against the committed golden_static.expected, so
   any change to what the analyses decide (region cuts, live-in sets,
   hook placement, rewrites, diagnostics) fails the build.  Regenerate
   with dune promote only for a deliberate behaviour change. *)

open Ido_ir
open Ido_runtime
open Ido_analysis

let md5_program p =
  Digest.to_hex (Digest.string (Format.asprintf "%a" Ir.pp_program p))

let () =
  List.iter
    (fun workload ->
      List.iter
        (fun scheme ->
          if Ido_check.Engine.supported scheme workload then begin
            let src = Ido_workloads.Workload.named workload in
            let inst = Ido_instrument.Instrument.instrument scheme src in
            let opt, rewrites = Ido_opt.Opt.optimize scheme inst in
            let diags = Ido_lint.Lint.lint_program scheme inst in
            Printf.printf "pair %s/%s instrument=%s optimize=%s rewrites=%d lint=%d\n"
              (Scheme.name scheme) workload (md5_program inst)
              (md5_program opt) (List.length rewrites) (List.length diags);
            List.iter
              (fun r -> Printf.printf "  %s\n" (Ido_opt.Rewrite.json r))
              rewrites
          end)
        Scheme.all)
    Ido_workloads.Workload.names;
  List.iter
    (fun (o : Ido_check.Lintrun.outcome) ->
      Printf.printf "mutant %s diags=%d\n" o.mutant.Ido_lint.Mutate.name
        (List.length o.mdiags);
      List.iter (fun d -> Printf.printf "  %s\n" (Diag.json d)) o.mdiags)
    (Ido_check.Lintrun.run_corpus ())
