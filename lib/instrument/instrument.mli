(** Scheme-specific instrumentation passes (Fig. 4).

    Each pass takes a validated, hook-free program and returns the
    same program with runtime hooks inserted (and, for Mnemosyne, lock
    operations replaced by transaction boundaries).  Registers and
    block structure are preserved, so the analyses computed on the
    original function remain valid for the instrumented one.

    Insertion rules per scheme:

    - [Ido]: a [Hregion] boundary at every cut of {!Ido_analysis.Regions}
      (after acquires, before releases, at in-FASE loop headers, and at
      the hitting-set cuts for WAR pairs), plus indirect-lock records
      around each lock operation and FASE enter/exit bookkeeping.
    - [Justdo]: a [Hjustdo_store] before every in-FASE persistent or
      stack store; two-fence lock ownership records.
    - [Atlas]: a [Hundo_store] before every in-FASE persistent store;
      lock ownership records; a [Hdurable_commit] (flush FASE data)
      before the outermost release.
    - [Mnemosyne]: the outermost acquire becomes [Htxn_begin], the
      outermost release [Htxn_commit], inner lock operations are
      elided (speculation); in-FASE stores get [Hredo_store].
    - [Nvml]: programmer-delineated durable regions only — UNDO
      entries per store, commit at [Durable_end]; lock-based FASEs are
      deliberately left uninstrumented (library, not compiler).
    - [Nvthreads]: [Hpage_log] before in-FASE stores (first-touch page
      imaging), page commit at FASE end.
    - [Origin]: identity. *)

open Ido_ir
open Ido_runtime

val instrument_func : Scheme.t -> Ir.func -> Ir.func

val instrument : ?lint:bool -> ?opt:bool -> Scheme.t -> Ir.program -> Ir.program
(** Instrument every function.  With [~lint:true] the result is passed
    through the static crash-consistency linter
    ({!Ido_lint.Lint.lint_program}) as a post-pass and [Failure] is
    raised if any diagnostic fires — a self-check that the hooks just
    inserted satisfy their own contract. *)
