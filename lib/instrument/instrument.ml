open Ido_ir
open Ido_analysis
open Ido_runtime

(* Rebuild every block, emitting for each instruction slot i:
     (cut hook at i)  (pre-hooks of instr i)  (instr i)  (post-hooks)
   where cuts exist only under iDO.  The slot at index = #instrs
   (before the terminator) can carry a cut and pre/post hooks from the
   last instruction. *)
let rewrite (f : Ir.func) ~cut_at ~pre ~post ~replace =
  let blocks =
    Array.mapi
      (fun b (blk : Ir.block) ->
        let out = ref [] in
        let emit i = out := i :: !out in
        let n = Array.length blk.instrs in
        for i = 0 to n - 1 do
          let pos = { Ir.blk = b; idx = i } in
          List.iter emit (cut_at pos);
          List.iter emit (pre pos blk.instrs.(i));
          (match replace pos blk.instrs.(i) with
          | Some instrs -> List.iter emit instrs
          | None -> emit blk.instrs.(i));
          List.iter emit (post pos blk.instrs.(i))
        done;
        List.iter emit (cut_at { Ir.blk = b; idx = n });
        { blk with instrs = Array.of_list (List.rev !out) })
      f.blocks
  in
  { f with blocks }

let no_cuts _ = []
let no_hooks _ _ = []
let keep _ _ = None

let is_tracked_store = function
  | Ir.Store { space = Ir.Persistent | Ir.Stack; _ } -> true
  | _ -> false

let is_persistent_store = function
  | Ir.Store { space = Ir.Persistent; _ } -> true
  | _ -> false

let instrument_func scheme (f : Ir.func) =
  let cfg = Cfg.build f in
  let fase = Fase.compute_exn cfg in
  if not (Fase.has_fase fase) then f
  else begin
    let h x = Ir.Hook x in
    let enter_exit_post pos instr =
      match instr with
      | Ir.Lock _ when Fase.outermost_acquire fase pos -> [ h Ir.Hfase_enter ]
      | Ir.Durable_begin -> [ h Ir.Hfase_enter ]
      | Ir.Unlock _ when Fase.outermost_release fase pos -> [ h Ir.Hfase_exit ]
      | Ir.Durable_end -> [ h Ir.Hfase_exit ]
      | _ -> []
    in
    let lock_records_post pos instr =
      match instr with
      | Ir.Lock _ when Fase.covers fase pos -> [ h Ir.Hlock_acquired ]
      | _ -> []
    in
    let lock_records_pre pos instr =
      match instr with
      | Ir.Unlock _ when Fase.in_fase fase pos ->
          [ h (Ir.Hlock_release { outermost = Fase.outermost_release fase pos }) ]
      | _ -> []
    in
    match scheme with
    | Scheme.Origin -> f
    | Scheme.Ido ->
        let plan = Regions.plan f in
        let cuts = Hashtbl.create 32 in
        List.iter
          (fun (c : Regions.cut) ->
            Hashtbl.replace cuts c.pos
              (h
                 (Ir.Hregion
                    {
                      region_id = c.id;
                      live_in = c.live_in;
                      out_regs = c.out_regs;
                      skippable = not c.required;
                      at_release = c.at_release;
                    })))
          plan.cuts;
        let cut_at pos =
          match Hashtbl.find_opt cuts pos with Some hk -> [ hk ] | None -> []
        in
        let post pos instr =
          (* Acquire: FASE bookkeeping then lock record; the following
             cut's fence persists both (so an acquire adds no fence of
             its own — the benign steal window of Sec. III-B). *)
          match instr with
          | Ir.Lock _ when Fase.outermost_acquire fase pos ->
              [ h Ir.Hfase_enter; h Ir.Hlock_acquired ]
          | Ir.Lock _ when Fase.covers fase pos -> [ h Ir.Hlock_acquired ]
          | _ -> enter_exit_post pos instr
        in
        (* Release: the record clear persists (one fence) before the
           unlock, so no two threads' lock_arrays can ever claim the
           same lock — the "single memory fence" lock operation. *)
        rewrite f ~cut_at ~pre:lock_records_pre ~post ~replace:keep
    | Scheme.Justdo ->
        let pre pos instr =
          lock_records_pre pos instr
          @
          if is_tracked_store instr && Fase.in_fase fase pos then
            [ h Ir.Hjustdo_store ]
          else []
        in
        let post pos instr = enter_exit_post pos instr @ lock_records_post pos instr in
        rewrite f ~cut_at:no_cuts ~pre ~post ~replace:keep
    | Scheme.Atlas ->
        let pre pos instr =
          let commit =
            match instr with
            | Ir.Unlock _ when Fase.outermost_release fase pos ->
                [ h Ir.Hdurable_commit ]
            | Ir.Durable_end -> [ h Ir.Hdurable_commit ]
            | _ -> []
          in
          commit @ lock_records_pre pos instr
          @
          if is_persistent_store instr && Fase.in_fase fase pos then
            [ h Ir.Hundo_store ]
          else []
        in
        let post pos instr = enter_exit_post pos instr @ lock_records_post pos instr in
        rewrite f ~cut_at:no_cuts ~pre ~post ~replace:keep
    | Scheme.Mnemosyne ->
        let replace pos instr =
          match instr with
          | Ir.Lock _ when Fase.outermost_acquire fase pos ->
              Some [ h Ir.Htxn_begin ]
          | Ir.Lock _ when Fase.covers fase pos -> Some []
          | Ir.Unlock _ when Fase.outermost_release fase pos ->
              Some [ h Ir.Htxn_commit ]
          | Ir.Unlock _ when Fase.in_fase fase pos -> Some []
          | Ir.Durable_begin -> Some [ h Ir.Htxn_begin ]
          | Ir.Durable_end -> Some [ h Ir.Htxn_commit ]
          | _ -> None
        in
        let pre pos instr =
          if is_persistent_store instr && Fase.in_fase fase pos then
            [ h Ir.Hredo_store ]
          else []
        in
        rewrite f ~cut_at:no_cuts ~pre ~post:no_hooks ~replace
    | Scheme.Nvml ->
        let pre pos instr =
          match instr with
          | Ir.Durable_end -> [ h Ir.Hdurable_commit ]
          | _ ->
              if is_persistent_store instr && Fase.durable_before fase pos then
                [ h Ir.Hundo_store ]
              else []
        in
        let post _pos instr =
          match instr with
          | Ir.Durable_begin -> [ h Ir.Hfase_enter ]
          | Ir.Durable_end -> [ h Ir.Hfase_exit ]
          | _ -> []
        in
        rewrite f ~cut_at:no_cuts ~pre ~post ~replace:keep
    | Scheme.Nvthreads ->
        let pre pos instr =
          (* Dthreads-style semantics: buffered pages are published at
             every synchronization point, i.e. before every release —
             required for visibility under non-nested locking. *)
          let commit =
            match instr with
            | Ir.Unlock _ when Fase.in_fase fase pos -> [ h Ir.Hdurable_commit ]
            | Ir.Durable_end -> [ h Ir.Hdurable_commit ]
            | _ -> []
          in
          commit
          @
          if is_persistent_store instr && Fase.in_fase fase pos then
            [ h Ir.Hpage_log ]
          else []
        in
        rewrite f ~cut_at:no_cuts ~pre ~post:enter_exit_post ~replace:keep
  end

let instrument ?(lint = false) ?(opt = false) scheme (p : Ir.program) =
  let p' =
    { Ir.funcs = List.map (fun (name, f) -> (name, instrument_func scheme f)) p.funcs }
  in
  let p' = if opt then fst (Ido_opt.Opt.optimize scheme p') else p' in
  if lint then begin
    match Ido_lint.Lint.lint_program scheme p' with
    | [] -> ()
    | diags ->
        failwith
          (Printf.sprintf "instrumentation lint (%s): %s" (Scheme.name scheme)
             (String.concat "; "
                (List.map Ido_analysis.Diag.render diags)))
  end;
  p'
