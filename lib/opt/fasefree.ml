open Ido_ir
open Ido_runtime

(* O102: a FASE whose body can dirty nothing leaves recovery nothing
   to redo or undo — its entire hook skeleton (begin/end, boundaries,
   grants, commits) is pure overhead and the bare Lock/Unlock
   structure already carries the mutual-exclusion contract.  All or
   nothing: stripping only some hooks would break the structural
   contract Regioncheck enforces, so the pass fires only when every
   hook of the function can go.

   Mnemosyne is excluded: its txn hooks *replaced* the lock
   instructions at instrumentation time, so even a write-free
   transaction needs Htxn_begin/Htxn_commit for mutual exclusion. *)

let applicable = function
  | Scheme.Ido | Scheme.Justdo | Scheme.Atlas | Scheme.Nvml
  | Scheme.Nvthreads ->
      true
  | Scheme.Mnemosyne | Scheme.Origin -> false

let run scheme fname (f : Ir.func) =
  if
    (not (applicable scheme))
    || (not (Ido_lint.Dirtyflow.has_hooks f))
    || not (Ido_lint.Dirtyflow.write_free scheme f)
  then (f, [])
  else begin
    let first = ref None and count = ref 0 in
    Array.iteri
      (fun b (blk : Ir.block) ->
        Array.iteri
          (fun i ins ->
            if Ir.is_hook ins then begin
              incr count;
              if !first = None then first := Some { Ir.blk = b; idx = i }
            end)
          blk.Ir.instrs)
      f.Ir.blocks;
    let blocks =
      Array.map
        (fun (blk : Ir.block) ->
          {
            blk with
            Ir.instrs =
              Array.of_list
                (List.filter
                   (fun i -> not (Ir.is_hook i))
                   (Array.to_list blk.Ir.instrs));
          })
        f.Ir.blocks
    in
    let pos =
      match !first with Some p -> p | None -> { Ir.blk = 0; idx = 0 }
    in
    ( { f with Ir.blocks },
      [
        Rewrite.vf ~code:"O102" ~func:fname ~pos
          "write-free FASE: elided all %d hooks" !count;
      ] )
  end
