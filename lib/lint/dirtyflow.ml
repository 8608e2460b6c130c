open Ido_ir
open Ido_analysis
open Ido_runtime

type t = { func : Ir.func; scheme : Scheme.t; ins : bool array }

(* Instructions that may dirty in-FASE program data under [scheme] —
   the same set Transfer's [store_dirties_data] tracks, widened to be
   context-insensitive (a store outside protection still marks the
   function dirty here; may-analysis errs toward "dirty"). *)
let dirties scheme = function
  | Ir.Store { space = Ir.Persistent; _ } -> true
  | Ir.Store { space = Ir.Stack; _ } -> (
      match scheme with Scheme.Ido | Scheme.Justdo -> true | _ -> false)
  | Ir.Call _ -> true
  | Ir.Intrinsic { intr = Ir.Nv_alloc | Ir.Nv_free | Ir.Root_set; _ } -> true
  | _ -> false

(* Nothing in the function can dirty in-FASE program data: no
   persistent store (nor stack store under the resumption schemes), no
   call, no writing intrinsic.  Such a FASE has nothing for recovery
   to redo or undo, so its instrumentation is pure overhead (O102). *)
let write_free scheme (f : Ir.func) =
  not (Ir.fold_instrs (fun acc _ i -> acc || dirties scheme i) false f)

let has_hooks (f : Ir.func) =
  Array.exists
    (fun (blk : Ir.block) -> Array.exists Ir.is_hook blk.Ir.instrs)
    f.Ir.blocks

(* Points where the runtime's tracked-line set is known empty again:
   FASE entry resets it, a durable-commit hook flushes and fences it. *)
let clears = function
  | Ir.Hook Ir.Hfase_enter | Ir.Hook Ir.Hdurable_commit -> true
  | _ -> false

let step scheme dirty instr =
  if clears instr then false else dirty || dirties scheme instr

let block_out scheme (blk : Ir.block) dirty0 =
  Array.fold_left (step scheme) dirty0 blk.Ir.instrs

let compute scheme (func : Ir.func) =
  let ins =
    Dataflow.forward func ~entry:false ~join:( || ) ~equal:Bool.equal
      ~transfer:(fun b dirty -> block_out scheme func.Ir.blocks.(b) dirty)
    |> Array.map (Option.value ~default:false)
  in
  { func; scheme; ins }

let dirty_at t (pos : Ir.pos) =
  let blk = t.func.Ir.blocks.(pos.Ir.blk) in
  let dirty = ref t.ins.(pos.Ir.blk) in
  for i = 0 to pos.Ir.idx - 1 do
    dirty := step t.scheme !dirty blk.Ir.instrs.(i)
  done;
  !dirty
