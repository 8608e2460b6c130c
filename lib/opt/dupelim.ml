open Ido_ir
open Ido_analysis
open Ido_lint

(* O103: under the undo/redo/page-log disciplines
   ({!Hook_model.grant_elidable}), the first capture of a cell in a
   protection window is the one recovery uses; re-capturing the same
   stable cell before the window closes appends a duplicate log record
   the runtime itself would skip or overwrite.  We delete the adjacent
   grant hook of any [hook; store] pair whose cell is must-captured on
   every path reaching the hook ({!Capflow}).

   Soundness of batching: the first capture of a cell on any path is
   never in its own captured-before set, so it is never deleted, and
   deleting a later duplicate leaves every must-captured set
   unchanged — one Capflow computation justifies all deletions. *)

let run scheme fname (f : Ir.func) =
  if not (Hook_model.grant_elidable scheme) then (f, [])
  else
    match Hook_model.log_grant_hook scheme with
    | None -> (f, [])
    | Some grant ->
        let cap = Capflow.compute scheme f in
        let sym = Sym.create f in
        let dead = ref [] in
        Array.iteri
          (fun b (blk : Ir.block) ->
            Array.iteri
              (fun i ins ->
                match ins with
                | Ir.Hook h when h = grant -> (
                    let hook_pos = { Ir.blk = b; idx = i } in
                    match Capflow.classify cap hook_pos with
                    | Capflow.Hoisted _ | Capflow.Orphan -> ()
                    | Capflow.Adjacent -> (
                        let store_pos = { Ir.blk = b; idx = i + 1 } in
                        match Sym.resolve_store_addr sym store_pos with
                        | Some cell
                          when Sym.is_stable cell
                               && Capflow.mem cap hook_pos cell ->
                            dead :=
                              ( hook_pos,
                                Rewrite.vf ~code:"O103" ~func:fname
                                  ~pos:hook_pos
                                  "duplicate capture of %s elided"
                                  (Sym.to_string cell) )
                              :: !dead
                        | _ -> ()))
                | _ -> ())
              blk.Ir.instrs)
          f.Ir.blocks;
        let dead = List.rev !dead in
        if dead = [] then (f, [])
        else
          ( Analysis.delete f (List.map fst dead),
            List.map snd dead )
