open Ido_ir

module PosSet = Set.Make (struct
  type t = Ir.pos

  let compare = Ir.compare_pos
end)

module Rmap = Map.Make (Int)

type t = {
  func : Ir.func;
  (* per block: reaching-definition map at block entry; [None] for
     blocks the entry does not reach *)
  entry : PosSet.t Rmap.t option array;
}

let param_pos i = { Ir.blk = -1; idx = i }

(* Kill-and-gen through one instruction: a definition replaces every
   reaching definition of its register. *)
let transfer pos instr defs =
  List.fold_left
    (fun defs d -> Rmap.add d (PosSet.singleton pos) defs)
    defs (Ir.instr_defs instr)

(* The facts after the first [n] instructions of block [b]. *)
let upto (blk : Ir.block) b n defs =
  let defs = ref defs in
  for i = 0 to n - 1 do
    defs := transfer { Ir.blk = b; idx = i } blk.Ir.instrs.(i) !defs
  done;
  !defs

let compute cfg =
  let f = Cfg.func cfg in
  (* Parameters reach the function entry. *)
  let params =
    List.mapi (fun i r -> (r, PosSet.singleton (param_pos i))) f.Ir.params
    |> List.to_seq |> Rmap.of_seq
  in
  let entry =
    Dataflow.forward f ~entry:params
      ~join:(Rmap.union (fun _ a b -> Some (PosSet.union a b)))
      ~equal:(Rmap.equal PosSet.equal)
      ~transfer:(fun b defs ->
        let blk = f.Ir.blocks.(b) in
        upto blk b (Array.length blk.Ir.instrs) defs)
  in
  { func = f; entry }

let defs_at t (pos : Ir.pos) reg =
  let blk = t.func.Ir.blocks.(pos.blk) in
  let defs =
    upto blk pos.blk
      (min pos.idx (Array.length blk.Ir.instrs))
      (Option.value ~default:Rmap.empty t.entry.(pos.blk))
  in
  match Rmap.find_opt reg defs with
  | Some s -> PosSet.elements s
  | None -> []

let unique_def t pos reg =
  match defs_at t pos reg with [ d ] -> Some d | _ -> None
