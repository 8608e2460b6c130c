open Ido_ir

type t = {
  cfg : Cfg.t;
  block_live_in : Regset.t array;
  block_live_out : Regset.t array;
  (* per block: live set before each instruction index (length =
     #instrs + 1, the last entry being "before the terminator") *)
  at : Regset.t array array;
}

let transfer_instr live instr =
  let live = List.fold_left (fun s d -> Regset.remove d s) live (Ir.instr_defs instr) in
  List.fold_left (fun s u -> Regset.add u s) live (Ir.instr_uses instr)

let block_transfer (b : Ir.block) live_out =
  let live = ref (List.fold_left (fun s u -> Regset.add u s) live_out (Ir.term_uses b.term)) in
  for i = Array.length b.instrs - 1 downto 0 do
    live := transfer_instr !live b.instrs.(i)
  done;
  !live

let compute cfg =
  let f = Cfg.func cfg in
  let n = Array.length f.blocks in
  (* Backward: each block's solver input is its live-out.  Only
     reachable blocks take part, so unreachable ones keep empty sets. *)
  let reachable = List.rev (Cfg.reverse_postorder cfg) in
  let live_out =
    Dataflow.solve ~nblocks:n
      ~seeds:(List.map (fun b -> (b, Regset.empty)) reachable)
      ~edges:(fun b -> List.filter (Cfg.reachable cfg) (Cfg.preds cfg b))
      ~join:Regset.union ~equal:Regset.equal
      ~transfer:(fun b out -> block_transfer f.blocks.(b) out)
    |> Array.map (Option.value ~default:Regset.empty)
  in
  (* Materialize per-instruction live sets. *)
  let at =
    Array.init n (fun b ->
        let blk = f.blocks.(b) in
        let ni = Array.length blk.instrs in
        let arr = Array.make (ni + 1) Regset.empty in
        let live =
          ref
            (List.fold_left
               (fun s u -> Regset.add u s)
               live_out.(b) (Ir.term_uses blk.term))
        in
        arr.(ni) <- !live;
        for i = ni - 1 downto 0 do
          live := transfer_instr !live blk.instrs.(i);
          arr.(i) <- !live
        done;
        arr)
  in
  let live_in =
    Array.init n (fun b ->
        if Cfg.reachable cfg b then at.(b).(0) else Regset.empty)
  in
  { cfg; block_live_in = live_in; block_live_out = live_out; at }

let live_in t b = t.block_live_in.(b)
let live_out t b = t.block_live_out.(b)

let live_at t (p : Ir.pos) = t.at.(p.blk).(p.idx)
