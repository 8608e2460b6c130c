let solve ~nblocks ~seeds ~edges ~join ~equal ~transfer =
  let input = Array.make nblocks None in
  let queued = Array.make nblocks false in
  let work = Queue.create () in
  (* Join [fact] into block [b]'s input; queue [b] if it grew. *)
  let merge b fact =
    let next =
      match input.(b) with
      | None -> Some fact
      | Some prev ->
          let joined = join prev fact in
          if equal prev joined then None else Some joined
    in
    if Option.is_some next then begin
      input.(b) <- next;
      if not queued.(b) then begin
        queued.(b) <- true;
        Queue.add b work
      end
    end
  in
  List.iter (fun (b, fact) -> merge b fact) seeds;
  while not (Queue.is_empty work) do
    let b = Queue.pop work in
    queued.(b) <- false;
    Option.iter
      (fun fact ->
        let out = transfer b fact in
        List.iter (fun s -> merge s out) (edges b))
      input.(b)
  done;
  input

let forward (f : Ido_ir.Ir.func) ~entry =
  solve ~nblocks:(Array.length f.blocks) ~seeds:[ (0, entry) ]
    ~edges:(fun b -> Ido_ir.Ir.successors f.blocks.(b).term)
