type t = Sym.t

let compute = Sym.create

(* The basicAA view of a memory operation: its space and address.
   Only allocation-site, constant and parameter bases are compared.
   {!Sym} gives two reads of one root slot (or of one memory word) the
   same name even when the slot was rewritten in between, so equal
   [Root]/[Loaded] bases need not be one object; comparing their
   offsets could miss an antidependence, so they read as unknown.
   Root slots live in the persistent header, and allocator intrinsics
   touch its metadata: both are unknown persistent accesses. *)
let resolve_access t pos =
  match Sym.instr_at t pos with
  | Some (Load { space; _ } | Store { space; _ }) -> (
      match Sym.resolve_store_addr t pos with
      | Some ({ base = Alloca _ | Heap _ | Const _ | Param _; _ } as e) ->
          Some (space, e)
      | _ -> Some (space, Sym.unknown))
  | Some (Intrinsic { intr = Root_get | Root_set | Nv_alloc | Nv_free; _ }) ->
      Some (Persistent, Sym.unknown)
  | _ -> None

let base_distinct (b1 : Sym.base) (b2 : Sym.base) =
  (* Distinct allocation sites yield distinct objects; constants are
     absolute.  Parameters may equal anything except fresh allocations
     (which did not exist at entry and never flow back within a single
     resolved chain), handled conservatively: params only separate from
     sites and constants when the other side is a fresh allocation. *)
  match (b1, b2) with
  | Alloca a, Alloca b -> a <> b
  | Heap a, Heap b -> a <> b
  | Alloca _, Heap _ | Heap _, Alloca _ -> true
  | Const _, (Alloca _ | Heap _) | (Alloca _ | Heap _), Const _ -> true
  | _ -> false

let may_alias t p q =
  match (resolve_access t p, resolve_access t q) with
  | None, _ | _, None -> invalid_arg "Alias.may_alias: not a memory operation"
  | Some (s1, e1), Some (s2, e2) ->
      if s1 <> s2 then false
      else if e1.base = Unknown || e2.base = Unknown then true
      else begin
        match (e1.base, e2.base) with
        | Const a, Const b ->
            Int64.add a (Int64.of_int e1.delta)
            = Int64.add b (Int64.of_int e2.delta)
        | _ ->
            if base_distinct e1.base e2.base then false
            else if e1.base = e2.base then e1.delta = e2.delta
            else true
      end
