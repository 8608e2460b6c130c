type addr = int

type t = { mutable cells : Words.t; mutable used : int }

let create ?(initial = 1024) () =
  { cells = Words.create (Stdlib.max 16 initial); used = 0 }

let ensure t addr =
  if addr < 0 then invalid_arg "Vmem: negative address";
  let n = Words.length t.cells in
  if addr >= n then
    t.cells <- Words.grow t.cells (Stdlib.max (addr + 1) (2 * n)) ~keep:n;
  if addr >= t.used then t.used <- addr + 1

let load t addr =
  if addr < 0 || addr >= Words.length t.cells then 0L else Words.get t.cells addr

let store t addr v =
  ensure t addr;
  Words.set t.cells addr v

let alloc t n =
  if n < 0 then invalid_arg "Vmem.alloc: negative size";
  let base = t.used in
  if n > 0 then ensure t (base + n - 1);
  base

let size t = t.used

let copy t = { cells = Words.copy t.cells; used = t.used }
