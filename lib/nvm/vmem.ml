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

let zero t addr n =
  if n < 0 then invalid_arg "Vmem.zero: negative size";
  if n > 0 then begin
    ensure t (addr + n - 1);
    Words.zero t.cells addr n
  end

let size t = t.used

(* A snapshot holds [used] words in 64-word pages; a page equal to the
   one at the same place in [prev] is that page, shared. *)
type snapshot = { pages : Words.t array; s_used : int }

let page_words = 64

let same_page cells base len page =
  let rec go i =
    i >= page_words
    || Int64.equal (if i < len then Words.get cells (base + i) else 0L)
         (Words.get page i)
       && go (i + 1)
  in
  go 0

let snapshot ?prev t =
  let npages = (t.used + page_words - 1) / page_words in
  let have = Words.length t.cells in
  let pages =
    Array.init npages (fun p ->
        let base = p * page_words in
        let len = Stdlib.max 0 (Stdlib.min page_words (have - base)) in
        match prev with
        | Some s
          when p < Array.length s.pages
               && same_page t.cells base len s.pages.(p) ->
            s.pages.(p)
        | _ ->
            let page = Words.create page_words in
            Words.blit t.cells base page 0 len;
            page)
  in
  { pages; s_used = t.used }

let of_snapshot s =
  let n = Array.length s.pages * page_words in
  let cells = Words.create (Stdlib.max 16 n) in
  Array.iteri
    (fun p page -> Words.blit page 0 cells (p * page_words) page_words)
    s.pages;
  { cells; used = s.s_used }

let snapshot_words ?prev s =
  let shared p page =
    match prev with
    | Some s' -> p < Array.length s'.pages && s'.pages.(p) == page
    | None -> false
  in
  let own = ref (Array.length s.pages) in
  Array.iteri
    (fun p page -> if not (shared p page) then own := !own + page_words)
    s.pages;
  !own
