open Ido_util

type addr = int

let words_per_line = 8

type counters = {
  mutable loads : int;
  mutable stores : int;
  mutable clwbs : int;
  mutable writebacks : int;
  mutable fences : int;
  mutable evictions : int;
}

type event =
  | Ev_store of addr
  | Ev_clwb of addr
  | Ev_fence
  | Ev_evict of addr

(* A dirty line knows its own number and its slot in [dirty_index],
   so index maintenance on the write-back path touches no hashtable at
   all — only the vector. *)
type line = { lineno : int; words : int64 array; mutable slot : int }

(* The persistence domain is [size] words, but only [\[0, hwm)] can
   hold anything other than zero: [nvm] covers a prefix of it and grows
   geometrically on write, and every word past its end reads [0L].
   Regions bump-allocate upward from address 0, so the touched prefix
   is dense and a boot costs a few thousand words, not [size]. *)
type t = {
  mutable nvm : int64 array;  (* words [0, Array.length nvm) of the domain *)
  size : int;  (* logical capacity in words *)
  overlay : (int, line) Hashtbl.t;  (* dirty lines: line -> 8 words *)
  dirty_index : line Vec.t;  (* the overlay's values, in insertion order *)
  cache_lines : int;
  rng : Rng.t;
  counters : counters;
  mutable pending : int;
  mutable hwm : int;  (* one past the highest word ever written to nvm *)
  mutable event_hook : (event -> unit) option;
}

let create ?(cache_lines = 1024) ~rng size =
  if size <= 0 then invalid_arg "Pmem.create: size must be positive";
  {
    nvm = Array.make (Stdlib.min size 4096) 0L;
    size;
    (* Pre-size past the eviction threshold so the overlay never
       rehashes mid-run (bounded to keep tiny memories cheap). *)
    overlay = Hashtbl.create (Stdlib.min (2 * cache_lines) 65536);
    dirty_index = Vec.create ();
    cache_lines;
    rng;
    counters =
      { loads = 0; stores = 0; clwbs = 0; writebacks = 0; fences = 0;
        evictions = 0 };
    pending = 0;
    hwm = 0;
    event_hook = None;
  }

let size t = t.size
let counters t = t.counters

let set_event_hook t f = t.event_hook <- f

(* The hook fires BEFORE the operation takes effect, so a hook that
   raises leaves the persistence domain exactly as a power failure at
   that instant would.  Simulator-side channels ([poke], [flush_all])
   never fire it. *)
let emit t ev = match t.event_hook with Some f -> f ev | None -> ()

let check t addr =
  if addr < 0 || addr >= t.size then
    invalid_arg (Printf.sprintf "Pmem: address %d out of bounds" addr)

let line_of addr = addr / words_per_line
let offset_of addr = addr mod words_per_line

(* The persisted word at a checked address. *)
let nvm_word t addr = if addr < Array.length t.nvm then t.nvm.(addr) else 0L

(* Make [nvm] cover [\[0, limit)], [limit <= size].  Only the prefix
   below [hwm] can be non-zero, so only that much is copied. *)
let cover t limit =
  let n = Array.length t.nvm in
  if limit > n then begin
    let a = Array.make (Stdlib.min t.size (Stdlib.max limit (2 * n))) 0L in
    Array.blit t.nvm 0 a 0 t.hwm;
    t.nvm <- a
  end

let load t addr =
  check t addr;
  t.counters.loads <- t.counters.loads + 1;
  match Hashtbl.find_opt t.overlay (line_of addr) with
  | Some l -> l.words.(offset_of addr)
  | None -> nvm_word t addr

(* The dirty-line index mirrors the overlay's key set in a flat vector
   so a uniformly random dirty line is one [Rng.int] away; removal
   swaps the last slot in (order inside the vector is irrelevant — the
   victim choice is random anyway). *)
let index_add t (l : line) =
  l.slot <- Vec.length t.dirty_index;
  Vec.push t.dirty_index l

let index_remove t (l : line) =
  let last = Vec.pop t.dirty_index in
  if last != l then begin
    Vec.set t.dirty_index l.slot last;
    last.slot <- l.slot
  end

(* Copy a dirty line's words into the persistence domain. *)
let persist_words t (l : line) =
  let base = l.lineno * words_per_line in
  let limit = Stdlib.min words_per_line (t.size - base) in
  cover t (base + limit);
  Array.blit l.words 0 t.nvm base limit;
  if base + limit > t.hwm then t.hwm <- base + limit

(* Copy a dirty line into the persistence domain and drop it from the
   overlay. *)
let write_back t (l : line) =
  persist_words t l;
  Hashtbl.remove t.overlay l.lineno;
  index_remove t l

let evict_random t =
  (* Pick a uniformly random dirty line in O(1) via the index.  This is
     the "arbitrary write-back order" of the paper. *)
  let n = Vec.length t.dirty_index in
  if n > 0 then begin
    let l = Vec.get t.dirty_index (Rng.int t.rng n) in
    emit t (Ev_evict (l.lineno * words_per_line));
    write_back t l;
    t.counters.evictions <- t.counters.evictions + 1
  end

let dirty_line t addr =
  let line = line_of addr in
  match Hashtbl.find_opt t.overlay line with
  | Some l -> l.words
  | None ->
      if Hashtbl.length t.overlay >= t.cache_lines then evict_random t;
      let base = line * words_per_line in
      let words = Array.make words_per_line 0L in
      let limit = Stdlib.min words_per_line (Array.length t.nvm - base) in
      if limit > 0 then Array.blit t.nvm base words 0 limit;
      let l = { lineno = line; words; slot = 0 } in
      Hashtbl.add t.overlay line l;
      index_add t l;
      words

let store t addr v =
  check t addr;
  emit t (Ev_store addr);
  t.counters.stores <- t.counters.stores + 1;
  let words = dirty_line t addr in
  words.(offset_of addr) <- v

let poke t addr v =
  check t addr;
  cover t (addr + 1);
  t.nvm.(addr) <- v;
  if addr + 1 > t.hwm then t.hwm <- addr + 1;
  match Hashtbl.find_opt t.overlay (line_of addr) with
  | Some l -> l.words.(offset_of addr) <- v
  | None -> ()

let clwb t addr =
  check t addr;
  t.counters.clwbs <- t.counters.clwbs + 1;
  match Hashtbl.find_opt t.overlay (line_of addr) with
  | Some l ->
      emit t (Ev_clwb addr);
      write_back t l;
      t.counters.writebacks <- t.counters.writebacks + 1;
      t.pending <- t.pending + 1;
      true
  | None -> false

let fence t =
  emit t Ev_fence;
  t.counters.fences <- t.counters.fences + 1;
  let pending = t.pending in
  t.pending <- 0;
  pending

let pending_flushes t = t.pending
let drain_pending t = t.pending <- 0

let persisted t addr =
  check t addr;
  nvm_word t addr

let is_dirty t addr =
  check t addr;
  Hashtbl.mem t.overlay (line_of addr)

let dirty_lines t = Hashtbl.length t.overlay

let dirty_linenos t =
  List.map (fun (l : line) -> l.lineno) (Vec.to_list t.dirty_index)

let crash t =
  Hashtbl.reset t.overlay;
  Vec.clear t.dirty_index;
  t.pending <- 0

let snapshot_persistent t =
  let a = Array.make t.size 0L in
  Array.blit t.nvm 0 a 0 t.hwm;
  a

(* Every line is written back, so skip per-line index maintenance:
   persist in dirty-index (insertion) order — deterministic, no
   Hashtbl iteration order involved, no intermediate list — then drop
   the overlay and the index wholesale. *)
let flush_all t =
  Vec.iter
    (fun (l : line) ->
      persist_words t l;
      Hashtbl.remove t.overlay l.lineno)
    t.dirty_index;
  Vec.truncate t.dirty_index;
  t.pending <- 0

type checkpoint = {
  ck_words : int64 array;  (* the persisted prefix below [hwm] *)
  ck_pending : int;
  ck_rng : Rng.t;
  ck_counters : counters;
}

let checkpoint t =
  if Hashtbl.length t.overlay > 0 then
    invalid_arg "Pmem.checkpoint: the memory has dirty lines";
  {
    ck_words = Array.sub t.nvm 0 t.hwm;
    ck_pending = t.pending;
    ck_rng = Rng.copy t.rng;
    ck_counters = { t.counters with loads = t.counters.loads };  (* a copy *)
  }

(* Only words below the larger of the two high-water marks can be
   non-zero: zero what was written above the checkpoint's mark, blit
   the checkpoint's prefix back over the rest.  The word array (never
   shorter than any earlier mark) and the overlay storage are kept for
   the next run. *)
let restore t ck =
  let hwm = Array.length ck.ck_words in
  Hashtbl.reset t.overlay;
  Vec.truncate t.dirty_index;
  if t.hwm > hwm then Array.fill t.nvm hwm (t.hwm - hwm) 0L;
  Array.blit ck.ck_words 0 t.nvm 0 hwm;
  t.hwm <- hwm;
  t.pending <- ck.ck_pending;
  Rng.assign ~into:t.rng ck.ck_rng;
  let c = t.counters and c0 = ck.ck_counters in
  c.loads <- c0.loads;
  c.stores <- c0.stores;
  c.clwbs <- c0.clwbs;
  c.writebacks <- c0.writebacks;
  c.fences <- c0.fences;
  c.evictions <- c0.evictions
