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

(* The persistence domain is [size] words, but only [\[0, hwm)] can
   hold anything other than zero: [nvm] covers a prefix of it and grows
   geometrically on write, and every word past its end reads [0L].
   Regions bump-allocate upward from address 0, so the touched prefix
   is dense and a boot costs a few thousand words, not [size].

   The overlay is three flat pieces, none hashed: dirty slot [i < n]
   holds the 8 words of line [slot_line.(i)] at [\[8i, 8i + 8)] of
   [slots], and [slot_of.(line)] is that slot, or -1 for a clean line
   (as is every line past the array's end).  Slots [\[0, n)] are the
   dirty-line index: a uniformly random dirty line is one [Rng.int n]
   away, and a write-back moves the last slot into the freed one. *)
type t = {
  mutable nvm : Words.t;  (* words [0, Words.length nvm) of the domain *)
  size : int;  (* logical capacity in words *)
  mutable slots : Words.t;
  mutable slot_line : int array;
  mutable slot_of : int array;  (* grows on demand, capped at ceil(size/8) *)
  mutable n : int;  (* dirty lines *)
  cache_lines : int;
  rng : Rng.t;
  counters : counters;
  mutable pending : int;
  mutable hwm : int;  (* one past the highest word ever written to nvm *)
  mutable event_hook : (event -> unit) option;
}

let create ?(cache_lines = 1024) ~rng size =
  if size <= 0 then invalid_arg "Pmem.create: size must be positive";
  let nvm_words = Stdlib.min size 4096 in
  (* The slot buffer doubles on demand; [n] never passes
     [max 1 cache_lines]. *)
  let slot_cap = Stdlib.max 1 (Stdlib.min cache_lines 64) in
  {
    nvm = Words.create nvm_words;
    size;
    slots = Words.create (slot_cap * words_per_line);
    slot_line = Array.make slot_cap 0;
    slot_of =
      Array.make ((nvm_words + words_per_line - 1) / words_per_line) (-1);
    n = 0;
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

(* The hook fires BEFORE the operation takes effect, so a hook that
   raises leaves the persistence domain exactly as a power failure at
   that instant would.  Simulator-side channels ([poke], [flush_all])
   never fire it.  Each site matches [event_hook] itself, so no event
   is built when no hook is installed. *)
let set_event_hook t f = t.event_hook <- f

let check t addr =
  if addr < 0 || addr >= t.size then
    invalid_arg (Printf.sprintf "Pmem: address %d out of bounds" addr)

let line_of addr = addr / words_per_line
let offset_of addr = addr mod words_per_line

(* The slot of a line, or -1 when it is clean. *)
let slot t line = if line < Array.length t.slot_of then t.slot_of.(line) else -1

let set_slot t line s =
  let n = Array.length t.slot_of in
  if line >= n then begin
    let lines = (t.size + words_per_line - 1) / words_per_line in
    let a = Array.make (Stdlib.min lines (Stdlib.max (line + 1) (2 * n))) (-1) in
    Array.blit t.slot_of 0 a 0 n;
    t.slot_of <- a
  end;
  t.slot_of.(line) <- s

(* The persisted word at a checked address. *)
let nvm_word t addr =
  if addr < Words.length t.nvm then Words.get t.nvm addr else 0L

(* Make [nvm] cover [\[0, limit)], [limit <= size].  Only the prefix
   below [hwm] can be non-zero, so only that much is copied. *)
let cover t limit =
  let n = Words.length t.nvm in
  if limit > n then
    t.nvm <-
      Words.grow t.nvm (Stdlib.min t.size (Stdlib.max limit (2 * n))) ~keep:t.hwm

let load t addr =
  check t addr;
  t.counters.loads <- t.counters.loads + 1;
  let s = slot t (line_of addr) in
  if s >= 0 then Words.get t.slots ((s * words_per_line) + offset_of addr)
  else nvm_word t addr

(* Copy a dirty slot's words into the persistence domain. *)
let persist_slot t s =
  let base = t.slot_line.(s) * words_per_line in
  let limit = Stdlib.min words_per_line (t.size - base) in
  cover t (base + limit);
  Words.blit t.slots (s * words_per_line) t.nvm base limit;
  if base + limit > t.hwm then t.hwm <- base + limit

(* Persist a dirty slot and free it: the last slot moves into its
   place. *)
let write_back t s =
  persist_slot t s;
  t.slot_of.(t.slot_line.(s)) <- -1;
  let last = t.n - 1 in
  if s <> last then begin
    let line = t.slot_line.(last) in
    Words.blit t.slots (last * words_per_line) t.slots (s * words_per_line)
      words_per_line;
    t.slot_line.(s) <- line;
    t.slot_of.(line) <- s
  end;
  t.n <- last

let evict_random t =
  (* A uniformly random dirty line: the "arbitrary write-back order" of
     the paper. *)
  if t.n > 0 then begin
    let s = Rng.int t.rng t.n in
    (match t.event_hook with
    | Some f -> f (Ev_evict (t.slot_line.(s) * words_per_line))
    | None -> ());
    write_back t s;
    t.counters.evictions <- t.counters.evictions + 1
  end

(* The slot of [line], dirtying it (from its persisted words) if it was
   clean. *)
let dirty_slot t line =
  let s = slot t line in
  if s >= 0 then s
  else begin
    if t.n >= t.cache_lines then evict_random t;
    let s = t.n in
    let cap = Array.length t.slot_line in
    if s = cap then begin
      t.slots <-
        Words.grow t.slots (2 * cap * words_per_line)
          ~keep:(cap * words_per_line);
      let a = Array.make (2 * cap) 0 in
      Array.blit t.slot_line 0 a 0 cap;
      t.slot_line <- a
    end;
    let base = line * words_per_line and dst = s * words_per_line in
    let limit =
      Stdlib.max 0 (Stdlib.min words_per_line (Words.length t.nvm - base))
    in
    if limit > 0 then Words.blit t.nvm base t.slots dst limit;
    Words.zero t.slots (dst + limit) (words_per_line - limit);
    t.slot_line.(s) <- line;
    set_slot t line s;
    t.n <- s + 1;
    s
  end

let store t addr v =
  check t addr;
  (match t.event_hook with Some f -> f (Ev_store addr) | None -> ());
  t.counters.stores <- t.counters.stores + 1;
  let s = dirty_slot t (line_of addr) in
  Words.set t.slots ((s * words_per_line) + offset_of addr) v

let poke t addr v =
  check t addr;
  cover t (addr + 1);
  Words.set t.nvm addr v;
  if addr + 1 > t.hwm then t.hwm <- addr + 1;
  let s = slot t (line_of addr) in
  if s >= 0 then Words.set t.slots ((s * words_per_line) + offset_of addr) v

let clwb t addr =
  check t addr;
  t.counters.clwbs <- t.counters.clwbs + 1;
  let s = slot t (line_of addr) in
  if s >= 0 then begin
    (match t.event_hook with Some f -> f (Ev_clwb addr) | None -> ());
    write_back t s;
    t.counters.writebacks <- t.counters.writebacks + 1;
    t.pending <- t.pending + 1;
    true
  end
  else false

let fence t =
  (match t.event_hook with Some f -> f Ev_fence | None -> ());
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
  slot t (line_of addr) >= 0

let dirty_lines t = t.n

let dirty_linenos t = List.init t.n (fun i -> t.slot_line.(i))

(* Empty the overlay: only the [n] live [slot_of] entries are reset. *)
let drop_overlay t =
  for i = 0 to t.n - 1 do
    t.slot_of.(t.slot_line.(i)) <- -1
  done;
  t.n <- 0

let crash t =
  drop_overlay t;
  t.pending <- 0

let snapshot_persistent t = Array.init t.size (nvm_word t)

(* Every line is written back, so skip the swap-with-last moves:
   persist in slot order — deterministic, no hash order involved —
   then drop the overlay wholesale. *)
let flush_all t =
  for i = 0 to t.n - 1 do
    persist_slot t i
  done;
  drop_overlay t;
  t.pending <- 0

type checkpoint = {
  ck_words : Words.t;  (* the persisted prefix below [hwm] *)
  ck_pending : int;
  ck_rng : Rng.t;
  ck_counters : counters;
}

let checkpoint t =
  if t.n > 0 then invalid_arg "Pmem.checkpoint: the memory has dirty lines";
  {
    ck_words = Words.sub t.nvm 0 t.hwm;
    ck_pending = t.pending;
    ck_rng = Rng.copy t.rng;
    ck_counters = { t.counters with loads = t.counters.loads };  (* a copy *)
  }

(* Only words below the larger of the two high-water marks can be
   non-zero: zero what was written above the checkpoint's mark, blit
   the checkpoint's prefix back over the rest.  The word store (never
   shorter than any earlier mark) and the overlay storage are kept for
   the next run. *)
let restore t ck =
  let hwm = Words.length ck.ck_words in
  drop_overlay t;
  if t.hwm > hwm then Words.zero t.nvm hwm (t.hwm - hwm);
  Words.blit ck.ck_words 0 t.nvm 0 hwm;
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
