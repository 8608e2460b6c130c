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
   away, and a write-back moves the last slot into the freed one.

   Once the memory has been restored from a checkpoint, every line it
   persists is recorded twice: in [changed] (since [root], the full
   image the last restore started from) and in [recent] (since [last],
   the last checkpoint taken or restored).  [changed] is what the next
   restore of a checkpoint over the same root copies back; [recent] is
   what a delta checkpoint holds. *)
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
  mutable root : checkpoint option;  (* [Some] while tracking is armed *)
  mutable last : checkpoint option;
  changed : Lineset.t;
  recent : Lineset.t;
}

(* A full checkpoint ([ck_prev = None]) holds the persisted prefix below
   its mark, in pages of which the all-zero ones are left out (a
   region's logs are mostly zero), and a clean overlay.  A delta holds
   only the lines persisted since [ck_prev], 8 words each, plus the
   whole overlay.  [ck_chain] counts the delta lines a restore replays,
   from the root down. *)
and checkpoint = {
  ck_prev : checkpoint option;
  ck_chain : int;
  ck_pages : Words.t array;
      (* full: page [p] holds words [\[64p, 64p + 64)] below the mark,
         or is empty when they are all zero; [\[||\]] for a delta *)
  ck_words : Words.t;  (* delta: one line per [ck_lines] *)
  ck_lines : int array;
  ck_hwm : int;
  ck_slot_line : int array;  (* the dirty lines, in index order *)
  ck_slots : Words.t;
  ck_pending : int;
  ck_rng : Rng.t;
  ck_counters : counters;
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
    root = None;
    last = None;
    changed = Lineset.create ();
    recent = Lineset.create ();
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

(* Make [nvm] cover [\[0, limit)], [limit <= size], growing by half:
   regions bump-allocate large, mostly empty logs, so doubling would
   often reserve twice what is used.  Only the prefix below [hwm] can be
   non-zero, so only that much is copied. *)
let cover t limit =
  let n = Words.length t.nvm in
  if limit > n then
    t.nvm <-
      Words.grow t.nvm
        (Stdlib.min t.size (Stdlib.max limit (n + (n / 2))))
        ~keep:t.hwm

let load t addr =
  check t addr;
  t.counters.loads <- t.counters.loads + 1;
  let s = slot t (line_of addr) in
  if s >= 0 then Words.get t.slots ((s * words_per_line) + offset_of addr)
  else nvm_word t addr

(* Record that [line]'s persisted words changed, while tracking. *)
let track t line =
  match t.root with
  | None -> ()
  | Some _ ->
      Lineset.add t.changed line;
      Lineset.add t.recent line

(* The words of [line] inside the memory: 8, or fewer for a short last
   line. *)
let line_words t line =
  Stdlib.min words_per_line (t.size - (line * words_per_line))

(* Copy a dirty slot's words into the persistence domain. *)
let persist_slot t s =
  let line = t.slot_line.(s) in
  let base = line * words_per_line in
  let limit = line_words t line in
  cover t (base + limit);
  Words.blit t.slots (s * words_per_line) t.nvm base limit;
  if base + limit > t.hwm then t.hwm <- base + limit;
  track t line

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

(* Make room for [need] dirty slots (the live ones are kept). *)
let grow_slots t need =
  let cap = Array.length t.slot_line in
  if need > cap then begin
    let cap' = Stdlib.max need (2 * cap) in
    t.slots <-
      Words.grow t.slots (cap' * words_per_line) ~keep:(t.n * words_per_line);
    let a = Array.make cap' 0 in
    Array.blit t.slot_line 0 a 0 t.n;
    t.slot_line <- a
  end

(* The slot of [line], dirtying it (from its persisted words) if it was
   clean. *)
let dirty_slot t line =
  let s = slot t line in
  if s >= 0 then s
  else begin
    if t.n >= t.cache_lines then evict_random t;
    let s = t.n in
    grow_slots t (s + 1);
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
  track t (line_of addr);
  let s = slot t (line_of addr) in
  if s >= 0 then Words.set t.slots ((s * words_per_line) + offset_of addr) v

(* Clear the words of dirty slot [s] (holding [line]) that fall in
   [\[lo, hi)]. *)
let zero_slot t s line lo hi =
  let base = line * words_per_line in
  let lo = Stdlib.max lo base and hi = Stdlib.min hi (base + words_per_line) in
  if hi > lo then Words.zero t.slots ((s * words_per_line) + lo - base) (hi - lo)

let zero t addr len =
  if len < 0 then invalid_arg "Pmem.zero: negative length";
  if len > 0 then begin
    check t addr;
    check t (addr + len - 1);
    let stop = addr + len in
    (* Past [hwm] every persisted word is zero already. *)
    let hi = Stdlib.min stop t.hwm in
    if hi > addr then begin
      Words.zero t.nvm addr (hi - addr);
      for line = line_of addr to line_of (hi - 1) do
        track t line
      done
    end;
    (* Cached copies: visit whichever is fewer, the dirty slots or the
       lines of the range. *)
    let l0 = line_of addr and l1 = line_of (stop - 1) in
    if t.n <= l1 - l0 + 1 then
      for s = 0 to t.n - 1 do
        let line = t.slot_line.(s) in
        if line >= l0 && line <= l1 then zero_slot t s line addr stop
      done
    else
      for line = l0 to l1 do
        let s = slot t line in
        if s >= 0 then zero_slot t s line addr stop
      done
  end

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

let high_water t = t.hwm

let no_words = Words.create 0

let page_words = 64

(* The prefix below [hwm] in pages, the all-zero ones empty. *)
let pages_of t =
  Array.init ((t.hwm + page_words - 1) / page_words) (fun p ->
      let base = p * page_words in
      let len = Stdlib.min page_words (t.hwm - base) in
      let rec zero i =
        i >= len || (Int64.equal (Words.get t.nvm (base + i)) 0L && zero (i + 1))
      in
      if zero 0 then no_words else Words.sub t.nvm base len)

let copy_counters c = { c with loads = c.loads }

let checkpoint ?prev t =
  let ck =
    match prev with
    | None ->
        if t.n > 0 then
          invalid_arg "Pmem.checkpoint: the memory has dirty lines";
        {
          ck_prev = None;
          ck_chain = 0;
          ck_pages = pages_of t;
          ck_words = no_words;
          ck_lines = [||];
          ck_hwm = t.hwm;
          ck_slot_line = [||];
          ck_slots = no_words;
          ck_pending = t.pending;
          ck_rng = Rng.copy t.rng;
          ck_counters = copy_counters t.counters;
        }
    | Some p ->
        let root =
          match (t.root, t.last) with
          | Some r, Some l when l == p -> r
          | _ ->
              invalid_arg
                "Pmem.checkpoint: prev is not the last checkpoint taken or \
                 restored while tracking"
        in
        (* Once the chain of deltas since the root holds more than twice
           the lines that differ from the root, those lines themselves
           make a shorter delta, over the root: a restore then replays
           at most twice what differs, and the re-based deltas hold no
           more words than the plain chain would. *)
        let chain = p.ck_chain + Lineset.cardinal t.recent in
        let rebase = chain > 2 * Lineset.cardinal t.changed in
        let set = if rebase then t.changed else t.recent in
        let lines = Array.make (Lineset.cardinal set) 0 in
        let words = Words.create (Array.length lines * words_per_line) in
        let i = ref 0 in
        Lineset.iter
          (fun line ->
            lines.(!i) <- line;
            let base = line * words_per_line in
            let limit =
              Stdlib.max 0
                (Stdlib.min (line_words t line) (Words.length t.nvm - base))
            in
            Words.blit t.nvm base words (!i * words_per_line) limit;
            incr i)
          set;
        {
          ck_prev = (if rebase then Some root else prev);
          ck_chain = (if rebase then Array.length lines else chain);
          ck_pages = [||];
          ck_words = words;
          ck_lines = lines;
          ck_hwm = t.hwm;
          ck_slot_line = Array.sub t.slot_line 0 t.n;
          ck_slots = Words.sub t.slots 0 (t.n * words_per_line);
          ck_pending = t.pending;
          ck_rng = Rng.copy t.rng;
          ck_counters = copy_counters t.counters;
        }
  in
  (* A full checkpoint of a tracking memory becomes its new root. *)
  (match (t.root, prev) with
  | Some _, None ->
      t.root <- Some ck;
      Lineset.reset t.changed
  | _ -> ());
  Lineset.reset t.recent;
  t.last <- Some ck;
  ck

let rec root_of ck = match ck.ck_prev with None -> ck | Some p -> root_of p

let words_held ck =
  Array.fold_left (fun acc p -> acc + 1 + Words.length p) 0 ck.ck_pages
  + Words.length ck.ck_words + Words.length ck.ck_slots
  + Array.length ck.ck_lines + Array.length ck.ck_slot_line

(* Set [line]'s persisted words to its words in full checkpoint [r]
   (zero past [r]'s mark).  A line never straddles two pages. *)
let reset_line t r line =
  let base = line * words_per_line in
  let limit = line_words t line in
  cover t (base + limit);
  let p = base / page_words in
  let have =
    if p >= Array.length r.ck_pages then 0
    else begin
      let page = r.ck_pages.(p) and off = base - (p * page_words) in
      let have = Stdlib.max 0 (Stdlib.min limit (Words.length page - off)) in
      if have > 0 then Words.blit page off t.nvm base have;
      have
    end
  in
  if limit > have then Words.zero t.nvm (base + have) (limit - have)

(* Write a delta's lines over the persisted words. *)
let apply_delta t ck =
  Array.iteri
    (fun i line ->
      let base = line * words_per_line in
      let limit = line_words t line in
      cover t (base + limit);
      Words.blit ck.ck_words (i * words_per_line) t.nvm base limit;
      if base + limit > t.hwm then t.hwm <- base + limit;
      Lineset.add t.changed line)
    ck.ck_lines

(* The persisted image first returns to the root: line by line when the
   memory has tracked its writes since that same root, by a blit of
   the root's prefix otherwise (zeroing what was written above it).
   The deltas from the root down to [ck] then replay in order.  The
   word store (never shorter than any earlier mark) and the overlay
   storage are kept for the next run. *)
let restore t ck =
  let r = root_of ck in
  drop_overlay t;
  (match t.root with
  | Some r0 when r0 == r -> Lineset.iter (reset_line t r) t.changed
  | _ ->
      cover t r.ck_hwm;
      if t.hwm > r.ck_hwm then Words.zero t.nvm r.ck_hwm (t.hwm - r.ck_hwm);
      Array.iteri
        (fun p page ->
          let base = p * page_words in
          if Words.length page = 0 then
            Words.zero t.nvm base (Stdlib.min page_words (r.ck_hwm - base))
          else Words.blit page 0 t.nvm base (Words.length page))
        r.ck_pages);
  t.hwm <- r.ck_hwm;
  t.root <- Some r;
  Lineset.reset t.changed;
  Lineset.reset t.recent;
  let rec replay c =
    match c.ck_prev with
    | None -> ()
    | Some p ->
        replay p;
        apply_delta t c
  in
  replay ck;
  t.hwm <- ck.ck_hwm;
  let n = Array.length ck.ck_slot_line in
  grow_slots t n;
  Array.blit ck.ck_slot_line 0 t.slot_line 0 n;
  Array.iteri (fun s line -> set_slot t line s) ck.ck_slot_line;
  Words.blit ck.ck_slots 0 t.slots 0 (n * words_per_line);
  t.n <- n;
  t.last <- Some ck;
  t.pending <- ck.ck_pending;
  Rng.assign ~into:t.rng ck.ck_rng;
  let c = t.counters and c0 = ck.ck_counters in
  c.loads <- c0.loads;
  c.stores <- c0.stores;
  c.clwbs <- c0.clwbs;
  c.writebacks <- c0.writebacks;
  c.fences <- c0.fences;
  c.evictions <- c0.evictions
