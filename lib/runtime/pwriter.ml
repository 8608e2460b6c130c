open Ido_util
open Ido_nvm

type t = {
  pm : Pmem.t;
  lat : Latency.t;
  mutable cost : int;
  mutable pending : int;
  seen : Lineset.t;  (* [clwb_lines]'s scratch set, kept across calls *)
}

let create pm lat =
  { pm; lat; cost = 0; pending = 0; seen = Lineset.create ~capacity:8 () }

let copy t pm = { t with pm; seen = Lineset.create ~capacity:8 () }

let pmem t = t.pm
let latency t = t.lat

let load t a =
  t.cost <- t.cost + t.lat.Latency.mem;
  Pmem.load t.pm a

let store t a v =
  t.cost <- t.cost + t.lat.Latency.mem;
  Pmem.store t.pm a v

let clwb t a =
  (* Charge only when the line was actually dirty: a clwb that hits a
     clean line writes nothing back, so neither the issue cost nor the
     fence's drain cost applies.  nvm_extra is the Fig. 9 knob: an
     inline delay after each write-back, as the paper inserts it.  On
     an NV-cache machine the write-back is free — cached data is
     already persistent. *)
  let wrote = Pmem.clwb t.pm a in
  if wrote && not t.lat.Latency.nv_caches then begin
    t.cost <- t.cost + t.lat.Latency.clwb_issue + t.lat.Latency.nvm_extra;
    t.pending <- t.pending + 1
  end

(* One write-back per distinct line, in first-occurrence order: in this
   machine model a write-back is durable at issue, so callers sequence
   their addresses write-ahead (log payload before publish word) and a
   crash between any two write-backs still sees a consistent prefix.
   The set is emptied on entry, not on exit: an event hook that raises
   mid-list (a crash injection) must not leave members behind. *)
let clwb_lines t addrs =
  Lineset.reset t.seen;
  List.iter
    (fun a ->
      let line = a / Pmem.words_per_line in
      if not (Lineset.mem t.seen line) then begin
        clwb t (line * Pmem.words_per_line);
        Lineset.add t.seen line
      end)
    addrs

let fence t =
  ignore (Pmem.fence t.pm);
  t.cost <- t.cost + Latency.fence_cost t.lat ~pending:t.pending;
  t.pending <- 0

let persist_store t a v =
  store t a v;
  clwb t a;
  fence t

let add_cost t c = t.cost <- t.cost + c

let take_cost t =
  let c = t.cost in
  t.cost <- 0;
  c

let pending t = t.pending
