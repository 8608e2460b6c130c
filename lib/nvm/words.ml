(* 8 bytes per word in a flat [Bytes.t].  The 64-bit accessors compile
   to single unboxed loads and stores: writing a word allocates nothing
   and never goes through the write barrier, unlike a boxed [int64
   array].  The byte order is native; a word store is never
   serialised. *)

type t = Bytes.t

let create n = Bytes.make (8 * n) '\000'
let length t = Bytes.length t lsr 3
let get t i = Bytes.get_int64_ne t (i lsl 3)
let set t i v = Bytes.set_int64_ne t (i lsl 3) v
let blit src si dst di n = Bytes.blit src (si lsl 3) dst (di lsl 3) (n lsl 3)
let zero t i n = Bytes.fill t (i lsl 3) (n lsl 3) '\000'
let sub t i n = Bytes.sub t (i lsl 3) (n lsl 3)
let copy = Bytes.copy

let grow t n ~keep =
  let t' = create n in
  blit t 0 t' 0 keep;
  t'
