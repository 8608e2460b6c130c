(** Symbolic value resolution: the one address resolver behind
    region formation ({!Alias}), the linter and the optimizer.

    A value resolves to [base + constant offset], where the base is an
    allocation site ([alloca], [nv_alloc]), a constant or a parameter
    (the basicAA bases {!Alias} compares), or one of two bases that
    name the values the lockset pass needs stable names for:

    - [Root_get k] results resolve to [Root k] — the contents of
      persistent root slot [k], the anchor every workload hangs its
      structure on;
    - bounded-depth pointer loads resolve to [Loaded (e, off)] — "the
      word loaded from [e + off]" — so per-node data reached through
      a descriptor still gets a name.

    Resolution is per-use through {!Reaching}: a register re-assigned
    elsewhere still resolves precisely at a use reached by a unique
    definition.  Joins with several reaching definitions and deeper
    chains resolve to [Unknown].  Two equal expressions denote the
    same location only under the linter's heuristic reading (loads at
    different times may observe different pointers); the lockset pass
    documents where it relies on this. *)

open Ido_ir

type base =
  | Alloca of int  (** stack allocation site (block*2^20+idx) *)
  | Heap of int  (** nv_alloc site *)
  | Const of int64
  | Param of int
  | Root of int  (** value of persistent root slot [k] *)
  | Loaded of expr * int  (** value loaded from [expr + off] *)
  | Unknown

and expr = { base : base; delta : int }

type t

val create : Ir.func -> t

val unknown : expr

val instr_at : t -> Ir.pos -> Ir.instr option
(** The instruction at [pos]; [None] for a terminator or a position
    outside the function. *)

val resolve_operand : t -> at:Ir.pos -> Ir.operand -> expr
(** The symbolic value of [op] just before the instruction at [at]. *)

val resolve_store_addr : t -> Ir.pos -> expr option
(** Resolved address of the [Load]/[Store] at [pos]; [None] when the
    instruction is not a memory access. *)

val is_stable : expr -> bool
(** Bases that name the same thing on every execution of the program
    ([Root], [Param], [Const], allocation sites) — the expressions the
    lock-order and lockset-disjointness checks are allowed to compare.
    [Loaded]/[Unknown] values are excluded. *)

val equal : expr -> expr -> bool
val compare : expr -> expr -> int
val to_string : expr -> string
