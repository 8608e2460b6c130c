(** Reaching definitions for virtual registers.

    For each program position, the set of definition sites whose value
    a register may still hold.  Function parameters are modelled as
    definitions at the virtual position [param_pos] so that every use
    is reached by at least one definition in a validated program.

    {!Sym} consumes this analysis to resolve address expressions
    per-use: a register with a {e unique} reaching definition at a use
    site resolves precisely even when it is re-assigned elsewhere in
    the function (builder code uses [assign] freely). *)

open Ido_ir

type t

val compute : Cfg.t -> t

val param_pos : int -> Ir.pos
(** Virtual definition site of the [i]-th parameter (block -1). *)

val defs_at : t -> Ir.pos -> Ir.reg -> Ir.pos list
(** Definition sites of [reg] reaching the point just before the
    instruction at [pos]; sorted, without duplicates. *)

val unique_def : t -> Ir.pos -> Ir.reg -> Ir.pos option
(** [Some d] when exactly one definition reaches. *)
