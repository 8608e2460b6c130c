(** The one fixpoint solver behind every block-level dataflow analysis
    ({!Liveness}, {!Reaching}, and the linter's dirty, captured-cell
    and protection-state passes).

    A FIFO worklist over block ids.  Each block holds the fact at its
    {e input} in the direction of flow; [None] means the block was
    never reached.  Processing a block applies [transfer] to its input
    and joins the result into the input of every block in [edges b]
    (successors for a forward analysis, predecessors for a backward
    one); a block whose input changes is queued once more.  Seeds are
    joined in list order, and blocks are processed in queue order, so
    an analysis whose join is not a lattice join still gets the same
    answer on every run. *)

val solve :
  nblocks:int ->
  seeds:(int * 'a) list ->
  edges:(int -> int list) ->
  join:('a -> 'a -> 'a) ->
  equal:('a -> 'a -> bool) ->
  transfer:(int -> 'a -> 'a) ->
  'a option array
(** The fixpoint input fact of every block, [None] where no seed
    reaches.  Terminates when [join] only climbs a finite-height
    order. *)

val forward :
  Ido_ir.Ir.func ->
  entry:'a ->
  join:('a -> 'a -> 'a) ->
  equal:('a -> 'a -> bool) ->
  transfer:(int -> 'a -> 'a) ->
  'a option array
(** {!solve} seeded with [entry] at block 0 and flowing along
    control-flow successors: the block-entry facts of a forward
    analysis. *)
