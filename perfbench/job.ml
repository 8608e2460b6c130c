(* One job of benchmark work: a throughput cell, an explored
   scheme/workload pair, or a served cell. *)

type outcome = {
  result : string;
      (** the job's simulated result, canonically printed: the input
          of the workload digest *)
  error : string option;  (** the job's own gate failed *)
  work : int;  (** simulated work items completed *)
  samples : float array;  (** host µs per work item, one per verdict *)
}

type t = {
  label : string;
  run : unit -> outcome;  (** the library's own entry point, untraced *)
  traced : Layers.t -> outcome;
      (** the same work made of the entry point's public calls, each one
          charged to its layer; must print the same [result] *)
}

type size = Full | Tiny

let failed result msg = { result; error = Some msg; work = 0; samples = [||] }
let gate = function Ok () -> None | Error m -> Some m

(* The first error among [checks], in order. *)
let first_error checks =
  List.fold_left
    (fun acc c -> match acc with Some _ -> acc | None -> Lazy.force c)
    None checks
