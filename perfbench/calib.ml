(* Host speed reference.

   On a shared VM the CPU speed can drift by a quarter between runs,
   which swamps any change worth detecting.  So a fixed reference
   computation is timed between job runs, and each job run's time is
   rescaled to the speed at which that computation takes exactly
   [nominal] seconds.

   The computation ([calib/kernel.ml]) runs in a child process that
   links no ido library, is built with its own fixed flags and starts
   without OCAMLRUNPARAM, so a change to the library, to its build
   flags or to GC settings made at start-up cannot move it: such a
   change shows in the job times and not in the reference. *)

let nominal = 0.01

type child = { pid : int; req : out_channel; resp : in_channel }

let child = ref None

let kernel_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "calib/kernel.exe"

let spawn () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let env =
    Array.of_list
      (List.filter
         (fun v ->
           not
             (String.starts_with ~prefix:"OCAMLRUNPARAM=" v
             || String.starts_with ~prefix:"CAMLRUNPARAM=" v))
         (Array.to_list (Unix.environment ())))
  in
  let exe = kernel_exe () in
  let pid = Unix.create_process_env exe [| exe |] env req_r resp_w Unix.stderr in
  Unix.close req_r;
  Unix.close resp_w;
  let c =
    { pid; req = Unix.out_channel_of_descr req_w;
      resp = Unix.in_channel_of_descr resp_r }
  in
  child := Some c;
  c

(* Ends the child: end of input makes it exit. *)
let stop () =
  match !child with
  | None -> ()
  | Some c ->
      child := None;
      close_out_noerr c.req;
      close_in_noerr c.resp;
      ignore (Unix.waitpid [] c.pid)

let () = at_exit stop

(* Seconds the reference computation takes now. *)
let measure () =
  let c = match !child with Some c -> c | None -> spawn () in
  output_char c.req '\n';
  flush c.req;
  match input_line c.resp with
  | line -> float_of_string line
  | exception End_of_file -> failwith "host speed reference process died"
