open Ido_ir

type t = {
  func : string;
  pos : Ir.pos option;
  code : string;
  message : string;
}

let v ?pos ~func ~code message = { func; pos; code; message }

let vf ?pos ~func ~code fmt =
  Printf.ksprintf (fun message -> { func; pos; code; message }) fmt

let render d =
  match d.pos with
  | None -> Printf.sprintf "%s: [%s] %s" d.func d.code d.message
  | Some p ->
      Printf.sprintf "%s: [%s] %s at (%d,%d)" d.func d.code d.message p.Ir.blk
        p.Ir.idx

let json d =
  let pos =
    match d.pos with
    | None -> "null"
    | Some p -> Printf.sprintf "[%d,%d]" p.Ir.blk p.Ir.idx
  in
  let esc = Ido_util.Json.escape in
  Printf.sprintf "{\"func\":\"%s\",\"pos\":%s,\"code\":\"%s\",\"message\":\"%s\"}"
    (esc d.func) pos (esc d.code) (esc d.message)

let compare a b =
  let c = String.compare a.func b.func in
  if c <> 0 then c
  else
    let c =
      match (a.pos, b.pos) with
      | None, None -> 0
      | None, Some _ -> -1
      | Some _, None -> 1
      | Some p, Some q -> Ir.compare_pos p q
    in
    if c <> 0 then c else String.compare a.code b.code

let pp fmt d = Format.pp_print_string fmt (render d)
