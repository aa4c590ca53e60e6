exception Invalid of string

let exit_code = 3

let int_knob name ~min ~max () =
  match Sys.getenv_opt name with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= min && v <= max -> Some v
      | Some _ | None ->
          raise
            (Invalid
               (Printf.sprintf "%s=%S: expected an integer in [%d, %d]" name s min max)))

let domains = int_knob "BCC_DOMAINS" ~min:1 ~max:64
let e31_n = int_knob "BCC_E31_N" ~min:4096 ~max:1_000_000

let check_all () =
  ignore (domains ());
  ignore (e31_n ())
