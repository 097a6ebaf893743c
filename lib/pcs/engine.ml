module Pool = Nocap_parallel.Pool

module Config = struct
  type t = { domains : int option; stream_budget_mb : int option }

  let default = { domains = None; stream_budget_mb = None }

  let parse_positive ~name raw =
    match int_of_string_opt (String.trim raw) with
    | Some v when v > 0 -> Ok v
    | Some v -> Error (Printf.sprintf "%s must be a positive integer, got %d" name v)
    | None -> Error (Printf.sprintf "%s must be a positive integer, got %S" name raw)

  (* Every knob is parsed even after one fails: a service operator who
     fat-fingered three variables gets all three diagnostics in one startup
     failure instead of a fix-rerun loop per knob. *)
  let parse ~lookup =
    let errors = ref [] in
    let keep = function
      | Ok v -> Some v
      | Error msg ->
        errors := msg :: !errors;
        None
    in
    let knob name =
      match lookup name with
      | None -> None
      | Some raw -> keep (parse_positive ~name raw)
    in
    let domains = knob "NOCAP_DOMAINS" in
    let stream_budget_mb = knob "NOCAP_STREAM_BUDGET_MB" in
    match List.rev !errors with
    | [] -> Ok { domains; stream_budget_mb }
    | errs -> Error (String.concat "; " errs)

  (* The single *validating* environment-read site in the tree. Malformed
     values fail loudly here instead of silently falling back: an operator
     who set NOCAP_DOMAINS=four wants to hear about it, not run
     single-domain. *)
  let of_env () =
    match parse ~lookup:Sys.getenv_opt with
    | Ok c -> c
    | Error msg -> invalid_arg ("Engine.Config.of_env: " ^ msg)
end

type t = { config : Config.t; stream_budget_bytes : int option }

let create ?(config = Config.default) ?stream_budget_bytes () =
  (match stream_budget_bytes with
  | Some b when b <= 0 ->
    invalid_arg "Engine.create: stream_budget_bytes must be positive"
  | _ -> ());
  { config; stream_budget_bytes }

let default_engine : t option ref = ref None

let default () =
  match !default_engine with
  | Some e -> e
  | None ->
    let config = Config.of_env () in
    (* The pool itself stays lazy: recording a baseline (instead of building
       a pool eagerly) keeps Pool.with_domains able to override, and avoids
       spawning domains in processes that never prove. *)
    Option.iter Pool.set_baseline_domains config.Config.domains;
    let e = create ~config () in
    default_engine := Some e;
    e

let resolve = function Some e -> e | None -> default ()

(* Byte granularity so tests can force spills on tiny circuits; the env
   knob is MB granularity for operators. Explicit argument wins. *)
let stream_budget_bytes e =
  match e.stream_budget_bytes with
  | Some b -> Some b
  | None ->
    Option.map (fun mb -> mb * 1024 * 1024) e.config.Config.stream_budget_mb

let tune_gc (_ : t) =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 16 * 1024 * 1024 / 8; space_overhead = 200 }
