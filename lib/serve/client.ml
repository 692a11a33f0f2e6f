type t = { fd : Unix.file_descr; r : Protocol.reader; out : Buffer.t }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      let read buf off len =
        match Unix.read fd buf off len with
        | n -> n
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0
      in
      Ok { fd; r = Protocol.reader read; out = Buffer.create 1024 }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "connect %s: %s" path (Unix.error_message e))

let connect_retry ?(attempts = 50) ?(delay = 0.1) path =
  let rec go n =
    match connect path with
    | Ok c -> Ok c
    | Error _ when n > 1 ->
        Unix.sleepf delay;
        go (n - 1)
    | Error _ as e -> e
  in
  go (max 1 attempts)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let write_all fd bytes =
  let n = Bytes.length bytes in
  let rec go off =
    if off < n then
      match Unix.write fd bytes off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let request t j =
  match
    Buffer.clear t.out;
    Protocol.write_frame t.out j;
    write_all t.fd (Buffer.to_bytes t.out)
  with
  | exception Unix.Unix_error (e, _, _) -> Error ("send: " ^ Unix.error_message e)
  | () -> (
      match Protocol.read_frame t.r with
      | Error e -> Error (Protocol.frame_error_to_string e)
      | Ok payload -> (
          match Json.parse payload with
          | Ok j -> Ok j
          | Error msg -> Error ("bad response: " ^ msg)))

let eval t ?id ?tenant ?edb ?pipeline ?domain ?max_iterations ?max_derivations ~program () =
  request t
    (Protocol.eval_request_json ?id ?tenant ?edb ?pipeline ?domain ?max_iterations
       ?max_derivations ~program ())

let materialize t ?id ?tenant ?edb ?pipeline ?domain ?max_iterations ?max_derivations ~view
    ~program () =
  request t
    (Protocol.eval_request_json ?id ?tenant ~view ?edb ?pipeline ?domain ?max_iterations
       ?max_derivations ~program ())

let insert t ?id ?tenant ?max_iterations ?max_derivations ~view ~facts () =
  request t
    (Protocol.update_request_json ?id ?tenant ?max_iterations ?max_derivations ~retract:false
       ~view ~facts ())

let retract t ?id ?tenant ?max_iterations ?max_derivations ~view ~facts () =
  request t
    (Protocol.update_request_json ?id ?tenant ?max_iterations ?max_derivations ~retract:true
       ~view ~facts ())

let query t ?id ?tenant ~view () = request t (Protocol.query_request_json ?id ?tenant ~view ())
let ping t = request t (Protocol.ping_request_json ())
let stats t = request t (Protocol.stats_request_json ())

let is_ok j = Json.member "status" j |> Option.map (fun s -> s = Json.Str "ok") |> Option.value ~default:false

let error_kind j =
  match Json.member "error" j with
  | Some e -> Option.bind (Json.member "kind" e) Json.to_str
  | None -> None

let error_message j =
  match Json.member "error" j with
  | Some e -> Option.bind (Json.member "message" e) Json.to_str
  | None -> None

let answers j =
  match Option.bind (Json.member "answers" j) Json.to_list with
  | Some items -> List.filter_map Json.to_str items
  | None -> []
