module Cdomain = Cql_constr.Cdomain

type request =
  | Eval of {
      id : string option;
      tenant : string;
      view : string option;
      program : string;
      edb : string;
      pipeline : string;
      domain : Cdomain.t;
      max_iterations : int option;
      max_derivations : int option;
    }
  | Update of {
      id : string option;
      tenant : string;
      view : string;
      retract : bool;
      facts : string;
      max_iterations : int option;
      max_derivations : int option;
    }
  | Query of { id : string option; tenant : string; view : string }
  | Ping of { id : string option }
  | Stats of { id : string option }

type error_kind =
  | Malformed
  | Parse_error
  | Oversized
  | Admission
  | Budget
  | Unknown_view
  | Shutting_down
  | Internal

let error_kind_to_string = function
  | Malformed -> "malformed"
  | Parse_error -> "parse_error"
  | Oversized -> "oversized"
  | Admission -> "admission"
  | Budget -> "budget"
  | Unknown_view -> "unknown_view"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

(* ----- request decoding ----- *)

let opt_field name conv j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "field %S has the wrong type" name))

(* integer fields go through the checked conversion so an out-of-safe-range
   float reports what is wrong with it, not a generic type error *)
let int_field name j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match Json.to_int_checked v with
      | Ok x -> Ok (Some x)
      | Error Json.Unsafe_integer ->
          Error (Printf.sprintf "field %S is outside the 2^53 safe integer range" name)
      | Error Json.Not_an_integer ->
          Error (Printf.sprintf "field %S has the wrong type" name))

(* optional "domain" field: absent means rational, the paper's setting *)
let domain_field j =
  match opt_field "domain" Json.to_str j with
  | Error _ as e -> e
  | Ok None -> Ok Cdomain.Q
  | Ok (Some s) -> (
      match Cdomain.of_string s with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "field \"domain\" must be \"rat\" or \"int\", got %S" s))

let request_of_json j =
  let ( let* ) = Result.bind in
  match Json.member "op" j with
  | None -> Error "missing \"op\" field"
  | Some op -> (
      match Json.to_str op with
      | None -> Error "\"op\" must be a string"
      | Some op -> (
          let* id = opt_field "id" Json.to_str j in
          let str_field name =
            match Json.member name j with
            | None -> Error (Printf.sprintf "%s request is missing %S" op name)
            | Some v -> (
                match Json.to_str v with
                | Some s -> Ok s
                | None -> Error (Printf.sprintf "%S must be a string" name))
          in
          match op with
          | "ping" -> Ok (Ping { id })
          | "stats" -> Ok (Stats { id })
          | "eval" | "materialize" ->
              let* view =
                if op = "eval" then Ok None else Result.map Option.some (str_field "view")
              in
              let* program = str_field "program" in
              let* tenant = opt_field "tenant" Json.to_str j in
              let* edb = opt_field "edb" Json.to_str j in
              let* pipeline = opt_field "pipeline" Json.to_str j in
              let* domain = domain_field j in
              let* max_iterations = int_field "max_iterations" j in
              let* max_derivations = int_field "max_derivations" j in
              Ok
                (Eval
                   {
                     id;
                     tenant = Option.value tenant ~default:"anon";
                     view;
                     program;
                     edb = Option.value edb ~default:"";
                     pipeline = Option.value pipeline ~default:"pred,qrp";
                     domain;
                     max_iterations;
                     max_derivations;
                   })
          | "insert" | "retract" ->
              let* view = str_field "view" in
              let* facts = str_field "facts" in
              let* tenant = opt_field "tenant" Json.to_str j in
              let* max_iterations = int_field "max_iterations" j in
              let* max_derivations = int_field "max_derivations" j in
              Ok
                (Update
                   {
                     id;
                     tenant = Option.value tenant ~default:"anon";
                     view;
                     retract = op = "retract";
                     facts;
                     max_iterations;
                     max_derivations;
                   })
          | "query" ->
              let* view = str_field "view" in
              let* tenant = opt_field "tenant" Json.to_str j in
              Ok (Query { id; tenant = Option.value tenant ~default:"anon"; view })
          | op ->
              Error
                (Printf.sprintf
                   "unknown op %S (use eval, materialize, insert, retract, query, ping or stats)"
                   op)))

(* ----- request/response building ----- *)

let with_id id fields =
  match id with None -> fields | Some id -> ("id", Json.Str id) :: fields

let opt name conv v fields = match v with None -> fields | Some v -> (name, conv v) :: fields

let eval_request_json ?id ?tenant ?view ?edb ?pipeline ?domain ?max_iterations ?max_derivations
    ~program () =
  Json.Obj
    (with_id id
       (("op", Json.Str (if view = None then "eval" else "materialize"))
        :: opt "view" (fun s -> Json.Str s) view [ ("program", Json.Str program) ]
       |> opt "tenant" (fun s -> Json.Str s) tenant
       |> opt "edb" (fun s -> Json.Str s) edb
       |> opt "pipeline" (fun s -> Json.Str s) pipeline
       |> opt "domain" (fun d -> Json.Str (Cdomain.to_string d)) domain
       |> opt "max_iterations" (fun i -> Json.Int i) max_iterations
       |> opt "max_derivations" (fun i -> Json.Int i) max_derivations))

let update_request_json ?id ?tenant ?max_iterations ?max_derivations ~retract ~view ~facts () =
  Json.Obj
    (with_id id
       ([
          ("op", Json.Str (if retract then "retract" else "insert"));
          ("view", Json.Str view);
          ("facts", Json.Str facts);
        ]
       |> opt "tenant" (fun s -> Json.Str s) tenant
       |> opt "max_iterations" (fun i -> Json.Int i) max_iterations
       |> opt "max_derivations" (fun i -> Json.Int i) max_derivations))

let query_request_json ?id ?tenant ~view () =
  Json.Obj
    (with_id id
       ([ ("op", Json.Str "query"); ("view", Json.Str view) ]
       |> opt "tenant" (fun s -> Json.Str s) tenant))

let ping_request_json ?id () = Json.Obj (with_id id [ ("op", Json.Str "ping") ])
let stats_request_json ?id () = Json.Obj (with_id id [ ("op", Json.Str "stats") ])

let error_response ?id kind message =
  Json.Obj
    (with_id id
       [
         ("status", Json.Str "error");
         ( "error",
           Json.Obj
             [
               ("kind", Json.Str (error_kind_to_string kind)); ("message", Json.Str message);
             ] );
       ])

let ok_response ?id fields = Json.Obj (with_id id (("status", Json.Str "ok") :: fields))

(* ----- framing ----- *)

let max_frame_default = 4 * 1024 * 1024

let write_frame b j =
  let payload = Buffer.create 256 in
  Json.to_buffer payload j;
  Buffer.add_char payload '\n';
  Buffer.add_string b (string_of_int (Buffer.length payload));
  Buffer.add_char b '\n';
  Buffer.add_buffer b payload

type frame_error = Closed | Truncated | Bad_header of string | Too_large of int

let frame_error_to_string = function
  | Closed -> "connection closed"
  | Truncated -> "truncated frame"
  | Bad_header h -> Printf.sprintf "malformed frame header %S (expected a decimal length)" h
  | Too_large n -> Printf.sprintf "frame of %d bytes exceeds the limit" n

type reader = {
  read : bytes -> int -> int -> int;
  max_frame : int;
  chunk : Bytes.t;
  mutable buf : Bytes.t;  (* buffered unconsumed input *)
  mutable len : int;
}

let reader ?(max_frame = max_frame_default) read =
  { read; max_frame; chunk = Bytes.create 65536; buf = Bytes.create 65536; len = 0 }

let refill r =
  let n = r.read r.chunk 0 (Bytes.length r.chunk) in
  if n > 0 then begin
    if r.len + n > Bytes.length r.buf then begin
      let grown = Bytes.create (max (r.len + n) (2 * Bytes.length r.buf)) in
      Bytes.blit r.buf 0 grown 0 r.len;
      r.buf <- grown
    end;
    Bytes.blit r.chunk 0 r.buf r.len n;
    r.len <- r.len + n
  end;
  n

let consume r n =
  Bytes.blit r.buf n r.buf 0 (r.len - n);
  r.len <- r.len - n

(* the header is tiny; cap the scan so a stream that never sends '\n'
   cannot grow the buffer unboundedly *)
let max_header = 20

let read_frame r =
  let rec header_end () =
    match Bytes.index_from_opt r.buf 0 '\n' with
    | Some i when i < r.len -> Some i
    | _ ->
        if r.len > max_header then None
        else if refill r = 0 then None
        else header_end ()
  in
  if r.len = 0 && refill r = 0 then Error Closed
  else
    match header_end () with
    | None ->
        if r.len = 0 then Error Closed
          (* no newline within the scan cap: garbage, not a short read *)
        else if r.len > max_header then
          Error (Bad_header (Bytes.sub_string r.buf 0 max_header))
        else Error Truncated
    | Some nl -> (
        let line = Bytes.sub_string r.buf 0 nl in
        match int_of_string_opt (String.trim line) with
        | None -> Error (Bad_header line)
        | Some len when len < 0 -> Error (Bad_header line)
        | Some len when len > r.max_frame -> Error (Too_large len)
        | Some len ->
            let rec fill () =
              if r.len >= nl + 1 + len then begin
                let payload = Bytes.sub_string r.buf (nl + 1) len in
                consume r (nl + 1 + len);
                Ok payload
              end
              else if refill r = 0 then Error Truncated
              else fill ()
            in
            fill ())
