open Cql_datalog

type plan = {
  pipeline : string;
  program : Program.t;
  programs : Cql_eval.Engine.compiled;
  source_bytes : int;
  rewrite_ns : int64;
}

(* the domain participates in the key: a Z-mode compilation is planned from
   Z-mode rewrite verdicts, so it must never be replayed for a Q request *)
let key ~pipeline ~domain ~source =
  Digest.to_hex
    (Digest.string (pipeline ^ "\x00" ^ Cql_constr.Cdomain.to_string domain ^ "\x00" ^ source))
