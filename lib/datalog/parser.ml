open Cql_num
open Cql_constr

exception Error of string

(* ----- lexer ----- *)

type token =
  | IDENT of string (* lowercase identifier: predicate or symbolic constant *)
  | VAR of string (* uppercase or _ identifier: variable *)
  | NUM of Rat.t
  | LPAREN
  | RPAREN
  | COMMA
  | PERIOD
  | SEMI
  | COLON
  | IF (* :- *)
  | QUERY (* ?- *)
  | HASHQUERY (* #query *)
  | PLUS
  | MINUS
  | STAR
  | OP_LE
  | OP_LT
  | OP_GE
  | OP_GT
  | OP_EQ
  | EOF

type lexer = { src : string; mutable pos : int; mutable line : int; mutable col : int }

let lex_error lx msg =
  raise (Error (Printf.sprintf "line %d, column %d: %s" lx.line lx.col msg))

let at_end lx = lx.pos >= String.length lx.src

(* the character under the cursor, and the one after it; ['\000'] past the
   end, so a caller that could take a NUL byte for the end tests [at_end]
   first.  Peeking allocates nothing. *)
let peek lx = if at_end lx then '\000' else String.unsafe_get lx.src lx.pos

let peek2 lx =
  if lx.pos + 1 < String.length lx.src then String.unsafe_get lx.src (lx.pos + 1) else '\000'

let advance lx =
  if not (at_end lx) then
    if String.unsafe_get lx.src lx.pos = '\n' then begin
      lx.line <- lx.line + 1;
      lx.col <- 1
    end
    else lx.col <- lx.col + 1;
  lx.pos <- lx.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_lower c = c >= 'a' && c <= 'z'
let is_upper c = (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_lower c || is_upper c || is_digit c || c = '\''

let rec skip_ws lx =
  match peek lx with
  | ' ' | '\t' | '\r' | '\n' ->
      advance lx;
      skip_ws lx
  | '%' ->
      while (not (at_end lx)) && peek lx <> '\n' do
        advance lx
      done;
      skip_ws lx
  | _ -> ()

let skip_while p lx =
  while p (peek lx) do
    advance lx
  done

let lex_ident lx =
  let start = lx.pos in
  skip_while is_ident_char lx;
  String.sub lx.src start (lx.pos - start)

let lex_number lx =
  let start = lx.pos in
  skip_while is_digit lx;
  (* a '.' is part of the number only when followed by a digit, so rule
     terminators after numerals lex correctly *)
  if peek lx = '.' && is_digit (peek2 lx) then begin
    advance lx;
    skip_while is_digit lx
  end;
  Rat.of_string (String.sub lx.src start (lx.pos - start))

(* one character, then [tok]; or [tok2] when [next] follows it *)
let lex_op lx next tok2 tok =
  advance lx;
  if peek lx = next then begin
    advance lx;
    tok2
  end
  else tok

let single lx tok =
  advance lx;
  tok

let next_token lx =
  skip_ws lx;
  if at_end lx then EOF
  else
    match peek lx with
    | c when is_digit c -> NUM (lex_number lx)
    | c when is_lower c -> IDENT (lex_ident lx)
    | c when is_upper c -> VAR (lex_ident lx)
    | '#' ->
        advance lx;
        let word = lex_ident lx in
        if word = "query" then HASHQUERY
        else lex_error lx (Printf.sprintf "unknown directive #%s" word)
    | '(' -> single lx LPAREN
    | ')' -> single lx RPAREN
    | ',' -> single lx COMMA
    | ';' -> single lx SEMI
    | '.' -> single lx PERIOD
    | '+' -> single lx PLUS
    | '-' -> single lx MINUS
    | '*' -> single lx STAR
    | '=' -> single lx OP_EQ
    | ':' -> lex_op lx '-' IF COLON
    | '<' -> lex_op lx '=' OP_LE OP_LT
    | '>' -> lex_op lx '=' OP_GE OP_GT
    | '?' ->
        advance lx;
        if peek lx = '-' then single lx QUERY else lex_error lx "expected '-' after '?'"
    | c -> lex_error lx (Printf.sprintf "unexpected character %C" c)

(* ----- parser state: one-token lookahead ----- *)

type parser_state = { lx : lexer; mutable tok : token }

let init src =
  let lx = { src; pos = 0; line = 1; col = 1 } in
  let st = { lx; tok = EOF } in
  st.tok <- next_token lx;
  st

let parse_error st msg =
  raise (Error (Printf.sprintf "line %d, column %d: %s" st.lx.line st.lx.col msg))

let describe_token = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | VAR s -> Printf.sprintf "variable %S" s
  | NUM q -> Format.asprintf "number %a" Rat.pp q
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | COMMA -> "','"
  | PERIOD -> "'.'"
  | SEMI -> "';'"
  | COLON -> "':'"
  | IF -> "':-'"
  | QUERY -> "'?-'"
  | HASHQUERY -> "'#query'"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | STAR -> "'*'"
  | OP_LE -> "'<='"
  | OP_LT -> "'<'"
  | OP_GE -> "'>='"
  | OP_GT -> "'>'"
  | OP_EQ -> "'='"
  | EOF -> "end of input"

let parse_error_got st msg =
  parse_error st (Printf.sprintf "expected %s, got %s" msg (describe_token st.tok))

let bump st = st.tok <- next_token st.lx
let expect st tok msg = if st.tok = tok then bump st else parse_error_got st msg

(* Variables are scoped per clause: same name = same variable within a
   clause, but clauses are renamed apart from each other. *)
type clause_ctx = {
  mutable env : (string * Var.t) list;
  mutable eqs : Atom.t list; (* equality constraints from flattened args *)
}

let lookup_var ctx name =
  match List.assoc_opt name ctx.env with
  | Some v -> v
  | None ->
      let v = Var.fresh name in
      ctx.env <- (name, v) :: ctx.env;
      v

(* expression grammar: expr := term (('+'|'-') term)* ;
   term := factor ('*' factor)* with at most one variable per product *)
let rec parse_expr st ctx =
  let e = ref (parse_term st ctx) in
  let rec loop () =
    match st.tok with
    | PLUS ->
        bump st;
        e := Linexpr.add !e (parse_term st ctx);
        loop ()
    | MINUS ->
        bump st;
        e := Linexpr.sub !e (parse_term st ctx);
        loop ()
    | _ -> ()
  in
  loop ();
  !e

and parse_term st ctx =
  let e = ref (parse_factor st ctx) in
  let rec loop () =
    match st.tok with
    | STAR ->
        bump st;
        let f = parse_factor st ctx in
        (if Linexpr.is_const !e then e := Linexpr.scale (Linexpr.constant !e) f
         else if Linexpr.is_const f then e := Linexpr.scale (Linexpr.constant f) !e
         else parse_error st "nonlinear product of two variables");
        loop ()
    | _ -> ()
  in
  loop ();
  !e

and parse_factor st ctx =
  match st.tok with
  | NUM q ->
      bump st;
      (* allow rationals written as fractions in constraints: 1/2 lexes as
         NUM 1, '/' is not a token -- keep it simple: decimals only *)
      Linexpr.const q
  | VAR name ->
      bump st;
      Linexpr.var (lookup_var ctx name)
  | MINUS ->
      bump st;
      Linexpr.neg (parse_factor st ctx)
  | LPAREN ->
      bump st;
      let e = parse_expr st ctx in
      expect st RPAREN "')'";
      e
  | IDENT s -> parse_error st (Printf.sprintf "symbolic constant %s in arithmetic expression" s)
  | _ -> parse_error_got st "an arithmetic expression"

let parse_constraint st ctx =
  let e1 = parse_expr st ctx in
  let mk =
    match st.tok with
    | OP_LE -> Atom.le
    | OP_LT -> Atom.lt
    | OP_GE -> Atom.ge
    | OP_GT -> Atom.gt
    | OP_EQ -> Atom.eq
    | _ -> parse_error_got st "a comparison operator (one of <=, <, >=, >, =)"
  in
  bump st;
  let e2 = parse_expr st ctx in
  mk e1 e2

(* a literal argument: symbolic constant, or an expression flattened to a
   variable/constant plus equality constraints *)
let parse_arg st ctx =
  match st.tok with
  | IDENT s ->
      bump st;
      Term.sym s
  | _ ->
      let e = parse_expr st ctx in
      let terms = Linexpr.terms e in
      let c = Linexpr.constant e in
      (match terms with
      | [] -> Term.num c
      | [ (v, k) ] when Rat.equal k Rat.one && Rat.is_zero c -> Term.var v
      | _ ->
          let v = Var.fresh "E" in
          ctx.eqs <- Atom.eq (Linexpr.var v) e :: ctx.eqs;
          Term.var v)

let parse_literal st ctx =
  match st.tok with
  | IDENT pred ->
      bump st;
      if st.tok <> LPAREN then (Literal.make pred [], [])
      else begin
        bump st;
        let args = ref [ parse_arg st ctx ] in
        while st.tok = COMMA do
          bump st;
          args := parse_arg st ctx :: !args
        done;
        (* optional trailing constraints for constraint facts: p(X; X <= 3) *)
        let cstrs = ref [] in
        if st.tok = SEMI then begin
          bump st;
          cstrs := [ parse_constraint st ctx ];
          while st.tok = COMMA do
            bump st;
            cstrs := parse_constraint st ctx :: !cstrs
          done
        end;
        expect st RPAREN "')'";
        (Literal.make pred (List.rev !args), List.rev !cstrs)
      end
  | _ -> parse_error_got st "a predicate name"

(* body := (literal | constraint) list; returns literals and constraints *)
let parse_body st ctx =
  let lits = ref [] and atoms = ref [] in
  let item () =
    match st.tok with
    | IDENT _ ->
        let l, cs = parse_literal st ctx in
        lits := l :: !lits;
        atoms := List.rev_append cs !atoms
    | _ -> atoms := parse_constraint st ctx :: !atoms
  in
  item ();
  while st.tok = COMMA do
    bump st;
    item ()
  done;
  (List.rev !lits, List.rev !atoms)

type clause = Clause_rule of Rule.t | Clause_query of Literal.t list * Conj.t | Clause_setq of string

let parse_clause st =
  let ctx = { env = []; eqs = [] } in
  match st.tok with
  | QUERY ->
      bump st;
      let lits, atoms = parse_body st ctx in
      expect st PERIOD "'.'";
      Clause_query (lits, Conj.of_list (atoms @ ctx.eqs))
  | HASHQUERY ->
      bump st;
      let name =
        match st.tok with
        | IDENT s ->
            bump st;
            s
        | _ -> parse_error_got st "a predicate name after #query"
      in
      expect st PERIOD "'.'";
      Clause_setq name
  | _ ->
      (* optional label: IDENT ':' not followed by '-' *)
      let label =
        match st.tok with
        | IDENT s ->
            (* lookahead: save state is hard; instead parse the literal and
               check for COLON only when no '(' followed. Simpler: peek via
               lexer clone *)
            let saved_pos = st.lx.pos and saved_line = st.lx.line and saved_col = st.lx.col in
            let saved_tok = st.tok in
            bump st;
            if st.tok = COLON then begin
              bump st;
              s
            end
            else begin
              st.lx.pos <- saved_pos;
              st.lx.line <- saved_line;
              st.lx.col <- saved_col;
              st.tok <- saved_tok;
              ""
            end
        | _ -> ""
      in
      let head, head_cstrs = parse_literal st ctx in
      let body_lits, body_atoms =
        if st.tok = IF then begin
          bump st;
          parse_body st ctx
        end
        else ([], [])
      in
      expect st PERIOD "'.'";
      Clause_rule
        (Rule.make ~label head body_lits (Conj.of_list (head_cstrs @ body_atoms @ ctx.eqs)))

let parse_program st =
  let rules = ref [] and query = ref None and pending_query = ref None in
  while st.tok <> EOF do
    match parse_clause st with
    | Clause_rule r -> rules := r :: !rules
    | Clause_setq q -> query := Some q
    | Clause_query (lits, cstr) -> pending_query := Some (lits, cstr)
  done;
  let p = Program.make ?query:!query (List.rev !rules) in
  match !pending_query with
  | None -> p
  | Some (lits, cstr) -> fst (Program.with_query_rule p lits cstr)

let program_of_string src = parse_program (init src)

let program_of_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  program_of_string src

let rule_of_string src =
  match parse_clause (init src) with
  | Clause_rule r -> r
  | Clause_query _ | Clause_setq _ -> raise (Error "expected a rule, got a query")

let facts_of_string src =
  let p = program_of_string src in
  List.map
    (fun (r : Rule.t) ->
      if not (Rule.is_fact r) then
        raise (Error (Printf.sprintf "EDB clause has body literals: %s" (Rule.to_string r)));
      r)
    p.Program.rules
