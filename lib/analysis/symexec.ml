(* Symbolic execution of a compiled (and optionally populated) pipeline.

   The walker explores every feasible stage/table/action path of the
   merged template set over the abstract Domain: per-header validity
   tracks the implicit-parser linkage (assuming one header valid pins
   its ancestors valid, its exclusive siblings invalid, and the parent's
   selector field to the link tag), field and metadata values flow
   through matcher conditions and executor actions, and — when the
   caller supplies live table contents — lookups fork per feasible
   entry with the entry's match refinements and concrete action
   arguments applied.

   Outputs:
     - diagnostics: statically dead tables (RP4E030), constants that
       cannot fit their destination (RP4E031), conflicting constant
       writes inside a merged TSP group (RP4E032), reads of headers
       invalid on every feasible path (RP4E033), dead matcher branches
       (RP4W110), always-miss tables (RP4W111), dead entries (RP4W112)
       and stages outside the flat fast-path subset (RP4W113);
     - per-stage traffic classes: for every reached stage, the list of
       path constraints (atoms) under which a packet reaches it — the
       raw material of the impact pass' blast radius.

   The semantics mirror the reference interpreter (Tsp/Action_eval/
   Parse_engine) exactly where it matters for soundness: S_set_valid is
   a no-op at runtime, S_drop halts all later stages, a lookup whose
   key touches an invalid header misses without consulting the table,
   a hit with a tag outside the executor cases runs the defaults with
   no arguments, and invalidated headers can be re-parsed while headers
   excluded by packet content stay off the chain. *)

module SS = Set.Make (String)
module SM = Map.Make (String)

let pass = "symexec"

(* Exploration budgets: paths joined beyond [max_paths] per stage; table
   contents consulted only up to [entry_fork_cap] entries; at most
   [max_classes] traffic classes remembered per stage. *)
let max_paths = 96
let entry_fork_cap = 24
let max_classes = 24

(* ------------------------------------------------------------------ *)
(* Path constraints (atoms)                                            *)
(* ------------------------------------------------------------------ *)

(* The externally meaningful constraints a path accumulates: header
   validity, header-field comparisons and table-entry key matches. Only
   packet-observable facts become atoms (header fields and the in_port
   intrinsic); internal metadata refinements influence feasibility but
   are not exported. *)
type atom =
  | A_valid of string * bool (* header (in)valid *)
  | A_eq of string * int64 (* field = const *)
  | A_ne of string * int64
  | A_range of string * int64 * int64 (* lo <= field <= hi (unsigned) *)
  | A_prefix of string * Net.Bits.t * int (* field matches prefix/plen *)
  | A_miss of string (* table lookup missed *)

let atom_to_string = function
  | A_valid (h, true) -> Printf.sprintf "%s.isValid()" h
  | A_valid (h, false) -> Printf.sprintf "!%s.isValid()" h
  | A_eq (f, v) -> Printf.sprintf "%s == %Ld" f v
  | A_ne (f, v) -> Printf.sprintf "%s != %Ld" f v
  | A_range (f, lo, hi) -> Printf.sprintf "%s in [%Ld,%Ld]" f lo hi
  | A_prefix (f, bits, plen) ->
    Printf.sprintf "%s in %s/%d" f (Net.Bits.to_hex (Net.Bits.slice bits ~off:0 ~len:plen)) plen
  | A_miss t -> Printf.sprintf "%s misses" t

let atom_to_json a =
  let module J = Prelude.Json in
  match a with
  | A_valid (h, b) ->
    J.Obj [ ("kind", J.String "valid"); ("header", J.String h); ("value", J.Bool b) ]
  | A_eq (f, v) ->
    J.Obj [ ("kind", J.String "eq"); ("field", J.String f); ("value", J.Int (Int64.to_int v)) ]
  | A_ne (f, v) ->
    J.Obj [ ("kind", J.String "ne"); ("field", J.String f); ("value", J.Int (Int64.to_int v)) ]
  | A_range (f, lo, hi) ->
    J.Obj
      [
        ("kind", J.String "range");
        ("field", J.String f);
        ("lo", J.Int (Int64.to_int lo));
        ("hi", J.Int (Int64.to_int hi));
      ]
  | A_prefix (f, bits, plen) ->
    J.Obj
      [
        ("kind", J.String "prefix");
        ("field", J.String f);
        ("prefix", J.String (Net.Bits.to_hex bits));
        ("width", J.Int (Net.Bits.width bits));
        ("plen", J.Int plen);
      ]
  | A_miss t -> J.Obj [ ("kind", J.String "miss"); ("table", J.String t) ]

(* ------------------------------------------------------------------ *)
(* Symbolic state                                                      *)
(* ------------------------------------------------------------------ *)

type validity = Vyes | Vno | Vmaybe

(* Pending executor outcome of the last lookup in the current stage's
   matcher (mirrors Context.last_lookup). [Hit (tag, args)] with [args]
   = [] stands for a hit with unknown arguments. *)
type outcome = Hit of int * Domain.t list | Miss

type state = {
  valids : validity SM.t; (* absent = never parsed (invalid) *)
  pkt_absent : SS.t; (* proven off the packet's parse chain: sticky *)
  vals : Domain.t SM.t; (* field-ref string -> abstract value *)
  atoms : atom list; (* newest first *)
  exec : outcome option;
  dropped : bool;
}

let validity st h =
  match SM.find_opt h st.valids with Some v -> v | None -> Vno

(* ------------------------------------------------------------------ *)
(* Walker context and accumulators                                     *)
(* ------------------------------------------------------------------ *)

type branch_cov = {
  mutable seen : bool;
  mutable then_taken : bool;
  mutable else_taken : bool;
  then_code : bool; (* the then-branch contains code (not M_nop) *)
  else_code : bool;
}

type ctx = {
  env : Rp4.Semantic.env;
  lookup : string -> Table.t option;
  parents : (string, (string * int64) list) Hashtbl.t; (* hdr -> (parent, tag) *)
  mutable diags : Diag.t list;
  mutable reached : SS.t;
  mutable applied : SS.t; (* tables applied on >= 1 feasible path *)
  mutable apply_sites : (string * string) list; (* stage, table: registered *)
  mutable key_ok : SS.t; (* tables applied with all key headers possibly valid *)
  branches : (string, branch_cov) Hashtbl.t;
  branch_info : (string, string) Hashtbl.t; (* id -> stage *)
  entry_live : (string, bool array) Hashtbl.t;
  reads : (string, string * string * bool ref) Hashtbl.t; (* site -> stage, field, ever-ok *)
  classes : (string, atom list list ref) Hashtbl.t; (* stage -> capped class list *)
  overcap : (string, atom list ref) Hashtbl.t; (* widened class for surplus states *)
  overflows : (string, unit) Hashtbl.t; (* dedup E031 sites *)
  mutable paths : int; (* states explored, rough effort metric *)
}

let diag ctx d = ctx.diags <- d :: ctx.diags

let field_key = Rp4.Ast.field_ref_to_string

let field_width ctx fr = Rp4.Semantic.field_width ctx.env fr

(* Linkage parent map: for each header, the (parent, tag) links that can
   produce it. *)
let build_parents (prog : Rp4.Ast.program) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (hd : Rp4.Ast.header_decl) ->
      match hd.Rp4.Ast.hd_parser with
      | None -> ()
      | Some ip ->
        List.iter
          (fun (tag, next) ->
            let prev = try Hashtbl.find tbl next with Not_found -> [] in
            Hashtbl.replace tbl next ((hd.Rp4.Ast.hd_name, tag) :: prev))
          ip.Rp4.Ast.ip_cases)
    prog.Rp4.Ast.headers;
  tbl

let unique_parent ctx h =
  match Hashtbl.find_opt ctx.parents h with Some [ p ] -> Some p | _ -> None

(* ------------------------------------------------------------------ *)
(* Validity assumptions                                                *)
(* ------------------------------------------------------------------ *)

let set_val st key v = { st with vals = SM.add key v st.vals }

let get_val ctx st fr =
  match SM.find_opt (field_key fr) st.vals with
  | Some v -> v
  | None -> (
    match field_width ctx fr with Some w -> Domain.unknown w | None -> Domain.top 64)

(* Assume header [h] is valid: pin its ancestors valid, refine each
   parent's selector field to the link tag, and rule the exclusive
   siblings off the packet's parse chain. Returns None when the current
   state already proves [h] invalid. *)
let rec assume_valid ctx st h : state option =
  match validity st h with
  | Vyes -> Some st
  | Vno when SS.mem h st.pkt_absent -> None
  | v ->
    if v = Vno then None
    else
      let st = { st with valids = SM.add h Vyes st.valids } in
      let st = { st with atoms = A_valid (h, true) :: st.atoms } in
      (match unique_parent ctx h with
      | None -> Some st
      | Some (p, tag) -> (
        match assume_valid ctx st p with
        | None -> None
        | Some st ->
          (* selector refinement + sibling exclusion *)
          let st =
            match Rp4.Ast.find_header ctx.env.Rp4.Semantic.prog p with
            | Some { Rp4.Ast.hd_parser = Some ip; _ } -> (
              let st =
                List.fold_left
                  (fun st (tag', sib) ->
                    if sib = h || Int64.equal tag' tag then st
                    else if unique_parent ctx sib = Some (p, tag') then
                      {
                        st with
                        valids = SM.add sib Vno st.valids;
                        pkt_absent = SS.add sib st.pkt_absent;
                      }
                    else st)
                  st ip.Rp4.Ast.ip_cases
              in
              match ip.Rp4.Ast.ip_sel with
              | [ sel ] -> (
                let fr = Rp4.Ast.Hdr_field (p, sel) in
                match field_width ctx fr with
                | Some w when w <= Domain.max_precise_width -> (
                  let v = get_val ctx st fr in
                  match Domain.meet v (Domain.const w tag) with
                  | Some v' -> set_val st (field_key fr) v'
                  | None -> st (* contradiction surfaces via the selector test *))
                | _ -> st)
              | _ -> st)
            | _ -> st
          in
          Some st))

(* Assume header [h] is invalid. The exclusion is packet-content driven
   (the chain never produced [h]), so it is sticky across re-parses. *)
let assume_invalid _ctx st h : state option =
  match validity st h with
  | Vyes -> None
  | Vno -> Some st
  | Vmaybe ->
    Some
      {
        st with
        valids = SM.add h Vno st.valids;
        pkt_absent = SS.add h st.pkt_absent;
        atoms = A_valid (h, false) :: st.atoms;
      }

(* A stage parser names [h]: the engine attempts to locate it on the
   chain. Locating [h] walks the chain from the root, so every ancestor
   is a candidate too, whether or not the stage names it. Headers
   excluded by packet content stay invalid; anything else becomes
   possibly-valid. *)
let parse_attempt ctx st h =
  let rec go seen st h =
    if SS.mem h seen then st
    else
      let seen = SS.add h seen in
      let st =
        match SM.find_opt h st.valids with
        | Some Vyes -> st
        | Some Vno when SS.mem h st.pkt_absent -> st
        | _ -> { st with valids = SM.add h Vmaybe st.valids }
      in
      match Hashtbl.find_opt ctx.parents h with
      | None -> st
      | Some ps -> List.fold_left (fun st (p, _) -> go seen st p) st ps
  in
  go SS.empty st h

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let record_read ctx ~stage st fr =
  match fr with
  | Rp4.Ast.Meta_field _ -> ()
  | Rp4.Ast.Hdr_field (h, _) ->
    let key = stage ^ "/" ^ field_key fr in
    let ok = validity st h <> Vno in
    (match Hashtbl.find_opt ctx.reads key with
    | Some (_, _, r) -> if ok then r := true
    | None -> Hashtbl.replace ctx.reads key (stage, field_key fr, ref ok))

let rec expr_width ctx ~params ~want = function
  | Rp4.Ast.E_const (_, Some w) -> w
  | Rp4.Ast.E_const (_, None) -> want
  | Rp4.Ast.E_field fr -> (
    match field_width ctx fr with Some w -> w | None -> want)
  | Rp4.Ast.E_param p -> (
    match List.assoc_opt p params with Some w -> w | None -> want)
  | Rp4.Ast.E_binop (_, a, _) -> expr_width ctx ~params ~want a

(* [params] are declared (name, width); [pvals] positional bindings. *)
let rec eval_expr ctx ~stage st ~params ~pvals ~want e : Domain.t =
  match e with
  | Rp4.Ast.E_const (v, Some w) -> Domain.const w v
  | Rp4.Ast.E_const (v, None) -> Domain.const want v
  | Rp4.Ast.E_field fr -> (
    record_read ctx ~stage st fr;
    match fr with
    | Rp4.Ast.Hdr_field (h, _) when validity st h = Vno ->
      (* runtime faults here; value irrelevant *)
      Domain.unknown (match field_width ctx fr with Some w -> w | None -> 64)
    | _ -> get_val ctx st fr)
  | Rp4.Ast.E_param p -> (
    match List.assoc_opt p pvals with
    | Some v -> v
    | None ->
      Domain.unknown (match List.assoc_opt p params with Some w -> w | None -> 64))
  | Rp4.Ast.E_binop (op, a, b) ->
    let w = expr_width ctx ~params ~want a in
    let va = Domain.resize (eval_expr ctx ~stage st ~params ~pvals ~want:w a) w in
    let vb = Domain.resize (eval_expr ctx ~stage st ~params ~pvals ~want:w b) w in
    Domain.binop op va vb

(* ------------------------------------------------------------------ *)
(* Conditions: three-valued evaluation and assumption                   *)
(* ------------------------------------------------------------------ *)

let rel_atom fr op v c =
  (* Export a constraint on a packet-observable field. *)
  let exportable =
    match fr with
    | Rp4.Ast.Hdr_field _ -> true
    | Rp4.Ast.Meta_field f -> f = "in_port"
  in
  if not exportable then None
  else
    let f = field_key fr in
    match op with
    | Rp4.Ast.Eq -> Some (A_eq (f, c))
    | Rp4.Ast.Neq -> Some (A_ne (f, c))
    | _ -> (
      match Domain.interval v with
      | Some (lo, hi) -> Some (A_range (f, lo, hi))
      | None -> None)

let flip_op = function
  | Rp4.Ast.Eq -> Rp4.Ast.Eq
  | Rp4.Ast.Neq -> Rp4.Ast.Neq
  | Rp4.Ast.Lt -> Rp4.Ast.Gt
  | Rp4.Ast.Gt -> Rp4.Ast.Lt
  | Rp4.Ast.Le -> Rp4.Ast.Ge
  | Rp4.Ast.Ge -> Rp4.Ast.Le

let negate_op = function
  | Rp4.Ast.Eq -> Rp4.Ast.Neq
  | Rp4.Ast.Neq -> Rp4.Ast.Eq
  | Rp4.Ast.Lt -> Rp4.Ast.Ge
  | Rp4.Ast.Ge -> Rp4.Ast.Lt
  | Rp4.Ast.Gt -> Rp4.Ast.Le
  | Rp4.Ast.Le -> Rp4.Ast.Gt

let rec ceval ctx ~stage st (c : Rp4.Ast.cond) : Domain.tri =
  match c with
  | Rp4.Ast.C_true -> Domain.True
  | Rp4.Ast.C_valid h -> (
    match validity st h with
    | Vyes -> Domain.True
    | Vno -> Domain.False
    | Vmaybe -> Domain.Unknown)
  | Rp4.Ast.C_not c -> Domain.tri_not (ceval ctx ~stage st c)
  | Rp4.Ast.C_and (a, b) -> (
    match (ceval ctx ~stage st a, ceval ctx ~stage st b) with
    | Domain.False, _ | _, Domain.False -> Domain.False
    | Domain.True, Domain.True -> Domain.True
    | _ -> Domain.Unknown)
  | Rp4.Ast.C_or (a, b) -> (
    match (ceval ctx ~stage st a, ceval ctx ~stage st b) with
    | Domain.True, _ | _, Domain.True -> Domain.True
    | Domain.False, Domain.False -> Domain.False
    | _ -> Domain.Unknown)
  | Rp4.Ast.C_rel (op, a, b) ->
    let wa = expr_width ctx ~params:[] ~want:64 a in
    let wb = expr_width ctx ~params:[] ~want:wa b in
    let w = if wa >= wb then wa else wb in
    let va = Domain.resize (eval_expr ctx ~stage st ~params:[] ~pvals:[] ~want:w a) w in
    let vb = Domain.resize (eval_expr ctx ~stage st ~params:[] ~pvals:[] ~want:w b) w in
    Domain.rel op va vb

(* Refine [st] under [c] = [b]. Returns all feasible refined states ([]
   when the assumption is contradictory). *)
let rec assume ctx ~stage st (c : Rp4.Ast.cond) (b : bool) : state list =
  match (c, b) with
  | Rp4.Ast.C_true, true -> [ st ]
  | Rp4.Ast.C_true, false -> []
  | Rp4.Ast.C_not c, _ -> assume ctx ~stage st c (not b)
  | Rp4.Ast.C_valid h, true -> (
    match assume_valid ctx st h with Some st -> [ st ] | None -> [])
  | Rp4.Ast.C_valid h, false -> (
    match assume_invalid ctx st h with Some st -> [ st ] | None -> [])
  | Rp4.Ast.C_and (x, y), true ->
    List.concat_map (fun st -> assume ctx ~stage st y true) (assume ctx ~stage st x true)
  | Rp4.Ast.C_and (x, y), false ->
    (* !x  or  (x && !y) *)
    assume ctx ~stage st x false
    @ List.concat_map (fun st -> assume ctx ~stage st y false) (assume ctx ~stage st x true)
  | Rp4.Ast.C_or (x, y), true ->
    assume ctx ~stage st x true
    @ List.concat_map (fun st -> assume ctx ~stage st y true) (assume ctx ~stage st x false)
  | Rp4.Ast.C_or (x, y), false ->
    List.concat_map (fun st -> assume ctx ~stage st y false) (assume ctx ~stage st x false)
  | Rp4.Ast.C_rel (op, l, r), _ -> (
    let op = if b then op else negate_op op in
    (* Only (field rel const) refines the store; anything else is kept
       path-feasible by the three-valued test alone. *)
    let refineable =
      match (l, r) with
      | Rp4.Ast.E_field fr, Rp4.Ast.E_const (c, _) -> Some (fr, op, c)
      | Rp4.Ast.E_const (c, _), Rp4.Ast.E_field fr -> Some (fr, flip_op op, c)
      | _ -> None
    in
    match refineable with
    | Some (fr, op, cst) -> (
      match fr with
      | Rp4.Ast.Hdr_field (h, _) when validity st h = Vno -> (
        (* reading an invalid header faults at runtime; keep the path
           but learn nothing *)
        match ceval ctx ~stage st (Rp4.Ast.C_rel (op, l, r)) with
        | Domain.False -> []
        | _ -> [ st ])
      | _ -> (
        let v = get_val ctx st fr in
        match Domain.assume_rel op v cst with
        | None -> []
        | Some v' ->
          let st = set_val st (field_key fr) v' in
          let st =
            match rel_atom fr op v' cst with
            | Some a -> { st with atoms = a :: st.atoms }
            | None -> st
          in
          [ st ]))
    | None -> (
      match ceval ctx ~stage st (Rp4.Ast.C_rel (op, l, r)) with
      | Domain.False -> []
      | _ -> [ st ]))

(* ------------------------------------------------------------------ *)
(* Table application                                                   *)
(* ------------------------------------------------------------------ *)

(* Three-valued test + refinement of one entry field-match against the
   abstract key value. Returns None when the match is infeasible, and
   otherwise the refined value plus an optional exported atom. *)
let match_field ctx st fr (fm : Table.Key.fmatch) :
    (state -> state) option =
  let f = field_key fr in
  let w = match field_width ctx fr with Some w -> w | None -> 64 in
  let v =
    match fr with
    | Rp4.Ast.Hdr_field (h, _) when validity st h = Vno -> Domain.top w
    | _ -> get_val ctx st fr
  in
  let exportable =
    match fr with
    | Rp4.Ast.Hdr_field _ -> true
    | Rp4.Ast.Meta_field mf -> mf = "in_port"
  in
  let refine v' atom =
    Some
      (fun st ->
        let st = set_val st f v' in
        match atom with
        | Some a when exportable -> { st with atoms = a :: st.atoms }
        | _ -> st)
  in
  match fm with
  | Table.Key.M_any -> Some (fun st -> st)
  | Table.Key.M_exact bits ->
    if w <= Domain.max_precise_width then (
      let c = Net.Bits.to_int64 bits in
      match Domain.meet v (Domain.const w c) with
      | None -> None
      | Some v' -> refine v' (Some (A_eq (f, c))))
    else refine v (Some (A_prefix (f, bits, w)))
  | Table.Key.M_lpm (bits, plen) ->
    if plen = 0 then Some (fun st -> st)
    else if w <= Domain.max_precise_width then (
      let p = Net.Bits.to_int64 bits in
      let host = Int64.sub (Int64.shift_left 1L (w - plen)) 1L in
      let lo = Int64.logand p (Int64.lognot host) in
      let hi = Int64.logor lo host in
      match Domain.interval v with
      | Some (vlo, vhi) when vhi < lo || vlo > hi -> None
      | _ -> (
        match
          Domain.assume_rel Rp4.Ast.Ge v lo
          |> Option.fold ~none:None ~some:(fun v -> Domain.assume_rel Rp4.Ast.Le v hi)
        with
        | None -> None
        | Some v' -> refine v' (Some (A_prefix (f, bits, plen)))))
    else refine v (Some (A_prefix (f, bits, plen)))
  | Table.Key.M_ternary (value, mask) ->
    if w <= Domain.max_precise_width then (
      let mv = Net.Bits.to_int64 mask in
      let cv = Int64.logand (Net.Bits.to_int64 value) mv in
      match v with
      | Domain.Bv { kmask; kval; _ }
        when Int64.logand (Int64.logand kmask mv) (Int64.logxor kval cv) <> 0L ->
        None (* a known bit disagrees with the ternary pattern *)
      | _ -> refine v None)
    else refine v None

let tag_of_entry (e : Table.entry) =
  match int_of_string_opt e.Table.action with Some t -> t | None -> 0

(* Apply table [tname] in [st]; returns the forked outcome states. *)
let apply_table ctx ~stage st tname : state list =
  ctx.applied <- SS.add tname ctx.applied;
  ctx.paths <- ctx.paths + 1;
  let prog = ctx.env.Rp4.Semantic.prog in
  match Rp4.Ast.find_table prog tname with
  | None -> [ { st with exec = Some Miss } ]
  | Some td ->
    (* Key reads of invalid headers do NOT fault at runtime (key_values
       misses instead), so they feed RP4W111 rather than RP4E033. *)
    let key_invalid =
      List.exists
        (fun (fr, _) ->
          match fr with
          | Rp4.Ast.Hdr_field (h, _) -> validity st h = Vno
          | Rp4.Ast.Meta_field _ -> false)
        td.Rp4.Ast.td_key
    in
    if key_invalid then
      (* key_values returns None at runtime: unconditional miss *)
      [ { st with exec = Some Miss } ]
    else begin
      ctx.key_ok <- SS.add tname ctx.key_ok;
      let concrete =
        match ctx.lookup tname with
        | Some tbl
          when Table.entry_count tbl > 0 && Table.entry_count tbl <= entry_fork_cap ->
          Some (Table.entries tbl)
        | _ -> None
      in
      match concrete with
      | Some entries ->
        let live =
          match Hashtbl.find_opt ctx.entry_live tname with
          | Some a -> a
          | None ->
            let a = Array.make (List.length entries) false in
            Hashtbl.replace ctx.entry_live tname a;
            a
        in
        let certain_hit = ref false in
        let hits =
          List.concat
            (List.mapi
               (fun i (e : Table.entry) ->
                 let refs = List.map fst td.Rp4.Ast.td_key in
                 if List.length refs <> List.length e.Table.matches then []
                 else
                   let rec feas acc = function
                     | [] -> Some (List.rev acc)
                     | (fr, fm) :: rest -> (
                       match match_field ctx st fr fm with
                       | None -> None
                       | Some f -> feas (f :: acc) rest)
                   in
                   match feas [] (List.combine refs e.Table.matches) with
                   | None -> []
                   | Some fs ->
                     if i < Array.length live then live.(i) <- true;
                     if
                       List.for_all
                         (fun fm -> fm = Table.Key.M_any)
                         e.Table.matches
                     then certain_hit := true;
                     let st' = List.fold_left (fun st f -> f st) st fs in
                     let args =
                       List.map
                         (fun b ->
                           let w = Net.Bits.width b in
                           if w <= Domain.max_precise_width then
                             Domain.const w (Net.Bits.to_int64 b)
                           else Domain.top w)
                         e.Table.args
                     in
                     [ { st' with exec = Some (Hit (tag_of_entry e, args)) } ])
               entries)
        in
        let misses =
          if !certain_hit && hits <> [] then []
          else [ { st with exec = Some Miss; atoms = A_miss tname :: st.atoms } ]
        in
        hits @ misses
      | None ->
        (* Unknown contents: any executor tag may fire, and a miss is
           always possible. *)
        let sd = Rp4.Ast.find_stage prog stage in
        let tags =
          match sd with
          | Some sd -> List.map fst sd.Rp4.Ast.st_executor.Rp4.Ast.ex_cases
          | None -> []
        in
        { st with exec = Some Miss; atoms = A_miss tname :: st.atoms }
        :: List.map (fun tag -> { st with exec = Some (Hit (tag, [])) }) tags
    end

(* ------------------------------------------------------------------ *)
(* Matcher / executor / stage                                          *)
(* ------------------------------------------------------------------ *)

(* Join a list of states into one (used when the path budget is hit).
   Atoms keep only the common suffix-insensitive intersection. *)
let join_states = function
  | [] -> None
  | [ st ] -> Some st
  | st0 :: rest ->
    let common l1 l2 = List.filter (fun a -> List.mem a l2) l1 in
    Some
      (List.fold_left
         (fun acc st ->
           {
             valids =
               SM.merge
                 (fun _ a b ->
                   match (a, b) with
                   | Some x, Some y when x = y -> Some x
                   | None, None -> None
                   | Some Vno, None | None, Some Vno -> Some Vno
                   | _ -> Some Vmaybe)
                 acc.valids st.valids;
             pkt_absent = SS.inter acc.pkt_absent st.pkt_absent;
             vals =
               SM.merge
                 (fun _ a b ->
                   match (a, b) with
                   | Some x, Some y -> Some (Domain.join x y)
                   | _ -> None)
                 acc.vals st.vals;
             atoms = common acc.atoms st.atoms;
             exec = (if acc.exec = st.exec then acc.exec else None);
             dropped = acc.dropped && st.dropped;
           })
         st0 rest)

let cap_states states =
  if List.length states <= max_paths then states
  else
    let rec take n = function
      | [] -> ([], [])
      | x :: xs ->
        if n = 0 then ([], x :: xs)
        else
          let a, b = take (n - 1) xs in
          (x :: a, b)
    in
    let keep, rest = take (max_paths / 2) states in
    (* Join the surplus, but never across different pending executor
       outcomes — a joined [exec] would skip actions a real path runs. *)
    let groups = Hashtbl.create 8 in
    List.iter
      (fun st ->
        let cur = try Hashtbl.find groups st.exec with Not_found -> [] in
        Hashtbl.replace groups st.exec (st :: cur))
      rest;
    Hashtbl.fold
      (fun _ sts acc -> match join_states sts with Some j -> j :: acc | None -> acc)
      groups keep

let branch_id stage path = Printf.sprintf "%s#%s" stage path

let rec walk_matcher ctx ~stage ~path states (m : Rp4.Ast.matcher) : state list =
  match m with
  | Rp4.Ast.M_nop -> states
  | Rp4.Ast.M_seq ms ->
    let _, states =
      List.fold_left
        (fun (i, states) m ->
          (i + 1, walk_matcher ctx ~stage ~path:(Printf.sprintf "%s.%d" path i) states m))
        (0, states) ms
    in
    states
  | Rp4.Ast.M_apply t ->
    cap_states (List.concat_map (fun st -> apply_table ctx ~stage st t) states)
  | Rp4.Ast.M_if (c, mt, me) ->
    let id = branch_id stage path in
    let cov =
      match Hashtbl.find_opt ctx.branches id with
      | Some c -> c
      | None ->
        let c =
          {
            seen = false;
            then_taken = false;
            else_taken = false;
            then_code = mt <> Rp4.Ast.M_nop;
            else_code = me <> Rp4.Ast.M_nop;
          }
        in
        Hashtbl.replace ctx.branches id c;
        Hashtbl.replace ctx.branch_info id stage;
        c
    in
    if states <> [] then cov.seen <- true;
    let thens = List.concat_map (fun st -> assume ctx ~stage st c true) states in
    let elses = List.concat_map (fun st -> assume ctx ~stage st c false) states in
    if thens <> [] then cov.then_taken <- true;
    if elses <> [] then cov.else_taken <- true;
    let thens = walk_matcher ctx ~stage ~path:(path ^ "t") (cap_states thens) mt in
    let elses = walk_matcher ctx ~stage ~path:(path ^ "e") (cap_states elses) me in
    cap_states (thens @ elses)

let exec_stmt ctx ~stage ~params ~pvals st (s : Rp4.Ast.stmt) : state =
  match s with
  | Rp4.Ast.S_noop -> st
  | Rp4.Ast.S_drop ->
    let st = set_val st "meta.drop" (Domain.const 1 1L) in
    { st with dropped = true }
  | Rp4.Ast.S_mark e ->
    let v = Domain.resize (eval_expr ctx ~stage st ~params ~pvals ~want:8 e) 8 in
    set_val st "meta.mark" v
  | Rp4.Ast.S_mark_exceed (_th, e) ->
    let v = Domain.resize (eval_expr ctx ~stage st ~params ~pvals ~want:8 e) 8 in
    let cur =
      match SM.find_opt "meta.mark" st.vals with Some v -> v | None -> Domain.unknown 8
    in
    set_val st "meta.mark" (Domain.join cur v)
  | Rp4.Ast.S_set_valid _ -> st (* runtime no-op: validity comes from parsing *)
  | Rp4.Ast.S_set_invalid h -> { st with valids = SM.add h Vno st.valids }
  | Rp4.Ast.S_assign (fr, e) -> (
    match field_width ctx fr with
    | None -> st
    | Some w ->
      let v = eval_expr ctx ~stage st ~params ~pvals ~want:w e in
      (* RP4E031: a literal that cannot fit the destination. *)
      (match e with
      | Rp4.Ast.E_const (c, _) when w <= Domain.max_precise_width ->
        let fits = c >= 0L && c <= Domain.mask_bits w in
        let site = Printf.sprintf "%s/%s=%Ld" stage (field_key fr) c in
        if (not fits) && not (Hashtbl.mem ctx.overflows site) then begin
          Hashtbl.replace ctx.overflows site ();
          diag ctx
            (Diag.error ~code:"RP4E031" ~pass ~stage ~subject:(field_key fr)
               (Printf.sprintf "constant %Ld does not fit bit<%d> %s" c w (field_key fr)))
        end
      | _ -> ());
      let st =
        match fr with
        | Rp4.Ast.Hdr_field (h, _) when validity st h = Vno -> st (* faults at runtime *)
        | _ -> set_val st (field_key fr) (Domain.resize v w)
      in
      st)

let run_action ctx ~stage st (ad : Rp4.Ast.action_decl) (args : Domain.t list) : state =
  let params = ad.Rp4.Ast.ad_params in
  let pvals =
    List.mapi
      (fun i (p, w) ->
        let v =
          match List.nth_opt args i with
          | Some v -> Domain.resize v w
          | None -> Domain.unknown w
        in
        (p, v))
      params
  in
  List.fold_left (fun st s -> exec_stmt ctx ~stage ~params ~pvals st s) st ad.Rp4.Ast.ad_body

let run_executor ctx ~stage (ex : Rp4.Ast.executor) st : state =
  let prog = ctx.env.Rp4.Semantic.prog in
  let run_names st names args =
    List.fold_left
      (fun st name ->
        match Rp4.Ast.find_action prog name with
        | Some ad -> run_action ctx ~stage st ad args
        | None -> st)
      st names
  in
  match st.exec with
  | None -> st
  | Some Miss -> run_names st ex.Rp4.Ast.ex_default []
  | Some (Hit (tag, args)) -> (
    match List.assoc_opt tag ex.Rp4.Ast.ex_cases with
    | Some names -> run_names st names args
    | None -> run_names st ex.Rp4.Ast.ex_default [])

let register_sites ctx stage m =
  List.iter
    (fun t ->
      if not (List.mem (stage, t) ctx.apply_sites) then
        ctx.apply_sites <- (stage, t) :: ctx.apply_sites)
    (Rp4.Ast.matcher_tables m)

(* Does this state's table outcome make the executor run an action with
   a body, i.e. one that can rewrite the packet or its metadata? States
   that pass through a stage without acting (guard false, or a NoAction
   outcome) are untouched by it, so they are not part of the stage's
   blast radius. *)
let state_can_act ctx (ex : Rp4.Ast.executor) st =
  let acts names =
    List.exists
      (fun name ->
        match Rp4.Ast.find_action ctx.env.Rp4.Semantic.prog name with
        | Some ad -> ad.Rp4.Ast.ad_body <> []
        | None -> false)
      names
  in
  match st.exec with
  | None -> false
  | Some Miss -> acts ex.Rp4.Ast.ex_default
  | Some (Hit (tag, _)) -> (
    match List.assoc_opt tag ex.Rp4.Ast.ex_cases with
    | Some names -> acts names
    | None -> acts ex.Rp4.Ast.ex_default)

let record_classes ctx stage states =
  let r =
    match Hashtbl.find_opt ctx.classes stage with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace ctx.classes stage r;
      r
  in
  List.iter
    (fun st ->
      let c = List.rev st.atoms in
      if not (List.mem c !r) then
        match Hashtbl.find_opt ctx.overcap stage with
        | Some o -> o := List.filter (fun a -> List.mem a c) !o
        | None ->
          if List.length !r < max_classes then r := c :: !r
          else
            (* The cap bounds memory, not coverage: surplus states fold
               into one widened class (atom intersection) so the list
               stays an over-approximation of all traffic reaching the
               stage — dropping them would let the blast radius lie. *)
            Hashtbl.replace ctx.overcap stage (ref c))
    states

let walk_stage ctx (sd : Rp4.Ast.stage_decl) states : state list =
  let stage = sd.Rp4.Ast.st_name in
  ctx.reached <- SS.add stage ctx.reached;
  register_sites ctx stage sd.Rp4.Ast.st_matcher;
  let states = List.map (fun st -> { st with exec = None }) states in
  let states =
    List.map
      (fun st -> List.fold_left (parse_attempt ctx) st sd.Rp4.Ast.st_parser)
      states
  in
  let states = walk_matcher ctx ~stage ~path:"" states sd.Rp4.Ast.st_matcher in
  record_classes ctx stage
    (List.filter (state_can_act ctx sd.Rp4.Ast.st_executor) states);
  let states = List.map (run_executor ctx ~stage sd.Rp4.Ast.st_executor) states in
  cap_states states

(* Walk one pipe in topological order; returns the leaf (pipe-exit)
   states of non-dropped packets. *)
let walk_pipe ctx (graph : Rp4bc.Graph.t) init_states : state list =
  match Rp4bc.Graph.entry graph with
  | None -> init_states
  | Some entry ->
    let reachable = Rp4bc.Graph.reachable graph in
    let order = List.filter (fun s -> List.mem s reachable) (Rp4bc.Graph.topo_order graph) in
    let incoming : (string, state list ref) Hashtbl.t = Hashtbl.create 16 in
    let get s =
      match Hashtbl.find_opt incoming s with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.replace incoming s r;
        r
    in
    (get entry) := init_states;
    let leaves = ref [] in
    List.iter
      (fun sname ->
        let states = !(get sname) in
        if states <> [] then
          match Rp4.Ast.find_stage ctx.env.Rp4.Semantic.prog sname with
          | None -> ()
          | Some sd ->
            let out = walk_stage ctx sd states in
            let alive = List.filter (fun st -> not st.dropped) out in
            let succs = Rp4bc.Graph.succs graph sname in
            if succs = [] then leaves := alive @ !leaves
            else
              List.iter
                (fun s -> if List.mem s reachable then
                    let r = get s in
                    r := cap_states (!r @ alive))
                succs)
      order;
    cap_states !leaves

(* ------------------------------------------------------------------ *)
(* Merged-group conflicting constant writes (RP4E032)                  *)
(* ------------------------------------------------------------------ *)

(* Constant writes of a stage: field-ref string -> possible constants.
   set_invalid counts as writing 0 to h.$valid (parsing may set it back
   to 1 in a later stage, but inside one merged group the compiler
   assumed the stages were independent). *)
let const_writes ctx (sd : Rp4.Ast.stage_decl) : (string * int64) list =
  let prog = ctx.env.Rp4.Semantic.prog in
  let of_action name =
    match Rp4.Ast.find_action prog name with
    | None -> []
    | Some ad ->
      List.filter_map
        (fun s ->
          match s with
          | Rp4.Ast.S_assign (fr, Rp4.Ast.E_const (c, _)) -> (
            match Rp4.Semantic.field_width ctx.env fr with
            | Some w when w <= Domain.max_precise_width ->
              Some (field_key fr, Int64.logand c (Domain.mask_bits w))
            | _ -> None)
          | Rp4.Ast.S_set_invalid h -> Some (Summary.valid_ref h, 0L)
          | Rp4.Ast.S_set_valid h -> Some (Summary.valid_ref h, 1L)
          | _ -> None)
        ad.Rp4.Ast.ad_body
  in
  let ex = sd.Rp4.Ast.st_executor in
  List.concat_map
    (fun (_, names) -> List.concat_map of_action names)
    ex.Rp4.Ast.ex_cases
  @ List.concat_map of_action ex.Rp4.Ast.ex_default

let check_merged_conflicts ctx (design : Rp4bc.Design.t) =
  let env = ctx.env in
  let prog = env.Rp4.Semantic.prog in
  List.iter
    (fun (_, stages, _) ->
      if List.length stages > 1 then
        let decls = List.filter_map (Rp4.Ast.find_stage prog) stages in
        let rec pairs = function
          | [] -> ()
          | a :: rest ->
            List.iter
              (fun b ->
                let wa = const_writes ctx a and wb = const_writes ctx b in
                let sa = Summary.of_stage env a and sb = Summary.of_stage env b in
                if not (Summary.exclusive env sa sb) then
                  List.iter
                    (fun (f, va) ->
                      List.iter
                        (fun (g, vb) ->
                          if f = g && not (Int64.equal va vb) then
                            diag ctx
                              (Diag.error ~code:"RP4E032" ~pass
                                 ~stage:
                                   (Printf.sprintf "%s+%s" a.Rp4.Ast.st_name
                                      b.Rp4.Ast.st_name)
                                 ~subject:f
                                 (Printf.sprintf
                                    "merged stages write conflicting constants %Ld and %Ld to %s"
                                    va vb f)))
                        wb)
                    wa)
              rest;
            pairs rest
        in
        pairs decls)
    (Rp4bc.Design.mapping design)

(* ------------------------------------------------------------------ *)
(* Flat fast-path prediction (RP4W113)                                 *)
(* ------------------------------------------------------------------ *)

(* Mirror of Ipsa.Flat's [Unsupported] sites: any expression, metadata
   slot, key or assignment the flat compiler refuses forces the hosting
   template back onto the interpreter. Kept in sync with flat.ml's
   [max_int_width] rules (wide header-to-header copies and wide header
   key fields are supported; everything else wider than 56 bits is
   not). *)
let flat_max_width = 56

let flat_prediction (env : Rp4.Semantic.env) ~(stages : Rp4.Ast.stage_decl list) :
    (string * string) list =
  let prog = env.Rp4.Semantic.prog in
  let fw fr = Rp4.Semantic.field_width env fr in
  let gaps = ref [] in
  let add stage reason =
    if not (List.exists (fun (s, _) -> s = stage) !gaps) then
      gaps := (stage, reason) :: !gaps
  in
  let rec scan_expr stage ~params ~want e =
    match e with
    | Rp4.Ast.E_const (_, Some w) when w > flat_max_width ->
      add stage (Printf.sprintf "constant wider than %d bits" flat_max_width)
    | Rp4.Ast.E_const (_, None) when want > flat_max_width ->
      add stage
        (Printf.sprintf "constant in a %d-bit context (max %d)" want flat_max_width)
    | Rp4.Ast.E_const _ -> ()
    | Rp4.Ast.E_field fr -> (
      match fw fr with
      | Some w when w > flat_max_width ->
        add stage
          (Printf.sprintf "read of %d-bit field %s" w (Rp4.Ast.field_ref_to_string fr))
      | _ -> ())
    | Rp4.Ast.E_param _ -> ()
    | Rp4.Ast.E_binop (_, a, b) ->
      let w =
        match a with
        | Rp4.Ast.E_const (_, Some w) -> w
        | Rp4.Ast.E_field fr -> ( match fw fr with Some w -> w | None -> want)
        | Rp4.Ast.E_param p -> (
          match List.assoc_opt p params with Some w -> w | None -> want)
        | _ -> want
      in
      if w > flat_max_width then
        add stage (Printf.sprintf "%d-bit arithmetic" w);
      scan_expr stage ~params ~want:w a;
      scan_expr stage ~params ~want:w b
  in
  let rec scan_cond stage c =
    match c with
    | Rp4.Ast.C_true | Rp4.Ast.C_valid _ -> ()
    | Rp4.Ast.C_not c -> scan_cond stage c
    | Rp4.Ast.C_and (a, b) | Rp4.Ast.C_or (a, b) ->
      scan_cond stage a;
      scan_cond stage b
    | Rp4.Ast.C_rel (_, a, b) ->
      let w =
        match a with
        | Rp4.Ast.E_field fr -> ( match fw fr with Some w -> w | None -> 64)
        | Rp4.Ast.E_const (_, Some w) -> w
        | _ -> 64
      in
      let w = if w > 0 then w else 64 in
      scan_expr stage ~params:[] ~want:w a;
      scan_expr stage ~params:[] ~want:w b
  in
  let scan_stmt stage ~params s =
    match s with
    | Rp4.Ast.S_noop | Rp4.Ast.S_drop | Rp4.Ast.S_set_valid _ | Rp4.Ast.S_set_invalid _
      ->
      ()
    | Rp4.Ast.S_mark e -> scan_expr stage ~params ~want:8 e
    | Rp4.Ast.S_mark_exceed (a, b) ->
      scan_expr stage ~params ~want:64 a;
      scan_expr stage ~params ~want:8 b
    | Rp4.Ast.S_assign (fr, e) -> (
      let w = match fw fr with Some w -> w | None -> 64 in
      if w <= flat_max_width then scan_expr stage ~params ~want:w e
      else
        (* wide destination: only a straight copy from a >= width header
           field stays on the flat path *)
        match (fr, e) with
        | Rp4.Ast.Hdr_field _, Rp4.Ast.E_field (Rp4.Ast.Hdr_field (h2, f2))
          when (match fw (Rp4.Ast.Hdr_field (h2, f2)) with
               | Some w2 -> w2 >= w
               | None -> false) ->
          ()
        | Rp4.Ast.Meta_field _, _ ->
          add stage (Printf.sprintf "%d-bit metadata slot write" w)
        | _ -> add stage (Printf.sprintf "%d-bit header write (not a straight copy)" w))
  in
  let rec scan_matcher stage m =
    match m with
    | Rp4.Ast.M_nop -> ()
    | Rp4.Ast.M_seq ms -> List.iter (scan_matcher stage) ms
    | Rp4.Ast.M_if (c, a, b) ->
      scan_cond stage c;
      scan_matcher stage a;
      scan_matcher stage b
    | Rp4.Ast.M_apply t -> (
      match Rp4.Ast.find_table prog t with
      | None -> ()
      | Some td ->
        List.iter
          (fun (fr, _) ->
            match fr with
            | Rp4.Ast.Meta_field _ -> (
              match fw fr with
              | Some w when w > flat_max_width ->
                add stage (Printf.sprintf "%d-bit metadata key field" w)
              | _ -> ())
            | Rp4.Ast.Hdr_field _ -> ())
          td.Rp4.Ast.td_key)
  in
  List.iter
    (fun (sd : Rp4.Ast.stage_decl) ->
      let stage = sd.Rp4.Ast.st_name in
      scan_matcher stage sd.Rp4.Ast.st_matcher;
      List.iter
        (fun (_, names) ->
          List.iter
            (fun n ->
              match Rp4.Ast.find_action prog n with
              | None -> ()
              | Some ad ->
                List.iter
                  (fun (p, w) ->
                    if w > flat_max_width then
                      add stage
                        (Printf.sprintf "%d-bit action parameter %s" w p))
                  ad.Rp4.Ast.ad_params;
                List.iter (scan_stmt stage ~params:ad.Rp4.Ast.ad_params) ad.Rp4.Ast.ad_body)
            names)
        (sd.Rp4.Ast.st_executor.Rp4.Ast.ex_cases
        @ [ (-1, sd.Rp4.Ast.st_executor.Rp4.Ast.ex_default) ]))
    stages;
  List.rev !gaps

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

type result = {
  r_diags : Diag.t list;
  r_reached : SS.t; (* stages with at least one feasible incoming path *)
  r_applied : SS.t; (* tables applied on at least one feasible path *)
  r_classes : (string * atom list list) list; (* stage -> traffic classes *)
  r_flat_gaps : (string * string) list; (* stage -> reason *)
  r_paths : int; (* exploration effort *)
}

let classes_for result stage =
  match List.assoc_opt stage result.r_classes with Some cs -> cs | None -> []

let initial_state (env : Rp4.Semantic.env) : state =
  (* User metadata zero-initializes; in_port is packet-controlled. *)
  let vals =
    Hashtbl.fold
      (fun name w acc ->
        let v =
          if name = "in_port" then Domain.unknown w else Domain.const w 0L
        in
        SM.add ("meta." ^ name) v acc)
      env.Rp4.Semantic.meta_widths SM.empty
  in
  {
    valids = SM.empty;
    pkt_absent = SS.empty;
    vals;
    atoms = [];
    exec = None;
    dropped = false;
  }

let run ?(tables = fun _ -> None) (design : Rp4bc.Design.t) : result =
  let env = design.Rp4bc.Design.env in
  let ctx =
    {
      env;
      lookup = tables;
      parents = build_parents env.Rp4.Semantic.prog;
      diags = [];
      reached = SS.empty;
      applied = SS.empty;
      apply_sites = [];
      key_ok = SS.empty;
      branches = Hashtbl.create 32;
      branch_info = Hashtbl.create 32;
      entry_live = Hashtbl.create 16;
      reads = Hashtbl.create 64;
      classes = Hashtbl.create 32;
      overcap = Hashtbl.create 8;
      overflows = Hashtbl.create 8;
      paths = 0;
    }
  in
  let init = initial_state env in
  let ingress_leaves = walk_pipe ctx design.Rp4bc.Design.igraph [ init ] in
  let egress_init =
    List.map (fun st -> { st with exec = None }) ingress_leaves
  in
  ignore (walk_pipe ctx design.Rp4bc.Design.egraph egress_init);
  (* Dead tables: an apply site in a reached stage that never executed
     feasibly. *)
  List.iter
    (fun (stage, t) ->
      if not (SS.mem t ctx.applied) then
        diag ctx
          (Diag.error ~code:"RP4E030" ~pass ~stage ~subject:t
             (Printf.sprintf "table %s is applied on no feasible path" t)))
    ctx.apply_sites;
  (* Always-miss tables: applied, but every application keyed on a
     header invalid on that path. *)
  SS.iter
    (fun t ->
      if not (SS.mem t ctx.key_ok) then
        let stage =
          List.assoc_opt t (List.map (fun (s, t) -> (t, s)) ctx.apply_sites)
        in
        diag ctx
          (Diag.warning ~code:"RP4W111" ~pass ?stage ~subject:t
             (Printf.sprintf
                "table %s keys on a header invalid on every reaching path: lookups always miss"
                t)))
    ctx.applied;
  (* Dead branches. *)
  Hashtbl.iter
    (fun id cov ->
      if cov.seen then begin
        let stage = Hashtbl.find_opt ctx.branch_info id in
        if cov.then_code && not cov.then_taken then
          diag ctx
            (Diag.warning ~code:"RP4W110" ~pass ?stage ~subject:id
               "then-branch unreachable: condition is false on every feasible path");
        if cov.else_code && not cov.else_taken then
          diag ctx
            (Diag.warning ~code:"RP4W110" ~pass ?stage ~subject:id
               "else-branch unreachable: condition is true on every feasible path")
      end)
    ctx.branches;
  (* Dead entries (only meaningful with concrete contents). *)
  Hashtbl.iter
    (fun t live ->
      Array.iteri
        (fun i ok ->
          if not ok then
            diag ctx
              (Diag.warning ~code:"RP4W112" ~pass ~subject:t
                 (Printf.sprintf "entry %d of table %s can never match on any feasible path"
                    i t)))
        live)
    ctx.entry_live;
  (* Definitely-invalid reads. *)
  Hashtbl.iter
    (fun _ (stage, f, ok) ->
      if not !ok then
        diag ctx
          (Diag.error ~code:"RP4E033" ~pass ~stage ~subject:f
             (Printf.sprintf "%s is read while its header is invalid on every feasible path"
                f)))
    ctx.reads;
  check_merged_conflicts ctx design;
  (* Flat fast-path prediction over the live stages. *)
  let live_stages =
    List.filter
      (fun (sd : Rp4.Ast.stage_decl) -> SS.mem sd.Rp4.Ast.st_name ctx.reached)
      (Rp4.Ast.all_stages env.Rp4.Semantic.prog)
  in
  let flat_gaps = flat_prediction env ~stages:live_stages in
  List.iter
    (fun (stage, reason) ->
      diag ctx
        (Diag.warning ~code:"RP4W113" ~pass ~stage
           (Printf.sprintf "outside the flat fast-path subset: %s" reason)))
    flat_gaps;
  {
    r_diags = List.rev ctx.diags;
    r_reached = ctx.reached;
    r_applied = ctx.applied;
    r_classes =
      Hashtbl.fold
        (fun s r acc ->
          let over =
            match Hashtbl.find_opt ctx.overcap s with
            | Some o -> [ !o ]
            | None -> []
          in
          (s, List.rev !r @ over) :: acc)
        ctx.classes [];
    r_flat_gaps = flat_gaps;
    r_paths = ctx.paths;
  }
