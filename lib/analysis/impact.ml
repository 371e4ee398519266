(* Patch blast radius: which traffic can an in-situ update affect?

   Given the pre-update and post-update designs (and, when available,
   the live table contents), the pass

     1. diffs the two designs — stages added, removed or edited, stage
        graph connectivity changes, tables gained or freed;
     2. collects, from the symbolic walker, the traffic classes (path
        constraint lists) under which a packet reaches any changed
        stage, in whichever design contains it;
     3. renders the union as the patch's blast radius.

   Everything outside the radius is provably unaffected: the update may
   not change the forwarding behaviour of any packet matching no class.
   The radius is an over-approximation — classes with unknown table
   outcomes stay in — so it errs toward refusing a patch, never toward
   letting an unsafe one through.

   Sessions refuse patches whose radius intersects a protected prefix
   set ([intersects]); the fabric's rollout gate checks that packets
   outside the radius ([covers_packet] = false) forward byte-identically
   across a rollout. *)

module SS = Set.Make (String)
module J = Prelude.Json

type tclass = {
  tc_stage : string; (* the changed stage this class reaches *)
  tc_design : string; (* "old" | "new" *)
  tc_atoms : Symexec.atom list;
}

type report = {
  i_added : string list; (* stages only in the patched design *)
  i_removed : string list;
  i_edited : string list; (* declaration or connectivity changed *)
  i_tables_added : string list;
  i_tables_removed : string list;
  i_classes : tclass list;
  i_total : bool; (* an unconstrained class: the radius is all traffic *)
  i_paths : int; (* symbolic exploration effort *)
}

let radius_size report = List.length report.i_classes

(* ------------------------------------------------------------------ *)
(* Design diff                                                         *)
(* ------------------------------------------------------------------ *)

let stage_names (d : Rp4bc.Design.t) =
  List.map (fun (s : Rp4.Ast.stage_decl) -> s.Rp4.Ast.st_name)
    (Rp4.Ast.all_stages d.Rp4bc.Design.prog)

(* A stage's behaviour-relevant signature: its declaration plus its
   position in both pipes (predecessors and successors). *)
let stage_sig (d : Rp4bc.Design.t) name =
  let decl = Rp4.Ast.find_stage d.Rp4bc.Design.prog name in
  let around g =
    ( List.sort String.compare (Rp4bc.Graph.preds g name),
      List.sort String.compare (Rp4bc.Graph.succs g name) )
  in
  (decl, around d.Rp4bc.Design.igraph, around d.Rp4bc.Design.egraph)

let diff ~(old_design : Rp4bc.Design.t) ~(design : Rp4bc.Design.t) =
  let old_names = SS.of_list (stage_names old_design) in
  let new_names = SS.of_list (stage_names design) in
  let added = SS.elements (SS.diff new_names old_names) in
  let removed = SS.elements (SS.diff old_names new_names) in
  let shared = SS.inter old_names new_names in
  let edited =
    SS.elements
      (SS.filter (fun s -> stage_sig old_design s <> stage_sig design s) shared)
  in
  (* Stages whose own behaviour changed, as opposed to splice points
     whose only change is a rewired edge. A splice point's affected
     traffic is exactly the traffic reaching the added/removed stage
     next to it, so only declaration edits contribute classes. *)
  let edited_decl =
    List.filter
      (fun s ->
        Rp4.Ast.find_stage old_design.Rp4bc.Design.prog s
        <> Rp4.Ast.find_stage design.Rp4bc.Design.prog s)
      edited
  in
  let old_tables = SS.of_list (Rp4bc.Design.live_tables old_design) in
  let new_tables = SS.of_list (Rp4bc.Design.live_tables design) in
  ( added,
    removed,
    edited,
    edited_decl,
    SS.elements (SS.diff new_tables old_tables),
    SS.elements (SS.diff old_tables new_tables) )

(* ------------------------------------------------------------------ *)
(* Radius construction                                                 *)
(* ------------------------------------------------------------------ *)

let analyze ?tables ?old_tables ~(old_design : Rp4bc.Design.t)
    ~(design : Rp4bc.Design.t) () : report =
  let added, removed, edited, edited_decl, t_added, t_removed =
    diff ~old_design ~design
  in
  let new_res = Symexec.run ?tables design in
  let old_res = Symexec.run ?tables:old_tables old_design in
  let classes_of res design_tag stages =
    List.concat_map
      (fun stage ->
        List.map
          (fun atoms -> { tc_stage = stage; tc_design = design_tag; tc_atoms = atoms })
          (Symexec.classes_for res stage))
      stages
  in
  let classes =
    classes_of new_res "new" (added @ edited_decl)
    @ classes_of old_res "old" (removed @ edited_decl)
  in
  (* Dedup identical constraint lists (stages often share reach paths). *)
  let classes =
    List.fold_left
      (fun acc c ->
        if List.exists (fun c' -> c'.tc_atoms = c.tc_atoms) acc then acc else c :: acc)
      [] classes
    |> List.rev
  in
  let total =
    List.exists (fun c -> c.tc_atoms = []) classes
    || (classes = [] && (added @ removed @ edited) <> [])
  in
  {
    i_added = added;
    i_removed = removed;
    i_edited = edited;
    i_tables_added = t_added;
    i_tables_removed = t_removed;
    i_classes = classes;
    i_total = total;
    i_paths = new_res.Symexec.r_paths + old_res.Symexec.r_paths;
  }

(* ------------------------------------------------------------------ *)
(* Protected prefixes                                                  *)
(* ------------------------------------------------------------------ *)

type prefix = {
  pf_field : string; (* e.g. "ipv4.dst_addr" *)
  pf_bits : Net.Bits.t; (* full-width address *)
  pf_plen : int;
}

(* "ipv4.dst_addr=10.1.0.0/16", or a bare "10.1.0.0/16" /
   "2001:db8::/32" defaulting to ipv4.dst_addr / ipv6.dst_addr. *)
let prefix_of_string s : (prefix, string) result =
  let field, addr =
    match String.index_opt s '=' with
    | Some i ->
      (Some (String.sub s 0 i), String.sub s (i + 1) (String.length s - i - 1))
    | None -> (None, s)
  in
  match String.split_on_char '/' addr with
  | [ a; plen ] -> (
    match int_of_string_opt plen with
    | None -> Error (Printf.sprintf "bad prefix length in %s" s)
    | Some plen -> (
      let v6 = String.contains a ':' in
      try
        let bits =
          if v6 then Net.Bits.of_string ~width:128 (Net.Addr.Ipv6.to_raw (Net.Addr.Ipv6.of_string_exn a))
          else Net.Addr.Ipv4.to_bits (Net.Addr.Ipv4.of_string_exn a)
        in
        let width = Net.Bits.width bits in
        if plen < 0 || plen > width then
          Error (Printf.sprintf "prefix length %d out of range for %s" plen a)
        else
          let field =
            match field with
            | Some f -> f
            | None -> if v6 then "ipv6.dst_addr" else "ipv4.dst_addr"
          in
          Ok { pf_field = field; pf_bits = bits; pf_plen = plen }
      with Invalid_argument e -> Error e))
  | _ -> Error (Printf.sprintf "expected [field=]addr/plen, got %s" s)

let prefix_to_string p =
  Printf.sprintf "%s=%s/%d" p.pf_field (Net.Bits.to_hex p.pf_bits) p.pf_plen

let header_of_field f =
  match String.index_opt f '.' with Some i -> String.sub f 0 i | None -> f

let prefixes_disjoint (a : Net.Bits.t) la (b : Net.Bits.t) lb =
  let l = min la lb in
  l > 0
  && Net.Bits.width a = Net.Bits.width b
  && not
       (Net.Bits.equal
          (Net.Bits.slice a ~off:0 ~len:l)
          (Net.Bits.slice b ~off:0 ~len:l))

let int64_in_prefix v (bits : Net.Bits.t) plen =
  let w = Net.Bits.width bits in
  if w > Domain.max_precise_width then false
  else
    let p = Net.Bits.to_int64 bits in
    let host = Int64.sub (Int64.shift_left 1L (w - plen)) 1L in
    let lo = Int64.logand p (Int64.lognot host) in
    let hi = Int64.logor lo host in
    v >= lo && v <= hi

(* Does one traffic class possibly contain an address inside [p]? A
   class intersects unless one of its atoms contradicts the prefix; a
   class with no constraint on the protected field intersects by
   over-approximation. *)
let class_intersects (c : tclass) (p : prefix) =
  let hdr = header_of_field p.pf_field in
  not
    (List.exists
       (fun a ->
         match a with
         | Symexec.A_valid (h, false) when h = hdr -> true (* header absent *)
         | Symexec.A_prefix (f, bits, plen) when f = p.pf_field ->
           prefixes_disjoint bits plen p.pf_bits p.pf_plen
         | Symexec.A_eq (f, v) when f = p.pf_field ->
           not (int64_in_prefix v p.pf_bits p.pf_plen)
         | Symexec.A_range (f, lo, hi) when f = p.pf_field ->
           let w = Net.Bits.width p.pf_bits in
           w <= Domain.max_precise_width
           &&
           let pv = Net.Bits.to_int64 p.pf_bits in
           let host = Int64.sub (Int64.shift_left 1L (w - p.pf_plen)) 1L in
           let plo = Int64.logand pv (Int64.lognot host) in
           let phi = Int64.logor plo host in
           hi < plo || lo > phi
         | _ -> false)
       c.tc_atoms)

let intersects (report : report) (p : prefix) =
  report.i_total || List.exists (fun c -> class_intersects c p) report.i_classes

(* ------------------------------------------------------------------ *)
(* Concrete packet classification                                      *)
(* ------------------------------------------------------------------ *)

(* A miniature concrete run of the implicit-parser chain: headers in
   parse order from bit 0, each selector dispatching on its link tags —
   the same walk Parse_engine performs, over the program AST instead of
   the device registry. Produces each on-chain header's bit offset. *)
let parse_packet (env : Rp4.Semantic.env) (pkt : Net.Packet.t) :
    (string * int) list =
  let prog = env.Rp4.Semantic.prog in
  let headers = prog.Rp4.Ast.headers in
  let children =
    List.concat_map
      (fun (h : Rp4.Ast.header_decl) ->
        match h.Rp4.Ast.hd_parser with
        | Some ip -> List.map (fun (_, n) -> n) ip.Rp4.Ast.ip_cases
        | None -> [])
      headers
  in
  let root =
    List.find_opt
      (fun (h : Rp4.Ast.header_decl) -> not (List.mem h.Rp4.Ast.hd_name children))
      headers
  in
  let width_of (h : Rp4.Ast.header_decl) =
    List.fold_left (fun acc f -> acc + f.Rp4.Ast.fd_width) 0 h.Rp4.Ast.hd_fields
  in
  let field_off (h : Rp4.Ast.header_decl) name =
    let rec go off = function
      | [] -> None
      | (f : Rp4.Ast.field_decl) :: rest ->
        if f.Rp4.Ast.fd_name = name then Some (off, f.Rp4.Ast.fd_width)
        else go (off + f.Rp4.Ast.fd_width) rest
    in
    go 0 h.Rp4.Ast.hd_fields
  in
  let len_bits = 8 * Net.Packet.length pkt in
  let rec walk acc (h : Rp4.Ast.header_decl) off budget =
    if budget <= 0 || off + width_of h > len_bits then acc
    else
      let acc = (h.Rp4.Ast.hd_name, off) :: acc in
      match h.Rp4.Ast.hd_parser with
      | None | Some { Rp4.Ast.ip_sel = []; _ } -> acc
      | Some ip -> (
        let sel =
          List.filter_map
            (fun s ->
              match field_off h s with
              | Some (fo, fw) -> Some (Net.Packet.get_bits pkt ~off:(off + fo) ~width:fw)
              | None -> None)
            ip.Rp4.Ast.ip_sel
        in
        match sel with
        | [] -> acc
        | parts -> (
          let tag = Net.Bits.concat_list parts in
          let tag_v =
            if Net.Bits.width tag <= Domain.max_precise_width then
              Some (Net.Bits.to_int64 tag)
            else None
          in
          let next =
            List.find_opt
              (fun (t, _) ->
                match tag_v with Some v -> Int64.equal t v | None -> false)
              ip.Rp4.Ast.ip_cases
          in
          match next with
          | None -> acc
          | Some (_, nname) -> (
            match Rp4.Ast.find_header prog nname with
            | None -> acc
            | Some nh -> walk acc nh (off + width_of h) (budget - 1))))
  in
  match root with None -> [] | Some r -> walk [] r 0 32

(* Extract the concrete value of "h.f" from a parsed packet. *)
let field_bits env parsed pkt f : Net.Bits.t option =
  match String.index_opt f '.' with
  | None -> None
  | Some i -> (
    let h = String.sub f 0 i and fname = String.sub f (i + 1) (String.length f - i - 1) in
    match List.assoc_opt h parsed with
    | None -> None
    | Some off -> (
      match Rp4.Ast.find_header env.Rp4.Semantic.prog h with
      | None -> None
      | Some hd ->
        let rec go o = function
          | [] -> None
          | (fd : Rp4.Ast.field_decl) :: rest ->
            if fd.Rp4.Ast.fd_name = fname then
              Some (Net.Packet.get_bits pkt ~off:(off + o) ~width:fd.Rp4.Ast.fd_width)
            else go (o + fd.Rp4.Ast.fd_width) rest
        in
        go 0 hd.Rp4.Ast.hd_fields))

let atom_holds env parsed pkt ~in_port (a : Symexec.atom) =
  match a with
  | Symexec.A_valid (h, b) -> List.mem_assoc h parsed = b
  | Symexec.A_miss _ -> true (* table outcome: conservatively satisfied *)
  | Symexec.A_eq (f, v) | Symexec.A_ne (f, v) -> (
    let eq =
      if f = "meta.in_port" then Some (Int64.equal (Int64.of_int in_port) v)
      else
        match field_bits env parsed pkt f with
        | Some bits when Net.Bits.width bits <= Domain.max_precise_width ->
          Some (Int64.equal (Net.Bits.to_int64 bits) v)
        | _ -> None
    in
    match (eq, a) with
    | Some e, Symexec.A_eq _ -> e
    | Some e, Symexec.A_ne _ -> not e
    | None, _ -> true (* unknown: conservatively satisfied *)
    | _ -> true)
  | Symexec.A_range (f, lo, hi) -> (
    let v =
      if f = "meta.in_port" then Some (Int64.of_int in_port)
      else
        match field_bits env parsed pkt f with
        | Some bits when Net.Bits.width bits <= Domain.max_precise_width ->
          Some (Net.Bits.to_int64 bits)
        | _ -> None
    in
    match v with Some v -> v >= lo && v <= hi | None -> true)
  | Symexec.A_prefix (f, bits, plen) -> (
    match field_bits env parsed pkt f with
    | Some v when Net.Bits.width v = Net.Bits.width bits ->
      plen = 0
      || Net.Bits.equal (Net.Bits.slice v ~off:0 ~len:plen)
           (Net.Bits.slice bits ~off:0 ~len:plen)
    | _ -> true)

(* Is this concrete packet inside the blast radius? Over-approximating:
   any class all of whose atoms hold (or cannot be evaluated) covers
   the packet. *)
let covers_packet (report : report) ~(env : Rp4.Semantic.env) ?(in_port = 0)
    (pkt : Net.Packet.t) : bool =
  report.i_total
  || (report.i_classes <> []
     &&
     let parsed = parse_packet env pkt in
     List.exists
       (fun c -> List.for_all (atom_holds env parsed pkt ~in_port) c.tc_atoms)
       report.i_classes)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let class_to_string c =
  let atoms =
    match c.tc_atoms with
    | [] -> "any packet"
    | atoms -> String.concat " && " (List.map Symexec.atom_to_string atoms)
  in
  Printf.sprintf "-> %s (%s design): %s" c.tc_stage c.tc_design atoms

let summary report =
  let b = Buffer.create 256 in
  let addl what = function
    | [] -> ()
    | l -> Buffer.add_string b (Printf.sprintf "%s: %s\n" what (String.concat ", " l))
  in
  addl "stages added" report.i_added;
  addl "stages removed" report.i_removed;
  addl "stages edited" report.i_edited;
  addl "tables added" report.i_tables_added;
  addl "tables freed" report.i_tables_removed;
  Buffer.add_string b
    (Printf.sprintf "blast radius: %d traffic class(es)%s\n" (radius_size report)
       (if report.i_total then " (TOTAL: all traffic)" else ""));
  List.iter (fun c -> Buffer.add_string b ("  " ^ class_to_string c ^ "\n")) report.i_classes;
  Buffer.contents b

let to_json report =
  J.Obj
    [
      ("stages_added", J.List (List.map (fun s -> J.String s) report.i_added));
      ("stages_removed", J.List (List.map (fun s -> J.String s) report.i_removed));
      ("stages_edited", J.List (List.map (fun s -> J.String s) report.i_edited));
      ("tables_added", J.List (List.map (fun s -> J.String s) report.i_tables_added));
      ("tables_freed", J.List (List.map (fun s -> J.String s) report.i_tables_removed));
      ("total", J.Bool report.i_total);
      ("paths", J.Int report.i_paths);
      ( "classes",
        J.List
          (List.map
             (fun c ->
               J.Obj
                 [
                   ("stage", J.String c.tc_stage);
                   ("design", J.String c.tc_design);
                   ("atoms", J.List (List.map Symexec.atom_to_json c.tc_atoms));
                 ])
             report.i_classes) );
    ]
