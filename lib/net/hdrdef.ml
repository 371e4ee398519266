(* Program-defined header types and the header-linkage graph.

   In rP4 a header declares its fields and an *implicit parser*: the
   field(s) whose value selects the next header, plus tag→header cases
   ("links"). IPSA's distributed parsing walks this structure on demand;
   the controller can rewrite the linkage at runtime with
   [link_header]/[unlink_header] (e.g. splicing SRH between IPv6 and the
   inner IP header, Fig. 5(c) of the paper). *)

type field = { f_name : string; f_width : int }

type t = {
  name : string;
  id : int; (* interned [name]; keys the id-indexed parsed-header map *)
  fields : field list;
  width : int; (* total header width in bits *)
  sel_fields : string list; (* fields forming the next-header tag, [] = leaf *)
}

let make ~name ~fields ~sel_fields =
  let width = List.fold_left (fun acc f -> acc + f.f_width) 0 fields in
  List.iter
    (fun s ->
      if not (List.exists (fun f -> f.f_name = s) fields) then
        invalid_arg (Printf.sprintf "Hdrdef.make: selector field %s.%s undeclared" name s))
    sel_fields;
  { name; id = Intern.id name; fields; width; sel_fields }

(* Bit offset and width of a field inside the header. *)
let field_offset t fname =
  let rec go off = function
    | [] -> None
    | f :: rest -> if f.f_name = fname then Some (off, f.f_width) else go (off + f.f_width) rest
  in
  go 0 t.fields

let field_offset_exn t fname =
  match field_offset t fname with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Hdrdef: no field %s.%s" t.name fname)

let has_field t fname = field_offset t fname <> None

(* Width of the concatenated selector fields. *)
let sel_width t =
  List.fold_left (fun acc s -> acc + snd (field_offset_exn t s)) 0 t.sel_fields

(* ------------------------------------------------------------------ *)
(* Registry: header definitions + mutable linkage                      *)
(* ------------------------------------------------------------------ *)

type link = { pre : string; tag : Bits.t; next : string }

type registry = {
  defs : (string, t) Hashtbl.t;
  mutable links : link list;
  mutable first : string option; (* header type parsed at packet start *)
}

let create_registry () = { defs = Hashtbl.create 16; links = []; first = None }

let copy_registry r =
  { defs = Hashtbl.copy r.defs; links = r.links; first = r.first }

let add_def r def =
  Hashtbl.replace r.defs def.name def;
  if r.first = None then r.first <- Some def.name

let set_first r name = r.first <- Some name

let find r name = Hashtbl.find_opt r.defs name

let find_exn r name =
  match find r name with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Hdrdef: unknown header type %s" name)

let mem r name = Hashtbl.mem r.defs name

(* Sorted by name so parse graphs and stats listings are deterministic. *)
let defs r =
  Hashtbl.fold (fun _ d acc -> d :: acc) r.defs []
  |> List.sort (fun a b -> compare a.name b.name)

(* Runtime header linkage: [link_header --pre X --next Y --tag v]. The tag
   width is taken from X's selector fields. *)
let link r ~pre ~tag ~next =
  let pdef = find_exn r pre in
  if sel_width pdef = 0 then
    invalid_arg (Printf.sprintf "Hdrdef.link: header %s has no selector fields" pre);
  if not (mem r next) then
    invalid_arg (Printf.sprintf "Hdrdef.link: unknown next header %s" next);
  let tag = Bits.resize tag (sel_width pdef) in
  (* Replace an existing link with the same (pre, tag). *)
  let links =
    List.filter (fun l -> not (l.pre = pre && Bits.equal l.tag tag)) r.links
  in
  r.links <- { pre; tag; next } :: links

let unlink r ~pre ~next =
  r.links <- List.filter (fun l -> not (l.pre = pre && l.next = next)) r.links

let links_of r pre = List.filter (fun l -> l.pre = pre) r.links

(* The header type following [pre] when its selector value is [tag]. *)
let next_header r ~pre ~tag =
  let pdef = find_exn r pre in
  let tag = Bits.resize tag (sel_width pdef) in
  List.find_map
    (fun l -> if l.pre = pre && Bits.equal l.tag tag then Some l.next else None)
    r.links

(* All header type names reachable from [first] through links; the parse
   graph of the current program. *)
let reachable r =
  match r.first with
  | None -> []
  | Some first ->
    let seen = Hashtbl.create 8 in
    let rec go name acc =
      if Hashtbl.mem seen name then acc
      else begin
        Hashtbl.add seen name ();
        let succs = List.map (fun l -> l.next) (links_of r name) in
        List.fold_left (fun acc s -> go s acc) (name :: acc) succs
      end
    in
    List.rev (go first [])
