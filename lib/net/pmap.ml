(* Parsed-header map: which header instances have been located in a packet
   and at which bit offset.

   In IPSA the map is built incrementally as stages parse headers on
   demand and travels with the packet so later stages never re-parse
   (Sec. 2.1 of the paper). In the PISA model the front parser fills the
   whole map before the pipeline.

   The map is keyed by *interned* header ids ([Intern.id] of the header
   name, cached on [Hdrdef.t]), so code holding compile-time ids looks
   instances up by integer — no string hashing. The string-keyed accessors
   intern on entry and serve the reference interpreter and tests. *)

(* The reference interpreter calls the string-keyed accessors with header
   names taken straight from the AST, which are physically shared across
   packets — so a one-entry memo keyed by physical equality turns the
   per-call [Intern.id] string hash into a pointer compare. *)
let memo_name = ref ""
let memo_id = ref (-1)

let intern_cached name =
  if name == !memo_name then !memo_id
  else begin
    let hid = Intern.id name in
    memo_name := name;
    memo_id := hid;
    hid
  end

type inst = { def : Hdrdef.t; mutable bit_off : int; mutable valid : bool }

type t = (int, inst) Hashtbl.t

let create () : t = Hashtbl.create 8

let add t ~(def : Hdrdef.t) ~bit_off =
  Hashtbl.replace t def.Hdrdef.id { def; bit_off; valid = true }

let invalidate_id t hid =
  match Hashtbl.find_opt t hid with
  | Some inst -> inst.valid <- false
  | None -> ()

let invalidate t name = invalidate_id t (Intern.id name)

let remove t name = Hashtbl.remove t (Intern.id name)

let find_id t hid =
  match Hashtbl.find_opt t hid with
  | Some inst when inst.valid -> Some inst
  | _ -> None

let find t name = find_id t (intern_cached name)

let is_valid_id t hid = find_id t hid <> None
let is_valid t name = find t name <> None

(* Sorted, so traces and stats output list headers deterministically. *)
let names t =
  Hashtbl.fold
    (fun _ inst acc -> if inst.valid then inst.def.Hdrdef.name :: acc else acc)
    t []
  |> List.sort compare

(* Absolute bit offset of [hdr.field] in the packet. *)
let field_pos t ~hdr ~field =
  match find t hdr with
  | None -> None
  | Some inst ->
    (match Hdrdef.field_offset inst.def field with
    | None -> None
    | Some (off, width) -> Some (inst.bit_off + off, width))

let get_field pkt t ~hdr ~field =
  match field_pos t ~hdr ~field with
  | Some (off, width) -> Some (Packet.get_bits pkt ~off ~width)
  | None -> None

let get_field_exn pkt t ~hdr ~field =
  match get_field pkt t ~hdr ~field with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Pmap.get_field: %s.%s not parsed/valid" hdr field)

let set_field pkt t ~hdr ~field v =
  match field_pos t ~hdr ~field with
  | Some (off, width) -> Packet.set_bits pkt ~off (Bits.resize v width)
  | None -> invalid_arg (Printf.sprintf "Pmap.set_field: %s.%s not parsed/valid" hdr field)

(* --- id fast path: offsets pre-resolved at link time ----------------- *)

let get_field_id pkt t ~hid ~off ~width =
  match find_id t hid with
  | Some inst -> Some (Packet.get_bits pkt ~off:(inst.bit_off + off) ~width)
  | None -> None

(* [v] must already be resized to the field width; returns [false] when
   the instance is absent/invalid (caller decides how to report). *)
let set_field_id pkt t ~hid ~off v =
  match find_id t hid with
  | Some inst ->
    Packet.set_bits pkt ~off:(inst.bit_off + off) v;
    true
  | None -> false

(* Shift all instances at or beyond [bit_off] by [delta] bits; used when
   bytes are inserted into or removed from the packet buffer. *)
let shift_from t ~bit_off ~delta =
  Hashtbl.iter
    (fun _ inst -> if inst.bit_off >= bit_off then inst.bit_off <- inst.bit_off + delta)
    t

let copy (t : t) : t =
  let c = Hashtbl.create (Hashtbl.length t) in
  Hashtbl.iter
    (fun k inst -> Hashtbl.replace c k { inst with bit_off = inst.bit_off })
    t;
  c
