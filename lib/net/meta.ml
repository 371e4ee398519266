(* Per-packet program metadata.

   rP4 programs declare metadata structs (the [structs] section of the
   EBNF); a [Meta.t] instance holds those fields for one packet, plus the
   intrinsic fields every architecture provides. Reads of never-written
   fields yield zero, as on hardware after reset.

   Field declarations live in a [Layout.t] — name → dense slot index plus
   width. A device builds one layout per program at configuration time
   ("downloading template parameters"), and every packet then carries just
   a dense [Bits.t array] indexed by slot. The string-keyed accessors
   serve configuration-time code, the reference interpreter and tests;
   the [_slot] accessors take indices resolved once (the intrinsic slots
   below), and the compiled flat path keeps its own unboxed slot array
   ([Flatpkt]) laid out by the same [Layout.t]. *)

(* Intrinsic metadata present in every pipeline, in slot order. *)
let intrinsic = [
  ("in_port", 16);
  ("out_port", 16);
  ("drop", 1);
  ("mark", 8);
  ("switch_tag", 16);
]

(* Slots of the intrinsic fields — fixed because every layout declares
   them first, in [intrinsic] order. *)
let slot_in_port = 0
let slot_out_port = 1
let slot_drop = 2
let slot_mark = 3
let slot_switch_tag = 4

module Layout = struct
  type t = {
    by_name : (string, int) Hashtbl.t;
    mutable names : string array;
    mutable widths : int array;
    mutable n : int;
    mutable zeros : Bits.t array option; (* cached per-slot zero values *)
  }

  let grow t =
    if t.n >= Array.length t.names then begin
      let cap = max 8 (2 * Array.length t.names) in
      let names = Array.make cap "" and widths = Array.make cap 0 in
      Array.blit t.names 0 names 0 t.n;
      Array.blit t.widths 0 widths 0 t.n;
      t.names <- names;
      t.widths <- widths
    end

  (* Declaring an already-present field replaces its width, mirroring the
     pre-layout Hashtbl semantics. *)
  let declare t name width =
    t.zeros <- None;
    match Hashtbl.find_opt t.by_name name with
    | Some slot -> t.widths.(slot) <- width
    | None ->
      grow t;
      t.names.(t.n) <- name;
      t.widths.(t.n) <- width;
      Hashtbl.replace t.by_name name t.n;
      t.n <- t.n + 1

  let create () =
    let t =
      {
        by_name = Hashtbl.create 16;
        names = Array.make 16 "";
        widths = Array.make 16 0;
        n = 0;
        zeros = None;
      }
    in
    List.iter (fun (n, w) -> declare t n w) intrinsic;
    t

  let slot t name = Hashtbl.find_opt t.by_name name
  let size t = t.n
  let width t slot = t.widths.(slot)
  let name t slot = t.names.(slot)
  let declared t name = Hashtbl.mem t.by_name name

  (* Sorted for deterministic listings in traces and stats output. *)
  let fields t =
    List.init t.n (fun i -> (t.names.(i), t.widths.(i)))
    |> List.sort compare

  let copy t =
    {
      by_name = Hashtbl.copy t.by_name;
      names = Array.copy t.names;
      widths = Array.copy t.widths;
      n = t.n;
      zeros = t.zeros;
    }

  (* One shared zero value per slot; [Bits.t] is immutable, so fresh metas
     can alias these until first write. *)
  let zeros t =
    match t.zeros with
    | Some z when Array.length z = t.n -> z
    | _ ->
      let z = Array.init t.n (fun i -> Bits.zero t.widths.(i)) in
      t.zeros <- Some z;
      z
end

type t = { layout : Layout.t; mutable values : Bits.t array }

(* Share a program-wide layout: the per-packet cost is one array copy. *)
let create_in layout = { layout; values = Array.copy (Layout.zeros layout) }

(* Private layout holding only the intrinsics; configuration-time callers
   ([declare]) can still extend it per instance. *)
let create () = create_in (Layout.create ())

let layout t = t.layout

(* Grow [values] after a post-creation [declare]. *)
let ensure t =
  let n = Layout.size t.layout in
  if Array.length t.values < n then begin
    let old = t.values in
    let len = Array.length old in
    t.values <-
      Array.init n (fun i ->
          if i < len then old.(i) else Bits.zero (Layout.width t.layout i))
  end

let declare t name width = Layout.declare t.layout name width
let declared t name = Layout.declared t.layout name

let width_of t name =
  match Layout.slot t.layout name with
  | Some s -> Some (Layout.width t.layout s)
  | None -> None

(* --- slot accessors: indices resolved once, no string hashing -------- *)

let get_slot t s =
  if s < Array.length t.values then t.values.(s)
  else Bits.zero (Layout.width t.layout s)

let set_slot t s v =
  ensure t;
  t.values.(s) <- Bits.resize v (Layout.width t.layout s)

let get_int_slot t s = Bits.to_int (get_slot t s)

let set_int_slot t s v =
  ensure t;
  t.values.(s) <- Bits.of_int ~width:(Layout.width t.layout s) v

(* --- name accessors: configuration-time and reference interpreter --- *)

let get t name =
  match Layout.slot t.layout name with
  | Some s -> get_slot t s
  | None -> invalid_arg (Printf.sprintf "Meta.get: undeclared field meta.%s" name)

let set t name v =
  match Layout.slot t.layout name with
  | Some s -> set_slot t s v
  | None -> invalid_arg (Printf.sprintf "Meta.set: undeclared field meta.%s" name)

let get_int t name = Bits.to_int (get t name)

let set_int t name v =
  match Layout.slot t.layout name with
  | Some s -> set_int_slot t s v
  | None -> invalid_arg (Printf.sprintf "Meta.set_int: undeclared field meta.%s" name)

let copy t = { layout = Layout.copy t.layout; values = Array.copy t.values }

let fields t = Layout.fields t.layout

(* Sorted (name, value) pairs — the comparison form equivalence tests use. *)
let bindings t =
  List.map (fun (name, _) -> (name, get t name)) (fields t)
