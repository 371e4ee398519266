(* Zero-allocation compilation of a template onto [Net.Flatpkt].

   In the paper a TSP is programmed by "downloading the template
   parameters" (Sec. 2.2): name resolution happens once, at configuration
   time, and the per-packet data path runs on pre-bound field indicators.
   This module is that download step. Every "hdr.field" / "meta.x"
   reference resolves to an interned id plus a (bit offset, width)
   against the device's current registry and metadata layout, every table
   to the [Table.t] the crossbar reaches, and the matcher, conditions and
   actions to closures over a [Net.Flatpkt.t]. When a template only
   manipulates values that fit in an unboxed OCaml [int] (width <= 56 bits
   — wide values are handled for straight header-to-header copies and
   scan keys, never boxed), the steady state allocates nothing at all.

   The compiler is a *partial* twin of the string interpreter in
   [Tsp]/[Action_eval]: any construct outside the flat subset raises
   [Unsupported] during [link], and the device runs that pipeline on the
   interpreter instead. Everything the flat path does — counter
   increments, cycle accounting, miss/default behaviour, evaluation order,
   even which exception escapes on an invalid reference — mirrors the
   interpreter observably; test_flat.ml holds the two equal.

   Table lookups cannot pre-render entries once: controllers mutate tables
   between packets. The derived int-keyed structures (hash map / ordered
   scan list) live in [Table.Engine] as the table's *flat view*, stamped
   with the generation and rebuilt lazily on the first lookup after a
   mutation — allocation happens on the control path, never per packet in
   steady state. Virtualized tables probe the engine's hot tier first; a
   miss charges the modeled escalation penalty before resolving against
   the full view. *)

module B = Net.Bits
module F = Net.Flatpkt
module Bf = Net.Bitfield

(* Raised at compile (link) time only: the template uses a construct the
   flat subset cannot express; the caller falls back to the interpreter.
   The payload says which construct, so devices can report *why* a slot
   is off the fast path ([Device.flat_report]) and the symbolic
   analyzer's static prediction can be cross-checked against it. *)
exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* Values are manipulated as unboxed ints masked to their width. 56 keeps
   every intermediate (including the [Bitfield.get_int] accumulator, which
   reads up to width+7 bits) inside OCaml's 63-bit int. *)
let max_int_width = 56

let imask w = (1 lsl w) - 1
let empty_args : int array = [||]

(* ------------------------------------------------------------------ *)
(* Closure environment                                                 *)
(* ------------------------------------------------------------------ *)

(* One mutable scratch environment per program, threaded through every
   compiled closure; re-pointed at each packet. [ll_*] mirror
   [Context.last_lookup] ([ll_present] plays the [option]). [ev_scratch]
   backs wide (> 56-bit) header-to-header copies: per program, not
   global, so concurrent devices (or a lookup-miss escalation re-entering
   mid-packet) can never alias each other's copy buffer. *)
type fenv = {
  mutable ev_fp : F.t;
  mutable ev_args : int array; (* positional action args, width-masked *)
  mutable ll_present : bool;
  mutable ll_tag : int;
  mutable ll_hit : bool;
  mutable ll_hits : int;
  mutable ll_args : int array;
  mutable ev_scratch : Bytes.t; (* wide-copy scratch; grows once, on first use *)
}

let ensure_scratch e nbytes =
  if nbytes > Bytes.length e.ev_scratch then
    e.ev_scratch <- Bytes.create (max nbytes (2 * Bytes.length e.ev_scratch))

(* ------------------------------------------------------------------ *)
(* Parse graph: the header linkage with ids flattened into arrays       *)
(* ------------------------------------------------------------------ *)

type fpnode = {
  fn_width : int;
  fn_sel : (int * int) array; (* selector (bit_off, width) within header *)
  fn_tags : int array; (* selector tag values, paired with [fn_next] *)
  fn_next : int array;
}

type fpgraph = {
  fg_nodes : fpnode option array; (* indexed by interned header id *)
  fg_first : int; (* -1 = no first header *)
}

let build_fpgraph (r : Net.Hdrdef.registry) =
  let nodes = Array.make (max 1 (Net.Intern.size ())) None in
  List.iter
    (fun (def : Net.Hdrdef.t) ->
      let sel =
        Array.of_list
          (List.map (Net.Hdrdef.field_offset_exn def) def.Net.Hdrdef.sel_fields)
      in
      let selw = Array.fold_left (fun acc (_, w) -> acc + w) 0 sel in
      if selw > max_int_width then
        unsupported "header %s: %d-bit selector exceeds the %d-bit flat limit"
          def.Net.Hdrdef.name selw max_int_width;
      let links = Net.Hdrdef.links_of r def.Net.Hdrdef.name in
      (* [Hdrdef.link] resizes tags to the selector width, so [to_int] is
         exact here (selw <= 56). *)
      let tags =
        Array.of_list (List.map (fun (l : Net.Hdrdef.link) -> B.to_int l.Net.Hdrdef.tag) links)
      in
      let next =
        Array.of_list
          (List.map (fun (l : Net.Hdrdef.link) -> Net.Intern.id l.Net.Hdrdef.next) links)
      in
      nodes.(def.Net.Hdrdef.id) <-
        Some { fn_width = def.Net.Hdrdef.width; fn_sel = sel; fn_tags = tags; fn_next = next })
    (Net.Hdrdef.defs r);
  {
    fg_nodes = nodes;
    fg_first = (match r.Net.Hdrdef.first with Some n -> Net.Intern.id n | None -> -1);
  }

(* Concatenated selector value, as [Parse_engine.read_selector] computes it. *)
let rec read_sel fp node ~bit_off i acc =
  if i >= Array.length node.fn_sel then acc
  else begin
    let off, w = node.fn_sel.(i) in
    read_sel fp node ~bit_off (i + 1)
      ((acc lsl w) lor Bf.get_int fp.F.buf ~off:(bit_off + off) ~width:w)
  end

let rec find_next node tag i =
  if i >= Array.length node.fn_tags then -1
  else if node.fn_tags.(i) = tag then node.fn_next.(i)
  else find_next node tag (i + 1)

(* Twin of [Parse_engine.ensure_parsed]'s inner walk, over flat state. *)
let rec walk g fp target hid bit_off steps =
  if steps <= 0 then false
  else
    match g.fg_nodes.(hid) with
    | None -> false
    | Some node ->
      if bit_off + node.fn_width > 8 * fp.F.len then false
      else begin
        fp.F.parse_attempts <- fp.F.parse_attempts + 1;
        if not (F.hdr_is_valid fp hid) then F.add_hdr fp ~hid ~bit_off;
        if hid = target then true
        else if Array.length node.fn_sel = 0 then false (* leaf header *)
        else begin
          let tag = read_sel fp node ~bit_off 0 0 in
          let next = find_next node tag 0 in
          if next < 0 then false
          else walk g fp target next (bit_off + node.fn_width) (steps - 1)
        end
      end

let ensure_parsed ?(budget = 32) g fp target =
  if F.hdr_is_valid fp target then true
  else begin
    (* Resume from the deepest already-parsed header, as the reference
       parse engine does. The touched stack enumerates candidates; the
       first deepest one wins ties. *)
    let dhid = ref (-1) and doff = ref (-1) in
    for i = 0 to fp.F.ntouched - 1 do
      let hid = fp.F.touched.(i) in
      if fp.F.hdr_valid.(hid) && fp.F.hdr_off.(hid) > !doff then begin
        dhid := hid;
        doff := fp.F.hdr_off.(hid)
      end
    done;
    if !dhid >= 0 && !dhid <> target then begin
      match g.fg_nodes.(!dhid) with
      | Some node when Array.length node.fn_sel > 0 ->
        let tag = read_sel fp node ~bit_off:!doff 0 0 in
        let next = find_next node tag 0 in
        if next < 0 then false
        else walk g fp target next (!doff + node.fn_width) budget
      | _ -> false
    end
    else if g.fg_first >= 0 then walk g fp target g.fg_first 0 budget
    else false
  end

(* ------------------------------------------------------------------ *)
(* Expression / condition / statement compilation                       *)
(* ------------------------------------------------------------------ *)

let want_or_raise ~what w =
  if w > max_int_width then
    unsupported "%s: %d bits exceeds the %d-bit flat limit" what w max_int_width
  else w

(* Compile-time resolution of a header field against the current
   registry. [None] when the header type or field is unknown — the
   reference interpreter would find no parsed instance either, so the
   compiled closure behaves as "never valid". *)
let resolve_hdr (env : Tsp.env) h f =
  match Net.Hdrdef.find env.Tsp.registry h with
  | None -> None
  | Some def -> (
    match Net.Hdrdef.field_offset def f with
    | None -> None
    | Some (off, width) -> Some (def.Net.Hdrdef.id, off, width))

(* Static width of an expression under demand width [want] — the width
   [Action_eval.eval_expr] would observe at runtime (all leaf widths are
   known at compile time). *)
let rec expr_width (env : Tsp.env) ~params ~want : Rp4.Ast.expr -> int = function
  | Rp4.Ast.E_const (_, Some w) -> w
  | Rp4.Ast.E_const (_, None) -> want
  | Rp4.Ast.E_param p -> (
    match List.assoc_opt p params with Some w -> w | None -> want)
  | Rp4.Ast.E_field (Rp4.Ast.Meta_field f) -> (
    match Net.Meta.Layout.slot env.Tsp.layout f with
    | Some s -> Net.Meta.Layout.width env.Tsp.layout s
    | None -> want)
  | Rp4.Ast.E_field (Rp4.Ast.Hdr_field (h, f)) -> (
    match resolve_hdr env h f with Some (_, _, w) -> w | None -> want)
  | Rp4.Ast.E_binop (_, a, _) -> expr_width env ~params ~want a

let rec compile_fexpr env ~params ~want (ex : Rp4.Ast.expr) : fenv -> int =
  match ex with
  | Rp4.Ast.E_const (v, Some w) ->
    let c = Int64.to_int v land imask (want_or_raise ~what:"constant" w) in
    fun _ -> c
  | Rp4.Ast.E_const (v, None) ->
    let c = Int64.to_int v land imask (want_or_raise ~what:"constant" want) in
    fun _ -> c
  | Rp4.Ast.E_field (Rp4.Ast.Meta_field f) -> (
    match Net.Meta.Layout.slot env.Tsp.layout f with
    | Some s ->
      ignore
        (want_or_raise
           ~what:(Printf.sprintf "read of meta.%s" f)
           (Net.Meta.Layout.width env.Tsp.layout s));
      fun e -> e.ev_fp.F.meta.(s)
    | None ->
      let msg = Printf.sprintf "Meta.get: undeclared field meta.%s" f in
      fun _ -> invalid_arg msg)
  | Rp4.Ast.E_field (Rp4.Ast.Hdr_field (h, f)) -> (
    let msg = Printf.sprintf "read of invalid header field %s.%s" h f in
    match resolve_hdr env h f with
    | Some (hid, off, width) ->
      ignore (want_or_raise ~what:(Printf.sprintf "read of %s.%s" h f) width);
      fun e ->
        let fp = e.ev_fp in
        if F.hdr_is_valid fp hid then
          Bf.get_int fp.F.buf ~off:(F.hdr_bit_off fp hid + off) ~width
        else raise (Action_eval.Runtime_error msg)
    | None -> fun _ -> raise (Action_eval.Runtime_error msg))
  | Rp4.Ast.E_param p -> (
    let rec index i = function
      | [] -> None
      | (q, _) :: rest -> if q = p then Some i else index (i + 1) rest
    in
    match index 0 params with
    | Some i -> fun e -> e.ev_args.(i)
    | None ->
      let msg = Printf.sprintf "unbound action parameter %s" p in
      fun _ -> raise (Action_eval.Runtime_error msg))
  | Rp4.Ast.E_binop (op, a, b) ->
    let w = want_or_raise ~what:"arithmetic operand" (expr_width env ~params ~want a) in
    let fa = compile_fexpr env ~params ~want a in
    let fb = compile_fexpr env ~params ~want:w b in
    let wb = expr_width env ~params ~want:w b in
    let trunc = wb > w in
    let mw = imask w in
    (* Left operand first, as in the reference interpreter. *)
    (match op with
    | Rp4.Ast.Add ->
      fun e ->
        let va = fa e in
        let vb = fb e in
        (va + (if trunc then vb land mw else vb)) land mw
    | Rp4.Ast.Sub ->
      fun e ->
        let va = fa e in
        let vb = fb e in
        (va - (if trunc then vb land mw else vb)) land mw
    | Rp4.Ast.Band ->
      fun e ->
        let va = fa e in
        let vb = fb e in
        va land if trunc then vb land mw else vb
    | Rp4.Ast.Bor ->
      fun e ->
        let va = fa e in
        let vb = fb e in
        va lor if trunc then vb land mw else vb
    | Rp4.Ast.Bxor ->
      fun e ->
        let va = fa e in
        let vb = fb e in
        va lxor if trunc then vb land mw else vb)

let rec compile_fcond env ~params (c : Rp4.Ast.cond) : fenv -> bool =
  match c with
  | Rp4.Ast.C_true -> fun _ -> true
  | Rp4.Ast.C_valid h ->
    let hid = Net.Intern.id h in
    fun e -> F.hdr_is_valid e.ev_fp hid
  | Rp4.Ast.C_not c ->
    let f = compile_fcond env ~params c in
    fun e -> not (f e)
  | Rp4.Ast.C_and (a, b) ->
    let fa = compile_fcond env ~params a and fb = compile_fcond env ~params b in
    fun e -> fa e && fb e
  | Rp4.Ast.C_or (a, b) ->
    let fa = compile_fcond env ~params a and fb = compile_fcond env ~params b in
    fun e -> fa e || fb e
  | Rp4.Ast.C_rel (op, a, b) ->
    let w = want_or_raise ~what:"comparison operand" (expr_width env ~params ~want:64 a) in
    let fa = compile_fexpr env ~params ~want:64 a in
    let fb = compile_fexpr env ~params ~want:w b in
    let wb = expr_width env ~params ~want:w b in
    let trunc = wb > w in
    let mw = imask w in
    (* Both sides are nonnegative ints of width [w]; int comparison
       coincides with [B.compare] at equal widths. *)
    (match op with
    | Rp4.Ast.Eq ->
      fun e ->
        let va = fa e in
        let vb = fb e in
        va = if trunc then vb land mw else vb
    | Rp4.Ast.Neq ->
      fun e ->
        let va = fa e in
        let vb = fb e in
        va <> if trunc then vb land mw else vb
    | Rp4.Ast.Lt ->
      fun e ->
        let va = fa e in
        let vb = fb e in
        va < if trunc then vb land mw else vb
    | Rp4.Ast.Gt ->
      fun e ->
        let va = fa e in
        let vb = fb e in
        va > if trunc then vb land mw else vb
    | Rp4.Ast.Le ->
      fun e ->
        let va = fa e in
        let vb = fb e in
        va <= if trunc then vb land mw else vb
    | Rp4.Ast.Ge ->
      fun e ->
        let va = fa e in
        let vb = fb e in
        va >= if trunc then vb land mw else vb)

(* Chunked bit copy between byte buffers (24-bit chunks keep the
   [get_int] accumulator small). *)
let rec blit_bits src ~soff dst ~doff ~w =
  if w > 0 then begin
    let cw = if w < 24 then w else 24 in
    Bf.set_int dst ~off:doff ~width:cw (Bf.get_int src ~off:soff ~width:cw);
    blit_bits src ~soff:(soff + cw) dst ~doff:(doff + cw) ~w:(w - cw)
  end

let compile_fstmt env ~params (s : Rp4.Ast.stmt) : fenv -> unit =
  match s with
  | Rp4.Ast.S_noop -> fun _ -> ()
  | Rp4.Ast.S_drop -> fun e -> e.ev_fp.F.meta.(Net.Meta.slot_drop) <- 1
  | Rp4.Ast.S_mark m ->
    let fm = compile_fexpr env ~params ~want:8 m in
    fun e -> e.ev_fp.F.meta.(Net.Meta.slot_mark) <- fm e land 0xFF
  | Rp4.Ast.S_set_valid _ ->
    fun _ -> () (* as in the reference: insertion is a controller-level op *)
  | Rp4.Ast.S_set_invalid h ->
    let hid = Net.Intern.id h in
    fun e -> F.invalidate_hdr e.ev_fp hid
  | Rp4.Ast.S_mark_exceed (th, v) ->
    let fth = compile_fexpr env ~params ~want:32 th in
    let fv = compile_fexpr env ~params ~want:8 v in
    fun e ->
      let hits = if e.ll_present then e.ll_hits else 0 in
      let threshold = fth e in
      if hits > threshold then e.ev_fp.F.meta.(Net.Meta.slot_mark) <- fv e land 0xFF
  | Rp4.Ast.S_assign (Rp4.Ast.Meta_field f, ex) -> (
    match Net.Meta.Layout.slot env.Tsp.layout f with
    | Some s ->
      let w =
        want_or_raise
          ~what:(Printf.sprintf "write of meta.%s" f)
          (Net.Meta.Layout.width env.Tsp.layout s)
      in
      let fe = compile_fexpr env ~params ~want:w ex in
      let mw = imask w in
      fun e -> e.ev_fp.F.meta.(s) <- fe e land mw
    | None ->
      (* Reference order: evaluate the RHS, then fail on the write. *)
      let fe = compile_fexpr env ~params ~want:64 ex in
      let msg = Printf.sprintf "Meta.set: undeclared field meta.%s" f in
      fun e ->
        ignore (fe e);
        invalid_arg msg)
  | Rp4.Ast.S_assign (Rp4.Ast.Hdr_field (h, f), ex) -> (
    let msg = Printf.sprintf "Pmap.set_field: %s.%s not parsed/valid" h f in
    match resolve_hdr env h f with
    | Some (hid, off, w) when w <= max_int_width ->
      let fe = compile_fexpr env ~params ~want:w ex in
      let mw = imask w in
      fun e ->
        let v = fe e land mw in
        let fp = e.ev_fp in
        if F.hdr_is_valid fp hid then
          Bf.set_int fp.F.buf ~off:(F.hdr_bit_off fp hid + off) ~width:w v
        else invalid_arg msg
    | Some (hid, off, w) -> (
      (* Wide destination: only a straight header-to-header copy stays
         unboxed (e.g. moving a 128-bit address); anything else falls back
         to the interpreter. *)
      match ex with
      | Rp4.Ast.E_field (Rp4.Ast.Hdr_field (h2, f2)) -> (
        match resolve_hdr env h2 f2 with
        | Some (hid2, off2, w2) when w2 >= w ->
          let soff_rel = off2 + (w2 - w) in (* resize keeps the low bits *)
          let rmsg = Printf.sprintf "read of invalid header field %s.%s" h2 f2 in
          let nbytes = ((w + 7) / 8) + 1 in
          fun e ->
            let fp = e.ev_fp in
            if not (F.hdr_is_valid fp hid2) then raise (Action_eval.Runtime_error rmsg);
            if not (F.hdr_is_valid fp hid) then invalid_arg msg;
            ensure_scratch e nbytes;
            let scr = e.ev_scratch in
            blit_bits fp.F.buf ~soff:(F.hdr_bit_off fp hid2 + soff_rel) scr ~doff:0 ~w;
            blit_bits scr ~soff:0 fp.F.buf ~doff:(F.hdr_bit_off fp hid + off) ~w
        | _ ->
          unsupported "wide write to %s.%s: source %s.%s is narrower than %d bits"
            h f h2 f2 w)
      | _ ->
        unsupported
          "wide write to %s.%s (%d bits): only straight header-to-header copies stay flat"
          h f w)
    | None ->
      let fe = compile_fexpr env ~params ~want:64 ex in
      fun e ->
        ignore (fe e);
        invalid_arg msg)

(* ------------------------------------------------------------------ *)
(* Actions                                                              *)
(* ------------------------------------------------------------------ *)

type faction = {
  fa_name : string;
  fa_nparams : int;
  fa_masks : int array; (* declared parameter width masks, positional *)
  fa_bind : int array; (* preallocated argument binding *)
  fa_body : (fenv -> unit) array;
}

let compile_faction env (a : Rp4.Ast.action_decl) =
  List.iter
    (fun (p, w) ->
      ignore
        (want_or_raise
           ~what:(Printf.sprintf "action %s parameter %s" a.Rp4.Ast.ad_name p)
           w))
    a.Rp4.Ast.ad_params;
  let widths = Array.of_list (List.map snd a.Rp4.Ast.ad_params) in
  {
    fa_name = a.Rp4.Ast.ad_name;
    fa_nparams = Array.length widths;
    fa_masks = Array.map imask widths;
    fa_bind = Array.make (Array.length widths) 0;
    fa_body =
      Array.of_list
        (List.map (compile_fstmt env ~params:a.Rp4.Ast.ad_params) a.Rp4.Ast.ad_body);
  }

(* Positional binding with the arity check of [Action_eval.run_action]. *)
let run_faction scr fa (args : int array) =
  let n = fa.fa_nparams in
  if Array.length args <> n then
    Action_eval.runtime_error "action %s expects %d args, got %d" fa.fa_name n
      (Array.length args);
  for i = 0 to n - 1 do
    fa.fa_bind.(i) <- args.(i) land fa.fa_masks.(i)
  done;
  scr.ev_args <- fa.fa_bind;
  for i = 0 to Array.length fa.fa_body - 1 do
    fa.fa_body.(i) scr
  done

(* ------------------------------------------------------------------ *)
(* Tables                                                               *)
(* ------------------------------------------------------------------ *)

(* Key readers, resolved per field. Narrow header keys pre-fold the
   interpreter's [B.resize v kw] into (offset, width) arithmetic. *)
type fkey =
  | FK_meta of { slot : int; kmask : int }
  | FK_hdr of { hid : int; roff : int; rw : int }
  | FK_hdr_wide of { hid : int; woff : int } (* key bits read in place *)
  | FK_raise of string (* undeclared meta field: always raises *)
  | FK_miss (* unresolvable header: always a miss *)

type ftable = {
  ft_name : string;
  ft_mem_cycles : int;
  ft_virt_cycles : int; (* added on a virtualized hot-tier miss *)
  ft_table : Table.t option; (* unreachable/missing = always miss *)
  ft_keys : fkey array;
  ft_kws : int array; (* declared key widths *)
  ft_hash : bool array; (* hash-kind fields (flow-hash material) *)
  ft_vals : int array; (* scratch: narrow key values *)
  ft_offs : int array; (* scratch: wide key absolute bit offsets *)
  ft_key_pos : int array; (* byte position per field in the exact key *)
  ft_exact_key : Bytes.t; (* scratch: rendered exact-engine key *)
  ft_hit_ctr : Telemetry.Counter.t;
  ft_miss_ctr : Telemetry.Counter.t;
}

let compile_fkey env (f : Table.Key.field) : fkey =
  let kw = f.Table.Key.kf_width in
  let a, b = Net.Fieldref.split f.Table.Key.kf_ref in
  if a = "meta" then begin
    match Net.Meta.Layout.slot env.Tsp.layout b with
    | Some s ->
      ignore (want_or_raise ~what:(Printf.sprintf "key meta.%s" b) kw);
      ignore
        (want_or_raise
           ~what:(Printf.sprintf "key meta.%s" b)
           (Net.Meta.Layout.width env.Tsp.layout s));
      FK_meta { slot = s; kmask = imask kw }
    | None -> FK_raise (Printf.sprintf "Meta.get: undeclared field meta.%s" b)
  end
  else begin
    match resolve_hdr env a b with
    | Some (hid, off, width) ->
      if kw <= max_int_width then
        if kw <= width then FK_hdr { hid; roff = off + width - kw; rw = kw }
        else FK_hdr { hid; roff = off; rw = width } (* zero-extends *)
      else if width >= kw then FK_hdr_wide { hid; woff = off + width - kw }
      else
        unsupported "key %s.%s: %d-bit key zero-extends a %d-bit wide field" a b kw
          width
    | None -> FK_miss
  end

let compile_ftable env ~tsp (ct : Template.compiled_table) =
  let fields = Array.of_list ct.Template.ct_fields in
  let n = Array.length fields in
  let kws = Array.map (fun f -> f.Table.Key.kf_width) fields in
  let pos = Array.make n 0 in
  let total = ref 0 in
  for i = 0 to n - 1 do
    pos.(i) <- !total;
    total := !total + ((kws.(i) + 7) / 8)
  done;
  {
    ft_name = ct.Template.ct_name;
    ft_mem_cycles =
      Cycles.mem_access_cycles env.Tsp.cycles_cfg
        ~entry_width:ct.Template.ct_entry_width;
    ft_virt_cycles = env.Tsp.cycles_cfg.Cycles.virt_miss;
    ft_table = env.Tsp.find_table ~tsp ct.Template.ct_name;
    ft_keys = Array.map (compile_fkey env) fields;
    ft_kws = kws;
    ft_hash = Array.map (fun f -> f.Table.Key.kf_kind = Table.Key.Hash) fields;
    ft_vals = Array.make n 0;
    ft_offs = Array.make n 0;
    ft_key_pos = pos;
    ft_exact_key = Bytes.create !total;
    ft_hit_ctr = Telemetry.table_counter env.Tsp.tel ~table:ct.Template.ct_name ~hit:true;
    ft_miss_ctr =
      Telemetry.table_counter env.Tsp.tel ~table:ct.Template.ct_name ~hit:false;
  }

(* --- per-packet lookup (allocation-free) ------------------------------ *)

(* Read every key field into the scratch arrays; [false] = some header
   key is invalid, which the interpreter treats as a miss before the
   table is consulted. *)
let rec read_keys t e i =
  if i >= Array.length t.ft_keys then true
  else
    match t.ft_keys.(i) with
    | FK_meta { slot; kmask } ->
      t.ft_vals.(i) <- e.ev_fp.F.meta.(slot) land kmask;
      read_keys t e (i + 1)
    | FK_hdr { hid; roff; rw } ->
      let fp = e.ev_fp in
      if F.hdr_is_valid fp hid then begin
        t.ft_vals.(i) <- Bf.get_int fp.F.buf ~off:(F.hdr_bit_off fp hid + roff) ~width:rw;
        read_keys t e (i + 1)
      end
      else false
    | FK_hdr_wide { hid; woff } ->
      let fp = e.ev_fp in
      if F.hdr_is_valid fp hid then begin
        t.ft_offs.(i) <- F.hdr_bit_off fp hid + woff;
        read_keys t e (i + 1)
      end
      else false
    | FK_raise msg -> invalid_arg msg
    | FK_miss -> false

(* Entry matching against the scratch arrays delegates to the engine's
   probe helpers (the single home of the masked-comparison code, shared
   with the boxed view construction). *)
module E = Table.Engine

let fment_matches t e flds i =
  E.fment_matches ~vals:t.ft_vals ~offs:t.ft_offs ~buf:e.ev_fp.F.buf flds i

let scan_ments t e (ments : E.fment array) i =
  E.scan_ments ~vals:t.ft_vals ~offs:t.ft_offs ~buf:e.ev_fp.F.buf ments i

let collect_cands t e (ments : E.fment array) (cand : int array) i n =
  E.collect_cands ~vals:t.ft_vals ~offs:t.ft_offs ~buf:e.ev_fp.F.buf ments cand i n

(* Render field [i]'s value into the exact-key scratch: the raw-byte form
   of [Bits.to_raw_string] (right-aligned big-endian in ceil(kw/8) bytes). *)
let write_narrow_key dst pos nb v =
  for j = 0 to nb - 1 do
    Bytes.unsafe_set dst (pos + j) (Char.unsafe_chr ((v lsr (8 * (nb - 1 - j))) land 0xFF))
  done

let write_wide_key buf dst pos nb pad ~abs_off =
  Bytes.unsafe_set dst pos (Char.unsafe_chr (Bf.get_int buf ~off:abs_off ~width:(8 - pad)));
  for j = 1 to nb - 1 do
    Bytes.unsafe_set dst (pos + j)
      (Char.unsafe_chr (Bf.get_int buf ~off:(abs_off + (8 * j) - pad) ~width:8))
  done

let build_exact_key t e =
  for i = 0 to Array.length t.ft_keys - 1 do
    let kw = t.ft_kws.(i) in
    let nb = (kw + 7) / 8 in
    match t.ft_keys.(i) with
    | FK_hdr_wide _ ->
      write_wide_key e.ev_fp.F.buf t.ft_exact_key t.ft_key_pos.(i) nb ((8 * nb) - kw)
        ~abs_off:t.ft_offs.(i)
    | _ -> write_narrow_key t.ft_exact_key t.ft_key_pos.(i) nb t.ft_vals.(i)
  done

(* Streaming CRC over the hash-kind key fields, bit-identical to
   [Table.flow_hash] (which digests the concatenated raw strings). *)
let feed_narrow st nb v =
  let st = ref st in
  for j = 0 to nb - 1 do
    st := Prelude.Crc32.feed_int !st ((v lsr (8 * (nb - 1 - j))) land 0xFF)
  done;
  !st

let feed_wide st buf nb pad ~abs_off =
  let st = ref (Prelude.Crc32.feed_int st (Bf.get_int buf ~off:abs_off ~width:(8 - pad))) in
  for j = 1 to nb - 1 do
    st := Prelude.Crc32.feed_int !st (Bf.get_int buf ~off:(abs_off + (8 * j) - pad) ~width:8)
  done;
  !st

let hash_key t e =
  let st = ref Prelude.Crc32.init_int in
  for i = 0 to Array.length t.ft_keys - 1 do
    if t.ft_hash.(i) then begin
      let kw = t.ft_kws.(i) in
      let nb = (kw + 7) / 8 in
      match t.ft_keys.(i) with
      | FK_hdr_wide _ ->
        st := feed_wide !st e.ev_fp.F.buf nb ((8 * nb) - kw) ~abs_off:t.ft_offs.(i)
      | _ -> st := feed_narrow !st nb t.ft_vals.(i)
    end
  done;
  Prelude.Crc32.finish_int !st

(* --- the lookup itself, mirroring [Tsp.apply_table] -------------------- *)

let flat_miss probe t e =
  e.ll_present <- true;
  e.ll_tag <- 0;
  e.ll_hit <- false;
  e.ll_hits <- 0;
  e.ll_args <- empty_args;
  Telemetry.Counter.incr probe.Telemetry.sp_misses;
  Telemetry.Counter.incr t.ft_miss_ctr

let flat_hit probe t e (eng : E.t) (fe : E.fentry) =
  eng.E.hits <- eng.E.hits + 1;
  let src = fe.E.fe_src in
  src.E.hits <- src.E.hits + 1;
  e.ll_present <- true;
  e.ll_tag <- fe.E.fe_tag;
  e.ll_hit <- true;
  e.ll_hits <- src.E.hits;
  e.ll_args <- fe.E.fe_args;
  Telemetry.Counter.incr probe.Telemetry.sp_hits;
  Telemetry.Counter.incr t.ft_hit_ctr;
  e.ev_fp.F.meta.(Net.Meta.slot_switch_tag) <- fe.E.fe_tag land 0xFFFF

(* Engine miss with a default action: tag comes from the default, the
   switch tag is still written ([Table.apply] returns an outcome). *)
let flat_default probe t e (v : E.view) =
  if v.E.v_def_present then begin
    e.ll_present <- true;
    e.ll_tag <- v.E.v_def_tag;
    e.ll_hit <- false;
    e.ll_hits <- 0;
    e.ll_args <- empty_args;
    Telemetry.Counter.incr probe.Telemetry.sp_misses;
    Telemetry.Counter.incr t.ft_miss_ctr;
    e.ev_fp.F.meta.(Net.Meta.slot_switch_tag) <- v.E.v_def_tag land 0xFFFF
  end
  else flat_miss probe t e

(* Resolve the already-read key against the full view; raises [Not_found]
   on a miss (constant exception: no allocation). *)
let resolve_view t e (v : E.view) : E.fentry =
  match v.E.v_kind with
  | E.V_exact cache ->
    build_exact_key t e;
    (* [unsafe_to_string] is sound: [find] only reads the key during the
       call, and stored keys are independent copies. *)
    Hashtbl.find cache (Bytes.unsafe_to_string t.ft_exact_key)
  | E.V_scan ments ->
    let i = scan_ments t e ments 0 in
    if i >= 0 then ments.(i).E.fm_fe else raise Not_found
  | E.V_hash (ments, cand) ->
    let n = collect_cands t e ments cand 0 0 in
    if n = 0 then raise Not_found
    else ments.(cand.(hash_key t e mod n)).E.fm_fe

let apply_ftable probe t (e : fenv) =
  let fp = e.ev_fp in
  fp.F.lookups <- fp.F.lookups + 1;
  fp.F.cycles <- fp.F.cycles + t.ft_mem_cycles;
  Telemetry.Counter.incr probe.Telemetry.sp_lookups;
  match t.ft_table with
  | None -> flat_miss probe t e
  | Some table ->
    if read_keys t e 0 then begin
      let eng = Table.engine table in
      let v = E.view eng in
      eng.E.lookups <- eng.E.lookups + 1;
      match eng.E.tier with
      | None -> (
        match resolve_view t e v with
        | fe -> flat_hit probe t e eng fe
        | exception Not_found -> flat_default probe t e v)
      | Some tr -> (
        (* Virtualized: probe the hot resolution set on the full rendered
           key; a miss charges the modeled escalation penalty, resolves
           against the authoritative view and promotes the resolution
           (key copied out of the scratch buffer). *)
        eng.E.tier_missed <- false;
        build_exact_key t e;
        match E.hot_find tr (Bytes.unsafe_to_string t.ft_exact_key) with
        | r ->
          E.tier_touch tr r;
          flat_hit probe t e eng r.E.r_fe
        | exception Not_found -> (
          E.tier_miss eng tr;
          fp.F.cycles <- fp.F.cycles + t.ft_virt_cycles;
          fp.F.virt_misses <- fp.F.virt_misses + 1;
          match resolve_view t e v with
          | fe ->
            E.tier_promote tr (Bytes.to_string t.ft_exact_key) fe;
            flat_hit probe t e eng fe
          | exception Not_found -> flat_default probe t e v))
    end
    else flat_miss probe t e

(* ------------------------------------------------------------------ *)
(* Matcher, executor, stage                                             *)
(* ------------------------------------------------------------------ *)

let rec compile_fmatcher env probe (cs : Template.compiled_stage) ftables
    (m : Rp4.Ast.matcher) : fenv -> unit =
  match m with
  | Rp4.Ast.M_nop -> fun _ -> ()
  | Rp4.Ast.M_seq ms ->
    let fs = Array.of_list (List.map (compile_fmatcher env probe cs ftables) ms) in
    fun e ->
      for i = 0 to Array.length fs - 1 do
        fs.(i) e
      done
  | Rp4.Ast.M_if (c, a, b) ->
    let fc = compile_fcond env ~params:[] c in
    let fa = compile_fmatcher env probe cs ftables a in
    let fb = compile_fmatcher env probe cs ftables b in
    fun e -> if fc e then fa e else fb e
  | Rp4.Ast.M_apply tname -> (
    match List.find_opt (fun ft -> ft.ft_name = tname) ftables with
    | Some ft -> fun e -> apply_ftable probe ft e
    | None ->
      let msg =
        Printf.sprintf "stage %s applies table %s missing from template"
          cs.Template.cs_name tname
      in
      fun _ -> raise (Action_eval.Runtime_error msg))

let rec find_case (tags : int array) tag i =
  if i >= Array.length tags then -1
  else if tags.(i) = tag then i
  else find_case tags tag (i + 1)

let link_fstage env ~tsp ~fg scr (cs : Template.compiled_stage) : F.t -> unit =
  let probe = env.Tsp.probes.(tsp) in
  let parse = Array.of_list (List.map Net.Intern.id cs.Template.cs_parser) in
  let ftables = List.map (compile_ftable env ~tsp) cs.Template.cs_tables in
  let matcher = compile_fmatcher env probe cs ftables cs.Template.cs_matcher in
  let case_tags = Array.of_list (List.map fst cs.Template.cs_cases) in
  let case_acts =
    Array.of_list
      (List.map
         (fun (_, acts) -> Array.of_list (List.map (compile_faction env) acts))
         cs.Template.cs_cases)
  in
  let default_acts = Array.of_list (List.map (compile_faction env) cs.Template.cs_default) in
  let parse_per_header = env.Tsp.cycles_cfg.Cycles.parse_per_header in
  let executor_base = env.Tsp.cycles_cfg.Cycles.executor_base in
  fun fp ->
    (* Parser sub-module: distributed on-demand parsing over the graph. *)
    let before = fp.F.parse_attempts in
    for i = 0 to Array.length parse - 1 do
      ignore (ensure_parsed fg fp parse.(i))
    done;
    let parsed_now = fp.F.parse_attempts - before in
    fp.F.cycles <- fp.F.cycles + (parsed_now * parse_per_header);
    Telemetry.Counter.add probe.Telemetry.sp_parse_ops parsed_now;
    (* Matcher, then executor on the lookup outcome. *)
    scr.ev_fp <- fp;
    scr.ev_args <- empty_args;
    scr.ll_present <- false;
    matcher scr;
    if scr.ll_present then begin
      let idx = find_case case_tags scr.ll_tag 0 in
      if scr.ll_hit && idx >= 0 then begin
        let acts = case_acts.(idx) in
        for i = 0 to Array.length acts - 1 do
          fp.F.cycles <- fp.F.cycles + executor_base;
          Telemetry.Counter.incr probe.Telemetry.sp_actions;
          let fa = acts.(i) in
          (* NoAction-style empty bodies take no args, as in [Tsp]. *)
          run_faction scr fa (if fa.fa_nparams = 0 then empty_args else scr.ll_args)
        done
      end
      else
        for i = 0 to Array.length default_acts - 1 do
          fp.F.cycles <- fp.F.cycles + executor_base;
          Telemetry.Counter.incr probe.Telemetry.sp_actions;
          run_faction scr default_acts.(i) empty_args
        done
    end

(* ------------------------------------------------------------------ *)
(* Program                                                              *)
(* ------------------------------------------------------------------ *)

type prog = {
  fp_stages : (F.t -> unit) array;
  fp_graph : fpgraph;
  fp_scr : fenv;
}

let new_fenv () =
  {
    ev_fp = F.create ();
    ev_args = empty_args;
    ll_present = false;
    ll_tag = 0;
    ll_hit = false;
    ll_hits = 0;
    ll_args = empty_args;
    ev_scratch = Bytes.create 64;
  }

(* Compile a full template; [Error reason] = outside the flat subset
   (the reason names the offending construct), run the template on the
   interpreter instead. *)
let link_explained (env : Tsp.env) ~tsp (tmpl : Template.t) : (prog, string) result =
  match
    let fg = build_fpgraph env.Tsp.registry in
    let scr = new_fenv () in
    {
      fp_stages = Array.of_list (List.map (link_fstage env ~tsp ~fg scr) tmpl.Template.stages);
      fp_graph = fg;
      fp_scr = scr;
    }
  with
  | p -> Ok p
  | exception Unsupported reason -> Error reason

(* Parse graph alone, for the PISA front parser. *)
let link_parser registry : fpgraph option =
  match build_fpgraph registry with g -> Some g | exception Unsupported _ -> None

(* Run the stage programs; the caller owns template-fetch cycles and the
   packet counter, as [Tsp.process] does for the interpreter. *)
let run_stages prog fp =
  let stages = prog.fp_stages in
  for i = 0 to Array.length stages - 1 do
    if not (F.dropped fp) then stages.(i) fp
  done
