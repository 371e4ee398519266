(* Whole-pipeline forwarding decision diagram (the ROADMAP's FDD item).

   [Flat] compiles one template at a time; packets still walk the pipeline
   slot by slot, stage by stage, and every lookup scans its table's cache.
   This module is the second compilation tier: the *entire populated
   pipeline* — templates plus current table contents — compiles into one
   hash-consed decision diagram, so forwarding is a single O(depth) walk
   over pointer-linked nodes. Conditions, key reads, entry patterns and
   actions reuse the [Flat] closure compilers unchanged; what changes is
   control flow, which is baked: the executor dispatch that [Flat]
   resolves per packet from the last-lookup registers is resolved here at
   compile time into per-outcome continuations.

   Hash-consing is the incremental-update story. Every node is keyed by
   structural data — resolved environment fingerprint, table-instance
   stamp, entry generation/index, action/condition text, child node ids —
   in a store that persists across recompiles. Recompiling after a table
   add/del or an in-situ patch therefore *splices*: untouched subdiagrams
   are found in the store and reused by pointer, only the affected stages
   (plus the spine upstream of them) allocate new nodes, and a per-slot
   memo skips even recompilation for slots whose template, table
   generations and continuation are unchanged. A from-scratch rebuild
   ([~fresh:true]) bypasses the memo and re-derives every node from device
   state; because both paths draw from the same store, the updated and
   rebuilt diagrams must be *pointer-equal* — the equivalence oracle
   test_fdd checks.

   Accounting (cycles, lookups, parse attempts, probes, table counters,
   switch-tag writes) mirrors [Flat] and the interpreter observably; the
   diagram is only ever run when [ok], and the device falls back to the
   flat or context path otherwise, exactly like [Flat]'s [Unsupported]
   protocol. *)

module F = Net.Flatpkt
module E = Table.Engine

(* ------------------------------------------------------------------ *)
(* Nodes                                                               *)
(* ------------------------------------------------------------------ *)

(* [n_step] performs the node's effect on the scratch environment and
   returns the next node; the walk is a tail-recursive pointer chase with
   no per-packet allocation. [n_kind] is the structural view the pretty
   printer and node counter traverse. *)
type node = { n_id : int; n_kind : kind; n_step : Flat.fenv -> node }

and kind =
  | K_done
  | K_guard of node (* continue if not dropped; else end of half *)
  | K_slot of { tsp : int; tmpl_cycles : int; next : node }
  | K_parse of { tsp : int; hdrs : string list; next : node }
  | K_cond of { repr : string; yes : node; no : node }
  | K_fail of string (* template bug: raises, as the flat closure would *)
  | K_apply of { table : string; resolved : bool; next : node }
  | K_keys of { table : string; ok : node; invalid : node }
  | K_match of { table : string; pat : string; hit : node; miss : node }
  | K_default of { table : string; present : bool; tag : int; next : node }
  | K_hash of {
      table : string;
      pats : string array;
      on_entry : node array;
      default : node;
    }
  | K_vprobe of { table : string; cases : (int * node) array; lose : node }
    (* virtualized table: entries are not baked — the step runs the
       engine-tier lookup live and dispatches on the outcome registers *)
  | K_act of { tsp : int; name : string; case : bool; next : node }

let rec done_node = { n_id = 0; n_kind = K_done; n_step = (fun _ -> done_node) }

let iter_children k f =
  match k with
  | K_done | K_fail _ -> ()
  | K_guard n -> f n
  | K_slot { next; _ }
  | K_parse { next; _ }
  | K_apply { next; _ }
  | K_default { next; _ }
  | K_act { next; _ } ->
    f next
  | K_cond { yes; no; _ } ->
    f yes;
    f no
  | K_keys { ok; invalid; _ } ->
    f ok;
    f invalid
  | K_match { hit; miss; _ } ->
    f hit;
    f miss
  | K_hash { on_entry; default; _ } ->
    Array.iter f on_entry;
    f default
  | K_vprobe { cases; lose; _ } ->
    Array.iter (fun (_, n) -> f n) cases;
    f lose

(* ------------------------------------------------------------------ *)
(* Table instances                                                     *)
(* ------------------------------------------------------------------ *)

(* A compiled [Flat.ftable] reused across rebuilds. The stamp is unique
   per instance and appears in every node key that captures the instance
   (its scratch arrays, counters, resolved [Table.t]): nodes can only be
   shared between builds that agree on the instance, which revalidation
   guarantees — same environment fingerprint, same compiled-table spec,
   same *physical* resolved table. *)
type ftinst = {
  fi_ft : Flat.ftable;
  fi_stamp : int;
  fi_ct : string; (* compiled-table spec digest *)
  fi_fp : string; (* environment fingerprint at compile *)
}

type t = {
  cons : (string, node) Hashtbl.t; (* structural key -> node *)
  mutable next_id : int;
  mutable created : int; (* nodes allocated over the store's lifetime *)
  fts : (string, ftinst) Hashtbl.t; (* "tsp|table" -> instance *)
  mutable ft_stamp : int;
  mutable used : ftinst list; (* instances referenced by the last build *)
  memo : (int, string * node) Hashtbl.t; (* per-tsp compiled-slot memo *)
  scr : Flat.fenv;
  mutable fg : Flat.fpgraph option;
  mutable fg_reason : string;
  mutable env_fp : string;
  mutable env_fp_id : int; (* short id standing in for [env_fp] in keys *)
  mutable ingress : node;
  mutable egress : node;
  mutable deps : (Flat.ftable * Table.t) array; (* staleness scan list *)
  mutable ok : bool;
  mutable gaps : (int * string) list;
  mutable builds : int;
  mutable splices : int; (* rebuilds that found work to do, after the first *)
  mutable last_splice_nodes : int; (* nodes allocated by the last rebuild *)
}

let create () =
  {
    cons = Hashtbl.create 256;
    next_id = 0;
    created = 0;
    fts = Hashtbl.create 16;
    ft_stamp = 0;
    used = [];
    memo = Hashtbl.create 8;
    scr = Flat.new_fenv ();
    fg = None;
    fg_reason = "";
    env_fp = "";
    env_fp_id = 0;
    ingress = done_node;
    egress = done_node;
    deps = [||];
    ok = false;
    gaps = [];
    builds = 0;
    splices = 0;
    last_splice_nodes = 0;
  }

let cons t key kind step =
  match Hashtbl.find_opt t.cons key with
  | Some n -> n
  | None ->
    t.next_id <- t.next_id + 1;
    t.created <- t.created + 1;
    let n = { n_id = t.next_id; n_kind = kind; n_step = step } in
    Hashtbl.add t.cons key n;
    n

(* ------------------------------------------------------------------ *)
(* Structural digests                                                  *)
(* ------------------------------------------------------------------ *)

(* Renderings double as hash-cons key material and pretty-printer text:
   they are deterministic and unambiguous for the constructs the flat
   subset admits. *)
let rec expr_repr : Rp4.Ast.expr -> string = function
  | Rp4.Ast.E_const (v, None) -> Int64.to_string v
  | Rp4.Ast.E_const (v, Some w) -> Printf.sprintf "%Ld:%d" v w
  | Rp4.Ast.E_field fr -> Rp4.Ast.field_ref_to_string fr
  | Rp4.Ast.E_param p -> "$" ^ p
  | Rp4.Ast.E_binop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr_repr a) (Rp4.Ast.binop_to_string op)
      (expr_repr b)

let rec cond_repr : Rp4.Ast.cond -> string = function
  | Rp4.Ast.C_true -> "true"
  | Rp4.Ast.C_valid h -> "valid(" ^ h ^ ")"
  | Rp4.Ast.C_not c -> "!" ^ cond_repr c
  | Rp4.Ast.C_and (a, b) -> "(" ^ cond_repr a ^ " && " ^ cond_repr b ^ ")"
  | Rp4.Ast.C_or (a, b) -> "(" ^ cond_repr a ^ " || " ^ cond_repr b ^ ")"
  | Rp4.Ast.C_rel (op, a, b) ->
    "(" ^ expr_repr a ^ " " ^ Rp4.Ast.relop_to_string op ^ " " ^ expr_repr b
    ^ ")"

let stmt_repr : Rp4.Ast.stmt -> string = function
  | Rp4.Ast.S_noop -> "noop"
  | Rp4.Ast.S_drop -> "drop"
  | Rp4.Ast.S_mark m -> "mark " ^ expr_repr m
  | Rp4.Ast.S_set_valid h -> "set_valid " ^ h
  | Rp4.Ast.S_set_invalid h -> "set_invalid " ^ h
  | Rp4.Ast.S_mark_exceed (th, v) ->
    "mark_exceed " ^ expr_repr th ^ " " ^ expr_repr v
  | Rp4.Ast.S_assign (fr, e) ->
    Rp4.Ast.field_ref_to_string fr ^ " = " ^ expr_repr e

let action_repr (a : Rp4.Ast.action_decl) =
  Printf.sprintf "%s(%s){%s}" a.Rp4.Ast.ad_name
    (String.concat ","
       (List.map
          (fun (p, w) -> p ^ ":" ^ string_of_int w)
          a.Rp4.Ast.ad_params))
    (String.concat ";" (List.map stmt_repr a.Rp4.Ast.ad_body))

let hex_bytes by =
  let b = Buffer.create (2 * Bytes.length by) in
  Bytes.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) by;
  Buffer.contents b

let ffm_repr : E.ffm -> string = function
  | E.FF_any -> "*"
  | E.FF_narrow { fv; fmask } -> Printf.sprintf "%x/%x" fv fmask
  | E.FF_wide { vpat; mpat; fw } ->
    Printf.sprintf "%s/%s:%d" (hex_bytes vpat) (hex_bytes mpat) fw

let fment_repr (m : E.fment) =
  Printf.sprintf "%s -> %d(%s)"
    (String.concat ","
       (Array.to_list (Array.map ffm_repr m.E.fm_fields)))
    m.E.fm_fe.E.fe_tag
    (String.concat ","
       (List.map string_of_int (Array.to_list m.E.fm_fe.E.fe_args)))

let kind_str : Table.Key.match_kind -> string = function
  | Table.Key.Exact -> "e"
  | Table.Key.Lpm -> "l"
  | Table.Key.Ternary -> "t"
  | Table.Key.Hash -> "h"

let ct_digest (ct : Template.compiled_table) =
  Printf.sprintf "%s[%s]%d/%d" ct.Template.ct_name
    (String.concat ","
       (List.map
          (fun (f : Table.Key.field) ->
            f.Table.Key.kf_ref ^ ":"
            ^ string_of_int f.Table.Key.kf_width
            ^ ":" ^ kind_str f.Table.Key.kf_kind)
          ct.Template.ct_fields))
    ct.Template.ct_size ct.Template.ct_entry_width

(* The resolved world every compiled closure depends on: header registry
   and metadata layout. Any drift invalidates the whole store. (Table
   resolution can shift without either changing — crossbar rewiring,
   alloc/free — but that is caught per instance by [ftinst]
   revalidation, which is what keeps those patches incremental.) *)
let env_fingerprint (env : Tsp.env) =
  let b = Buffer.create 256 in
  Buffer.add_string b (Net.Hdrdef.fingerprint env.Tsp.registry);
  Buffer.add_char b '|';
  List.iter
    (fun (n, w) ->
      Buffer.add_string b n;
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int w);
      Buffer.add_char b ';')
    (Net.Meta.Layout.fields env.Tsp.layout);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Table-instance cache                                                *)
(* ------------------------------------------------------------------ *)

let ftinst t (env : Tsp.env) ~tsp (ct : Template.compiled_table) =
  let name = ct.Template.ct_name in
  let key = string_of_int tsp ^ "|" ^ name in
  let ctd = ct_digest ct in
  let resolved = env.Tsp.find_table ~tsp name in
  let remember fi =
    if not (List.exists (fun f -> f.fi_stamp = fi.fi_stamp) t.used) then
      t.used <- fi :: t.used;
    fi
  in
  match Hashtbl.find_opt t.fts key with
  | Some fi
    when fi.fi_fp = t.env_fp && fi.fi_ct = ctd
         && (match (fi.fi_ft.Flat.ft_table, resolved) with
            | Some a, Some b -> a == b
            | None, None -> true
            | _ -> false) ->
    remember fi
  | _ ->
    let ft = Flat.compile_ftable env ~tsp ct in
    t.ft_stamp <- t.ft_stamp + 1;
    let fi = { fi_ft = ft; fi_stamp = t.ft_stamp; fi_ct = ctd; fi_fp = t.env_fp } in
    Hashtbl.replace t.fts key fi;
    remember fi

(* First-match-wins view of a table's contents for chain compilation.
   lpm/tcam/hash reuse the engine's ordered flat views verbatim; the
   exact index (hashtable at lookup time) becomes a scan over its
   entries — unique keys, so order is irrelevant. *)
let scan_view (ft : Flat.ftable) (table : Table.t) =
  let eng = Table.engine table in
  let v = E.view eng in
  ft.Flat.ft_gen <- v.E.v_gen;
  match v.E.v_kind with
  | E.V_scan ments -> `Scan ments
  | E.V_hash (ments, _) -> `Hash ments
  | E.V_exact _ -> `Scan (E.scan_of_entries eng)

(* ------------------------------------------------------------------ *)
(* Node constructors (effects fold the [Flat] lookup protocol)          *)
(* ------------------------------------------------------------------ *)

let guard t next =
  cons t
    (Printf.sprintf "G|%d" next.n_id)
    (K_guard next)
    (fun e -> if F.dropped e.Flat.ev_fp then done_node else next)

let slot_node t ~(probe : Telemetry.stage_probe) (slot : Tsp.slot) ~tmpl_cycles
    next =
  let tsp = slot.Tsp.id in
  cons t
    (Printf.sprintf "S|%d|%d|%d" tsp tmpl_cycles next.n_id)
    (K_slot { tsp; tmpl_cycles; next })
    (fun e ->
      slot.Tsp.packets <- slot.Tsp.packets + 1;
      Telemetry.Counter.incr probe.Telemetry.sp_packets;
      let fp = e.Flat.ev_fp in
      fp.F.cycles <- fp.F.cycles + tmpl_cycles;
      next)

let parse_node t ~(probe : Telemetry.stage_probe) ~tsp ~pph fg
    (hdrs : string list) next =
  let ids = Array.of_list (List.map Net.Intern.id hdrs) in
  cons t
    (Printf.sprintf "P|%d|%d|%s|%d" t.env_fp_id tsp (String.concat "," hdrs)
       next.n_id)
    (K_parse { tsp; hdrs; next })
    (fun e ->
      let fp = e.Flat.ev_fp in
      let before = fp.F.parse_attempts in
      for i = 0 to Array.length ids - 1 do
        ignore (Flat.ensure_parsed fg fp ids.(i))
      done;
      let parsed_now = fp.F.parse_attempts - before in
      fp.F.cycles <- fp.F.cycles + (parsed_now * pph);
      Telemetry.Counter.add probe.Telemetry.sp_parse_ops parsed_now;
      (* Stage entry, as in [Flat.link_fstage]: fresh lookup registers. *)
      e.Flat.ev_args <- Flat.empty_args;
      e.Flat.ll_present <- false;
      next)

let cond_node t env (c : Rp4.Ast.cond) ~yes ~no =
  let repr = cond_repr c in
  let f = Flat.compile_fcond env ~params:[] c in
  cons t
    (Printf.sprintf "C|%d|%s|%d|%d" t.env_fp_id repr yes.n_id no.n_id)
    (K_cond { repr; yes; no })
    (fun e -> if f e then yes else no)

let fail_node t msg =
  cons t ("X|" ^ msg) (K_fail msg)
    (fun _ -> raise (Action_eval.Runtime_error msg))

let act_node t env ~(probe : Telemetry.stage_probe) ~tsp ~case ~exec_base
    (a : Rp4.Ast.action_decl) next =
  let fa = Flat.compile_faction env a in
  cons t
    (Printf.sprintf "A|%d|%d|%b|%s|%d" t.env_fp_id tsp case (action_repr a)
       next.n_id)
    (K_act { tsp; name = a.Rp4.Ast.ad_name; case; next })
    (fun e ->
      let fp = e.Flat.ev_fp in
      fp.F.cycles <- fp.F.cycles + exec_base;
      Telemetry.Counter.incr probe.Telemetry.sp_actions;
      (* Hit-case actions bind the entry's args; defaults (and zero-param
         actions) bind none — [Flat.link_fstage]'s dispatch, baked. *)
      Flat.run_faction e fa
        (if case && fa.Flat.fa_nparams > 0 then e.Flat.ll_args
         else Flat.empty_args);
      next)

let apply_node t ~(probe : Telemetry.stage_probe) fi ~resolved next =
  let ft = fi.fi_ft in
  let step =
    if resolved then fun e ->
      let fp = e.Flat.ev_fp in
      fp.F.lookups <- fp.F.lookups + 1;
      fp.F.cycles <- fp.F.cycles + ft.Flat.ft_mem_cycles;
      Telemetry.Counter.incr probe.Telemetry.sp_lookups;
      next
    else fun e ->
      let fp = e.Flat.ev_fp in
      fp.F.lookups <- fp.F.lookups + 1;
      fp.F.cycles <- fp.F.cycles + ft.Flat.ft_mem_cycles;
      Telemetry.Counter.incr probe.Telemetry.sp_lookups;
      Flat.flat_miss probe ft e;
      next
  in
  cons t
    (Printf.sprintf "T|%d|%d" fi.fi_stamp next.n_id)
    (K_apply { table = ft.Flat.ft_name; resolved; next })
    step

let keys_node t ~(probe : Telemetry.stage_probe) fi (table : Table.t) ~ok
    ~invalid =
  let ft = fi.fi_ft in
  let eng = Table.engine table in
  cons t
    (Printf.sprintf "K|%d|%d|%d" fi.fi_stamp ok.n_id invalid.n_id)
    (K_keys { table = ft.Flat.ft_name; ok; invalid })
    (fun e ->
      if Flat.read_keys ft e 0 then begin
        eng.E.lookups <- eng.E.lookups + 1;
        ok
      end
      else begin
        Flat.flat_miss probe ft e;
        invalid
      end)

(* Entry nodes are keyed by (instance, generation, position): any table
   mutation gives its chain fresh nodes wrapping fresh [fentry] records,
   so hit counters always flow to live entries. *)
let match_node t ~(probe : Telemetry.stage_probe) fi (table : Table.t) ~gen
    ~idx (m : E.fment) ~hit ~miss =
  let ft = fi.fi_ft in
  let eng = Table.engine table in
  let flds = m.E.fm_fields and fe = m.E.fm_fe in
  cons t
    (Printf.sprintf "M|%d|%d|%d|%d|%d" fi.fi_stamp gen idx hit.n_id miss.n_id)
    (K_match { table = ft.Flat.ft_name; pat = fment_repr m; hit; miss })
    (fun e ->
      if Flat.fment_matches ft e flds 0 then begin
        Flat.flat_hit probe ft e eng fe;
        hit
      end
      else miss)

let default_node t ~(probe : Telemetry.stage_probe) fi ~present ~tag next =
  let ft = fi.fi_ft in
  let step =
    if present then fun e ->
      e.Flat.ll_present <- true;
      e.Flat.ll_tag <- tag;
      e.Flat.ll_hit <- false;
      e.Flat.ll_hits <- 0;
      e.Flat.ll_args <- Flat.empty_args;
      Telemetry.Counter.incr probe.Telemetry.sp_misses;
      Telemetry.Counter.incr ft.Flat.ft_miss_ctr;
      e.Flat.ev_fp.F.meta.(Net.Meta.slot_switch_tag) <- tag land 0xFFFF;
      next
    else fun e ->
      Flat.flat_miss probe ft e;
      next
  in
  cons t
    (Printf.sprintf "D|%d|%b|%d|%d" fi.fi_stamp present tag next.n_id)
    (K_default { table = ft.Flat.ft_name; present; tag; next })
    step

let hash_node t ~(probe : Telemetry.stage_probe) fi (table : Table.t) ~gen
    (ments : E.fment array) ~(on_entry : node array) ~default =
  let ft = fi.fi_ft in
  let eng = Table.engine table in
  let cand = Array.make (max 1 (Array.length ments)) 0 in
  cons t
    (Printf.sprintf "H|%d|%d|%s|%d" fi.fi_stamp gen
       (String.concat ","
          (Array.to_list (Array.map (fun n -> string_of_int n.n_id) on_entry)))
       default.n_id)
    (K_hash
       {
         table = ft.Flat.ft_name;
         pats = Array.map fment_repr ments;
         on_entry;
         default;
       })
    (fun e ->
      let n = Flat.collect_cands ft e ments cand 0 0 in
      if n = 0 then default
      else begin
        let i = cand.(Flat.hash_key ft e mod n) in
        Flat.flat_hit probe ft e eng ments.(i).E.fm_fe;
        on_entry.(i)
      end)

(* Virtualized table: entries cannot be baked into the diagram (the hot
   tier mutates per packet), so the node runs [Flat.apply_ftable] — the
   exact tier-aware lookup the flat path uses, penalty and promotion
   included — and dispatches on the outcome registers to continuations
   compiled per declared case tag. The node's key carries no generation:
   content churn on a virtualized table never resplices the diagram. *)
let vprobe_node t ~(probe : Telemetry.stage_probe) fi ~(case_tags : int array)
    ~(on_case : node array) ~lose =
  let ft = fi.fi_ft in
  cons t
    (Printf.sprintf "V|%d|%s|%d" fi.fi_stamp
       (String.concat ","
          (Array.to_list
             (Array.map2
                (fun tag (n : node) -> Printf.sprintf "%d:%d" tag n.n_id)
                case_tags on_case)))
       lose.n_id)
    (K_vprobe
       {
         table = ft.Flat.ft_name;
         cases = Array.map2 (fun tag n -> (tag, n)) case_tags on_case;
         lose;
       })
    (fun e ->
      Flat.apply_ftable probe ft e;
      if e.Flat.ll_hit then begin
        let i = Flat.find_case case_tags e.Flat.ll_tag 0 in
        if i >= 0 then on_case.(i) else lose
      end
      else lose)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Lookup outcome tracked at compile time; the executor continuation is
   instantiated per outcome instead of dispatching per packet. *)
type outcome = O_none | O_hit of int | O_lose

let memo_k (k : outcome -> node) =
  let cache = ref [] in
  fun o ->
    match List.assoc_opt o !cache with
    | Some n -> n
    | None ->
      let n = k o in
      cache := (o, n) :: !cache;
      n

let rec chain_actions t env ~probe ~tsp ~case ~exec_base acts next =
  match acts with
  | [] -> next
  | a :: rest ->
    act_node t env ~probe ~tsp ~case ~exec_base a
      (chain_actions t env ~probe ~tsp ~case ~exec_base rest next)

(* [Tsp.run_executor] / [Flat.link_fstage] dispatch, resolved statically:
   no lookup = skip; hit with a matching case = that case's actions with
   entry args; anything else that looked up = default actions. *)
let executor t env ~probe ~tsp ~exec_base (cs : Template.compiled_stage) next
    (o : outcome) =
  match o with
  | O_none -> next
  | O_hit tag when List.mem_assoc tag cs.Template.cs_cases ->
    chain_actions t env ~probe ~tsp ~case:true ~exec_base
      (List.assoc tag cs.Template.cs_cases)
      next
  | O_hit _ | O_lose ->
    chain_actions t env ~probe ~tsp ~case:false ~exec_base
      cs.Template.cs_default next

let comp_apply t env ~probe ~tsp ~(case_tags : int array)
    (ct : Template.compiled_table) (k : outcome -> node) =
  let k = memo_k k in
  let fi = ftinst t env ~tsp ct in
  let ft = fi.fi_ft in
  match ft.Flat.ft_table with
  | None -> apply_node t ~probe fi ~resolved:false (k O_lose)
  | Some table when Table.virtualized table ->
    (* Hot-tier state is per packet; bake the outcome continuations only
       and resolve the lookup live through the engine. *)
    vprobe_node t ~probe fi ~case_tags
      ~on_case:(Array.map (fun tag -> k (O_hit tag)) case_tags)
      ~lose:(k O_lose)
  | Some table ->
    let gen = Table.generation table in
    let def_present, def_tag =
      match Table.default table with
      | Some (a, _) ->
        (true, match int_of_string_opt a with Some x -> x | None -> 0)
      | None -> (false, 0)
    in
    let k_lose = k O_lose in
    let dnode = default_node t ~probe fi ~present:def_present ~tag:def_tag k_lose in
    let body =
      match scan_view ft table with
      | `Scan ments ->
        let n = Array.length ments in
        let rec build i =
          if i >= n then dnode
          else
            match_node t ~probe fi table ~gen ~idx:i ments.(i)
              ~hit:(k (O_hit ments.(i).E.fm_fe.E.fe_tag))
              ~miss:(build (i + 1))
        in
        build 0
      | `Hash ments ->
        let on_entry =
          Array.map (fun (m : E.fment) -> k (O_hit m.E.fm_fe.E.fe_tag)) ments
        in
        hash_node t ~probe fi table ~gen ments ~on_entry ~default:dnode
    in
    let keys = keys_node t ~probe fi table ~ok:body ~invalid:k_lose in
    apply_node t ~probe fi ~resolved:true keys

let rec comp_matcher t env ~probe ~tsp (cs : Template.compiled_stage)
    (m : Rp4.Ast.matcher) (o : outcome) (k : outcome -> node) : node =
  match m with
  | Rp4.Ast.M_nop -> k o
  | Rp4.Ast.M_seq ms ->
    let rec go ms o =
      match ms with
      | [] -> k o
      | m :: rest -> comp_matcher t env ~probe ~tsp cs m o (fun o' -> go rest o')
    in
    go ms o
  | Rp4.Ast.M_if (c, a, b) ->
    (* Both branches are compiled (and may hash-cons to the same node),
       but the condition is always evaluated: it can raise on an invalid
       header read, exactly as the flat closure does. *)
    let yes = comp_matcher t env ~probe ~tsp cs a o k in
    let no = comp_matcher t env ~probe ~tsp cs b o k in
    cond_node t env c ~yes ~no
  | Rp4.Ast.M_apply tname -> (
    match
      List.find_opt
        (fun (ct : Template.compiled_table) -> ct.Template.ct_name = tname)
        cs.Template.cs_tables
    with
    | None ->
      fail_node t
        (Printf.sprintf "stage %s applies table %s missing from template"
           cs.Template.cs_name tname)
    | Some ct ->
      let case_tags = Array.of_list (List.map fst cs.Template.cs_cases) in
      comp_apply t env ~probe ~tsp ~case_tags ct k)

let comp_stage t env ~probe ~tsp fg (cs : Template.compiled_stage) next =
  let cfg = env.Tsp.cycles_cfg in
  let k = memo_k (executor t env ~probe ~tsp ~exec_base:cfg.Cycles.executor_base cs next) in
  let matcher = comp_matcher t env ~probe ~tsp cs cs.Template.cs_matcher O_none k in
  parse_node t ~probe ~tsp ~pph:cfg.Cycles.parse_per_header fg
    cs.Template.cs_parser matcher

let comp_slot t env fg (slot : Tsp.slot) (tmpl : Template.t) next =
  let tsp = slot.Tsp.id in
  let probe = env.Tsp.probes.(tsp) in
  let tmpl_cycles = Cycles.template_cycles env.Tsp.cycles_cfg in
  let rec stages = function
    | [] -> next
    | cs :: rest -> guard t (comp_stage t env ~probe ~tsp fg cs (stages rest))
  in
  guard t (slot_node t ~probe slot ~tmpl_cycles (stages tmpl.Template.stages))

(* Everything a compiled slot depends on: its template write stamp, the
   environment, its continuation, and the (instance, generation) of every
   table it touches. A matching memo entry is reused without recompiling. *)
let slot_memo_key t env (slot : Tsp.slot) (tmpl : Template.t) next =
  let b = Buffer.create 64 in
  Buffer.add_string b (string_of_int slot.Tsp.id);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int slot.Tsp.stamp);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int t.env_fp_id);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int next.n_id);
  List.iter
    (fun (ct : Template.compiled_table) ->
      let fi = ftinst t env ~tsp:slot.Tsp.id ct in
      Buffer.add_char b '|';
      Buffer.add_string b (string_of_int fi.fi_stamp);
      Buffer.add_char b ':';
      Buffer.add_string b
        (match fi.fi_ft.Flat.ft_table with
        (* Virtualized tables compile to live probes: their content
           churn must not invalidate the slot memo. *)
        | Some tb when Table.virtualized tb -> "V"
        | Some tb -> string_of_int (Table.generation tb)
        | None -> "-"))
    (Template.tables tmpl);
  Buffer.contents b

let comp_half t env fg ~fresh ~dirty (slots : Tsp.slot array) gaps : node =
  let rec go i =
    if i >= Array.length slots then done_node
    else begin
      let next = go (i + 1) in
      let slot = slots.(i) in
      match slot.Tsp.template with
      | None -> next
      | Some tmpl -> (
        if
          dirty <> []
          && List.exists (fun s -> List.mem s dirty) (Template.stage_names tmpl)
        then Hashtbl.remove t.memo slot.Tsp.id;
        match
          let key = slot_memo_key t env slot tmpl next in
          match (if fresh then None else Hashtbl.find_opt t.memo slot.Tsp.id) with
          | Some (k, n) when k = key -> n
          | _ ->
            let n = comp_slot t env fg slot tmpl next in
            Hashtbl.replace t.memo slot.Tsp.id (key, n);
            n
        with
        | n -> n
        | exception Flat.Unsupported reason ->
          gaps := (slot.Tsp.id, reason) :: !gaps;
          next)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Update                                                              *)
(* ------------------------------------------------------------------ *)

(* (Re)compile the diagram against the device's current state. With the
   persistent store this *is* the incremental splice: unchanged slots hit
   the per-slot memo, unchanged subdiagrams hash-cons to existing nodes,
   and only the blast radius allocates. [~fresh:true] bypasses the memo —
   the from-scratch oracle; it must produce pointer-equal roots.
   [?dirty_stages] (the [Analysis.Impact] blast radius, when the caller
   has one) force-invalidates the memo for the named stages on top of the
   automatic staleness detection. *)
let update t (env : Tsp.env) ~ingress ~egress ?(dirty_stages = [])
    ?(fresh = false) () =
  let fp = env_fingerprint env in
  if fp <> t.env_fp then begin
    t.env_fp <- fp;
    t.env_fp_id <- t.env_fp_id + 1;
    (* Resolved ids/offsets changed under every compiled closure: drop
       the store wholesale and re-derive. *)
    Hashtbl.reset t.cons;
    Hashtbl.reset t.fts;
    Hashtbl.reset t.memo;
    (match Flat.build_fpgraph env.Tsp.registry with
    | g ->
      t.fg <- Some g;
      t.fg_reason <- ""
    | exception Flat.Unsupported reason ->
      t.fg <- None;
      t.fg_reason <- reason)
  end;
  t.used <- [];
  let created0 = t.created in
  let gaps = ref [] in
  (match t.fg with
  | None -> gaps := [ (-1, t.fg_reason) ]
  | Some fg ->
    t.ingress <- comp_half t env fg ~fresh ~dirty:dirty_stages ingress gaps;
    t.egress <- comp_half t env fg ~fresh ~dirty:dirty_stages egress gaps);
  t.gaps <- List.sort compare !gaps;
  t.ok <- t.gaps = [];
  t.deps <-
    Array.of_list
      (List.filter_map
         (fun fi ->
           match fi.fi_ft.Flat.ft_table with
           (* Virtualized tables are probed live, never baked: excluding
              them keeps hot-tier churn from triggering resplices. *)
           | Some tb when Table.virtualized tb -> None
           | Some tb -> Some (fi.fi_ft, tb)
           | None -> None)
         t.used);
  let made = t.created - created0 in
  if t.builds > 0 then begin
    if made > 0 then t.splices <- t.splices + 1;
    t.last_splice_nodes <- made
  end;
  t.builds <- t.builds + 1

(* Did table contents drift under the diagram? One int compare per baked
   table instance; the device resplices before forwarding when true.
   (Closed recursion: an inner [go] capturing the array would allocate a
   closure on every per-packet staleness probe.) *)
let rec stale_from (d : (Flat.ftable * Table.t) array) n i =
  if i >= n then false
  else begin
    let ft, tb = d.(i) in
    if ft.Flat.ft_gen <> Table.generation tb then true
    else stale_from d n (i + 1)
  end

let stale t = stale_from t.deps (Array.length t.deps) 0

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let rec walk scr n = if n != done_node then walk scr (n.n_step scr)

let run_ingress t fp =
  t.scr.Flat.ev_fp <- fp;
  walk t.scr t.ingress

let run_egress t fp =
  t.scr.Flat.ev_fp <- fp;
  walk t.scr t.egress

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let ready t = t.ok
let report t = t.gaps
let roots t = (t.ingress, t.egress)
let builds t = t.builds
let splices t = t.splices
let last_splice_nodes t = t.last_splice_nodes
let created t = t.created

let node_count t =
  let seen = Hashtbl.create 256 in
  let rec go n =
    if not (Hashtbl.mem seen n.n_id) then begin
      Hashtbl.add seen n.n_id ();
      iter_children n.n_kind go
    end
  in
  go t.ingress;
  go t.egress;
  Hashtbl.length seen

(* Deterministic rendering: nodes are renumbered in DFS discovery order
   from the ingress root, so the output is stable across processes and
   store histories — golden tests diff it directly. *)
let pp t =
  let buf = Buffer.create 1024 in
  let ids = Hashtbl.create 64 in
  Hashtbl.add ids done_node.n_id 0;
  let order = ref [] in
  let fresh = ref 0 in
  let rec visit n =
    if not (Hashtbl.mem ids n.n_id) then begin
      incr fresh;
      Hashtbl.add ids n.n_id !fresh;
      order := n :: !order;
      iter_children n.n_kind visit
    end
  in
  visit t.ingress;
  visit t.egress;
  let lid n = Hashtbl.find ids n.n_id in
  Buffer.add_string buf (Printf.sprintf "ingress: n%d\n" (lid t.ingress));
  Buffer.add_string buf (Printf.sprintf "egress: n%d\n" (lid t.egress));
  Buffer.add_string buf "n0: done\n";
  List.iter
    (fun n ->
      let line =
        match n.n_kind with
        | K_done -> "done"
        | K_guard nx -> Printf.sprintf "alive? -> n%d else done" (lid nx)
        | K_slot { tsp; tmpl_cycles; next } ->
          Printf.sprintf "tsp %d enter (+%dcy) -> n%d" tsp tmpl_cycles (lid next)
        | K_parse { tsp; hdrs; next } ->
          Printf.sprintf "parse[%s] @%d -> n%d" (String.concat "," hdrs) tsp
            (lid next)
        | K_cond { repr; yes; no } ->
          Printf.sprintf "if %s -> n%d else n%d" repr (lid yes) (lid no)
        | K_fail msg -> Printf.sprintf "fail %S" msg
        | K_apply { table; resolved; next } ->
          Printf.sprintf "apply %s%s -> n%d" table
            (if resolved then "" else " (unreachable: miss)")
            (lid next)
        | K_keys { table; ok; invalid } ->
          Printf.sprintf "keys %s ok-> n%d invalid-> n%d" table (lid ok)
            (lid invalid)
        | K_match { table; pat; hit; miss } ->
          Printf.sprintf "%s [%s] hit-> n%d miss-> n%d" table pat (lid hit)
            (lid miss)
        | K_default { table; present; tag; next } ->
          if present then
            Printf.sprintf "%s default tag=%d -> n%d" table tag (lid next)
          else Printf.sprintf "%s no-default miss -> n%d" table (lid next)
        | K_hash { table; pats; on_entry; default } ->
          Printf.sprintf "%s hash {%s} -> (%s) empty-> n%d" table
            (String.concat "; " (Array.to_list pats))
            (String.concat ","
               (Array.to_list
                  (Array.map (fun x -> "n" ^ string_of_int (lid x)) on_entry)))
            (lid default)
        | K_vprobe { table; cases; lose } ->
          Printf.sprintf "virt %s {%s} lose-> n%d" table
            (String.concat "; "
               (Array.to_list
                  (Array.map
                     (fun (tag, n) -> Printf.sprintf "%d-> n%d" tag (lid n))
                     cases)))
            (lid lose)
        | K_act { tsp; name; case; next } ->
          Printf.sprintf "act %s%s @%d -> n%d" name
            (if case then "" else " (default)")
            tsp (lid next)
      in
      Buffer.add_string buf (Printf.sprintf "n%d: %s\n" (lid n) line))
    (List.rev !order);
  Buffer.contents buf
