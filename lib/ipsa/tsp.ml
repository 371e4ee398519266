(* Templated Stage Processor (Sec. 2.2 of the paper).

   A TSP is a container executing whatever template is currently loaded:
   parser sub-module (on-demand distributed parsing), matcher sub-module
   (conditions + table lookups through the crossbar), executor sub-module
   (switch-tag dispatched actions). Rewriting the template retargets the
   processor in a few clock cycles — that is the in-situ update primitive. *)

type slot = {
  id : int;
  mutable template : Template.t option;
  mutable powered : bool; (* false = bypassed, low-power state *)
  mutable packets : int; (* packets this TSP actively processed *)
}

let make id =
  {
    id;
    template = None;
    powered = false;
    packets = 0;
  }

(* Derived plans (the device's flat programs) are not patched here: the
   device relinks them after the configuration patch completes. *)
let load slot template =
  slot.template <- template;
  slot.powered <- template <> None

(* Environment the TSP needs from the device: header linkage for parsing,
   the program metadata layout, and logical-table resolution through the
   crossbar. [find_table] returns [None] when the table does not exist
   *or* the crossbar does not connect this TSP to the table's memory
   blocks — an unreachable table behaves as always-miss, mirroring a
   misconfigured crossbar in hardware. The interpreter reads it per
   packet; [Flat] compiles against the same record.

   [tel] and [probes] are the telemetry handle and the per-TSP instrument
   families the device resolved at construction; with a no-op sink every
   instrument update reduces to a single dead-instrument branch. *)
type env = {
  registry : Net.Hdrdef.registry;
  layout : Net.Meta.Layout.t;
  find_table : tsp:int -> string -> Table.t option;
  cycles_cfg : Cycles.t;
  tel : Telemetry.t;
  probes : Telemetry.stage_probe array; (* indexed by TSP id *)
}

(* Read the values of a table's key fields from the packet context; [None]
   if any header field is invalid (treated as a miss). *)
let key_values (ctx : Context.t) (ct : Template.compiled_table) =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | f :: rest ->
      let a, b = Net.Fieldref.split f.Table.Key.kf_ref in
      let v =
        if a = "meta" then Some (Net.Meta.get ctx.Context.meta b)
        else Net.Pmap.get_field ctx.Context.pkt ctx.Context.pmap ~hdr:a ~field:b
      in
      (match v with
      | Some v -> go (Net.Bits.resize v f.Table.Key.kf_width :: acc) rest
      | None -> None)
  in
  go [] ct.ct_fields

let apply_table env slot (ctx : Context.t) (ct : Template.compiled_table) =
  ctx.Context.lookups <- ctx.Context.lookups + 1;
  Context.add_cycles ctx
    (Cycles.mem_access_cycles env.cycles_cfg ~entry_width:ct.Template.ct_entry_width);
  let probe = env.probes.(slot.id) in
  Telemetry.Counter.incr probe.Telemetry.sp_lookups;
  let record ~hit ~tag =
    if hit then Telemetry.Counter.incr probe.Telemetry.sp_hits
    else Telemetry.Counter.incr probe.Telemetry.sp_misses;
    if Telemetry.enabled env.tel then
      Telemetry.Counter.incr
        (Telemetry.table_counter env.tel ~table:ct.Template.ct_name ~hit);
    match ctx.Context.trace with
    | Some tr -> Telemetry.Trace.on_lookup tr ~table:ct.Template.ct_name ~hit ~tag
    | None -> ()
  in
  let miss () =
    ctx.Context.last_lookup <-
      Some { Context.lr_tag = 0; lr_args = []; lr_hit = false; lr_hits = 0 };
    record ~hit:false ~tag:0
  in
  match env.find_table ~tsp:slot.id ct.Template.ct_name with
  | None -> miss ()
  | Some table -> (
    match key_values ctx ct with
    | None -> miss ()
    | Some values -> (
      let outcome = Table.apply table values in
      (* Virtualized tables: a hot-tier miss escalated to the full table;
         charge the modeled penalty whatever the lookup concluded. *)
      if Table.tier_missed table then begin
        Context.add_cycles ctx env.cycles_cfg.Cycles.virt_miss;
        ctx.Context.virt_misses <- ctx.Context.virt_misses + 1
      end;
      match outcome with
      | Some o ->
        let tag =
          match int_of_string_opt o.Table.o_action with Some t -> t | None -> 0
        in
        ctx.Context.last_lookup <-
          Some
            {
              Context.lr_tag = tag;
              lr_args = o.Table.o_args;
              lr_hit = o.Table.o_hit;
              lr_hits = o.Table.o_hits;
            };
        record ~hit:o.Table.o_hit ~tag;
        Net.Meta.set_int ctx.Context.meta "switch_tag" tag
      | None -> miss ()))

let rec run_matcher env slot (ctx : Context.t) (cs : Template.compiled_stage) m =
  let eval_env = { Action_eval.ctx; params = [] } in
  match m with
  | Rp4.Ast.M_nop -> ()
  | Rp4.Ast.M_seq ms -> List.iter (run_matcher env slot ctx cs) ms
  | Rp4.Ast.M_if (c, a, b) ->
    if Action_eval.eval_cond eval_env c then run_matcher env slot ctx cs a
    else run_matcher env slot ctx cs b
  | Rp4.Ast.M_apply tname -> (
    match
      List.find_opt (fun ct -> ct.Template.ct_name = tname) cs.Template.cs_tables
    with
    | Some ct -> apply_table env slot ctx ct
    | None ->
      raise
        (Action_eval.Runtime_error
           (Printf.sprintf "stage %s applies table %s missing from template"
              cs.Template.cs_name tname)))

(* The executor fires only when the matcher actually performed a lookup:
   a hit dispatches on the entry's switch tag, a miss runs the default
   actions (P4 default_action semantics). A stage whose guard skipped
   every apply leaves the packet untouched. *)
let run_executor env slot (ctx : Context.t) (cs : Template.compiled_stage) =
  match ctx.Context.last_lookup with
  | None -> ()
  | Some lr ->
    let actions, args =
      match List.assoc_opt lr.Context.lr_tag cs.Template.cs_cases with
      | Some acts when lr.Context.lr_hit -> (acts, lr.Context.lr_args)
      | _ -> (cs.Template.cs_default, [])
    in
    let probe = env.probes.(slot.id) in
    List.iter
      (fun (a : Rp4.Ast.action_decl) ->
        Context.add_cycles ctx env.cycles_cfg.Cycles.executor_base;
        Telemetry.Counter.incr probe.Telemetry.sp_actions;
        (match ctx.Context.trace with
        | Some tr -> Telemetry.Trace.on_action tr
        | None -> ());
        let args =
          (* Positional binding; NoAction-style empty bodies take no args. *)
          if a.Rp4.Ast.ad_params = [] then [] else args
        in
        Action_eval.run_action ctx a args)
      actions

let run_stage env slot (ctx : Context.t) (cs : Template.compiled_stage) =
  (match ctx.Context.trace with
  | Some tr -> Telemetry.Trace.on_stage tr cs.Template.cs_name
  | None -> ());
  (* Parser sub-module: distributed on-demand parsing. *)
  let before = ctx.Context.parse_attempts in
  List.iter
    (fun hdr ->
      let attempts0 = ctx.Context.parse_attempts in
      ignore (Parse_engine.ensure_parsed ctx env.registry hdr);
      match ctx.Context.trace with
      | Some tr when ctx.Context.parse_attempts > attempts0 ->
        Telemetry.Trace.on_parse tr hdr
      | _ -> ())
    cs.Template.cs_parser;
  let parsed_now = ctx.Context.parse_attempts - before in
  Context.add_cycles ctx (parsed_now * env.cycles_cfg.Cycles.parse_per_header);
  Telemetry.Counter.add env.probes.(slot.id).Telemetry.sp_parse_ops parsed_now;
  (* Matcher then executor. A fresh stage starts with no lookup result so a
     stage without an apply falls through to its default actions. *)
  ctx.Context.last_lookup <- None;
  run_matcher env slot ctx cs cs.Template.cs_matcher;
  run_executor env slot ctx cs

(* Run a packet context through this TSP. [role] labels the traversal in a
   per-packet trace ("ingress"/"egress"); it does not affect execution. *)
let process ?(role = "") env slot (ctx : Context.t) =
  match slot.template with
  | None -> ()
  | Some _ when not slot.powered -> ()
  | Some template ->
    slot.packets <- slot.packets + 1;
    Telemetry.Counter.incr env.probes.(slot.id).Telemetry.sp_packets;
    (match ctx.Context.trace with
    | Some tr ->
      Telemetry.Trace.start tr ~tsp:slot.id ~role ~cycles:ctx.Context.cycles
    | None -> ());
    Context.add_cycles ctx (Cycles.template_cycles env.cycles_cfg);
    List.iter
      (fun cs -> if not (Context.dropped ctx) then run_stage env slot ctx cs)
      template.Template.stages;
    match ctx.Context.trace with
    | Some tr -> Telemetry.Trace.finish tr ~cycles:ctx.Context.cycles
    | None -> ()
