(* PISA baseline behavioral model (the bmv2 counterpart of Table 1).

   The contrast with ipbm is architectural, not semantic — packets are
   transformed by the same interpreter. What differs:

   - a standalone *front parser* extracts every header on the packet's
     parse path before the pipeline (Sec. 2.1: parsing entangled with
     processing);
   - a *fixed* pipeline of stage processors with *per-stage local memory*
     (Sec. 2.4): tables live inside the stage, no pool, no crossbar;
   - no runtime patching: any functional change requires [reload] — swap
     the whole design in, losing all table state (the controller must
     repopulate every table afterwards) and dropping packets that arrive
     during the swap window. *)

type stats = {
  mutable injected : int;
  mutable forwarded : int;
  mutable dropped : int;
  mutable dropped_during_reload : int;
  mutable reloads : int;
  mutable entries_repopulated : int;
  mutable total_cycles : int;
}

type stage = {
  id : int;
  mutable template : Ipsa.Template.t option;
  mutable flat : Ipsa.Flat.prog option; (* zero-alloc form, set at reload *)
  tables : (string, Table.t) Hashtbl.t; (* stage-local memory *)
}

type t = {
  registry : Net.Hdrdef.registry;
  mutable meta_layout : Net.Meta.Layout.t;
  stages : stage array;
  nports : int;
  outputs : Net.Packet.t Queue.t array;
  cycles_cfg : Ipsa.Cycles.t;
  mutable reloading : bool;
  (* Batched zero-alloc plan, rebuilt at reload: the flat front-parse
     graph, the header ids the front parser requests, and the flat stage
     programs in pipeline order. [flat_ok] = the whole design compiled
     into the flat subset. *)
  mutable fgraph : Ipsa.Flat.fpgraph option;
  mutable parse_ids : int array;
  mutable flat_progs : Ipsa.Flat.prog array;
  mutable flat_ok : bool;
  (* Per-stage reasons the flat compiler fell back, (stage, reason). *)
  mutable flat_gaps : (int * string) list;
  ring : Net.Flatpkt.Ring.t;
  (* The interpreter runs stages on [Ipsa.Tsp.slot]s, so each PISA stage
     keeps a persistent shim slot whose id selects the stage's local
     memory and telemetry probe. *)
  slots : Ipsa.Tsp.slot array;
  mutable next_pkt_id : int; (* per-device packet id sequence *)
  stats : stats;
  (* The PISA baseline is not instrumented: a no-op sink keeps the shared
     interpreter's telemetry cost at a single dead branch. *)
  tel : Telemetry.t;
  probes : Telemetry.stage_probe array;
}

(* PISA stages read local SRAM: one access regardless of entry width, and
   there is no per-packet template fetch. *)
let pisa_cycles =
  {
    Ipsa.Cycles.default with
    Ipsa.Cycles.bus_width_bits = 1 lsl 20;
    template_fetch = 0;
  }

let create ?(nstages = 8) ?(nports = 16) ?(cycles_cfg = pisa_cycles) () =
  let tel = Telemetry.nop () in
  {
    registry = Net.Hdrdef.create_registry ();
    meta_layout = Net.Meta.Layout.create ();
    stages =
      Array.init nstages (fun id ->
          { id; template = None; flat = None; tables = Hashtbl.create 4 });
    nports;
    outputs = Array.init nports (fun _ -> Queue.create ());
    cycles_cfg;
    reloading = false;
    fgraph = None;
    parse_ids = [||];
    flat_progs = [||];
    flat_ok = false;
    flat_gaps = [];
    ring = Net.Flatpkt.Ring.create ();
    slots = Array.init nstages Ipsa.Tsp.make;
    next_pkt_id = 0;
    tel;
    probes = Array.init nstages (fun i -> Telemetry.stage_probe tel ~tsp:i);
    stats =
      {
        injected = 0;
        forwarded = 0;
        dropped = 0;
        dropped_during_reload = 0;
        reloads = 0;
        entries_repopulated = 0;
        total_cycles = 0;
      };
  }

let stats t = t.stats
let nstages t = Array.length t.stages
let nports t = t.nports
let reloading t = t.reloading

let find_table t name =
  Array.fold_left
    (fun acc stage ->
      match acc with Some _ -> acc | None -> Hashtbl.find_opt stage.tables name)
    None t.stages

(* Sorted for deterministic stats output. *)
let table_names t =
  Array.to_list t.stages
  |> List.concat_map (fun s -> Hashtbl.fold (fun k _ acc -> k :: acc) s.tables [])
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Reload: the only way to change a PISA design                        *)
(* ------------------------------------------------------------------ *)

type reload_report = {
  rr_templates : int;
  rr_tables : int;
  rr_config_bytes : int; (* full design volume, not a diff *)
}

(* The environment the interpreter and the flat compiler resolve against:
   table resolution is per stage-local memory, dispatched on the stage
   (= shim slot) id. *)
let env t : Ipsa.Tsp.env =
  {
    Ipsa.Tsp.registry = t.registry;
    layout = t.meta_layout;
    find_table = (fun ~tsp name -> Hashtbl.find_opt t.stages.(tsp).tables name);
    cycles_cfg = t.cycles_cfg;
    tel = t.tel;
    probes = t.probes;
  }

(* Install a full design: one template (merged stage group) per physical
   stage, tables recreated empty in the hosting stage's local memory. *)
let reload t ~(registry_headers : Net.Hdrdef.t list) ~first_header
    ~(links : (string * int64 * string) list) ~(meta : (string * int) list)
    ~(templates : Ipsa.Template.t option array) : (reload_report, string) result =
  if Array.length templates > Array.length t.stages then
    Error
      (Printf.sprintf "design needs %d stages, device has %d" (Array.length templates)
         (Array.length t.stages))
  else begin
    t.stats.reloads <- t.stats.reloads + 1;
    (* wipe everything: headers, metadata, templates, tables *)
    let layout = Net.Meta.Layout.create () in
    List.iter (fun (n, w) -> Net.Meta.Layout.declare layout n w) meta;
    t.meta_layout <- layout;
    let fresh = Net.Hdrdef.create_registry () in
    List.iter (Net.Hdrdef.add_def fresh) registry_headers;
    (match first_header with
    | Some h -> Net.Hdrdef.set_first fresh h
    | None -> ());
    List.iter
      (fun (pre, tag, next) ->
        Net.Hdrdef.link fresh ~pre ~tag:(Net.Bits.of_int64 ~width:64 tag) ~next)
      links;
    (* replace registry contents in place *)
    Hashtbl.reset t.registry.Net.Hdrdef.defs;
    Hashtbl.iter (Hashtbl.replace t.registry.Net.Hdrdef.defs) fresh.Net.Hdrdef.defs;
    t.registry.Net.Hdrdef.links <- fresh.Net.Hdrdef.links;
    t.registry.Net.Hdrdef.first <- fresh.Net.Hdrdef.first;
    let total_tables = ref 0 and bytes = ref 0 in
    Array.iteri
      (fun i stage ->
        Hashtbl.reset stage.tables;
        let tmpl = if i < Array.length templates then templates.(i) else None in
        stage.template <- tmpl;
        match tmpl with
        | None -> ()
        | Some tm ->
          bytes := !bytes + Ipsa.Template.byte_size tm;
          List.iter
            (fun (ct : Ipsa.Template.compiled_table) ->
              incr total_tables;
              Hashtbl.replace stage.tables ct.Ipsa.Template.ct_name
                (Table.create
                   {
                     Table.name = ct.Ipsa.Template.ct_name;
                     fields = ct.Ipsa.Template.ct_fields;
                     size = ct.Ipsa.Template.ct_size;
                   }))
            (Ipsa.Template.tables tm))
      t.stages;
    (* Linking step: PISA performs it as part of the full-design compile,
       binding each stage's program against its local table memory. *)
    let env = env t in
    let gaps = ref [] in
    Array.iter
      (fun stage ->
        stage.flat <- None;
        match stage.template with
        | None -> ()
        | Some tmpl -> (
          match Ipsa.Flat.link_explained env ~tsp:stage.id tmpl with
          | Ok p -> stage.flat <- Some p
          | Error reason -> gaps := (stage.id, reason) :: !gaps))
      t.stages;
    t.fgraph <- Ipsa.Flat.link_parser t.registry;
    t.parse_ids <-
      Array.of_list
        (List.map
           (fun (d : Net.Hdrdef.t) -> d.Net.Hdrdef.id)
           (Net.Hdrdef.defs t.registry));
    let flat_all = ref (t.fgraph <> None) in
    let progs = ref [] in
    Array.iter
      (fun stage ->
        match (stage.template, stage.flat) with
        | Some _, Some p -> progs := p :: !progs
        | Some _, None -> flat_all := false
        | None, _ -> ())
      t.stages;
    t.flat_progs <- Array.of_list (List.rev !progs);
    t.flat_ok <- !flat_all;
    t.flat_gaps <- List.rev !gaps;
    Ok
      {
        rr_templates =
          Array.fold_left (fun n s -> if s.template = None then n else n + 1) 0 t.stages;
        rr_tables = !total_tables;
        rr_config_bytes = !bytes;
      }
  end

(* The reload window: packets injected between [begin_reload] and
   [end_reload] are lost — PISA's in-service downtime. *)
let begin_reload t = t.reloading <- true
let end_reload t = t.reloading <- false

let note_repopulated t n = t.stats.entries_repopulated <- t.stats.entries_repopulated + n

(* ------------------------------------------------------------------ *)
(* Packet processing                                                   *)
(* ------------------------------------------------------------------ *)

(* Front parser: eagerly extract the full header chain. *)
let front_parse t (ctx : Ipsa.Context.t) =
  match t.registry.Net.Hdrdef.first with
  | None -> ()
  | Some _first ->
    (* Walk as deep as the packet allows: request every defined header so
       the chain is followed to its end, as a PISA front parser would. *)
    List.iter
      (fun (def : Net.Hdrdef.t) ->
        ignore (Ipsa.Parse_engine.ensure_parsed ctx t.registry def.Net.Hdrdef.name))
      (Net.Hdrdef.defs t.registry);
    Ipsa.Context.add_cycles ctx
      (ctx.Ipsa.Context.parse_attempts * t.cycles_cfg.Ipsa.Cycles.parse_per_header)

(* The context-path pipeline walk: everything [inject] does after id
   stamping and the reload gate. Shared with the batch fallback. *)
let process_pkt t pkt =
  let ctx = Ipsa.Context.create ~layout:t.meta_layout pkt in
  front_parse t ctx;
  let env = env t in
  Array.iteri
    (fun i stage ->
      match stage.template with
      | Some tmpl when not (Ipsa.Context.dropped ctx) ->
        (* run the stage body directly on its shim slot: no per-packet
           template fetch *)
        List.iter
          (fun cs ->
            if not (Ipsa.Context.dropped ctx) then
              Ipsa.Tsp.run_stage env t.slots.(i) ctx cs)
          tmpl.Ipsa.Template.stages
      | _ -> ())
    t.stages;
  Ipsa.Context.finalize ctx;
  t.stats.total_cycles <- t.stats.total_cycles + ctx.Ipsa.Context.cycles;
  if Ipsa.Context.dropped ctx then begin
    t.stats.dropped <- t.stats.dropped + 1;
    None
  end
  else begin
    t.stats.forwarded <- t.stats.forwarded + 1;
    let port =
      Net.Meta.get_int_slot ctx.Ipsa.Context.meta Net.Meta.slot_out_port
      mod t.nports
    in
    Queue.add ctx.Ipsa.Context.pkt t.outputs.(port);
    Some (port, ctx)
  end

let inject t pkt =
  t.next_pkt_id <- t.next_pkt_id + 1;
  Net.Packet.set_id pkt t.next_pkt_id;
  t.stats.injected <- t.stats.injected + 1;
  if t.reloading then begin
    (* hard downtime: the pipeline is being swapped *)
    t.stats.dropped <- t.stats.dropped + 1;
    t.stats.dropped_during_reload <- t.stats.dropped_during_reload + 1;
    Net.Packet.drop pkt;
    None
  end
  else process_pkt t pkt

(* ------------------------------------------------------------------ *)
(* Batched zero-allocation path                                        *)
(* ------------------------------------------------------------------ *)

let flat_ready t = t.flat_ok
let flat_report t = t.flat_gaps

(* Flat mirror of [front_parse]: request every defined header. *)
let front_parse_flat t fg fp =
  match t.registry.Net.Hdrdef.first with
  | None -> ()
  | Some _ ->
    for i = 0 to Array.length t.parse_ids - 1 do
      ignore (Ipsa.Flat.ensure_parsed fg fp t.parse_ids.(i))
    done;
    fp.Net.Flatpkt.cycles <-
      fp.Net.Flatpkt.cycles
      + (fp.Net.Flatpkt.parse_attempts * t.cycles_cfg.Ipsa.Cycles.parse_per_header)

(* Flat mirror of [process_pkt] minus the packet write-back: front parse,
   the fixed stage sequence, finalize. Returns the output port or -1. *)
let process_flat t fp =
  (match t.fgraph with
  | Some fg -> front_parse_flat t fg fp
  | None -> ());
  let progs = t.flat_progs in
  for i = 0 to Array.length progs - 1 do
    if not (Net.Flatpkt.dropped fp) then Ipsa.Flat.run_stages progs.(i) fp
  done;
  Net.Flatpkt.finalize fp;
  t.stats.total_cycles <- t.stats.total_cycles + fp.Net.Flatpkt.cycles;
  if Net.Flatpkt.dropped fp then begin
    t.stats.dropped <- t.stats.dropped + 1;
    -1
  end
  else begin
    t.stats.forwarded <- t.stats.forwarded + 1;
    fp.Net.Flatpkt.out_port mod t.nports
  end

(* Batch counterpart of [inject], same result shape as the IPSA device's
   [inject_batch]. Mid-reload the whole batch is dropped (PISA downtime);
   with a flat-compiled design the packets run through ring-recycled flat
   records; otherwise each falls back to the context path. *)
let inject_batch t (pkts : Net.Packet.t array) :
    Ipsa.Device.batch_result option array =
  let use_flat = t.flat_ok && not t.reloading in
  if use_flat then Net.Flatpkt.Ring.rewind t.ring;
  Array.map
    (fun pkt ->
      t.next_pkt_id <- t.next_pkt_id + 1;
      Net.Packet.set_id pkt t.next_pkt_id;
      t.stats.injected <- t.stats.injected + 1;
      if t.reloading then begin
        t.stats.dropped <- t.stats.dropped + 1;
        t.stats.dropped_during_reload <- t.stats.dropped_during_reload + 1;
        Net.Packet.drop pkt;
        None
      end
      else if use_flat then begin
        let fp = Net.Flatpkt.Ring.acquire t.ring in
        Net.Flatpkt.of_packet fp ~layout:t.meta_layout pkt;
        let port = process_flat t fp in
        Net.Flatpkt.to_packet fp pkt;
        if port >= 0 then begin
          Queue.add pkt t.outputs.(port);
          Some (Ipsa.Device.batch_result_of_flat port fp)
        end
        else None
      end
      else
        match process_pkt t pkt with
        | Some (port, ctx) -> Some (Ipsa.Device.batch_result_of_ctx port ctx)
        | None -> None)
    pkts

let collect t port =
  let q = t.outputs.(port) in
  let out = List.of_seq (Queue.to_seq q) in
  Queue.clear q;
  out
