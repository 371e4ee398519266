(* ipbm — the IPSA behavioral-model software switch (Sec. 4.1).

   Four modules, as in the paper:
   - CM  (communication): [inject]/[collect] packet I/O with an input
     buffer that back-pressures during updates,
   - PM  (pipeline): the elastic TSP pipeline and TM,
   - SM  (storage): the disaggregated memory pool, crossbar and the
     logical tables living in it,
   - CCM (control channel): [apply_patch], which drains the pipeline,
     applies a configuration patch and resumes.

   In-situ updates lose no packets: in-flight packets finish, arriving
   packets wait in the CM buffer. The companion PISA model reloads the
   whole design instead and drops arrivals — the behavioural contrast the
   paper's Table 1 quantifies. *)

let log = Logs.Src.create "ipsa.device" ~doc:"ipbm device"

module Log = (val Logs.src_log log : Logs.LOG)
module F = Net.Flatpkt

type stats = {
  mutable injected : int;
  mutable forwarded : int;
  mutable dropped : int;
  mutable buffered_during_update : int;
  mutable updates_applied : int;
  mutable stall_cycles : int; (* cumulative pipeline-stall cycles *)
  mutable total_cycles : int; (* cumulative packet-processing cycles *)
}

(* Device-level telemetry instruments, resolved once at construction so
   the packet path never performs a registry lookup. Dead instruments
   (no-op sink) make every update a single branch. *)
type instruments = {
  i_injected : Telemetry.Counter.t;
  i_forwarded : Telemetry.Counter.t;
  i_dropped : Telemetry.Counter.t;
  i_buffered : Telemetry.Counter.t;
  i_updates : Telemetry.Counter.t;
  i_stall_cycles : Telemetry.Counter.t;
  i_cycles : Telemetry.Counter.t;
  h_packet_cycles : Telemetry.Histogram.t;
}

type t = {
  registry : Net.Hdrdef.registry;
  meta_layout : Net.Meta.Layout.t; (* program metadata fields, dense slots *)
  pool : Mem.Pool.t;
  crossbar : Mem.Crossbar.t;
  tables : (string, Table.t) Hashtbl.t;
  allocations : (string, Mem.Pool.allocation) Hashtbl.t;
  pipeline : Pipeline.t;
  tm : Context.t Tm.t;
  cycles_cfg : Cycles.t;
  nports : int;
  outputs : Net.Packet.t Queue.t array;
  input_buffer : Net.Packet.t Queue.t;
  mutable updating : bool;
  mutable next_pkt_id : int; (* per-device packet id sequence *)
  (* Batched zero-alloc plan, snapshotted by [relink]: the powered
     ingress/egress slots paired with their flat programs. [flat_ok] means
     every slot that would touch a packet compiled into the flat subset,
     so the batch path can bypass contexts entirely. *)
  mutable flat_ingress : (Tsp.slot * Flat.prog) array;
  mutable flat_egress : (Tsp.slot * Flat.prog) array;
  mutable flat_ok : bool;
  (* Per-slot reasons the flat compiler left a template to the
     interpreter, (tsp, reason), refreshed by [relink]; empty when
     [flat_ok]. *)
  mutable flat_gaps : (int * string) list;
  flat_one : F.t; (* reusable record for the single-packet fast path *)
  ring : F.Ring.t; (* reusable records for [inject_batch] *)
  stats : stats;
  tel : Telemetry.t;
  instr : instruments;
  probes : Telemetry.stage_probe array;
}

let default_pool () =
  Mem.Pool.create ~nblocks:64 ~block_width:128 ~block_depth:1024 ~nclusters:4

let create ?(ntsps = 8) ?(nports = 16) ?(cycles_cfg = Cycles.default)
    ?(crossbar_kind = Mem.Crossbar.Full) ?pool ?telemetry () =
  let pool = match pool with Some p -> p | None -> default_pool () in
  let tel = match telemetry with Some t -> t | None -> Telemetry.nop () in
  {
    registry = Net.Hdrdef.create_registry ();
    meta_layout = Net.Meta.Layout.create ();
    pool;
    crossbar = Mem.Crossbar.create ~kind:crossbar_kind ~ntsps;
    tables = Hashtbl.create 16;
    allocations = Hashtbl.create 16;
    pipeline = Pipeline.create ~ntsps;
    tm = Tm.create ~telemetry:tel ();
    cycles_cfg;
    nports;
    outputs = Array.init nports (fun _ -> Queue.create ());
    input_buffer = Queue.create ();
    updating = false;
    next_pkt_id = 0;
    flat_ingress = [||];
    flat_egress = [||];
    flat_ok = false;
    flat_gaps = [];
    flat_one = F.create ();
    ring = F.Ring.create ();
    stats =
      {
        injected = 0;
        forwarded = 0;
        dropped = 0;
        buffered_during_update = 0;
        updates_applied = 0;
        stall_cycles = 0;
        total_cycles = 0;
      };
    tel;
    instr =
      {
        i_injected = Telemetry.counter tel "device.injected";
        i_forwarded = Telemetry.counter tel "device.forwarded";
        i_dropped = Telemetry.counter tel "device.dropped";
        i_buffered = Telemetry.counter tel "device.buffered_during_update";
        i_updates = Telemetry.counter tel "device.updates_applied";
        i_stall_cycles = Telemetry.counter tel "device.stall_cycles";
        i_cycles = Telemetry.counter tel "device.total_cycles";
        h_packet_cycles = Telemetry.histogram tel "device.packet_cycles";
      };
    probes = Array.init ntsps (fun i -> Telemetry.stage_probe tel ~tsp:i);
  }

let stats t = t.stats
let pipeline t = t.pipeline
let registry t = t.registry
let pool t = t.pool
let crossbar t = t.crossbar
let telemetry t = t.tel
let nports t = t.nports
let updating t = t.updating

(* Mirror the pull-style state — pool occupancy, crossbar wiring, selector
   split — into gauges. Called after every patch; callers presenting
   metrics mid-run ([rp4c stats]) call it once more before rendering. *)
let refresh_telemetry t =
  if Telemetry.enabled t.tel then begin
    let used, free = Mem.Pool.stats t.pool in
    Telemetry.Gauge.set (Telemetry.gauge t.tel "pool.blocks_used") used;
    Telemetry.Gauge.set (Telemetry.gauge t.tel "pool.blocks_free") free;
    Telemetry.Gauge.set (Telemetry.gauge t.tel "pool.peak_used") (Mem.Pool.peak_used t.pool);
    (* Pull-style sources mirrored into counters by delta, so the
       telemetry view stays monotone however often this runs. *)
    let mirror ?labels name target =
      let c = Telemetry.counter ?labels t.tel name in
      Telemetry.Counter.add c (target - Telemetry.Counter.value c)
    in
    mirror "pool.moved_entries" (Mem.Pool.moved_entries t.pool);
    (* Virtualized tables: residency gauges + tier counters per table. *)
    Hashtbl.iter
      (fun name tb ->
        match Table.tier_stats tb with
        | None -> ()
        | Some ts ->
          let labels = [ ("table", name) ] in
          let g n v = Telemetry.Gauge.set (Telemetry.gauge ~labels t.tel n) v in
          g "table.tier_capacity" ts.Table.ts_capacity;
          g "table.tier_resident" ts.Table.ts_resident;
          g "table.tier_pinned" ts.Table.ts_pinned;
          mirror ~labels "table.tier_hits" ts.Table.ts_hits;
          mirror ~labels "table.tier_misses" ts.Table.ts_misses;
          mirror ~labels "table.tier_promotions" ts.Table.ts_promotions;
          mirror ~labels "table.tier_evictions" ts.Table.ts_evictions)
      t.tables;
    List.iter
      (fun (c, cused, ctotal) ->
        let labels = [ ("cluster", string_of_int c) ] in
        Telemetry.Gauge.set (Telemetry.gauge ~labels t.tel "pool.cluster_used") cused;
        Telemetry.Gauge.set (Telemetry.gauge ~labels t.tel "pool.cluster_total") ctotal)
      (Mem.Pool.cluster_stats t.pool);
    Telemetry.Gauge.set
      (Telemetry.gauge t.tel "crossbar.ports_in_use")
      (Mem.Crossbar.ports_in_use t.crossbar);
    Telemetry.Gauge.set
      (Telemetry.gauge t.tel "crossbar.reconfigs")
      (Mem.Crossbar.reconfigs t.crossbar);
    Telemetry.Gauge.set
      (Telemetry.gauge t.tel "crossbar.conflicts")
      (Mem.Crossbar.conflicts t.crossbar);
    Telemetry.Gauge.set
      (Telemetry.gauge t.tel "pipeline.tm_position")
      (Pipeline.tm_position t.pipeline);
    Telemetry.Gauge.set
      (Telemetry.gauge t.tel "pipeline.ingress_tsps")
      (Pipeline.ingress_count t.pipeline);
    Telemetry.Gauge.set
      (Telemetry.gauge t.tel "pipeline.egress_tsps")
      (Pipeline.egress_count t.pipeline);
    Telemetry.Gauge.set
      (Telemetry.gauge t.tel "pipeline.active_tsps")
      (Pipeline.active_count t.pipeline)
  end

let find_table t name = Hashtbl.find_opt t.tables name

(* Virtualized tables with their tier statistics, sorted by name — the
   source for [rp4c stats --virt] and the controller's residency view. *)
let virt_tables t =
  Hashtbl.fold
    (fun name tb acc ->
      match Table.tier_stats tb with
      | Some ts -> (name, Table.entry_count tb, ts) :: acc
      | None -> acc)
    t.tables []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(* Sorted for deterministic stats/trace output. *)
let table_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tables [] |> List.sort compare

(* A TSP reaches a logical table iff the crossbar connects it to every
   memory block backing the table. *)
let table_reachable t ~tsp name =
  match Hashtbl.find_opt t.allocations name with
  | None -> false
  | Some alloc ->
    List.for_all
      (fun b -> Mem.Crossbar.connected t.crossbar ~tsp ~block:b)
      alloc.Mem.Pool.blocks

(* The one environment both execution paths resolve against: the
   interpreter per packet, the flat compiler once per patch. *)
let env t : Tsp.env =
  {
    Tsp.registry = t.registry;
    layout = t.meta_layout;
    find_table =
      (fun ~tsp name ->
        if table_reachable t ~tsp name then Hashtbl.find_opt t.tables name else None);
    cycles_cfg = t.cycles_cfg;
    tel = t.tel;
    probes = t.probes;
  }

(* The linking step of template download: compile every loaded template
   into its flat form against the device's *current* registry, metadata
   layout, crossbar wiring and table set. Anything the compiler resolves
   can only change through a configuration patch, so re-linking at the
   end of [apply_patch] keeps the fast path coherent. *)
let relink t =
  let env = env t in
  let gaps = ref [] in
  let progs =
    Array.init (Pipeline.ntsps t.pipeline) (fun i ->
        match (Pipeline.slot t.pipeline i).Tsp.template with
        | None -> None
        | Some tmpl -> (
          (* A gap = the template uses something outside the flat subset
             (wide arithmetic, >56-bit selectors); the batch path then
             falls back to contexts for the whole device, and the reason
             is kept for [flat_report]. *)
          match Flat.link_explained env ~tsp:i tmpl with
          | Ok p -> Some p
          | Error reason ->
            gaps := (i, reason) :: !gaps;
            None))
  in
  t.flat_gaps <- List.rev !gaps;
  (* Snapshot the batched plan: the powered slots per role, in pipeline
     order, paired with their flat programs. *)
  let ok = ref true in
  let collect want =
    let acc = ref [] in
    for i = Pipeline.ntsps t.pipeline - 1 downto 0 do
      let slot = Pipeline.slot t.pipeline i in
      if Pipeline.role t.pipeline i = want && slot.Tsp.powered
         && slot.Tsp.template <> None
      then
        match progs.(i) with
        | Some prog -> acc := (slot, prog) :: !acc
        | None -> ok := false
    done;
    Array.of_list !acc
  in
  t.flat_ingress <- collect Pipeline.Ingress;
  t.flat_egress <- collect Pipeline.Egress;
  t.flat_ok <- !ok

(* ------------------------------------------------------------------ *)
(* PM: packet processing                                               *)
(* ------------------------------------------------------------------ *)

let account t cycles =
  t.stats.total_cycles <- t.stats.total_cycles + cycles;
  Telemetry.Counter.add t.instr.i_cycles cycles;
  Telemetry.Histogram.observe t.instr.h_packet_cycles cycles

(* The pipeline walk over an already-built context: everything
   [process_one] does except allocating the context and queueing the
   packet on its output port. Shared with the batch fallback, which does
   its own output queueing. *)
let process_ctx t ctx =
  let env = env t in
  Pipeline.process_ingress env t.pipeline ctx;
  if Context.dropped ctx then begin
    Context.finalize ctx;
    t.stats.dropped <- t.stats.dropped + 1;
    Telemetry.Counter.incr t.instr.i_dropped;
    account t ctx.Context.cycles;
    None
  end
  else begin
    ignore (Tm.enqueue t.tm ctx);
    match Tm.dequeue t.tm with
    | None -> None
    | Some ctx ->
      Pipeline.process_egress env t.pipeline ctx;
      Context.finalize ctx;
      account t ctx.Context.cycles;
      if Context.dropped ctx then begin
        t.stats.dropped <- t.stats.dropped + 1;
        Telemetry.Counter.incr t.instr.i_dropped;
        None
      end
      else begin
        t.stats.forwarded <- t.stats.forwarded + 1;
        Telemetry.Counter.incr t.instr.i_forwarded;
        let port =
          Net.Meta.get_int_slot ctx.Context.meta Net.Meta.slot_out_port mod t.nports
        in
        Some (port, ctx)
      end
  end

let process_one ?trace t pkt =
  let ctx = Context.create ?trace ~layout:t.meta_layout pkt in
  match process_ctx t ctx with
  | Some (port, ctx) as out ->
    Queue.add ctx.Context.pkt t.outputs.(port);
    out
  | None -> None

(* Restamp with this device's own id sequence, so ids are per-device
   rather than shared process-wide. *)
let stamp t pkt =
  t.next_pkt_id <- t.next_pkt_id + 1;
  Net.Packet.set_id pkt t.next_pkt_id

(* CM: packet input. During an update, packets wait in the input buffer. *)
let inject t pkt =
  stamp t pkt;
  t.stats.injected <- t.stats.injected + 1;
  Telemetry.Counter.incr t.instr.i_injected;
  if t.updating then begin
    Queue.add pkt t.input_buffer;
    t.stats.buffered_during_update <- t.stats.buffered_during_update + 1;
    Telemetry.Counter.incr t.instr.i_buffered;
    None
  end
  else process_one t pkt

(* Like [inject], but attach a per-packet stage tracer and return it with
   the outcome. Traced packets skip the update buffer: the caller wants
   this packet's path through the *current* pipeline. *)
let inject_traced t pkt =
  stamp t pkt;
  t.stats.injected <- t.stats.injected + 1;
  Telemetry.Counter.incr t.instr.i_injected;
  let trace = Telemetry.Trace.create () in
  let out = process_one ~trace t pkt in
  (out, trace)

(* ------------------------------------------------------------------ *)
(* PM: batched zero-allocation path                                     *)
(* ------------------------------------------------------------------ *)

let flat_ready t = t.flat_ok

(* Why slots are off the zero-alloc path: (tsp, reason) per fallback,
   empty when the whole plan is flat. *)
let flat_report t = t.flat_gaps

(* Mirror of [Tsp.process] over a flat packet, minus the trace hooks the
   batch path never carries. *)
let run_flat_slots t (slots : (Tsp.slot * Flat.prog) array) tmpl_cycles fp =
  for i = 0 to Array.length slots - 1 do
    if not (F.dropped fp) then begin
      let slot, prog = slots.(i) in
      slot.Tsp.packets <- slot.Tsp.packets + 1;
      Telemetry.Counter.incr t.probes.(slot.Tsp.id).Telemetry.sp_packets;
      fp.F.cycles <- fp.F.cycles + tmpl_cycles;
      Flat.run_stages prog fp
    end
  done

(* Run one flat packet through the pipeline. Returns the output port,
   [-1] for a dropped (finalized) packet, or [-2] when the TM would have
   dropped it — in that case the packet vanishes unfinalized, exactly as
   [process_ctx]'s failed enqueue / empty dequeue leaves it. *)
let process_flat t fp =
  let tc = Cycles.template_cycles t.cycles_cfg in
  run_flat_slots t t.flat_ingress tc fp;
  if F.dropped fp then begin
    F.finalize fp;
    t.stats.dropped <- t.stats.dropped + 1;
    Telemetry.Counter.incr t.instr.i_dropped;
    account t fp.F.cycles;
    -1
  end
  else if Tm.pass t.tm then begin
    run_flat_slots t t.flat_egress tc fp;
    F.finalize fp;
    account t fp.F.cycles;
    if F.dropped fp then begin
      t.stats.dropped <- t.stats.dropped + 1;
      Telemetry.Counter.incr t.instr.i_dropped;
      -1
    end
    else begin
      t.stats.forwarded <- t.stats.forwarded + 1;
      Telemetry.Counter.incr t.instr.i_forwarded;
      fp.F.out_port mod t.nports
    end
  end
  else -2

(* Fallback for [inject_flat] when the flat plan is unavailable: allocate
   a real packet and run the context pipeline (or buffer it during an
   update), exactly as [inject] would. *)
let inject_bytes_slow t ~in_port bytes =
  let pkt = Net.Packet.create ~in_port bytes in
  stamp t pkt;
  if t.updating then begin
    Queue.add pkt t.input_buffer;
    t.stats.buffered_during_update <- t.stats.buffered_during_update + 1;
    Telemetry.Counter.incr t.instr.i_buffered;
    -1
  end
  else begin
    let ctx = Context.create ~layout:t.meta_layout pkt in
    match process_ctx t ctx with Some (port, _) -> port | None -> -1
  end

(* Wire-bytes-in, port-out fast path: in steady state (plan compiled,
   no update in progress, TM empty) this allocates nothing — the flat
   record, its buffers and the ring are all reused. Output queues are
   not fed (there is no [Packet.t] to queue); callers wanting the
   transformed bytes read [flat_contents] before the next injection. *)
let inject_flat t ~in_port bytes =
  t.stats.injected <- t.stats.injected + 1;
  Telemetry.Counter.incr t.instr.i_injected;
  if t.flat_ok && (not t.updating) && Tm.length t.tm = 0 then begin
    t.next_pkt_id <- t.next_pkt_id + 1;
    let fp = t.flat_one in
    F.load fp ~layout:t.meta_layout ~in_port bytes;
    fp.F.id <- t.next_pkt_id;
    process_flat t fp
  end
  else inject_bytes_slow t ~in_port bytes

let flat_contents t = F.contents t.flat_one

(* What [inject_batch] reports per forwarded packet: enough for every
   caller of the context path ([Fabric.Sim] routing on port + metadata,
   [rp4c stats] on the accounting fields) to run on the batch path. *)
type batch_result = {
  br_port : int;
  br_meta : (string * Net.Bits.t) list;
  br_cycles : int;
  br_lookups : int;
  br_parse_attempts : int;
  br_virt_misses : int; (* hot-tier misses this packet escalated *)
}

let batch_result_of_ctx port (ctx : Context.t) =
  {
    br_port = port;
    br_meta = Net.Meta.bindings ctx.Context.meta;
    br_cycles = ctx.Context.cycles;
    br_lookups = ctx.Context.lookups;
    br_parse_attempts = ctx.Context.parse_attempts;
    br_virt_misses = ctx.Context.virt_misses;
  }

let batch_result_of_flat port (fp : F.t) =
  {
    br_port = port;
    br_meta = F.meta_bindings fp;
    br_cycles = fp.F.cycles;
    br_lookups = fp.F.lookups;
    br_parse_attempts = fp.F.parse_attempts;
    br_virt_misses = fp.F.virt_misses;
  }

(* Inject a batch of packets; slot [i] of the result describes packet
   [i] ([None] = dropped, buffered during an update, or swallowed by the
   TM). When the flat plan covers the pipeline the packets run through
   ring-recycled flat records and are written back at the edge;
   otherwise each falls back to the context path. Either way the
   device-level semantics (counters, output queues, update buffering)
   match [inject] exactly. *)
let inject_batch t (pkts : Net.Packet.t array) : batch_result option array =
  let use_flat = t.flat_ok && (not t.updating) && Tm.length t.tm = 0 in
  if use_flat then F.Ring.rewind t.ring;
  Array.map
    (fun pkt ->
      stamp t pkt;
      t.stats.injected <- t.stats.injected + 1;
      Telemetry.Counter.incr t.instr.i_injected;
      if t.updating then begin
        Queue.add pkt t.input_buffer;
        t.stats.buffered_during_update <- t.stats.buffered_during_update + 1;
        Telemetry.Counter.incr t.instr.i_buffered;
        None
      end
      else if use_flat then begin
        let fp = F.Ring.acquire t.ring in
        F.of_packet fp ~layout:t.meta_layout pkt;
        let port = process_flat t fp in
        if port >= -1 then F.to_packet fp pkt;
        if port >= 0 then begin
          Queue.add pkt t.outputs.(port);
          Some (batch_result_of_flat port fp)
        end
        else None
      end
      else begin
        let ctx = Context.create ~layout:t.meta_layout pkt in
        match process_ctx t ctx with
        | Some (port, ctx) ->
          Queue.add ctx.Context.pkt t.outputs.(port);
          Some (batch_result_of_ctx port ctx)
        | None -> None
      end)
    pkts

(* Release buffered arrivals through the (current) pipeline. *)
let flush_input_buffer t =
  let rec flush () =
    match Queue.take_opt t.input_buffer with
    | Some pkt ->
      ignore (process_one t pkt);
      flush ()
    | None -> ()
  in
  flush ()

(* Maintenance windows for multi-switch simulation. [apply_patch] is
   synchronous, so on its own the CM back-pressure window is never
   observable from outside the call; a fleet controller modelling the
   update in *virtual* time brackets it with [begin_update] ... patch ...
   ([apply_patch] reopens the input itself; [end_update] covers windows
   that end without one). Arrivals in between wait in the CM buffer and
   resume through the post-update pipeline — the paper's no-loss story. *)
let begin_update t = t.updating <- true

let end_update t =
  t.updating <- false;
  flush_input_buffer t

(* CM: packet output. *)
let collect t port =
  if port < 0 || port >= t.nports then invalid_arg "Device.collect: bad port";
  let q = t.outputs.(port) in
  let out = List.of_seq (Queue.to_seq q) in
  Queue.clear q;
  out

let collect_all t = List.concat (List.init t.nports (fun p -> collect t p))

(* ------------------------------------------------------------------ *)
(* CCM: configuration                                                  *)
(* ------------------------------------------------------------------ *)

type load_report = {
  lr_bytes : int; (* configuration volume *)
  lr_templates : int; (* templates (re)written *)
  lr_tables_created : int;
  lr_tables_freed : int;
  lr_crossbar_changes : int;
  lr_drain_cycles : int; (* pipeline stall during the patch *)
}

let apply_op t = function
  | Config.Declare_meta fields ->
    List.iter (fun (n, w) -> Net.Meta.Layout.declare t.meta_layout n w) fields;
    Ok ()
  | Config.Write_template (tsp, tmpl) ->
    if tsp < 0 || tsp >= Pipeline.ntsps t.pipeline then
      Error (Printf.sprintf "write_template: no TSP %d" tsp)
    else begin
      Tsp.load (Pipeline.slot t.pipeline tsp) tmpl;
      (* Powered state follows role. *)
      (Pipeline.slot t.pipeline tsp).Tsp.powered <-
        tmpl <> None && Pipeline.role t.pipeline tsp <> Pipeline.Bypass;
      Ok ()
    end
  | Config.Set_role (tsp, role) -> Pipeline.set_role t.pipeline tsp role
  | Config.Alloc_table (ct, cluster) ->
    if Hashtbl.mem t.tables ct.Template.ct_name then Ok () (* already present *)
    else begin
      match
        Mem.Pool.allocate_best_effort t.pool ~table:ct.Template.ct_name
          ~entry_width:ct.Template.ct_entry_width ~depth:ct.Template.ct_size ?cluster ()
      with
      | Error e -> Error e
      | Ok alloc ->
        Hashtbl.replace t.allocations ct.Template.ct_name alloc;
        let tb =
          Table.create
            {
              Table.name = ct.Template.ct_name;
              fields = ct.Template.ct_fields;
              size = ct.Template.ct_size;
            }
        in
        (* Short grant: the pool could not hold the declared depth, so
           the in-pool part becomes the hot tier and the rest lives
           controller-side — Synapse-style virtualization instead of a
           hard allocation failure. *)
        if alloc.Mem.Pool.depth < ct.Template.ct_size then begin
          Table.virtualize tb ~capacity:alloc.Mem.Pool.depth;
          Log.info (fun m ->
              m "table %s virtualized: %d of %d entries resident"
                ct.Template.ct_name alloc.Mem.Pool.depth ct.Template.ct_size)
        end;
        Hashtbl.replace t.tables ct.Template.ct_name tb;
        Ok ()
    end
  | Config.Free_table name ->
    let existed = Hashtbl.mem t.tables name in
    Hashtbl.remove t.tables name;
    Hashtbl.remove t.allocations name;
    ignore (Mem.Pool.release t.pool ~table:name);
    (* Remove any crossbar wiring to the recycled blocks. *)
    if existed then Ok () else Error (Printf.sprintf "free_table: unknown table %s" name)
  | Config.Connect_table (tsp, name) -> (
    match Hashtbl.find_opt t.allocations name with
    | None -> Error (Printf.sprintf "connect: table %s not allocated" name)
    | Some alloc ->
      let rec wire = function
        | [] -> Ok ()
        | b :: rest -> (
          let cluster = (Mem.Pool.block t.pool b).Mem.Pool.cluster in
          match Mem.Crossbar.connect t.crossbar ~tsp ~block:b ~block_cluster:cluster with
          | Ok () -> wire rest
          | Error e -> Error e)
      in
      wire alloc.Mem.Pool.blocks)
  | Config.Disconnect_table (tsp, name) -> (
    match Hashtbl.find_opt t.allocations name with
    | None -> Ok () (* freed table: wiring is already moot *)
    | Some alloc ->
      List.iter
        (fun b -> ignore (Mem.Crossbar.disconnect t.crossbar ~tsp ~block:b))
        alloc.Mem.Pool.blocks;
      Ok ())
  | Config.Add_header d ->
    Net.Hdrdef.add_def t.registry d;
    Ok ()
  | Config.Link_header { pre; tag; next } ->
    (try
       Net.Hdrdef.link t.registry ~pre ~tag:(Net.Bits.of_int64 ~width:64 tag) ~next;
       Ok ()
     with Invalid_argument e -> Error e)
  | Config.Unlink_header { pre; next } ->
    Net.Hdrdef.unlink t.registry ~pre ~next;
    Ok ()
  | Config.Set_first_header name ->
    if Net.Hdrdef.mem t.registry name then begin
      Net.Hdrdef.set_first t.registry name;
      Ok ()
    end
    else Error (Printf.sprintf "set_first_header: unknown header %s" name)

(* Apply a configuration patch with the paper's drain-rewrite-resume
   procedure: back-pressure the input, let in-flight packets finish, write
   the affected templates (a few cycles each), reconfigure selector and
   crossbar, release the input buffer. *)
let apply_patch t (patch : Config.t) : (load_report, string) result =
  t.updating <- true;
  (* Drain: finish everything queued in the TM through egress. *)
  let env_now = env t in
  let drained =
    Tm.drain t.tm (fun ctx ->
        Pipeline.process_egress env_now t.pipeline ctx;
        Context.finalize ctx;
        if Context.dropped ctx then t.stats.dropped <- t.stats.dropped + 1
        else begin
          t.stats.forwarded <- t.stats.forwarded + 1;
          let port =
            Net.Meta.get_int_slot ctx.Context.meta Net.Meta.slot_out_port
            mod t.nports
          in
          Queue.add ctx.Context.pkt t.outputs.(port)
        end)
  in
  let xbar_before = Mem.Crossbar.reconfigs t.crossbar in
  let rec apply_all = function
    | [] -> Ok ()
    | op :: rest -> (
      match apply_op t op with
      | Ok () -> apply_all rest
      | Error e -> Error e)
  in
  let result = apply_all patch.Config.ops in
  let created =
    List.length
      (List.filter (function Config.Alloc_table _ -> true | _ -> false) patch.Config.ops)
  in
  let freed =
    List.length
      (List.filter (function Config.Free_table _ -> true | _ -> false) patch.Config.ops)
  in
  t.updating <- false;
  t.stats.updates_applied <- t.stats.updates_applied + 1;
  Telemetry.Counter.incr t.instr.i_updates;
  (* Linking step of template download: recompile every loaded template
     against the post-patch registry, layout, wiring and tables — before
     buffered arrivals are released through the new pipeline. *)
  relink t;
  (* Release buffered arrivals through the (new) pipeline. *)
  flush_input_buffer t;
  match result with
  | Error e -> Error e
  | Ok () ->
    let templates = Config.templates_written patch in
    let drain_cycles =
      Pipeline.depth t.pipeline + drained + (templates * 4 (* cycles per template write *))
    in
    t.stats.stall_cycles <- t.stats.stall_cycles + drain_cycles;
    Telemetry.Counter.add t.instr.i_stall_cycles drain_cycles;
    refresh_telemetry t;
    Ok
      {
        lr_bytes = Config.byte_size patch;
        lr_templates = templates;
        lr_tables_created = created;
        lr_tables_freed = freed;
        lr_crossbar_changes = Mem.Crossbar.reconfigs t.crossbar - xbar_before;
        lr_drain_cycles = drain_cycles;
      }
