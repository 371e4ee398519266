(* Fabric simulation: a discrete-event loop carrying packets hop-by-hop
   across a topology of behavioral-model switches.

   Devices process packets synchronously, so the fabric owns all *timing*:
   virtual time advances in integer ticks through an event queue; a node
   event injects the packet into the device, reads the egress decision,
   and either delivers it (edge port), schedules an arrival at the link's
   far end ([latency] ticks later), or records a drop. Per-hop guards: a
   fabric-wide hop limit (loop protection on e.g. ring topologies), link
   queue depth (tail drop) and random link loss (seeded, deterministic).

   Maintenance windows: a fleet controller marks a node under maintenance
   for a span of virtual time ([set_maintenance]). Arrivals during the
   window follow the architecture's own semantics — an IPSA device whose
   CM was closed with [Ipsa.Device.begin_update] *buffers* them (they
   resume after the patch; the fleet pumps them back into the fabric with
   [pump_node]), a reloading PISA device *drops* them. That per-node
   difference is exactly what the rolling-rollout experiment measures at
   fabric scale. *)

type drop_reason =
  | Hop_limit
  | Link_queue
  | Link_loss
  | Node_drop (* dropped inside a device pipeline *)
  | Node_reload (* arrived at a PISA node mid-reload *)

let reason_name = function
  | Hop_limit -> "hop_limit"
  | Link_queue -> "link_queue"
  | Link_loss -> "link_loss"
  | Node_drop -> "node_drop"
  | Node_reload -> "node_reload"

type pkt_meta = {
  pm_id : int; (* fabric-wide packet sequence *)
  pm_injected_at : int;
  mutable pm_hops : int;
  mutable pm_path : (string * int) list; (* (node, in_port), reverse order *)
  mutable pm_buffered : bool; (* waited in a CM buffer during a window *)
}

type verdict =
  | Delivered of {
      d_id : int;
      d_node : string;
      d_port : int;
      d_time : int;
      d_injected_at : int;
      d_hops : int;
      d_buffered : bool;
      d_path : (string * int) list; (* injection order *)
      d_bytes : string;
      d_meta : (string * Net.Bits.t) list; (* final metadata bindings *)
    }
  | Dropped of {
      x_id : int;
      x_reason : drop_reason;
      x_where : string; (* node or link name *)
      x_time : int;
      x_hops : int;
      x_path : (string * int) list;
    }

type impl =
  | Ipsa_node of Controller.Session.t
  | Pisa_node of { device : Pisa.Device.t; mutable design : Rp4bc.Design.t }

type node = {
  n_name : string;
  n_impl : impl;
  n_tel : Telemetry.t; (* per-node registry (no-op for PISA) *)
  mutable n_maintenance_until : int;
  (* device packet id -> meta, for packets held in the device CM buffer *)
  n_pending : (int, pkt_meta) Hashtbl.t;
}

type link_state = {
  ls_link : Topo.link;
  ls_name : string;
  mutable ls_inflight : int list; (* scheduled arrival times *)
  mutable ls_peak : int;
  c_tx : Telemetry.Counter.t;
  c_drops : Telemetry.Counter.t;
}

type event =
  | Arrive of { node : string; port : int; bytes : string; meta : pkt_meta }
  | Control of (unit -> unit)

module Eq = Map.Make (struct
  type t = int * int (* time, sequence *)

  let compare = compare
end)

type t = {
  topo : Topo.t;
  nodes : (string, node) Hashtbl.t;
  node_order : string list;
  attach : (string * int, link_state * Topo.endpoint) Hashtbl.t;
  links : link_state list;
  rng : Prelude.Rng.t;
  hop_limit : int;
  virt_miss_ticks : int; (* per hot-tier miss delay added before egress *)
  tel : Telemetry.t; (* fabric-level registry *)
  c_injected : Telemetry.Counter.t;
  c_delivered : Telemetry.Counter.t;
  c_virt_delay : Telemetry.Counter.t; (* cumulative ticks of added delay *)
  mutable queue : event Eq.t;
  mutable seq : int;
  mutable now : int;
  mutable next_pkt : int;
  mutable verdicts : verdict list; (* reverse completion order *)
  mutable injected : int;
}

let nop_session_error errs = invalid_arg ("fabric boot: " ^ String.concat "; " errs)

let bundled_resolve name =
  match Filename.basename name with
  | "ecmp.rp4" -> Usecases.Ecmp.source
  | "srv6.rp4" -> Usecases.Srv6.source
  | "probe.rp4" -> Usecases.Flowprobe.source
  | other -> invalid_arg ("unknown usecase snippet " ^ other)

type arch = Ipsa | Pisa

let arch_name = function Ipsa -> "ipsa" | Pisa -> "pisa"

(* Compile the base design once per fabric for the PISA fleet (each node
   still gets its own install + population). *)
let compile_base () =
  let prog = Rp4.Parser.parse_string Usecases.Base_l23.source in
  let pool = Ipsa.Device.default_pool () in
  match Rp4bc.Compile.compile_full ~pool prog with
  | Ok c -> c.Rp4bc.Compile.design
  | Error errs -> nop_session_error errs

let boot_node ~arch ~base_design name population =
  match arch with
  | Ipsa ->
    let tel = Telemetry.create () in
    let device = Ipsa.Device.create ~telemetry:tel ~ntsps:8 () in
    let session =
      match
        Controller.Session.boot ~resolve_file:bundled_resolve
          ~source:Usecases.Base_l23.source device
      with
      | Ok s -> s
      | Error errs -> nop_session_error errs
    in
    (match Controller.Session.run_script session population with
    | Ok _ -> ()
    | Error e -> invalid_arg ("fabric population " ^ name ^ ": " ^ e));
    {
      n_name = name;
      n_impl = Ipsa_node session;
      n_tel = tel;
      n_maintenance_until = 0;
      n_pending = Hashtbl.create 8;
    }
  | Pisa ->
    let design = Lazy.force base_design in
    let device = Pisa.Device.create ~nstages:8 () in
    (match Pisa.Deploy.install device design with
    | Ok _ -> ()
    | Error e -> invalid_arg ("fabric pisa install " ^ name ^ ": " ^ e));
    (match Pisa.Deploy.populate device design population with
    | Ok _ -> ()
    | Error e -> invalid_arg ("fabric pisa population " ^ name ^ ": " ^ e));
    {
      n_name = name;
      n_impl = Pisa_node { device; design };
      n_tel = Telemetry.nop ();
      n_maintenance_until = 0;
      n_pending = Hashtbl.create 8;
    }

let create ?(seed = 42) ?(hop_limit = 16) ?(virt_miss_ticks = 0)
    ?(population = Profiles.population) ~arch (topo : Topo.t) =
  let tel = Telemetry.create () in
  let base_design = lazy (compile_base ()) in
  let nodes = Hashtbl.create 8 in
  List.iter
    (fun name ->
      Hashtbl.replace nodes name
        (boot_node ~arch ~base_design name (population topo name)))
    topo.Topo.nodes;
  let links =
    List.map
      (fun l ->
        let name = Topo.link_name l in
        {
          ls_link = l;
          ls_name = name;
          ls_inflight = [];
          ls_peak = 0;
          c_tx = Telemetry.counter ~labels:[ ("link", name) ] tel "link.tx";
          c_drops = Telemetry.counter ~labels:[ ("link", name) ] tel "link.drops";
        })
      topo.Topo.links
  in
  let attach = Hashtbl.create 16 in
  List.iter
    (fun ls ->
      let l = ls.ls_link in
      Hashtbl.replace attach (l.Topo.a.Topo.ep_node, l.Topo.a.Topo.ep_port)
        (ls, l.Topo.b);
      Hashtbl.replace attach (l.Topo.b.Topo.ep_node, l.Topo.b.Topo.ep_port)
        (ls, l.Topo.a))
    links;
  {
    topo;
    nodes;
    node_order = topo.Topo.nodes;
    attach;
    links;
    rng = Prelude.Rng.create seed;
    hop_limit;
    virt_miss_ticks;
    tel;
    c_injected = Telemetry.counter tel "fabric.injected";
    c_delivered = Telemetry.counter tel "fabric.delivered";
    c_virt_delay = Telemetry.counter tel "fabric.virt_miss_delay";
    queue = Eq.empty;
    seq = 0;
    now = 0;
    next_pkt = 0;
    verdicts = [];
    injected = 0;
  }

let node t name =
  match Hashtbl.find_opt t.nodes name with
  | Some n -> n
  | None -> invalid_arg ("fabric: unknown node " ^ name)

let topology t = t.topo
let node_order t = t.node_order

let pisa_device_exn t name =
  match (node t name).n_impl with
  | Pisa_node p -> p.device
  | Ipsa_node _ -> invalid_arg ("fabric: " ^ name ^ " is not a PISA node")

let set_pisa_design t name design =
  match (node t name).n_impl with
  | Pisa_node p -> p.design <- design
  | Ipsa_node _ -> invalid_arg ("fabric: " ^ name ^ " is not a PISA node")

let telemetry t = t.tel
let node_telemetry t name = (node t name).n_tel
let now t = t.now
let verdicts t = List.rev t.verdicts

let session t name =
  match (node t name).n_impl with
  | Ipsa_node s -> Some s
  | Pisa_node _ -> None

let schedule t ~at ev =
  let at = max at t.now in
  t.seq <- t.seq + 1;
  t.queue <- Eq.add (at, t.seq) ev t.queue

let schedule_control t ~at f = schedule t ~at (Control f)

let record_drop t meta ~reason ~where =
  Telemetry.Counter.incr
    (Telemetry.counter ~labels:[ ("reason", reason_name reason) ] t.tel
       "fabric.dropped");
  t.verdicts <-
    Dropped
      {
        x_id = meta.pm_id;
        x_reason = reason;
        x_where = where;
        x_time = t.now;
        x_hops = meta.pm_hops;
        x_path = List.rev meta.pm_path;
      }
    :: t.verdicts

let record_delivery t node ~port ~bytes ~meta_bindings meta =
  Telemetry.Counter.incr t.c_delivered;
  t.verdicts <-
    Delivered
      {
        d_id = meta.pm_id;
        d_node = node.n_name;
        d_port = port;
        d_time = t.now;
        d_injected_at = meta.pm_injected_at;
        d_hops = meta.pm_hops;
        d_buffered = meta.pm_buffered;
        d_path = List.rev meta.pm_path;
        d_bytes = bytes;
        d_meta = meta_bindings;
      }
    :: t.verdicts

(* Egress from [node] on [out_port]: deliver at an edge port, or carry
   across the attached link (capacity + loss checks), scheduling the
   arrival at the far end. *)
let emit t node ~out_port ~bytes ~meta_bindings meta =
  match Hashtbl.find_opt t.attach (node.n_name, out_port) with
  | None -> record_delivery t node ~port:out_port ~bytes ~meta_bindings meta
  | Some (ls, far) ->
    (* prune packets that have already arrived *)
    ls.ls_inflight <- List.filter (fun at -> at > t.now) ls.ls_inflight;
    if List.length ls.ls_inflight >= ls.ls_link.Topo.spec.Topo.queue_depth then begin
      Telemetry.Counter.incr ls.c_drops;
      record_drop t meta ~reason:Link_queue ~where:ls.ls_name
    end
    else if
      ls.ls_link.Topo.spec.Topo.loss_ppm > 0
      && Prelude.Rng.int t.rng 1_000_000 < ls.ls_link.Topo.spec.Topo.loss_ppm
    then begin
      Telemetry.Counter.incr ls.c_drops;
      record_drop t meta ~reason:Link_loss ~where:ls.ls_name
    end
    else begin
      let at = t.now + ls.ls_link.Topo.spec.Topo.latency in
      ls.ls_inflight <- at :: ls.ls_inflight;
      ls.ls_peak <- max ls.ls_peak (List.length ls.ls_inflight);
      Telemetry.Counter.incr ls.c_tx;
      schedule t ~at
        (Arrive
           { node = far.Topo.ep_node; port = far.Topo.ep_port; bytes; meta })
    end

(* Forward a processed packet onward, charging the modeled escalation
   latency first: each hot-tier miss the packet took inside a virtualized
   table stalls it [virt_miss_ticks] of virtual time before egress. *)
let forward t node ~out_port ~bytes ~meta_bindings ~virt_misses meta =
  let delay = t.virt_miss_ticks * virt_misses in
  if delay = 0 then emit t node ~out_port ~bytes ~meta_bindings meta
  else begin
    Telemetry.Counter.add t.c_virt_delay delay;
    schedule_control t ~at:(t.now + delay) (fun () ->
        emit t node ~out_port ~bytes ~meta_bindings meta)
  end

(* A packet reaching [node] on [port]: hop accounting, then the device. *)
let node_receive t node ~port ~bytes meta =
  meta.pm_hops <- meta.pm_hops + 1;
  meta.pm_path <- (node.n_name, port) :: meta.pm_path;
  if meta.pm_hops > t.hop_limit then
    record_drop t meta ~reason:Hop_limit ~where:node.n_name
  else
    let pkt = Net.Packet.create ~in_port:port bytes in
    (* Per-hop processing rides the devices' batch path: a single-packet
       batch runs the flat engine over ring-recycled flat records, and
       degrades to the context interpreter when the flat subset does not
       cover the design — same observable outcome. *)
    match node.n_impl with
    | Pisa_node p -> (
      match Pisa.Device.inject_batch p.device [| pkt |] with
      | [| Some r |] ->
        let out_port = r.Ipsa.Device.br_port in
        ignore (Pisa.Device.collect p.device out_port);
        forward t node ~out_port
          ~bytes:(Net.Packet.contents pkt)
          ~meta_bindings:r.Ipsa.Device.br_meta
          ~virt_misses:r.Ipsa.Device.br_virt_misses meta
      | _ ->
        if Pisa.Device.reloading p.device then
          record_drop t meta ~reason:Node_reload ~where:node.n_name
        else record_drop t meta ~reason:Node_drop ~where:node.n_name)
    | Ipsa_node session -> (
      let device = Controller.Session.device session in
      match Ipsa.Device.inject_batch device [| pkt |] with
      | [| Some r |] ->
        let out_port = r.Ipsa.Device.br_port in
        ignore (Ipsa.Device.collect device out_port);
        forward t node ~out_port
          ~bytes:(Net.Packet.contents pkt)
          ~meta_bindings:r.Ipsa.Device.br_meta
          ~virt_misses:r.Ipsa.Device.br_virt_misses meta
      | _ ->
        if Ipsa.Device.updating device then begin
          (* CM back-pressure: the packet waits, id-stamped, in the input
             buffer; [pump_node] re-emits it after the update. *)
          meta.pm_buffered <- true;
          Hashtbl.replace node.n_pending (Net.Packet.id pkt) meta
        end
        else record_drop t meta ~reason:Node_drop ~where:node.n_name)

(* After an IPSA update flushed its CM buffer, the released packets sit in
   the device output queues: match them back to their in-fabric metadata
   (by device packet id) and send them on their way. Anything still
   pending after the sweep was dropped inside the new pipeline. *)
let pump_node t name =
  let node = node t name in
  (match node.n_impl with
  | Pisa_node _ -> ()
  | Ipsa_node session ->
    let device = Controller.Session.device session in
    for port = 0 to Ipsa.Device.nports device - 1 do
      List.iter
        (fun pkt ->
          match Hashtbl.find_opt node.n_pending (Net.Packet.id pkt) with
          | Some meta ->
            Hashtbl.remove node.n_pending (Net.Packet.id pkt);
            emit t node ~out_port:port
              ~bytes:(Net.Packet.contents pkt)
              ~meta_bindings:[] meta
          | None -> ())
        (Ipsa.Device.collect device port)
    done);
  let leftovers = Hashtbl.fold (fun _ m acc -> m :: acc) node.n_pending [] in
  Hashtbl.reset node.n_pending;
  List.iter
    (fun meta -> record_drop t meta ~reason:Node_drop ~where:node.n_name)
    (List.sort (fun a b -> compare a.pm_id b.pm_id) leftovers)

let set_maintenance t name ~until = (node t name).n_maintenance_until <- until

(* Virtualize every table on every IPSA node, capping each hot tier at
   [pct]% of the table's populated entry count — the whole-fabric
   residency knob of the rollout-under-memory-pressure experiment. PISA
   nodes are untouched (their local table memory is not virtualizable). *)
let virtualize_all t ~pct =
  if pct <= 0 || pct > 100 then invalid_arg "Sim.virtualize_all: pct in 1..100";
  Hashtbl.iter
    (fun _ n ->
      match n.n_impl with
      | Pisa_node _ -> ()
      | Ipsa_node session ->
        let device = Controller.Session.device session in
        List.iter
          (fun name ->
            match Ipsa.Device.find_table device name with
            | Some tb ->
              Table.virtualize tb
                ~capacity:(max 1 (Table.entry_count tb * pct / 100))
            | None -> ())
          (Ipsa.Device.table_names device))
    t.nodes

(* Inject external traffic at an edge port. *)
let inject t ~at ~node:name ~port bytes =
  t.next_pkt <- t.next_pkt + 1;
  t.injected <- t.injected + 1;
  Telemetry.Counter.incr t.c_injected;
  let meta =
    {
      pm_id = t.next_pkt;
      pm_injected_at = max at t.now;
      pm_hops = 0;
      pm_path = [];
      pm_buffered = false;
    }
  in
  schedule t ~at (Arrive { node = name; port; bytes; meta });
  meta.pm_id

(* Drain the event queue to quiescence. *)
let run t =
  let rec loop () =
    match Eq.min_binding_opt t.queue with
    | None -> ()
    | Some (((time, _) as key), ev) ->
      t.queue <- Eq.remove key t.queue;
      t.now <- max t.now time;
      (match ev with
      | Arrive { node = name; port; bytes; meta } ->
        node_receive t (node t name) ~port ~bytes meta
      | Control f -> f ());
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

type summary = {
  s_injected : int;
  s_delivered : int;
  s_dropped : int;
  s_delayed : int; (* delivered after waiting in a CM buffer *)
  s_by_reason : (string * int) list; (* sorted by reason name *)
  s_by_exit : (string * int * int) list; (* (node, port, count), sorted *)
  s_max_latency : int;
  s_in_flight : int; (* injected but neither delivered nor dropped *)
}

let summarize t =
  let delivered = ref 0 and dropped = ref 0 and delayed = ref 0 in
  let max_latency = ref 0 in
  let reasons = Hashtbl.create 8 and exits = Hashtbl.create 8 in
  List.iter
    (fun v ->
      match v with
      | Delivered d ->
        incr delivered;
        if d.d_buffered then incr delayed;
        max_latency := max !max_latency (d.d_time - d.d_injected_at);
        let k = (d.d_node, d.d_port) in
        Hashtbl.replace exits k (1 + Option.value ~default:0 (Hashtbl.find_opt exits k))
      | Dropped x ->
        incr dropped;
        let k = reason_name x.x_reason in
        Hashtbl.replace reasons k
          (1 + Option.value ~default:0 (Hashtbl.find_opt reasons k)))
    t.verdicts;
  {
    s_injected = t.injected;
    s_delivered = !delivered;
    s_dropped = !dropped;
    s_delayed = !delayed;
    s_by_reason =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) reasons [] |> List.sort compare;
    s_by_exit =
      Hashtbl.fold (fun (n, p) v acc -> (n, p, v) :: acc) exits []
      |> List.sort compare;
    s_max_latency = !max_latency;
    s_in_flight = t.injected - !delivered - !dropped;
  }

(* Refresh per-node pull-style gauges, then merge: fabric registry plus
   one JSON object per node. *)
let telemetry_json t =
  let module J = Prelude.Json in
  List.iter
    (fun name ->
      match (node t name).n_impl with
      | Ipsa_node s -> Ipsa.Device.refresh_telemetry (Controller.Session.device s)
      | Pisa_node _ -> ())
    t.node_order;
  List.iter
    (fun ls ->
      Telemetry.Gauge.set
        (Telemetry.gauge ~labels:[ ("link", ls.ls_name) ] t.tel "link.peak_inflight")
        ls.ls_peak)
    t.links;
  J.Obj
    [
      ("fabric", Telemetry.to_json t.tel);
      ( "nodes",
        J.Obj
          (List.map
             (fun name -> (name, Telemetry.to_json (node t name).n_tel))
             t.node_order) );
    ]
