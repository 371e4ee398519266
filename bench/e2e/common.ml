(* What every workload shares: the closed-loop context that times ops and
   counts failures, booting the base design through [Controller.Session],
   driving 32-packet batches through [Ipsa.Device] with their output
   checks, and the reference LPM the route-churn oracle uses. *)

module B = Net.Bits
module S = Meter.Samples

(* --- closed-loop context ------------------------------------------------- *)

(* A round is one pass over a workload's fixed op sequence. Rounds are
   the unit of the stop rule: a run measures whole rounds until its
   deadline passes, so every round it reports is complete. *)
type ctx = {
  mutable deadline : float;
  mutable ops : int;
  mutable op_time : float; (* seconds inside timed library calls *)
  mutable failed : int;
  mutable op_failed : bool;
  mutable ever_failed : bool; (* any failure, warm-up included *)
  mutable messages : string list; (* the first few failure messages *)
  rounds : S.t; (* seconds per round *)
  classes : (string, S.t) Hashtbl.t; (* seconds per op, by op kind *)
  mutable round_time : float;
  mutable batches : int;
  mutable packets : int;
  mutable fallback : int; (* packets injected while the flat plan was not ready *)
}

let create_ctx () =
  {
    deadline = 0.0;
    ops = 0;
    op_time = 0.0;
    failed = 0;
    op_failed = false;
    ever_failed = false;
    messages = [];
    rounds = S.create ();
    classes = Hashtbl.create 16;
    round_time = 0.0;
    batches = 0;
    packets = 0;
    fallback = 0;
  }

(* Forget what the warm-up recorded; failures stay remembered. *)
let reset ctx =
  ctx.ops <- 0;
  ctx.op_time <- 0.0;
  ctx.failed <- 0;
  S.clear ctx.rounds;
  Hashtbl.reset ctx.classes;
  ctx.batches <- 0;
  ctx.packets <- 0;
  ctx.fallback <- 0

let samples ctx cls =
  match Hashtbl.find_opt ctx.classes cls with
  | Some s -> s
  | None ->
    let s = S.create () in
    Hashtbl.replace ctx.classes cls s;
    s

let fail ctx msg =
  ctx.op_failed <- true;
  ctx.ever_failed <- true;
  if List.length ctx.messages < 5 then ctx.messages <- ctx.messages @ [ msg ]

(* Account one completed op of kind [cls] that took [dt] seconds. *)
let record ctx cls dt =
  S.add (samples ctx cls) dt;
  ctx.ops <- ctx.ops + 1;
  ctx.op_time <- ctx.op_time +. dt;
  ctx.round_time <- ctx.round_time +. dt;
  if ctx.op_failed then ctx.failed <- ctx.failed + 1;
  ctx.op_failed <- false

(* Time [f] as one op; [check] inspects its result outside the timed
   region and reports problems through [fail]. *)
let op ctx cls ?(check = ignore) f =
  ctx.op_failed <- false;
  let t0 = Meter.now () in
  let r = f () in
  let dt = Meter.now () -. t0 in
  check r;
  record ctx cls dt;
  r

(* A round's time is the time spent inside its ops, so output checks
   and the traced run's extra probes do not count against it. *)
let rounds_until_deadline ctx round =
  let n = ref 0 in
  while !n = 0 || Meter.now () < ctx.deadline do
    ctx.round_time <- 0.0;
    Meter.op := !n;
    round ();
    S.add ctx.rounds ctx.round_time;
    incr n
  done

let or_fail what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

(* Run [f] with span recording off, so the benchmark's own checking
   apparatus stays out of the per-layer numbers. *)
let untraced f =
  let was = !Meter.enabled in
  Meter.enabled := false;
  Fun.protect ~finally:(fun () -> Meter.enabled := was) f

(* --- workloads ------------------------------------------------------------ *)

(* A diagnostic line: name, value, unit, sample count. *)
type line = string * float * string * int

type instance = {
  run : ctx -> unit; (* whole rounds until [ctx.deadline] *)
  diagnostics : ctx -> line list; (* workload-specific numbers of the last window *)
  teardown : unit -> unit;
}

type workload = {
  name : string;
  (* Generates the inputs from the seed (untimed) and returns the set-up,
     which the driver times and may call several times. *)
  generate : seed:int -> unit -> instance;
}

let p50 ctx cls = S.quantile (samples ctx cls) 0.5
let n_of ctx cls = S.count (samples ctx cls)

(* p50 and the supported tail of an op kind, scaled from seconds. *)
let latency ctx cls ~name ~scale ~unit_ =
  let s = samples ctx cls in
  let n = S.count s in
  (Printf.sprintf "%s_p50_%s" name unit_, S.quantile s 0.5 *. scale, unit_, n)
  ::
  (match S.tail s with
  | Some (label, v) -> [ (Printf.sprintf "%s_%s_%s" name label unit_, v *. scale, unit_, n) ]
  | None -> [])

(* --- control plane ------------------------------------------------------- *)

let resolve_file = function
  | "ecmp.rp4" -> Usecases.Ecmp.source
  | "srv6.rp4" -> Usecases.Srv6.source
  | "probe.rp4" -> Usecases.Flowprobe.source
  | other -> invalid_arg ("no such file " ^ other)

(* One controller command, with a span of its own when it writes a
   table entry. *)
let exec session (cmd : Controller.Command.t) =
  match cmd with
  | Controller.Command.Table_add _ ->
    Meter.span "controller.table_add" (fun () -> Controller.Session.exec session cmd)
  | Controller.Command.Table_del _ ->
    Meter.span "controller.table_del" (fun () -> Controller.Session.exec session cmd)
  | _ -> Controller.Session.exec session cmd

(* [Session.run_script] over parsed commands, one at a time so each table
   write gets its own span. *)
let rec exec_all session = function
  | [] -> Ok ()
  | cmd :: rest -> ( match exec session cmd with Ok _ -> exec_all session rest | Error e -> Error e)

let run_script session text = exec_all session (Controller.Command.parse_script text)

(* The traced run's view into [Session.boot]: the benchmark parses and
   full-compiles the same source itself, on a pool of the same shape. *)
let twin_compile ?(make_pool = Ipsa.Device.default_pool) source =
  if !Meter.enabled then begin
    let prog = Meter.span "rp4.parse" (fun () -> Rp4.Parser.parse_string source) in
    let pool = make_pool () in
    Meter.span "rp4bc.compile_full" (fun () -> Rp4bc.Compile.compile_full ~pool prog)
    |> Result.map_error (String.concat "; ")
    |> or_fail "compile_full" |> ignore
  end

(* Boot [source] on a fresh device and install the base population plus
   [extra] commands. *)
let boot ?(make_pool = Ipsa.Device.default_pool) ?telemetry ?(extra = "") ~source () =
  let device = Ipsa.Device.create ~pool:(make_pool ()) ?telemetry ~ntsps:8 () in
  let session =
    Meter.span "controller.boot" (fun () ->
        Controller.Session.boot ~resolve_file ~source device)
    |> Result.map_error (String.concat "; ")
    |> or_fail "boot"
  in
  Meter.span "controller.population" (fun () ->
      run_script session (Usecases.Base_l23.population ^ "\n" ^ extra))
  |> or_fail "population";
  (session, device)

(* The update scripts without their trailing [commit]: what gets staged
   before [Session.prepare]. *)
let staging_of script =
  Controller.Command.parse_script script |> List.filter (fun c -> c <> Controller.Command.Commit)

(* The traced run's view into [prepare]: the benchmark parses the
   snippet, runs rp4bc's incremental compile and the blast-radius
   analysis itself, on the design and pool [prepare] is about to use. *)
let twin_prepare session ~staging ~snippet =
  let func_name, cmds =
    List.fold_left
      (fun (f, cmds) -> function
        | Controller.Command.Load { func_name; _ } -> (func_name, cmds)
        | Controller.Command.Add_link (a, b) -> (f, Rp4bc.Compile.Add_link (a, b) :: cmds)
        | Controller.Command.Del_link (a, b) -> (f, Rp4bc.Compile.Del_link (a, b) :: cmds)
        | Controller.Command.Link_header { pre; next; tag } ->
          (f, Rp4bc.Compile.Link_hdr (pre, tag, next) :: cmds)
        | _ -> (f, cmds))
      ("", []) staging
  in
  let snippet = Meter.span "rp4.parse" (fun () -> Rp4.Parser.parse_string snippet) in
  let device = Controller.Session.device session in
  let old_design = Controller.Session.design session in
  match
    Meter.span "rp4bc.insert_function" (fun () ->
        Rp4bc.Compile.insert_function old_design ~snippet ~func_name ~cmds:(List.rev cmds)
          ~algo:Rp4bc.Layout.Dp ~pool:(Ipsa.Device.pool device))
  with
  | Error errs -> failwith ("insert_function: " ^ String.concat "; " errs)
  | Ok r ->
    let tables = Ipsa.Device.find_table device in
    Meter.span "analysis.impact" (fun () ->
        ignore
          (Analysis.Impact.analyze ~tables ~old_tables:tables ~old_design
             ~design:r.Rp4bc.Compile.design ()))

(* --- traffic ------------------------------------------------------------- *)

type dst = V4 of string | V6 of string | L2 (* raw destination address *)

(* One pre-rendered packet: wire bytes, ingress port, destination (for
   table probes and oracles) and the egress ports it may take. *)
type pkt = { bytes : string; in_port : int; dst : dst; expect : int list }

let router_mac = Net.Addr.Mac.of_string_exn Usecases.Base_l23.router_mac

(* Frame of exactly [size] bytes (no FCS). *)
let frame ?(in_port = 0) ~size (flow : Net.Flowgen.flow) = function
  | `V4 -> Net.Flowgen.ipv4_udp ~in_port ~payload_len:(size - 42) flow
  | `V6 -> Net.Flowgen.ipv6_udp ~in_port ~payload_len:(size - 62) flow
  | `L2 -> Net.Flowgen.l2 ~in_port ~payload_len:(size - 14) flow

let dst_of_bytes b =
  match (Char.code b.[12] lsl 8) lor Char.code b.[13] with
  | 0x0800 -> V4 (String.sub b 30 4)
  | 0x86dd -> V6 (String.sub b 38 16)
  | _ -> L2

let pkt_of (p : Net.Packet.t) expect =
  let bytes = Net.Packet.contents p in
  { bytes; in_port = p.Net.Packet.in_port; dst = dst_of_bytes bytes; expect }

(* The bits of byte [i] of an address that a [plen]-bit prefix covers. *)
let byte_mask plen i = (0xFF lsl (8 - max 0 (min 8 (plen - (8 * i))))) land 0xFF

(* A random address inside [prefix]/[plen]. *)
let inside rng prefix plen =
  let r = Prelude.Rng.bytes rng (String.length prefix) in
  String.init (String.length prefix) (fun i ->
      let m = byte_mask plen i in
      Char.chr ((Char.code prefix.[i] land m) lor (Char.code r.[i] land lnot m)))

(* --- batches --------------------------------------------------------------- *)

let batch_size = 32

(* Device.inject over the batch's packets: the context path, the
   reference the batch path must agree with byte for byte. *)
let check_against_inject ctx reference (batch : pkt array) created results =
  let outs =
    Meter.span ~items:(Array.length batch) "ipsa.inject" (fun () ->
        Array.map
          (fun p ->
            match Ipsa.Device.inject reference (Net.Packet.create ~in_port:p.in_port p.bytes) with
            | Some (port, c) -> Some (port, Net.Packet.contents c.Ipsa.Context.pkt)
            | None -> None)
          batch)
  in
  ignore (Ipsa.Device.collect_all reference);
  Array.iteri
    (fun i r ->
      let got =
        Option.map (fun br -> (br.Ipsa.Device.br_port, Net.Packet.contents created.(i))) results.(i)
      in
      if got <> r then fail ctx (Printf.sprintf "packet %d: batch path and Device.inject differ" i))
    outs

let vrf = B.of_int ~width:16 10

(* The traced run's table probes: [Table.apply] on the LPM and host
   tables with the batch's destinations, and [Net.Lpm.lookup] on the LPM
   table's trie with the same keys. *)
let probe_tables device (batch : pkt array) =
  let probe ~width ~lpm ~host addrs =
    let n = List.length addrs in
    if n > 0 then begin
      let values = List.map (fun a -> [ vrf; B.create ~width a ]) addrs in
      let apply name span =
        Option.iter
          (fun tb ->
            Meter.span ~items:n span (fun () ->
                List.iter (fun v -> ignore (Sys.opaque_identity (Table.apply tb v))) values))
          (Ipsa.Device.find_table device name)
      in
      apply lpm "table.lpm_apply";
      apply host "table.exact_apply";
      Option.iter
        (fun trie ->
          let keys = List.map (fun a -> B.to_raw_string vrf ^ a) addrs in
          Meter.span ~items:n "net.lpm_lookup" (fun () ->
              List.iter (fun k -> ignore (Sys.opaque_identity (Net.Lpm.lookup trie k))) keys))
        (Option.bind (Ipsa.Device.find_table device lpm) Table.lpm_trie)
    end
  in
  let dsts = Array.to_list batch |> List.map (fun p -> p.dst) in
  probe ~width:32 ~lpm:"ipv4_lpm" ~host:"ipv4_host"
    (List.filter_map (function V4 a -> Some a | _ -> None) dsts);
  probe ~width:128 ~lpm:"ipv6_lpm" ~host:"ipv6_host"
    (List.filter_map (function V6 a -> Some a | _ -> None) dsts)

(* One batch in this many is replayed through [Device.inject]. *)
let inject_check_every = 64

(* One op: create [batch]'s packets, [inject_batch] them, [collect_all];
   then check every packet's port, and for one batch in
   [inject_check_every] its port and bytes against [reference] driven by
   [Device.inject]. [expect_port] replaces the packets' own expected
   ports, for oracles that follow route churn. *)
let forward ctx ?(cls = "batch") ?reference ?expect_port device (batch : pkt array) =
  let n = Array.length batch in
  if not (Ipsa.Device.flat_ready device) then ctx.fallback <- ctx.fallback + n;
  ctx.batches <- ctx.batches + 1;
  ctx.packets <- ctx.packets + n;
  let check (created, results, out) =
    let delivered = ref 0 in
    Array.iteri
      (fun i r ->
        match r with
        | Some br ->
          incr delivered;
          let port = br.Ipsa.Device.br_port in
          let p = batch.(i) in
          let ok = match expect_port with Some f -> f p port | None -> List.mem port p.expect in
          if not ok then fail ctx (Printf.sprintf "packet forwarded to unexpected port %d" port)
        | None -> fail ctx "packet dropped")
      results;
    if List.length out <> !delivered then fail ctx "collect_all count differs from forwarded packets";
    match reference with
    | Some dev when ctx.batches mod inject_check_every = 1 ->
      check_against_inject ctx (Lazy.force dev) batch created results
    | _ -> ()
  in
  op ctx cls ~check (fun () ->
      let created =
        Meter.span ~items:n "net.packet_create" (fun () ->
            Array.map (fun p -> Net.Packet.create ~in_port:p.in_port p.bytes) batch)
      in
      let results =
        Meter.span ~items:n "ipsa.inject_batch" (fun () -> Ipsa.Device.inject_batch device created)
      in
      let out = Meter.span ~items:n "ipsa.collect_all" (fun () -> Ipsa.Device.collect_all device) in
      (created, results, out))
  |> ignore;
  if !Meter.enabled then probe_tables device batch

(* Drive [pkts] through [device] in batches of [batch_size], one op per
   batch; the first batch is accounted as [first_cls]. *)
let burst ctx ?(first_cls = "batch") ?reference ?expect_port device (pkts : pkt array) =
  for b = 0 to (Array.length pkts / batch_size) - 1 do
    forward ctx
      ~cls:(if b = 0 then first_cls else "batch")
      ?reference ?expect_port device
      (Array.sub pkts (b * batch_size) batch_size)
  done

(* Packets per second of time inside the packet ops of [classes]. *)
let mpps ctx classes =
  let n, t =
    List.fold_left
      (fun (n, t) c -> (n + S.count (samples ctx c), t +. S.sum (samples ctx c)))
      (0, 0.0) classes
  in
  ("fwd_mpps", float_of_int (n * batch_size) /. t /. 1e6, "Mpkt/s", n)

let batch_latency ctx = latency ctx "batch" ~name:"ipsa.batch" ~scale:1e6 ~unit_:"us"

(* --- reference LPM ------------------------------------------------------- *)

(* The route-churn oracle: one hash map per prefix length over the
   benchmark's own mirror of the installed routes, probed longest length
   first. Deliberately a different algorithm from [Net.Lpm]'s trie. *)
module Ref_lpm = struct
  type t = { width : int; by_len : (string, int) Hashtbl.t array }

  let create ~width = { width; by_len = Array.init (width + 1) (fun _ -> Hashtbl.create 64) }

  let mask a plen = String.mapi (fun i c -> Char.chr (Char.code c land byte_mask plen i)) a

  let add t ~prefix ~plen v = Hashtbl.replace t.by_len.(plen) (mask prefix plen) v
  let remove t ~prefix ~plen = Hashtbl.remove t.by_len.(plen) (mask prefix plen)

  let lookup t a =
    let rec go plen =
      if plen < 0 then None
      else if Hashtbl.length t.by_len.(plen) = 0 then go (plen - 1)
      else
        match Hashtbl.find_opt t.by_len.(plen) (mask a plen) with
        | Some v -> Some v
        | None -> go (plen - 1)
    in
    go t.width
end

(* Text forms the controller's [table_add]/[table_del] parse. *)
let v4_text a = Net.Addr.Ipv4.to_string (String.get_int32_be a 0)
let v6_text a = Net.Addr.Ipv6.to_string (Net.Addr.Ipv6.of_raw a)
